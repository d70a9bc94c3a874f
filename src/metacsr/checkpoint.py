"""Checkpoint serialization.

Layout: the ASCII header line ``METACSR-CKPT v1``, then one block per
tensor: a line ``<name> <ndim> <dim0> <dim1> ...`` followed immediately by
the row-major little-endian IEEE-754 32-bit payload. theta1 tensors carry a
``theta1/`` prefix and theta2 tensors ``theta2/``; a checkpoint holds the
model only, no optimizer state. Tensors are written in sorted-name order
so identical models produce identical bytes.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import fields
from pathlib import Path

import numpy as np

from .graph import INHERENT
from .params import ModelConfig, ModelParams, init_model

HEADER = b"METACSR-CKPT v1\n"
CONFIG_KEYS = tuple(f.name for f in fields(ModelConfig))
# every key a sidecar may hold; save_model writes the last two when given
SIDECAR_KEYS = frozenset(CONFIG_KEYS) | {"n_entities", "config_hash",
                                         "train_mode"}


def write_tensors(path, tensors: dict[str, np.ndarray]):
    with Path(path).open("wb") as fh:
        fh.write(HEADER)
        for name in sorted(tensors):
            if " " in name or "\n" in name:
                raise ValueError(f"tensor name {name!r} contains whitespace")
            arr = np.asarray(tensors[name], dtype="<f4")
            dims = " ".join(str(d) for d in arr.shape)
            fh.write(f"{name} {arr.ndim}{' ' + dims if dims else ''}\n"
                     .encode("ascii"))
            fh.write(arr.tobytes())


def read_tensors(path) -> dict[str, np.ndarray]:
    """Every tensor in a checkpoint file, as float64 arrays; a malformed
    file raises ValueError naming the file and the problem."""
    tensors: dict[str, np.ndarray] = {}
    with Path(path).open("rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.readline() != HEADER:
            raise ValueError(f"{path}: not a METACSR-CKPT v1 file")
        while line := fh.readline():
            try:
                name, ndim, *dims = line.decode("ascii").split()
                shape = tuple(int(d) for d in dims)
                if not line.endswith(b"\n") or int(ndim) != len(shape) or \
                        min(shape, default=0) < 0:
                    raise ValueError
            except ValueError:
                raise ValueError(f"{path}: garbled tensor header "
                                 f"{line[:80]!r}") from None
            if name in tensors:
                raise ValueError(f"{path}: tensor {name!r} appears twice")
            nbytes = 4 * math.prod(shape)
            if nbytes > size - fh.tell():
                raise ValueError(f"{path}: truncated payload for {name!r}")
            payload = np.frombuffer(fh.read(nbytes), dtype="<f4")
            tensors[name] = payload.reshape(shape).astype(np.float64)
    return tensors


def save_model(path, params: ModelParams, config_hash=None, train_mode=None):
    """Write the parameters and their sidecar ``<path>.meta.json``, which
    holds the model config, the entity count and, when given, the run's
    config hash and train mode."""
    tensors = {}
    for name, value in params.theta1.items():
        tensors[f"theta1/{name}"] = value
    for name, value in params.theta2.items():
        tensors[f"theta2/{name}"] = value
    write_tensors(path, tensors)
    meta = {k: getattr(params.config, k) for k in CONFIG_KEYS}
    meta["n_entities"] = params.n_entities
    for key, value in (("config_hash", config_hash),
                       ("train_mode", train_mode)):
        if value is not None:
            meta[key] = value
    with Path(str(path) + ".meta.json").open("w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_model(path, config_hash=None):
    """The saved ModelParams. theta1 and theta2 must hold the tensors and
    shapes :func:`init_model` gives the sidecar's config and entity count,
    or ValueError names the file and the tensor; a sidecar key outside
    ``SIDECAR_KEYS`` or any other tensor prefix is a ValueError too. When
    ``config_hash`` is given, the sidecar must exist and hold that hash."""
    tensors = read_tensors(path)
    meta_path = Path(str(path) + ".meta.json")
    config = ModelConfig()
    n_entities = stored_hash = None
    if meta_path.exists():
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
            unknown = sorted(set(meta) - SIDECAR_KEYS)
            if unknown:
                raise ValueError(f"unknown key {unknown[0]!r}")
            config = ModelConfig(**{k: meta[k] for k in CONFIG_KEYS})
            n_entities = int(meta["n_entities"])
            stored_hash = meta.get("config_hash")
        except (KeyError, TypeError, ValueError) as err:
            raise ValueError(f"{meta_path}: bad sidecar ({err!r})") from None
    if config_hash is not None and stored_hash is None:
        missing = "holds no config hash" if meta_path.exists() \
            else "is missing"
        raise ValueError(f"{path}: sidecar {meta_path.name} {missing}; "
                         f"refusing to evaluate under config {config_hash}")
    if config_hash is not None and stored_hash != config_hash:
        raise ValueError(
            f"{path}: checkpoint config hash {stored_hash} does not match the "
            f"active config {config_hash}; refusing to evaluate")
    parts = {"theta1": {}, "theta2": {}}
    for name, value in tensors.items():
        prefix, _, rest = name.partition("/")
        if prefix not in parts or not rest:
            raise ValueError(f"{path}: unknown tensor prefix in {name!r}")
        parts[prefix][rest] = value
    inherent = np.atleast_1d(parts["theta1"].get(INHERENT, ()))
    n_rows = len(inherent)      # read from the file, so bounded by its size
    try:
        # a model over no entities gives every shape but the inherent
        # table's row count
        expected = init_model(0, config, np.random.default_rng(0))
    except (TypeError, ValueError) as err:
        raise ValueError(f"{path}: config does not describe a model "
                         f"({err})") from None
    shapes = {part: {name: value.shape
                     for name, value in getattr(expected, part).items()}
              for part in ("theta1", "theta2")}
    shapes["theta1"][INHERENT] = (n_rows, config.dim)
    for part, want in shapes.items():
        got = parts[part]
        for name in sorted(set(want) | set(got)):
            if name not in got:
                raise ValueError(f"{path}: missing tensor {part}/{name}")
            if name not in want:
                raise ValueError(f"{path}: unexpected tensor {part}/{name}")
            if got[name].shape != want[name]:
                raise ValueError(
                    f"{path}: tensor {part}/{name} has shape "
                    f"{got[name].shape}, the config gives {want[name]}")
    if n_entities not in (None, n_rows):
        raise ValueError(f"{path}: tensor theta1/{INHERENT} has shape "
                         f"{inherent.shape}, the sidecar says {n_entities} "
                         "entities")
    return ModelParams(theta1=parts["theta1"], theta2=parts["theta2"],
                       config=config)
