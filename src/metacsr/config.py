"""Run configuration: one JSON document, validated up front, hashed,
and recorded with every stage's ``record.json``.

Two profiles bundle sensible defaults: "desk" (d=32, capped outer steps,
CI-friendly) and "full" (d=128, the full-scale settings). Flags win over
the config file; both go through one key and type check, so an unknown
key or a value of the wrong type in either raises ValueError.

The *core hash* covers everything that determines the trained model and
its evaluation data (seed, data, model, meta, train_mode, train_fraction)
and deliberately excludes workflow fields like the output directory or the
experiment name, so a train artifact and its matching eval runs share the
hash.
"""

from __future__ import annotations

import hashlib
import json
import typing
from dataclasses import asdict, dataclass, field

from .data import SplitSpec, SyntheticWorldSpec
from .meta import MetaConfig
from .params import ModelConfig

PROFILES = {
    "desk": {"model.dim": 32, "meta.max_outer_steps": 2000},
    "full": {"model.dim": 128, "meta.max_outer_steps": 20000},
}


@dataclass
class DataConfig:
    source: str = "synthetic"          # synthetic | movielens | tsv
    path: str | None = None
    time_range: tuple[int, int] | None = None
    eval_negatives: int = 100
    synthetic: SyntheticWorldSpec = field(default_factory=SyntheticWorldSpec)
    split: SplitSpec = field(default_factory=SplitSpec)

    def validate(self):
        if self.source not in ("synthetic", "movielens", "tsv"):
            raise ValueError(f"unknown data source {self.source!r}")
        if self.source != "synthetic" and not self.path:
            raise ValueError(f"data source {self.source!r} needs a path")
        if self.eval_negatives < 1:
            raise ValueError("eval_negatives must be >= 1")


@dataclass
class RunConfig:
    seed: int = 7
    profile: str = "desk"
    scenario: str = "cold"             # cold | warm
    train_mode: str = "meta"           # meta | joint
    train_fraction: float = 1.0
    out_dir: str = "runs/default"
    data: DataConfig = field(default_factory=DataConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    meta: MetaConfig = field(default_factory=MetaConfig)

    def validate(self):
        if self.profile not in PROFILES:
            raise ValueError(f"unknown profile {self.profile!r}")
        if self.scenario not in ("cold", "warm"):
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if self.train_mode not in ("meta", "joint"):
            raise ValueError(f"unknown train mode {self.train_mode!r}")
        if not (0.0 < self.train_fraction <= 1.0):
            raise ValueError("train_fraction must lie in (0, 1]")
        self.data.validate()
        self.model.validate()
        self.meta.validate()

    # ------------------------------------------------------- serialization

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(raw: dict) -> "RunConfig":
        raw = dict(raw)
        data = dict(raw.pop("data", {}))
        synthetic = data.pop("synthetic", {})
        split = data.pop("split", {})
        return RunConfig(
            data=DataConfig(synthetic=SyntheticWorldSpec(**synthetic),
                            split=SplitSpec(**split), **data),
            model=ModelConfig(**raw.pop("model", {})),
            meta=MetaConfig(**raw.pop("meta", {})),
            **raw,
        )

    # --------------------------------------------------------------- hashes

    def core_hash(self) -> str:
        """Hash of the reproducibility core (model + data + training)."""
        raw = self.to_dict()
        core = {key: raw[key] for key in
                ("seed", "train_mode", "train_fraction", "data", "model",
                 "meta")}
        blob = json.dumps(core, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def resolve_config(file_dict=None, overrides=None) -> RunConfig:
    """Layer the configuration sources: defaults < profile < file < flags.

    The profile fills model.dim and the outer-step cap only when the file
    and the flags stay silent about them. The result is validated.
    """
    file_dict = dict(file_dict or {})
    overrides = dict(overrides or {})
    profile = overrides.get("profile", file_dict.get("profile", "desk"))
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    merged = asdict(RunConfig())
    merged["profile"] = profile
    for dotted, value in PROFILES[profile].items():
        section, name = dotted.split(".")
        merged[section][name] = value
    for dotted, value in _leaves(file_dict):
        target, name = _field(merged, dotted)
        target[name] = _checked(dotted, value)
    for dotted, value in overrides.items():   # flag strings parse by type
        target, name = _field(merged, dotted)
        target[name] = _checked(dotted, value, flag=True)
    config = RunConfig.from_dict(merged)
    config.validate()
    return config


def _leaves(tree: dict, prefix=""):
    """(dotted key, value) for every non-dict value of a nested dict."""
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


def _field(merged: dict, dotted: str):
    """(dict, key) holding the config field ``dotted``; ValueError when
    the config has no such field or ``dotted`` names a whole section."""
    target = merged
    *sections, name = dotted.split(".")
    for part in sections:
        target = target.get(part)
        if not isinstance(target, dict):
            raise ValueError(f"unknown config key {dotted!r}")
    if name not in target:
        raise ValueError(f"unknown config key {dotted!r}")
    if isinstance(target[name], dict):
        raise ValueError(f"config key {dotted!r} is a section, not a value")
    return target, name


def _fits(value, hint) -> bool:
    """Whether ``value`` has the annotated type ``hint``: ints pass as
    floats, bools as neither, and a pair is an inclusive (lo, hi) range."""
    args = typing.get_args(hint)
    if type(None) in args:
        return value is None or _fits(value, args[0])
    if args:
        return (isinstance(value, (list, tuple)) and len(value) == 2
                and all(_fits(v, int) for v in value) and value[0] <= value[1])
    return isinstance(value, (int, float) if hint is float else hint) and (
        hint is bool or not isinstance(value, bool))


def _checked(dotted, value, flag=False):
    """``value`` (a pair as a tuple; a flag string parsed first, see
    :func:`_coerce`), or ValueError naming the key when it does not have
    the type of config field ``dotted``."""
    hint = RunConfig
    for part in dotted.split("."):
        hint = typing.get_type_hints(hint)[part]
    if flag and isinstance(value, str):
        value = _coerce(value, hint)
    if not _fits(value, hint):
        raise ValueError(f"config key {dotted!r} cannot take {value!r}")
    return tuple(value) if isinstance(value, list) else value


def _coerce(text, hint):
    """Parse a flag string by the field's annotated type ``hint``: ``null``
    is None for an optional field, an int or float field parses with
    ``int()`` or ``float()``, a str field keeps the text, a pair takes its
    JSON reading and a bool one of the words below. Text that does not
    parse is left to fail the type check."""
    args = typing.get_args(hint)
    if type(None) in args:
        if text == "null":
            return None
        hint, args = args[0], typing.get_args(args[0])
    if hint is bool:
        words = {"1": True, "true": True, "yes": True, "on": True,
                 "0": False, "false": False, "no": False, "off": False}
        return words.get(text.lower(), text)
    try:
        if hint in (int, float):
            return hint(text)
        return json.loads(text) if args else text
    except ValueError:      # json.JSONDecodeError is a ValueError
        return text
