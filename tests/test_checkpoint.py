import json
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from metacsr import checkpoint as ckpt
from metacsr import graph as gr
from metacsr.params import ModelConfig, init_model


def test_header_and_payload_bytes(tmp_path):
    path = tmp_path / "t.ckpt"
    ckpt.write_tensors(path, {"w": np.array([1.0, -2.5])})
    raw = path.read_bytes()
    assert raw.startswith(b"METACSR-CKPT v1\n")
    rest = raw[len(b"METACSR-CKPT v1\n"):]
    header, payload = rest.split(b"\n", 1)
    assert header == b"w 1 2"
    assert payload == struct.pack("<2f", 1.0, -2.5)


def test_scalar_tensor_roundtrip(tmp_path):
    path = tmp_path / "s.ckpt"
    ckpt.write_tensors(path, {"step": np.asarray(7.0)})
    back = ckpt.read_tensors(path)
    assert back["step"].shape == ()
    assert float(back["step"]) == 7.0


def test_tensors_roundtrip_with_f32_precision(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {"a/b": rng.normal(size=(3, 4)), "c": rng.normal(size=5)}
    path = tmp_path / "r.ckpt"
    ckpt.write_tensors(path, tensors)
    back = ckpt.read_tensors(path)
    for name, value in tensors.items():
        np.testing.assert_array_equal(back[name],
                                      value.astype(np.float32).astype(float))


def test_write_is_deterministic(tmp_path):
    rng = np.random.default_rng(1)
    tensors = {"b": rng.normal(size=3), "a": rng.normal(size=(2, 2))}
    p1, p2 = tmp_path / "1.ckpt", tmp_path / "2.ckpt"
    ckpt.write_tensors(p1, tensors)
    ckpt.write_tensors(p2, dict(reversed(tensors.items())))
    assert p1.read_bytes() == p2.read_bytes()


def test_rejects_foreign_file(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOT-A-CKPT\nxxxx")
    with pytest.raises(ValueError, match="not a METACSR-CKPT"):
        ckpt.read_tensors(path)


def test_rejects_truncated_payload(tmp_path):
    path = tmp_path / "trunc.ckpt"
    ckpt.write_tensors(path, {"w": np.ones(4)})
    raw = path.read_bytes()
    path.write_bytes(raw[:-3])
    with pytest.raises(ValueError, match="truncated"):
        ckpt.read_tensors(path)


def test_model_save_load_partitions(tmp_path):
    g = gr.build_interaction_graph([(0, 0), (1, 1)], 2, 3)
    config = ModelConfig(dim=5, diffusion_depth=2)
    params = init_model(g.n_entities, config, np.random.default_rng(3))
    path = tmp_path / "model.ckpt"
    ckpt.save_model(path, params)
    loaded = ckpt.load_model(path)
    assert set(loaded.theta1) == set(params.theta1)
    assert set(loaded.theta2) == set(params.theta2)
    assert loaded.config.dim == 5
    assert loaded.config.diffusion_depth == 2
    for name, value in params.theta1.items():
        np.testing.assert_array_equal(
            loaded.theta1[name], value.astype(np.float32).astype(float))


def _saved_model(tmp_path, name="m.ckpt"):
    g = gr.build_interaction_graph([(0, 0), (1, 1)], 2, 3)
    params = init_model(g.n_entities, ModelConfig(dim=3, diffusion_depth=1),
                        np.random.default_rng(4))
    path = tmp_path / name
    ckpt.save_model(path, params)
    return path


def test_sidecar_holds_config_hash_and_train_mode_when_given(tmp_path):
    path = _saved_model(tmp_path)
    sidecar = Path(str(path) + ".meta.json")
    plain = json.loads(sidecar.read_text())
    assert set(plain) == set(ckpt.CONFIG_KEYS) | {"n_entities"}
    ckpt.save_model(path, ckpt.load_model(path), config_hash="0" * 16,
                    train_mode="joint")
    assert json.loads(sidecar.read_text()) == {
        **plain, "config_hash": "0" * 16, "train_mode": "joint"}
    ckpt.load_model(path)


def test_load_checks_the_expected_config_hash(tmp_path):
    path = _saved_model(tmp_path)
    with pytest.raises(ValueError, match="holds no config hash") as err:
        ckpt.load_model(path, config_hash="1" * 16)
    assert str(path) in str(err.value)
    ckpt.save_model(path, ckpt.load_model(path), config_hash="0" * 16)
    ckpt.load_model(path)
    ckpt.load_model(path, config_hash="0" * 16)
    with pytest.raises(ValueError, match="config hash 0{16} does not match "
                       "the active config 1{16}"):
        ckpt.load_model(path, config_hash="1" * 16)


def test_load_without_a_sidecar_refuses_an_expected_hash(tmp_path):
    # default-shaped, so the sidecar's defaults describe it when it is gone
    params = init_model(5, ModelConfig(), np.random.default_rng(4))
    path = tmp_path / "m.ckpt"
    ckpt.save_model(path, params, config_hash="0" * 16)
    Path(str(path) + ".meta.json").unlink()
    with pytest.raises(ValueError, match="is missing") as err:
        ckpt.load_model(path, config_hash="0" * 16)
    assert str(path) in str(err.value)
    ckpt.load_model(path)       # no expected hash: still lenient


def test_load_rejects_optimizer_state(tmp_path):
    path = _saved_model(tmp_path)
    tensors = ckpt.read_tensors(path)
    ckpt.write_tensors(path, {**tensors, "state/step": np.asarray(3.0)})
    with pytest.raises(ValueError, match="unknown tensor prefix") as err:
        ckpt.load_model(path)
    assert "state/step" in str(err.value)


@pytest.mark.parametrize("partition", ["theta1", "theta2"])
def test_load_rejects_missing_partition_tensor(tmp_path, partition):
    path = _saved_model(tmp_path)
    tensors = ckpt.read_tensors(path)
    dropped = sorted(n for n in tensors if n.startswith(partition + "/"))[0]
    del tensors[dropped]
    ckpt.write_tensors(path, tensors)
    with pytest.raises(ValueError, match="missing") as err:
        ckpt.load_model(path)
    assert dropped.split("/", 1)[1] in str(err.value)


@pytest.mark.parametrize("name", [f"theta1/{gr.INHERENT}",   # one entity
                                  "theta2/seq.combine_w"])  # one row
def test_load_rejects_shape_that_disagrees_with_config(tmp_path, name):
    path = _saved_model(tmp_path)
    tensors = ckpt.read_tensors(path)
    tensors[name] = tensors[name][:-1]
    ckpt.write_tensors(path, tensors)
    with pytest.raises(ValueError, match=f"{name} has shape"):
        ckpt.load_model(path)


@pytest.mark.parametrize("key", ["aggregator", "scorer", "untie_directions",
                                 "banana"])
def test_load_rejects_unknown_sidecar_key(tmp_path, key):
    path = _saved_model(tmp_path)
    sidecar = Path(str(path) + ".meta.json")
    meta = json.loads(sidecar.read_text())
    meta.update(config_hash="0" * 16, train_mode="meta")  # save_model's
    sidecar.write_text(json.dumps(meta))
    ckpt.load_model(path)
    sidecar.write_text(json.dumps({**meta, key: "max"}))
    with pytest.raises(ValueError, match=key) as err:
        ckpt.load_model(path)
    assert str(sidecar) in str(err.value)


@pytest.mark.parametrize("header", [b"\n", b"   \n", b"w\n", b"w x 2\n",
                                    b"w 2 3\n", b"w 1 -4\n", b"w 1 2",
                                    b"\xff\xfe 1 2\n"])
def test_read_rejects_blank_or_garbled_header(tmp_path, header):
    path = tmp_path / "h.ckpt"
    path.write_bytes(ckpt.HEADER + header + b"\0" * 8)
    with pytest.raises(ValueError, match="header"):
        ckpt.read_tensors(path)


def test_read_rejects_shape_larger_than_file(tmp_path):
    path = tmp_path / "big.ckpt"
    path.write_bytes(ckpt.HEADER + b"w 2 99999999999 99999999999\n" + b"\0")
    with pytest.raises(ValueError, match="truncated"):
        ckpt.read_tensors(path)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cut=st.integers(min_value=0, max_value=10 ** 6),
       edits=st.lists(st.tuples(st.integers(min_value=0, max_value=10 ** 6),
                                st.integers(min_value=0, max_value=255)),
                      max_size=4))
def test_load_fails_only_with_value_error_naming_the_file(tmp_path, cut,
                                                          edits):
    path = _saved_model(tmp_path, "fuzz.ckpt")
    raw = bytearray(path.read_bytes())
    for pos, byte in edits:
        raw[pos % len(raw)] = byte
    path.write_bytes(bytes(raw[:cut % (len(raw) + 1)]))
    try:
        params = ckpt.load_model(path)
    except ValueError as err:
        assert str(path) in str(err)
    else:
        expected = init_model(params.n_entities, params.config,
                              np.random.default_rng(0))
        for part in ("theta1", "theta2"):
            got = getattr(params, part)
            want = getattr(expected, part)
            assert {k: v.shape for k, v in got.items()} == \
                {k: v.shape for k, v in want.items()}
