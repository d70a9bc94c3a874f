import itertools
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from metacsr import checkpoint, experiments
from metacsr import data as datamod
from metacsr import graph as gr
from metacsr.cli import main
from metacsr.config import RunConfig, resolve_config
from metacsr.params import ModelConfig, init_model

from oracles import report_from_json


def tiny_overrides(out_dir, **extra):
    base = {
        "out_dir": str(out_dir),
        "seed": 11,
        "model.dim": 6,
        "model.diffusion_depth": 1,
        "model.neighbor_cap": 6,
        "model.t_max": 6,
        "meta.task_batch": 2,
        "meta.n_way": 3,
        "meta.k_support": 2,
        "meta.k_query": 3,
        "meta.inner_lr": 0.001,
        "meta.fine_tune_lr": 0.01,
        "data.synthetic.n_items": 40,
        "data.synthetic.n_regular": 10,
        "data.synthetic.n_new": 4,
        "data.synthetic.seq_len_min": 20,
        "data.synthetic.seq_len_max": 26,
        "data.eval_negatives": 20,
    }
    base.update(extra)
    return base


def tiny_config(out_dir, **extra) -> RunConfig:
    return resolve_config(None, tiny_overrides(out_dir, **extra))


def test_config_resolution_layers(tmp_path):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"profile": "desk",
                                    "model": {"dim": 24},
                                    "seed": 5}))
    raw = json.loads(cfg_file.read_text())
    config = resolve_config(raw, {})
    assert config.model.dim == 24          # file beats profile default
    config = resolve_config(raw, {"model.dim": "12"})
    assert config.model.dim == 12          # flags beat file
    assert config.seed == 5
    config = resolve_config({"profile": "full"}, {})
    assert config.model.dim == 128


def test_config_hash_excludes_out_dir(tmp_path):
    a = tiny_config(tmp_path / "a")
    b = tiny_config(tmp_path / "b")
    assert a.core_hash() == b.core_hash()
    c = tiny_config(tmp_path / "c", seed=12)
    assert a.core_hash() != c.core_hash()


def test_config_validation_rejects_bad_values(tmp_path):
    with pytest.raises(ValueError, match="scenario"):
        resolve_config({"scenario": "lukewarm"}, {})
    with pytest.raises(ValueError, match="unknown config key"):
        resolve_config(None, {"model.banana": "1"})


@pytest.mark.parametrize("key", ["model.aggregator", "meta.diffusion_refresh",
                                 "data.synthetic.banana", "banana", "meta"])
def test_config_file_rejects_unknown_keys_like_flags(key):
    file_dict = 3
    for part in reversed(key.split(".")):
        file_dict = {part: file_dict}
    with pytest.raises(ValueError, match=f"config key '{key}'"):
        resolve_config(file_dict, {})
    with pytest.raises(ValueError, match=f"config key '{key}'"):
        resolve_config(None, {key: "1"})


@pytest.mark.parametrize("value", ["abc", "-1", "NaN", "Infinity", "true",
                                   "[0.1]"])
def test_config_rejects_bad_fine_tune_lr(value):
    with pytest.raises(ValueError, match="fine_tune_lr"):
        resolve_config(None, {"meta.fine_tune_lr": value})


@pytest.mark.parametrize("key, value", [
    ("meta.inner_lr", "nan"), ("meta.inner_lr", "-1e-3"),
    ("meta.outer_lr", "inf"), ("meta.outer_lr", "0"),
    ("meta.weight_decay", "nan"), ("meta.weight_decay", "-inf"),
    ("meta.plateau_windows", "-3"), ("meta.plateau_windows", "0"),
])
def test_config_rejects_bad_rates_and_plateau_windows_by_name(key, value):
    with pytest.raises(ValueError, match=key.replace(".", r"\.")):
        resolve_config(None, {key: value})


@pytest.mark.parametrize("key", ["meta.fine_tune_steps",
                                 "meta.max_outer_steps"])
def test_config_rejects_negative_step_counts(key):
    with pytest.raises(ValueError, match=key):
        resolve_config(None, {key: "-3"})
    resolve_config(None, {key: "0"})


def test_config_rejects_exact_order_with_several_inner_steps():
    with pytest.raises(ValueError, match="meta.inner_steps"):
        resolve_config(None, {"meta.order": "exact", "meta.inner_steps": "2"})
    resolve_config(None, {"meta.order": "exact", "meta.inner_steps": "1"})
    resolve_config(None, {"meta.order": "first", "meta.inner_steps": "2"})


@pytest.mark.parametrize("where, key, value", [
    ("flag", "model.use_diffusion", "flase"),
    ("flag", "data.time_range", "5"),
    ("flag", "data.split.count_range", "7"),
    ("flag", "data.time_range", "[3]"),
    ("flag", "data.time_range", "[5, 1]"),
    ("flag", "model.dim", "1.5"),
    ("file", "model.dim", "32"),
    ("file", "meta.task_batch", 2.5),
    ("file", "seed", "x"),
    ("file", "model.use_sequence", 1),
    ("file", "meta.k_neg", True),
])
def test_config_rejects_malformed_values_naming_the_key(where, key, value):
    file_dict, overrides = None, {key: value}
    if where == "file":
        file_dict, overrides = value, {}
        for part in reversed(key.split(".")):
            file_dict = {part: file_dict}
    with pytest.raises(ValueError, match=f"config key '{key}'"):
        resolve_config(file_dict, overrides)


def test_config_keeps_well_formed_values_as_given():
    config = resolve_config({"meta": {"outer_lr": 1}}, {
        "model.use_diffusion": "Off", "data.time_range": "[3, 3]"})
    assert type(config.meta.outer_lr) is int    # the core hash is unchanged
    assert config.model.use_diffusion is False
    assert config.data.time_range == (3, 3)


def test_config_rejects_a_synthetic_world_out_of_range():
    with pytest.raises(ValueError, match="mix_weight"):
        resolve_config(None, {"data.synthetic.mix_weight": "1.5"})


def test_config_rejects_non_string_data_path():
    with pytest.raises(ValueError, match="data.path"):
        resolve_config({"data": {"path": ["a.dat"]}}, {})


@pytest.mark.parametrize("file_dict, key, text, want", [
    ({"train_fraction": 1}, "train_fraction", "0.5", 0.5),
    ({"data": {"split": {"rating_threshold": None}}},
     "data.split.rating_threshold", "4", 4.0),
    (None, "data.split.rating_threshold", "null", None),
    (None, "data.path", "2024", "2024"),
], ids=["float-after-file-int", "float-after-file-null", "null-clears",
        "str-keeps-text"])
def test_flags_parse_by_the_fields_annotated_type(file_dict, key, text,
                                                  want):
    """What an earlier layer set does not change how a flag parses."""
    config = resolve_config(file_dict, {key: text})
    got = config
    for part in key.split("."):
        got = getattr(got, part)
    assert got == want and type(got) is type(want)
    assert config.core_hash() == resolve_config(None, {key: text}).core_hash()


@pytest.mark.parametrize("regular, histories", [
    ({0: [3, 1, 3], 2: [0], 1: [4, 2]}, None),
    ({0: [1], 1: [], 3: [2, 0]}, None),     # an empty history
    ({0: [1], 1: [4, 0], 3: [2, 0]}, {1: [4, 0], 0: [1]}),
    ({}, None),
])
def test_build_graph_equals_the_pair_list_graph(regular, histories):
    graph = experiments.build_graph(SimpleNamespace(regular=regular,
                                                    n_items=5), histories)
    expected = gr.build_interaction_graph(
        [(u, i) for u, items in (histories or regular).items() for i in items],
        max(regular, default=-1) + 1, 5)
    assert (graph.n_users, graph.n_items) == (expected.n_users, 5)
    np.testing.assert_array_equal(graph.indptr, expected.indptr)
    np.testing.assert_array_equal(graph.indices, expected.indices)


def test_prepare_is_idempotent(tmp_path):
    config = tiny_config(tmp_path / "run")
    path = experiments.run_prepare(config)
    files = {p.name: p.read_bytes() for p in path.iterdir()}
    experiments.run_prepare(config)
    again = {p.name: p.read_bytes() for p in path.iterdir()}
    assert files == again
    assert (path / "chains.json").exists()  # synthetic ground truth


def test_synthetic_prepare_honours_new_user_max_kept(tmp_path):
    config = tiny_config(tmp_path / "run",
                         **{"data.split.new_user_max_kept": 4})
    experiments.run_prepare(config)
    dataset = experiments.load_dataset(config)
    assert dataset.split_spec.new_user_max_kept == 4
    # every new user has at least seq_len_min = 20 behaviors
    assert {len(h) for h in dataset.new.values()} == {4}


def test_train_record_keeps_input_hash(tmp_path):
    config = tiny_config(tmp_path / "run")
    experiments.run_prepare(config)
    record_path = tmp_path / "run" / "record.json"
    prepared = json.loads(record_path.read_text())["input_hash"]
    experiments.run_train(config, max_steps=1, quiet=True)
    record = json.loads(record_path.read_text())
    assert record["stage"] == "train"
    assert record["input_hash"] == prepared


def test_full_pipeline_and_artifacts(tmp_path):
    out = tmp_path / "run"
    config = tiny_config(out)
    experiments.run_prepare(config)
    ckpt = experiments.run_train(config, max_steps=3, quiet=True)
    assert ckpt.exists()
    sidecar = json.loads(Path(str(ckpt) + ".meta.json").read_text())
    assert sidecar["config_hash"] == config.core_hash()
    trace = (out / "traces" / "train_loss.csv").read_text().splitlines()
    assert trace[0] == f"# config_hash={config.core_hash()}"
    assert trace[1] == "step,query_loss"
    assert len(trace) == 2 + 3
    steps = [int(line.split(",")[0]) for line in trace[2:]]
    assert steps == sorted(steps)

    report_path = experiments.run_evaluate(config)
    report = report_from_json(report_path.read_text())
    assert report.config_hash == config.core_hash()
    assert report.scenario == "cold"
    assert set(report.hit) == set(range(1, 21))
    per_user = (out / "reports" / "per_user_cold_metaCSR.csv").read_text()
    assert per_user.splitlines()[0].startswith("# config_hash=")
    assert per_user.splitlines()[1] == "user,positive_rank,auc"


def test_eval_rejects_dimension_mismatch(tmp_path):
    out = tmp_path / "run"
    config = tiny_config(out)
    experiments.run_prepare(config)
    experiments.run_train(config, max_steps=1, quiet=True)
    bad = tiny_config(out, **{"model.dim": 8})
    with pytest.raises(ValueError, match="hash|dimension"):
        experiments.run_evaluate(bad)


def test_eval_baseline_scorers(tmp_path):
    out = tmp_path / "run"
    config = tiny_config(out)
    experiments.run_prepare(config)
    path = experiments.run_evaluate(config, scorer_kind="popularity")
    report = report_from_json(path.read_text())
    assert report.model == "popularity"
    path = experiments.run_evaluate(config, scorer_kind="bpr")
    assert report_from_json(path.read_text()).model == "bpr-mf"


def test_warm_scenario_tagged(tmp_path):
    out = tmp_path / "run"
    config = tiny_config(out)
    experiments.run_prepare(config)
    experiments.run_train(config, max_steps=1, quiet=True)
    config.scenario = "warm"
    path = experiments.run_evaluate(config)
    report = report_from_json(path.read_text())
    assert report.scenario == "warm"
    assert "warm" in path.name


def test_export_trace_and_reports(tmp_path):
    out = tmp_path / "run"
    config = tiny_config(out)
    experiments.run_prepare(config)
    experiments.run_train(config, max_steps=2, quiet=True)
    experiments.run_evaluate(config)
    merged = experiments.run_export([out], tmp_path / "tidy.csv")
    lines = merged.read_text().splitlines()
    assert lines[0] == "config_hash,run,metric,step_or_n,value"
    train_rows = [l for l in lines if ",train," in l]
    steps = [int(r.split(",")[3]) for r in train_rows]
    assert steps == sorted(steps)
    assert any(",cold_metaCSR,auc," in l for l in lines)
    # the report's rows, as its own metric,N,value CSV holds them
    report_csv = out / "reports" / "metrics_cold_metaCSR.csv"
    assert [l.split(",", 2)[2] for l in lines if ",cold_metaCSR," in l] \
        == report_csv.read_text().splitlines()[1:]


def test_export_rejects_clashing_hashes(tmp_path):
    a = tiny_config(tmp_path / "a")
    experiments.run_prepare(a)
    b = tiny_config(tmp_path / "b", seed=99)
    experiments.run_prepare(b)
    with pytest.raises(ValueError, match="clashes"):
        experiments.run_export([tmp_path / "a", tmp_path / "b"],
                               tmp_path / "tidy.csv")


def test_cli_end_to_end(tmp_path, capsys):
    out = tmp_path / "cli-run"
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"out_dir": str(out)}))
    flags = []
    for key, value in tiny_overrides(out).items():
        if key == "out_dir":
            continue
        flags += ["--set", f"{key}={value}"]
    assert main(["prepare", "--config", str(cfg_file), *flags]) == 0
    assert main(["train", "--config", str(cfg_file), *flags,
                 "--steps", "2"]) == 0
    assert main(["eval", "--config", str(cfg_file), *flags]) == 0
    assert (out / "reports" / "metrics_cold_metaCSR.json").exists()
    assert main(["export", "--records", str(out),
                 "--out", str(tmp_path / "tidy.csv")]) == 0
    assert (tmp_path / "tidy.csv").exists()


@pytest.mark.parametrize("mode", ["meta", "joint"])
def test_cli_train_refuses_a_negative_step_cap(tmp_path, mode):
    """``--steps -3`` fails by name and writes no checkpoint."""
    out = tmp_path / "run"
    flags = ["--out", str(out), "--set", f"train_mode={mode}"]
    for key, value in tiny_overrides(out).items():
        if key != "out_dir":
            flags += ["--set", f"{key}={value}"]
    assert main(["prepare", *flags]) == 0
    with pytest.raises(ValueError, match="max_steps must be >= 0, not -3"):
        main(["train", *flags, "--steps", "-3"])
    assert not (out / "checkpoints").exists()
    assert main(["train", *flags, "--steps", "0"]) == 0


@pytest.mark.parametrize("text, kind", [("[1, 2]", "an array"),
                                        ("null", "null"),
                                        ('"x"', "a string")])
def test_cli_refuses_a_config_file_that_is_not_an_object(tmp_path, text,
                                                         kind):
    cfg_file = tmp_path / "bad.json"
    cfg_file.write_text(text)
    with pytest.raises(ValueError, match=f"{cfg_file}: must hold a JSON "
                                         f"object, not {kind}"):
        main(["prepare", "--config", str(cfg_file)])


# malformed export inputs: the files of a record directory, the file the
# refusal names and what it says of it
RECORD = {"record.json": '{"config_hash": "h"}'}
EXPORT_INPUTS = {
    "export-hash": ({"record.json": '{"stage": "train"}'}, "record.json",
                    "bad record (KeyError('config_hash'))"),
    "export-json": ({"record.json": '{"config_hash": '}, "record.json",
                    "line 1 is not valid JSON (Expecting value at column 17)"),
    "export-trace": ({**RECORD, "traces/train_loss.csv":
                      "# config_hash=h\nstep,query_loss\n0,0.5\n1,0.4,9\n"},
                     "traces/train_loss.csv",
                     "line 4 is not step,query_loss: '1,0.4,9'"),
    "export-trace-text": ({**RECORD, "traces/train_loss.csv":
                           "# config_hash=h\nstep,query_loss\n0,0.5\n7,abc\n"},
                          "traces/train_loss.csv",
                          "line 4 is not step,query_loss: '7,abc'"),
    "export-report": ({**RECORD, "reports/metrics_cold.json":
                       '{"map": 0.5, "hit": {}, "ndcg": {}}'},
                      "reports/metrics_cold.json",
                      "bad report (KeyError('auc'))"),
    "export-trace-utf8": ({**RECORD, "traces/train_loss.csv":
                           b"# config_hash=h\nstep,query_loss\n0,0.5\n"
                           b"1,0.\xff4\n"}, "traces/train_loss.csv",
                          "line 4 is not UTF-8 (byte 0xff at column 5"),
}


@pytest.mark.parametrize("command", ["eval-bpr", "export", "set",
                                     "config-dir", "config-json",
                                     "config-utf8", "log-utf8",
                                     *EXPORT_INPUTS])
def test_cli_refusals_end_as_one_line(tmp_path, command):
    """A refused input ends the program with one line on stderr that names
    the problem and exit status 1, not a traceback: BPR over a 3-item
    catalog that a user has seen all of, an export of a directory without
    ``record.json``, a ``--set`` without ``=``, a directory given as the
    config file, a config file that is not valid JSON, a config file or a
    movielens log that is not UTF-8 (named with its line), and an export
    of a record without a config hash or that is not JSON, of a trace
    line with three fields, that is not numbers or that is not UTF-8 and of
    a report without an AUC."""
    out = tmp_path / "run"
    flags = ["--out", str(out)]
    for key, value in tiny_overrides(out, **{
            "data.synthetic.n_items": 3, "data.eval_negatives": 2}).items():
        if key != "out_dir":
            flags += ["--set", f"{key}={value}"]
    if command == "export":
        argv = ["export", "--records", str(tmp_path), "--out",
                str(tmp_path / "tidy.csv")]
        named = "record.json"
    elif command == "set":
        argv = ["prepare", *flags, "--set", "foo"]
        named = "--set expects KEY=VALUE, got 'foo'"
    elif command == "config-dir":
        argv, named = ["prepare", *flags, "--config", str(tmp_path)], \
            str(tmp_path)
    elif command == "config-json":
        cfg_file = tmp_path / "cut.json"
        cfg_file.write_text('{"seed": ')
        argv = ["prepare", *flags, "--config", str(cfg_file)]
        named = f"{cfg_file}: line 1 is not valid JSON (Expecting value"
    elif command == "config-utf8":
        cfg_file = tmp_path / "latin1.json"
        cfg_file.write_bytes(b'{"seed": 1,\n "out_dir": "caf\xe9"}')
        argv = ["prepare", *flags, "--config", str(cfg_file)]
        named = f"{cfg_file}: line 2 is not UTF-8 (byte 0xe9 at column 17"
    elif command == "log-utf8":
        log = tmp_path / "ratings.dat"
        log.write_bytes(b"1::1::5::100\n1::2::4::101\n2::\xff1::3::102\n")
        argv = ["prepare", *flags, "--set", "data.source=movielens",
                "--set", f"data.path={log}"]
        named = f"{log}: line 3 is not UTF-8 (byte 0xff at column 4"
    elif command in EXPORT_INPUTS:
        files, bad, problem = EXPORT_INPUTS[command]
        for name, text in files.items():
            (out / name).parent.mkdir(parents=True, exist_ok=True)
            (out / name).write_bytes(text if isinstance(text, bytes)
                                     else text.encode())
        named = f"{out / bad}: {problem}"
        argv = ["export", "--records", str(out), "--out",
                str(tmp_path / "tidy.csv")]
    else:
        assert main(["prepare", *flags]) == 0
        argv, named = ["eval", "--scorer", "bpr", *flags], "all 3 items"
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join([src, *filter(None, [os.environ.get(
        "PYTHONPATH")])])
    done = subprocess.run([sys.executable, "-m", "metacsr.cli", *argv],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 1 and done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1, done.stderr
    assert lines[0].startswith("metacsr: error: ") and named in lines[0]
    assert '"seed"' not in lines[0]     # config-utf8's file text


def _json_reader(tmp_path, site):
    """The path of a JSON file the program reads, and a call that reads
    it: a config file, a record, a report, a checkpoint sidecar or a
    dataset's ``split.json``."""
    def export():
        experiments.run_export([tmp_path], tmp_path / "tidy.csv")

    if site == "config":
        path = tmp_path / "run.json"
        return path, lambda: main(["prepare", "--config", str(path),
                                   "--out", str(tmp_path / "run")])
    if site == "record":
        return tmp_path / "record.json", export
    if site == "report":
        (tmp_path / "record.json").write_text('{"config_hash": "h"}')
        (tmp_path / "reports").mkdir()
        return tmp_path / "reports" / "metrics_cold.json", export
    if site == "sidecar":
        ckpt = tmp_path / "m.ckpt"
        checkpoint.save_model(ckpt, init_model(
            3, ModelConfig(dim=3, diffusion_depth=1),
            np.random.default_rng(0)))
        return Path(f"{ckpt}.meta.json"), lambda: checkpoint.load_model(ckpt)
    out = datamod.write_dataset_dir(tmp_path / "ds", datamod.Dataset(
        regular={0: [1, 2]}, new={1: [2, 0]}, n_items=3,
        split_spec=datamod.SplitSpec(), seed=1))
    return out / "split.json", lambda: datamod.read_dataset_dir(out)


# a malformed JSON file (each holding a marker string) and what its
# refusal says of it
JSON_FAULTS = {
    "utf8": (b'{\n "marker": "SECRET",\n "x": "caf\xe9"\n}\n',
             "line 3 is not UTF-8 (byte 0xe9 at column 11"),
    "truncated": (b'{\n "marker": "SECRET",\n "x": ',
                  "line 3 is not valid JSON (Expecting value at column 7)"),
    "array": (b'["SECRET"]\n', "must hold a JSON object, not an array"),
}


# a config file that is not UTF-8 is the ``config-utf8`` case above
@pytest.mark.parametrize("site, fault", [
    case for case in itertools.product(
        ["config", "record", "report", "sidecar", "split"], JSON_FAULTS)
    if case != ("config", "utf8")])
def test_every_json_file_is_refused_by_name(tmp_path, site, fault):
    """A JSON file that is not UTF-8, not JSON or not an object is refused
    in one line that names the file, the line and the problem, and holds
    none of the file's other text."""
    path, read = _json_reader(tmp_path, site)
    content, problem = JSON_FAULTS[fault]
    path.write_bytes(content)
    with pytest.raises(ValueError) as err:
        read()
    message = str(err.value)
    assert f"{path}: {problem}" in message and "\n" not in message
    assert "SECRET" not in message


def test_sweep_fraction_csv(tmp_path):
    config = tiny_config(tmp_path / "run", **{
        "data.synthetic.n_regular": 8, "meta.task_batch": 1,
        "meta.n_way": 2, "meta.k_query": 2})
    path = experiments.run_sweep_fraction(config, fractions=[0.5, 1.0],
                                          max_steps=1)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "fraction,metric,value"
    fractions = {line.split(",")[0] for line in lines[2:]}
    assert fractions == {"0.5", "1.0"}


def test_sweep_length_csv(tmp_path):
    config = tiny_config(tmp_path / "run", **{
        "data.synthetic.n_regular": 8, "meta.task_batch": 1,
        "meta.n_way": 2, "meta.k_query": 2})
    path = experiments.run_sweep_length(config, lengths=(5,), max_steps=1)
    lines = path.read_text().splitlines()
    assert lines[1] == "t_max,metric,value"
    assert lines[2].startswith("5,auc,")


def test_ablation_modes_run(tmp_path):
    config = tiny_config(tmp_path / "run", **{
        "data.synthetic.n_regular": 8,
        "meta.task_batch": 1,
        "meta.n_way": 2,
        "meta.k_query": 2,
    })
    path = experiments.run_ablate(config, max_steps=1)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "variant,auc,map"
    variants = [line.split(",")[0] for line in lines[2:]]
    assert variants == ["full", "no-diffusion", "no-sequence", "no-meta"]
