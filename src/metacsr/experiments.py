"""End-to-end run orchestration: prepare, train, evaluate, ablate, sweep,
export.

Artifact layout under the configured output directory:

    record.json                 resolved config, core hash, input hash,
                                wall clock
    dataset/                    canonical dataset directory
    checkpoints/model.ckpt      trained parameters (+ .meta.json sidecar)
    traces/train_loss.csv       (step, query_loss) rows
    reports/metrics_<tag>.json  MetricsReport (+ .csv, per-user csv)

Every artifact embeds the config core hash; evaluation refuses checkpoints
whose hash or dimensions disagree with the active config. The JSON files go
through ``data.write_json`` and ``data.read_json``.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import logging
import time
from pathlib import Path

import numpy as np

from . import baselines, checkpoint, data as datamod, graph as gr, losses, meta
from .config import RunConfig, resolve_config
from .evaluation import ModelScorer, evaluate_model
from .metrics import report_rows
from .params import init_model
from .seeding import component_rng

log = logging.getLogger(__name__)


def _out(config) -> Path:
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _input_hash(dataset_dir) -> str:
    """Hash of the names and bytes of the dataset directory's files."""
    digest = hashlib.sha256()
    for path in sorted(p for p in Path(dataset_dir).iterdir() if p.is_file()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _write_csv(path, config_hash, header, rows) -> Path:
    """A ``# config_hash=`` comment line, then the header and the rows."""
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write(f"# config_hash={config_hash}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _write_record(config, **fields):
    datamod.write_json(_out(config) / "record.json", {
        "config_hash": config.core_hash(), "config": config.to_dict(),
        **fields})


# ------------------------------------------------------------------ prepare


def run_prepare(config: RunConfig) -> Path:
    """Build the canonical dataset directory from the configured source."""
    config.validate()
    out = _out(config) / "dataset"
    dcfg = config.data
    if dcfg.source == "synthetic":
        spec = dcfg.synthetic
        world = datamod.generate_synthetic_world(spec)
        regular, new = datamod.synthetic_split(
            world, dcfg.split.new_user_max_kept)
        dataset = datamod.Dataset(regular=regular, new=new,
                                  n_items=spec.n_items,
                                  split_spec=dcfg.split, seed=config.seed,
                                  extras={"source": "synthetic",
                                          "config_hash": config.core_hash()})
        path = datamod.write_dataset_dir(out, dataset)
        chains = [{str(state): dist for state, dist in chain.items()}
                  for chain in world.transitions]
        datamod.write_json(path / "chains.json", {
            "transitions": chains,
            "user_chain": {str(u): c for u, c in world.user_chain.items()}})
    else:
        fmt = "movielens-dcolon" if dcfg.source == "movielens" else "tsv"
        parsed = datamod.parse_interactions(dcfg.path, fmt=fmt,
                                            time_range=dcfg.time_range)
        regular, new = datamod.split_users(parsed.records, dcfg.split)
        dataset = datamod.Dataset(regular=regular, new=new,
                                  n_items=parsed.stats.n_items,
                                  split_spec=dcfg.split, seed=config.seed,
                                  extras={"source": dcfg.source,
                                          "config_hash": config.core_hash(),
                                          "parse_stats": vars(parsed.stats)})
        path = datamod.write_dataset_dir(out, dataset,
                                         user_map=parsed.user_map,
                                         item_map=parsed.item_map)
    _write_record(config, stage="prepare", input_hash=_input_hash(path))
    log.info("dataset written to %s (%d regular / %d new users)",
             path, len(dataset.regular), len(dataset.new))
    return path


def load_dataset(config: RunConfig) -> datamod.Dataset:
    path = _out(config) / "dataset"
    if not (path / "split.json").exists():
        raise FileNotFoundError(f"no prepared dataset under {path};"
                                " run prepare first")
    return datamod.read_dataset_dir(path)


def _training_histories(config, dataset):
    """Regular histories, optionally restricted for the fraction sweep.

    The sweep shuffles users deterministically (seeded) and keeps the first
    ``train_fraction`` share.
    """
    histories = dataset.regular
    if config.train_fraction >= 1.0:
        return histories
    users = sorted(histories)
    order = component_rng(config.seed, "train-fraction").permutation(len(users))
    keep = max(1, int(round(len(users) * config.train_fraction)))
    chosen = {users[i] for i in order[:keep]}
    return {u: histories[u] for u in users if u in chosen}


def build_graph(dataset, histories=None):
    """Graph of ``histories`` (default: the regular users); one user row
    per id up to the largest regular one."""
    histories = dataset.regular if histories is None else histories
    n_users = (max(dataset.regular) + 1) if dataset.regular else 0
    users = np.repeat(np.fromiter(histories, np.intp, len(histories)),
                      [len(items) for items in histories.values()])
    items = np.fromiter(itertools.chain.from_iterable(histories.values()),
                        np.intp, users.size)
    return gr.build_interaction_graph(np.column_stack([users, items]),
                                      n_users, dataset.n_items)


# -------------------------------------------------------------------- train


def run_train(config: RunConfig, max_steps=None, quiet=False) -> Path:
    """Train per config.train_mode; write checkpoint and loss trace."""
    config.validate()
    started = time.time()
    dataset = load_dataset(config)
    histories = _training_histories(config, dataset)
    graph = build_graph(dataset, histories)
    params = init_model(graph.n_entities, config.model,
                        component_rng(config.seed, "init"))

    def on_step(step, loss):
        if not quiet and step % 25 == 0:
            log.info("step %d: query loss %.5f", step, loss)

    if config.train_mode == "meta":
        trainer = meta.MetaTrainer(graph, histories, params, config.meta,
                                   config.seed)
        trace = trainer.train(max_steps=max_steps, on_step=on_step)
    else:
        trace = baselines.joint_train(graph, histories, params, config.meta,
                                      config.seed, max_steps=max_steps,
                                      on_step=on_step)

    out = _out(config)
    (out / "checkpoints").mkdir(exist_ok=True)
    (out / "traces").mkdir(exist_ok=True)
    ckpt_path = out / "checkpoints" / "model.ckpt"
    checkpoint.save_model(ckpt_path, params, config_hash=config.core_hash(),
                          train_mode=config.train_mode)
    _write_csv(out / "traces" / "train_loss.csv", config.core_hash(),
               ["step", "query_loss"],
               [[step, repr(value)] for step, value in trace])
    _write_record(config, stage="train", steps=len(trace),
                  input_hash=_input_hash(out / "dataset"),
                  wall_clock=time.time() - started)
    return ckpt_path


# --------------------------------------------------------------------- eval


def run_evaluate(config: RunConfig, ckpt_path=None, scorer_kind="metacsr",
                 tag=None) -> Path:
    """Evaluate a checkpoint (or a baseline) under the configured scenario.

    Cold: new users, per-user fine-tuning of theta2 before scoring.
    Warm: regular users' held-out last behavior, direct scoring.
    """
    config.validate()
    dataset = load_dataset(config)
    histories = _training_histories(config, dataset)
    graph = build_graph(dataset, histories)
    cold = config.scenario == "cold"
    test_histories = dataset.new if cold else histories

    if scorer_kind == "metacsr":
        ckpt_path = ckpt_path or _out(config) / "checkpoints" / "model.ckpt"
        params = checkpoint.load_model(ckpt_path,
                                       config_hash=config.core_hash())
        features = losses.cached_item_features(
            graph, params, component_rng(config.seed, "eval/features"))
        steps = config.meta.fine_tune_steps if cold else 0
        scorer = ModelScorer(params=params, features=features,
                             cfg=config.meta, fine_tune_steps=steps,
                             seed=config.seed)
        model_name = "metaCSR" if config.train_mode == "meta" else "joint"
    elif scorer_kind == "popularity":
        scorer = baselines.PopularityModel.fit(histories, dataset.n_items)
        model_name = "popularity"
    elif scorer_kind == "bpr":
        scorer = baselines.train_bpr(histories, graph.n_users,
                                     dataset.n_items,
                                     component_rng(config.seed, "bpr"))
        model_name = "bpr-mf"
    else:
        raise ValueError(f"unknown scorer {scorer_kind!r}")

    report, per_user = evaluate_model(
        scorer, test_histories, dataset.n_items,
        n_neg=config.data.eval_negatives, seed=config.seed,
        min_history=config.model.t_min + 1,
        config_hash=config.core_hash(), scenario=config.scenario,
        model=model_name)

    out = _out(config) / "reports"
    out.mkdir(exist_ok=True)
    tag = tag or f"{config.scenario}_{model_name}"
    report_path = out / f"metrics_{tag}.json"
    datamod.write_json(report_path, report.to_dict())
    (out / f"metrics_{tag}.csv").write_text(report.to_csv(), encoding="utf-8")
    _write_csv(out / f"per_user_{tag}.csv", config.core_hash(),
               ["user", "positive_rank", "auc"],
               [[user, rank, repr(user_auc)]
                for user, rank, user_auc in per_user])
    log.info("%s: AUC %.4f MAP %.4f (%d users)", tag, report.auc,
             report.map, report.n_users)
    return report_path


# ------------------------------------------------------------------- ablate


ABLATION_VARIANTS = {
    "full": {},
    "no-diffusion": {"model.use_diffusion": False},
    "no-sequence": {"model.use_sequence": False},
    "no-meta": {"train_mode": "joint"},
}


def _run_variants(config, variants, max_steps):
    """Prepare, train and cold-evaluate each (key, output subdirectory,
    config overrides) variant of ``config``; returns (key, AUC, MAP) rows."""
    rows = []
    for key, subdir, overrides in variants:
        variant = resolve_config(config.to_dict(), overrides)
        variant.out_dir = str(Path(config.out_dir) / subdir)
        run_prepare(variant)
        run_train(variant, max_steps=max_steps, quiet=True)
        report = datamod.read_json(run_evaluate(variant, tag="cold"))
        rows.append((key, report["auc"], report["map"]))
        log.info("variant %s: AUC %.4f", subdir, report["auc"])
    return rows


def run_ablate(config: RunConfig, max_steps=None) -> Path:
    """Train and cold-evaluate the four architecture variants."""
    rows = _run_variants(config, [(name, f"ablation/{name}", overrides)
                                  for name, overrides
                                  in ABLATION_VARIANTS.items()], max_steps)
    return _write_csv(_out(config) / "ablation.csv", config.core_hash(),
                      ["variant", "auc", "map"],
                      [[name, repr(auc_v), repr(map_v)]
                       for name, auc_v, map_v in rows])


# ------------------------------------------------------------------- sweeps


def run_sweep_fraction(config: RunConfig, fractions=None, max_steps=None):
    """Cold-start quality as the training-user share grows (10% steps)."""
    fractions = fractions or [round(0.1 * k, 1) for k in range(1, 11)]
    rows = _run_variants(config, [
        (f, f"fraction/{int(f * 100):03d}", {"train_fraction": f})
        for f in fractions], max_steps)
    return _sweep_csv(config, "fraction_sweep.csv", "fraction", rows)


def run_sweep_length(config: RunConfig, lengths=(5, 10, 15, 20, 25),
                     max_steps=None):
    """Cold-start quality across maximum window lengths."""
    rows = _run_variants(config, [(t, f"length/{t:02d}", {"model.t_max": t})
                                  for t in lengths], max_steps)
    return _sweep_csv(config, "length_sweep.csv", "t_max", rows)


def _sweep_csv(config, filename, key, rows):
    return _write_csv(_out(config) / filename, config.core_hash(),
                      [key, "metric", "value"],
                      [[value, metric, repr(v)] for value, auc_v, map_v in rows
                       for metric, v in (("auc", auc_v), ("map", map_v))])


# ------------------------------------------------------------------- export


def run_export(record_dirs, out_path) -> Path:
    """Merge run artifacts into tidy plot-ready CSV rows.

    All records must share one config core hash; clashing hashes abort.
    A malformed record, trace or report is a ValueError that names it.
    """
    rows = []
    seen_hash = None
    for record_dir in record_dirs:
        record_dir = Path(record_dir)
        record_path = record_dir / "record.json"
        try:
            config_hash = datamod.read_json(record_path)["config_hash"]
        except KeyError as err:
            raise ValueError(f"{record_path}: bad record ({err!r})") from None
        if seen_hash is None:
            seen_hash = config_hash
        elif seen_hash != config_hash:
            raise ValueError(
                f"config hash {config_hash} in {record_dir} clashes with "
                f"{seen_hash}; refusing to merge")
        trace = record_dir / "traces" / "train_loss.csv"
        if trace.exists():
            lines = "".join(datamod.utf8_lines(trace)).splitlines()
            for number, line in enumerate(lines[2:], start=3):
                try:
                    step, value = line.split(",")
                    int(step), float(value)     # both must be numbers
                except ValueError:
                    raise ValueError(f"{trace}: line {number} is not "
                                     f"step,query_loss: {line!r}") from None
                rows.append((config_hash, "train", "query_loss", step, value))
        for report_file in sorted((record_dir / "reports")
                                  .glob("metrics_*.json")):
            tag = report_file.stem[len("metrics_"):]
            report = datamod.read_json(report_file)
            try:
                rows += [(config_hash, tag, *row)
                         for row in report_rows(report)]
            except (AttributeError, KeyError, TypeError, ValueError) as err:
                raise ValueError(f"{report_file}: bad report ({err!r})") \
                    from None
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with out_path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["config_hash", "run", "metric", "step_or_n", "value"])
        writer.writerows(rows)
    return out_path
