"""The benchmark still finds every metacsr function it reaches.

``perfbench/`` wraps metacsr functions by attribute name and calls others
directly. Renaming or deleting one of them must fail here, not partway
through a (traced) benchmark run.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return (importlib.import_module("tracer"),
            importlib.import_module("workloads"))


def test_tracer_and_meter_install_and_uninstall(perfbench):
    tracer_mod, workloads = perfbench
    from metacsr import graph, losses, meta

    before = (graph.diffuse_all, losses.build_batch_loss, meta.inner_adapt,
              meta.MetaTrainer.outer_update)
    tracer = tracer_mod.Tracer()
    meter = workloads.Meter(None, 101)
    tracer.install()
    try:
        meter.install()
        try:
            during = (graph.diffuse_all, losses.build_batch_loss,
                      meta.inner_adapt, meta.MetaTrainer.outer_update)
            assert all(a is not b for a, b in zip(before, during))
        finally:
            meter.uninstall()
    finally:
        tracer.uninstall()
    assert (graph.diffuse_all, losses.build_batch_loss, meta.inner_adapt,
            meta.MetaTrainer.outer_update) == before


@pytest.mark.parametrize("source", ["tracer.py", "workloads.py"])
def test_every_metacsr_attribute_perfbench_reads_exists(source):
    tree = ast.parse((PERFBENCH / source).read_text(encoding="utf-8"))
    modules = {alias.asname or alias.name: alias.name
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "metacsr"
               for alias in node.names}
    assert modules, f"{source} imports no metacsr module"
    reads = {(node.value.id, node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name)
             and node.value.id in modules}
    missing = [f"{name}.{attr}" for name, attr in sorted(reads)
               if not hasattr(importlib.import_module(
                   f"metacsr.{modules[name]}"), attr)]
    assert not missing, f"{source} reads {missing}"


def test_cached_item_features_reaches_diffuse_all_once_per_call(perfbench):
    """The evaluation table goes through the two functions the tracer
    times for ``graph.diffuse_all_ms`` and ``graph.build_ms``, once each
    per call, so those metrics cannot silently read 0."""
    import numpy as np
    from metacsr import graph, losses
    from metacsr.params import ModelConfig, init_model

    tracer_mod, _ = perfbench
    g = graph.build_interaction_graph([(0, 0), (0, 1), (1, 1), (2, 2)], 3, 4)
    config = ModelConfig(dim=4, diffusion_depth=2, neighbor_cap=1)
    params = init_model(g.n_entities, config, np.random.default_rng(0))
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        for seed in range(3):
            losses.cached_item_features(g, params,
                                        np.random.default_rng(seed))
    finally:
        tracer.uninstall()
    names = [span[tracer_mod.NAME] for span in tracer.spans]
    assert names.count("graph.diffuse_all") == 3
    assert names.count("graph.build") == 3


@pytest.mark.parametrize("use_sequence", [True, False])
def test_rank_reaches_encode_and_score_once_per_user(perfbench, use_sequence):
    """A cold user's rank goes through the two functions the tracer times
    for ``sequence.score_ms`` and ``sequence.encode_ms``: score once per
    user, and encode once per user in the sequence arm, so those metrics
    cannot silently read 0."""
    import numpy as np
    from metacsr import graph, losses, meta
    from metacsr.evaluation import ModelScorer
    from metacsr.params import ModelConfig, init_model

    tracer_mod, _ = perfbench
    g = graph.build_interaction_graph([(0, 0), (0, 1), (1, 1), (2, 2)], 3, 6)
    config = ModelConfig(dim=4, diffusion_depth=1, neighbor_cap=1,
                         use_sequence=use_sequence)
    params = init_model(g.n_entities, config, np.random.default_rng(0))
    features = losses.cached_item_features(g, params,
                                           np.random.default_rng(1))
    scorer = ModelScorer(params=params, features=features,
                         cfg=meta.MetaConfig(), fine_tune_steps=1)
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        for user in range(3):
            scorer.rank(user, [0, 1, 2, 3], [3, 4, 5])
    finally:
        tracer.uninstall()
    names = [span[tracer_mod.NAME] for span in tracer.spans]
    assert names.count("sequence.score") == 3
    assert names.count("sequence.encode") == (3 if use_sequence else 0)
