"""Warm training steps reuse the heap that earlier steps freed.

Importing metacsr sets glibc's mmap and trim thresholds so that freed
numpy temporaries stay mapped. Without that, every warm step of the
criterion-6 world page-faults its working set back in: about 1,700 minor
faults per meta step and 2,300 per joint step at batch 320.
"""

import ctypes
import sys

import pytest

from metacsr import baselines, graph as gr, meta
from metacsr.data import (SyntheticWorldSpec, generate_synthetic_world,
                          synthetic_split)
from metacsr.params import ModelConfig, init_model
from metacsr.seeding import component_rng
from test_acceptance import ACCEPT6

resource = pytest.importorskip("resource")

WARM_STEPS = 3
MEASURED_STEPS = 10
# mean minor faults per warm step; the default glibc policy reads ~2,000
MAX_FAULTS_PER_STEP = 100


def _faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not (sys.platform.startswith("linux") and _has_mallopt()),
                    reason="needs Linux fault counts and libc's mallopt")
@pytest.mark.parametrize("arm", ["meta", "joint"])
def test_warm_steps_take_few_page_faults(arm):
    spec = SyntheticWorldSpec(**ACCEPT6["world"])
    regular, _ = synthetic_split(generate_synthetic_world(spec))
    graph = gr.build_interaction_graph(
        [(u, it) for u, items in regular.items() for it in items],
        len(regular), spec.n_items)
    cfg = meta.MetaConfig(**ACCEPT6["meta"])
    seed = ACCEPT6["seed"]
    params = init_model(graph.n_entities, ModelConfig(**ACCEPT6["model"]),
                        component_rng(seed, "init"))
    marks = []

    def on_step(step, loss):
        marks.append(_faults())

    steps = WARM_STEPS + MEASURED_STEPS
    if arm == "meta":
        meta.MetaTrainer(graph, regular, params, cfg, seed).train(
            max_steps=steps, on_step=on_step)
    else:
        baselines.joint_train(graph, regular, params, cfg, seed,
                              max_steps=steps, on_step=on_step,
                              batch_size=cfg.task_batch * cfg.n_way
                              * cfg.k_query)
    per_step = (marks[-1] - marks[WARM_STEPS - 1]) / MEASURED_STEPS
    assert per_step < MAX_FAULTS_PER_STEP, (arm, per_step)
