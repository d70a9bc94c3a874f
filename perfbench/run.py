"""metacsr benchmark: one workload per process, metrics as the last line.

    python3 perfbench/run.py --workload accept6-train --seed 1 \\
        --seconds 10 --trace 0

Run from the root of a source checkout; metacsr is imported from its
``src/`` directory, never from an installed copy. BLAS is pinned to one
thread before numpy loads. With ``--trace 0`` the JSON line carries the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` the layer
boundaries are traced, the JSON line carries the per-layer metrics and
the spans go to ``perfbench/out/``. Human-readable lines (environment,
every metric with its unit, tail percentiles, failure counts) come first.
See ``perfbench/METRICS.md`` for what each metric means.
"""

import os
import sys
import time

START = time.perf_counter()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference_auc.json"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def blas_threads(np):
    """OpenBLAS's own thread count, read from the loaded library."""
    names = ("scipy_openblas_get_num_threads64_",
             "openblas_get_num_threads64_", "openblas_get_num_threads")
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir,
                           "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for name in names:
            func = getattr(lib, name, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def environment(np):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(np),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "machine": platform.machine()}


def ref_kernel_ms(np):
    """Median of 9 timings of ten 192x192 matrix products: machine speed."""
    a = np.random.default_rng(0).standard_normal((192, 192))
    times = []
    for _ in range(9):
        start = time.perf_counter()
        for _ in range(10):
            a = a @ a
            a /= np.abs(a).max()
        times.append(1000 * (time.perf_counter() - start))
    return statistics.median(times)


def check_cold_auc(workload, seed, cold_auc):
    """Cold AUCs are deterministic for a seed, traced or not: they must
    equal, bit for bit, the committed reference for the seed, or, for a
    seed the reference lacks, the first run of that seed in this checkout.
    A change meant to change the model regenerates the reference with
    ``perfbench/reference.py``."""
    if not cold_auc:
        return []
    references = json.loads(REFERENCE.read_text(encoding="utf-8"))
    expected = references.get(workload, {}).get(str(seed))
    source = REFERENCE.name
    if expected is None:
        record = OUT / "auc" / f"{workload}-seed{seed}.json"
        if not record.exists():
            record.parent.mkdir(parents=True, exist_ok=True)
            record.write_text(json.dumps(cold_auc), encoding="utf-8")
            return []
        expected = json.loads(record.read_text(encoding="utf-8"))
        source = "an earlier run in this checkout"
    if expected != cold_auc:
        return [f"cold AUC {cold_auc} for seed {seed} differs from "
                f"{source}: {expected}"]
    return []


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "metacsr" / "__init__.py").is_file():
        print(f"error: no metacsr package under {SRC}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import metacsr
    if Path(metacsr.__file__).resolve().parent != SRC / "metacsr":
        print(f"error: metacsr imported from {metacsr.__file__}",
              file=sys.stderr)
        return 2
    import layers
    import workloads
    from tracer import Tracer

    import_s = time.perf_counter() - START
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    env = environment(np)
    if env["blas_threads"] not in (None, 1):
        print(f"error: BLAS runs {env['blas_threads']} threads, want 1",
              file=sys.stderr)
        return 2
    ref_before = ref_kernel_ms(np)

    tracer = Tracer() if args.trace else None
    meter = workloads.Meter(tracer, workloads.N_NEG + 1)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    if tracer is not None:
        tracer.install()
    meter.install()
    try:
        runner = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, tracer, meter, workdir)
        out = runner.run()
    finally:
        meter.uninstall()
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    ref_after = ref_kernel_ms(np)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = out.problems + meter.failures
    problems += check_cold_auc(args.workload, args.seed, out.cold_auc)
    e2e = workloads.end_to_end(meter, out, import_s, peak_rss_mb)

    print(f"metacsr benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"env.ref_kernel_ms before={ref_before:.3f} after={ref_after:.3f}")
    for note in out.notes:
        print(note)
    for name, (value, unit) in e2e.items():
        print(f"{name} {value!r} {unit}")
    steps = meter.steps.get(out.timed_phase, [])
    print(f"setup repetitions (s): {[round(s, 4) for s in out.setup_s]} "
          f"plus imports {import_s:.4f}")
    for label, values in (("train_step_ms", steps),
                          ("eval_user_ms", meter.user_s)):
        if not values:
            continue
        ladder = " ".join(f"p{q}={1000 * np.percentile(values, q):.3f}"
                          for q in (0, 10, 25, 50, 75, 90, 100))
        print(f"{label} n={len(values)} {ladder}")
        tail = workloads.tail_percentile(values)
        if tail:
            print(f"{label}_{tail[0]} {1000 * tail[1]!r} ms (n={len(values)})")
        else:
            print(f"{label}: n={len(values)}, too few samples for a tail "
                  "percentile with 10 beyond it")
    print(f"operations: {meter.attempted} attempted, {meter.failed} failed")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")

    if tracer is None:
        names = [m["name"] for m in spec["end_to_end"]]
        values = e2e
    else:
        names = [m["name"] for m in spec["per_layer"]]
        per_layer = layers.layer_metrics(tracer, meter, out,
                                         runner.setup_reps)
        per_layer["env.ref_kernel_ms"] = statistics.mean(
            [ref_before, ref_after])
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = {k: (v, units.get(k, "?")) for k, v in per_layer.items()}
        for name in names:
            if name in values:
                print(f"{name} {values[name][0]!r} {values[name][1]}")
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                     {k: v for k, (v, _) in values.items()})
    missing = sorted(set(names) - set(values))
    if missing:
        raise RuntimeError(f"BENCHMARK.json lists metrics the run lacks: "
                           f"{missing}")
    result = {
        "correct": not problems,
        "attempted": meter.attempted,
        "failed": meter.failed,
        "metrics": {name: {"value": values[name][0], "unit": values[name][1]}
                    for name in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
