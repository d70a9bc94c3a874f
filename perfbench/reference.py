"""Regenerate ``perfbench/reference_auc.json``, the cold AUCs each seed
must reproduce bit for bit:

    python3 perfbench/reference.py --seeds 0-30

Run from the root of a source checkout. Each workload with a cold
evaluation runs once per seed, untimed (one set-up, the minimum number of
training steps, untraced), and its cold AUCs are recorded. Run it only
for a change that is meant to change the model, and say so with the
change.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402

from run import OUT, REFERENCE, SRC  # noqa: E402

WITH_COLD_AUC = ("accept6-train", "cold-serve")


def seed_range(text):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True,
                        help="inclusive range, as 0-30")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    import workloads

    references = {}
    for name in WITH_COLD_AUC:
        for seed in args.seeds:
            meter = workloads.Meter(None, workloads.N_NEG + 1)
            workdir = OUT / f"reference-{name}-{seed}-{os.getpid()}"
            workdir.mkdir(parents=True, exist_ok=True)
            meter.install()
            try:
                runner = workloads.WORKLOADS[name](seed, 0, None, meter,
                                                   workdir)
                runner.setup_reps = 1
                out = runner.run()
            finally:
                meter.uninstall()
                shutil.rmtree(workdir, ignore_errors=True)
            references.setdefault(name, {})[str(seed)] = out.cold_auc
            print(name, seed, out.cold_auc, flush=True)
    REFERENCE.write_text(json.dumps(references, indent=1) + "\n",
                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
