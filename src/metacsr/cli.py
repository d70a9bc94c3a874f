"""Command-line entry point.

    metacsr prepare --config run.json [--set key=value ...]
    metacsr train   --config run.json [--steps N]
    metacsr eval    --config run.json [--scenario cold|warm]
                    [--scorer metacsr|popularity|bpr] [--checkpoint PATH]
    metacsr ablate  --config run.json [--steps N]
    metacsr sweep-fraction --config run.json [--steps N]
    metacsr sweep-length   --config run.json [--steps N]
    metacsr export  --records DIR [DIR ...] --out FILE

``--set section.key=value`` overrides any config field; repeated flags
apply left to right and always win over the file.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from . import experiments
from .config import RunConfig, resolve_config


def _common(parser):
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON config file (defaults apply when omitted)")
    parser.add_argument("--set", dest="overrides", action="append",
                        default=[], metavar="KEY=VALUE",
                        help="override a config field, e.g. model.dim=16")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", type=str, default=None,
                        help="output directory (config.out_dir)")


def _parse_overrides(args) -> dict:
    overrides = {}
    for item in args.overrides:
        if "=" not in item:
            raise ValueError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key] = value
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out_dir"] = args.out
    return overrides


def _load_config(args) -> RunConfig:
    file_dict = None
    if args.config is not None:
        try:
            file_dict = json.loads(
                Path(args.config).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file {str(args.config)!r} is not valid "
                             f"JSON: {exc}") from None
        if not isinstance(file_dict, dict):
            kind = {list: "an array", str: "a string", bool: "a boolean",
                    type(None): "null"}.get(type(file_dict), "a number")
            raise ValueError(f"config file {str(args.config)!r} must hold a "
                             f"JSON object, not {kind}")
    return resolve_config(file_dict, _parse_overrides(args))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metacsr",
        description="Cold-start sequential recommender pipeline")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    steps = argparse.ArgumentParser(add_help=False)
    steps.add_argument("--steps", type=int, default=None,
                       help="cap outer steps per training run; meta "
                            "training may still stop earlier at a plateau")

    p = sub.add_parser("prepare", help="build the canonical dataset dir")
    _common(p)

    p = sub.add_parser("train", parents=[steps],
                       help="train per config.train_mode")
    _common(p)

    p = sub.add_parser("eval", help="evaluate a checkpoint or baseline")
    _common(p)
    p.add_argument("--scenario", choices=["cold", "warm"], default=None)
    p.add_argument("--scorer", choices=["metacsr", "popularity", "bpr"],
                   default="metacsr")
    p.add_argument("--checkpoint", type=Path, default=None)

    for name, help_text in (
            ("ablate", "train/evaluate the four variants"),
            ("sweep-fraction", "train at growing training-user shares"),
            ("sweep-length", "train across window lengths")):
        _common(sub.add_parser(name, parents=[steps], help=help_text))

    p = sub.add_parser("export", help="merge records into tidy CSV")
    p.add_argument("--records", nargs="+", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")
    if args.command == "export":
        path = experiments.run_export(args.records, args.out)
        print(path)
        return 0
    config = _load_config(args)
    if args.command == "prepare":
        print(experiments.run_prepare(config))
    elif args.command == "train":
        print(experiments.run_train(config, max_steps=args.steps))
    elif args.command == "eval":
        if args.scenario:
            config.scenario = args.scenario
        print(experiments.run_evaluate(config, ckpt_path=args.checkpoint,
                                       scorer_kind=args.scorer))
    elif args.command == "ablate":
        print(experiments.run_ablate(config, max_steps=args.steps))
    elif args.command == "sweep-fraction":
        print(experiments.run_sweep_fraction(config, max_steps=args.steps))
    elif args.command == "sweep-length":
        print(experiments.run_sweep_length(config, max_steps=args.steps))
    return 0


def run(argv=None) -> int:
    """The console entry: :func:`main`, with a refused input (a
    ``ValueError``, a missing file or a directory where a file belongs)
    ending the program as one line on stderr and exit status 1, not a
    traceback."""
    try:
        return main(argv)
    except (ValueError, FileNotFoundError, IsADirectoryError) as exc:
        raise SystemExit(f"metacsr: error: {exc}") from None


if __name__ == "__main__":
    sys.exit(run())
