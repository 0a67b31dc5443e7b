"""Command-line entry point: ``epcag <recipe> --config <file> --out <dir>``."""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigError
from .harness import RECIPES, ExperimentConfig, catalog_list, run


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epcag",
        description="Simulate and analyze systems with piecewise constant "
                    "deviating argument.",
    )
    parser.add_argument("recipe", choices=RECIPES + ("catalog",),
                        help="experiment recipe, or 'catalog' to list the "
                             "built-in nonlinearities")
    parser.add_argument("--config", help="JSON experiment config file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, help="override config seed")
    parser.add_argument("--step", type=float, help="override solver step")
    parser.add_argument("--tol", type=float, help="override solver tolerance")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.recipe == "catalog":
        for entry in catalog_list():
            print(f"{entry['name']:22}{entry['lipschitz']}")
            print(f"{'':22}{entry['doc']}")
            for pname, pdoc in entry["params"].items():
                print(f"{'':24}{pname}: {pdoc}")
        return 0

    raw = {}
    if args.config:
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 2
    if not isinstance(raw, dict):
        print(f"config error: the config must be a JSON object, got {raw!r}",
              file=sys.stderr)
        return 2
    raw["recipe"] = args.recipe
    if args.seed is not None:
        raw["seed"] = args.seed
    solver = raw.get("solver") or {}
    if isinstance(solver, dict):  # any other solver section is a ConfigError
        overrides = {"step": args.step, "tol": args.tol}
        raw["solver"] = dict(solver, **{key: val for key, val in overrides.items()
                                        if val is not None})
    try:
        config = ExperimentConfig.from_dict(raw)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        status = run(config, args.out)
    except OSError as exc:  # the output directory or its records
        print(f"error: cannot write output directory: {exc}", file=sys.stderr)
        return 2
    if status != 0:
        print(f"run failed (status {status}); see report.json", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
