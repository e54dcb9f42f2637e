"""Command-line experiment runner.

Subcommands: clutter | bpm | loopy run the corresponding experiment and
write CSV + sidecar; oracle-check runs the analytic-vs-oracle batteries and
prints a pass/fail table.  Exit codes: 0 success, 1 validation error,
2 oracle-check failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .experiments import (
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    oracle_check_battery,
    require_scipy,
    run_experiment,
    write_results,
)


def _parse_seed_range(text: str) -> tuple[int, ...]:
    try:
        if ".." in text:
            a, b = text.split("..")
            lo, hi = int(a), int(b)
            if hi < lo:
                raise ValueError
            return tuple(range(lo, hi + 1))
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ConfigError(f"bad seed range {text!r}; expected a..b or a,b,c") from None


def _parse_schedule(text: str) -> dict:
    """The `schedule` document of a --schedule flag."""
    if text == "sequential":
        return {"kind": "sequential"}
    kind, colon, seed = text.partition(":")
    if kind == "random":
        try:
            return {"kind": "random", "seed": int(seed) if colon else 0}
        except ValueError:
            pass
    raise ConfigError(f"bad schedule {text!r}; expected sequential or random[:seed]")


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, default=None,
                   help="JSON experiment config; flags below override it")
    p.add_argument("--out", type=Path, default=None, help="output CSV path")
    p.add_argument("--seed-range", default=None, metavar="A..B")
    p.add_argument("--tolerance", type=float, default=None)
    p.add_argument("--max-sweeps", type=int, default=None)
    p.add_argument("--damping", type=float, default=None)
    p.add_argument("--schedule", default=None,
                   help="sequential (default) or random[:seed]")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epkit", description="ADF/EP experiment harness")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in ("clutter", "bpm", "loopy"):
        p = sub.add_parser(kind, help=f"run the {kind} experiment")
        _add_common_flags(p)
    p = sub.add_parser("oracle-check",
                       help="run analytic-vs-oracle batteries")
    p.add_argument("--cases", type=int, default=200)
    p.add_argument("--seed", type=int, default=1234)
    return parser


def _load_config(kind: str, args: argparse.Namespace) -> ExperimentConfig:
    """The config document, with the flags written over it, validated once
    by config_from_dict."""
    doc = {}
    if args.config is not None:
        try:
            doc = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        if not isinstance(doc, dict) or not isinstance(doc.get("ep_options", {}), dict):
            raise ConfigError("config and its ep_options must be JSON objects")
    doc["kind"] = kind
    ep_doc = doc.setdefault("ep_options", {})
    for key in ("tolerance", "max_sweeps", "damping"):
        if getattr(args, key) is not None:
            ep_doc[key] = getattr(args, key)
    if args.schedule is not None:
        ep_doc["schedule"] = _parse_schedule(args.schedule)
    if args.seed_range is not None:
        doc["seeds"] = _parse_seed_range(args.seed_range)
    return config_from_dict(doc)


def _oracle_check(cases: int, seed: int) -> int:
    if cases < 1 or seed < 0:
        raise ConfigError(f"oracle-check needs --cases >= 1 and --seed >= 0, "
                          f"got {cases} and {seed}")
    require_scipy("oracle-check")
    results = oracle_check_battery(cases=cases, seed=seed)
    width = max(len(r.name) for r in results)
    for r in results:
        print(f"{r.name:<{width}}  worst {r.worst:.3e}  "
              f"tol {r.tolerance:.0e}  {'PASS' if r.passed else 'FAIL'}")
    return 0 if all(r.passed for r in results) else 2


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "oracle-check":
            return _oracle_check(args.cases, args.seed)
        out = args.out if args.out is not None else Path(f"{args.command}_results.csv")
        if out.is_dir() or not out.parent.is_dir():
            raise ConfigError(f"cannot write {out}: it is a directory or its "
                              "directory does not exist")
        config = _load_config(args.command, args)
        rows = run_experiment(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    write_results(config, rows, out)
    n_conv = sum(1 for r in rows if r.method == "ep" and not r.converged)
    print(f"wrote {len(rows)} rows to {out}"
          + (f" ({n_conv} non-converged ep rows)" if n_conv else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
