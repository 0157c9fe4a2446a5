"""Command-line entry point: run / batch / sweep / verify."""

import argparse
import csv
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

from .errors import ConfigurationError, PatrolSimError
from .export import verify_artifacts, write_metrics_csv, write_run_artifacts
from .scenario import (
    ScenarioConfig,
    parameter_sweep,
    parse_config,
    run_batch,
    run_trial,
)
from .strategy import STRATEGIES

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VERIFY = 3


def _styled(text: str, code: str) -> str:
    if os.environ.get("NO_COLOR") or not sys.stdout.isatty():
        return text
    return f"\x1b[{code}m{text}\x1b[0m"


# ScenarioConfig fields that every mission subcommand takes as a flag
# (`n_robots` as `--n-robots`), typed like the field
OVERRIDES = ("strategy", "n_robots", "bandwidth_s", "fail_fraction", "fail_at", "recover_at")


def _add_overrides(parser: argparse.ArgumentParser) -> None:
    types = {f.name: f.type for f in fields(ScenarioConfig)}
    for name in OVERRIDES:
        parser.add_argument("--" + name.replace("_", "-"), type=types[name],
                            choices=STRATEGIES if name == "strategy" else None)


def _load_config(args) -> ScenarioConfig:
    config = parse_config(args.config) if args.config else ScenarioConfig()
    overrides = {name: getattr(args, name) for name in OVERRIDES
                 if getattr(args, name) is not None}
    return replace(config, **overrides).validate()


def _floats(raw: str):
    try:
        return [float(v) for v in raw.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigurationError(f"expected comma-separated numbers, got {raw!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patrolsim",
        description="Deterministic multi-robot patrolling simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a single trial and write artifacts")
    p_run.add_argument("--config", help="flat key = value config file")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default="out")
    _add_overrides(p_run)

    p_batch = sub.add_parser("batch", help="run independent seeded trials")
    p_batch.add_argument("--config")
    p_batch.add_argument("--trials", type=int, default=None)
    p_batch.add_argument("--base-seed", type=int, default=None)
    p_batch.add_argument("--out", default="out")
    p_batch.add_argument("--workers", type=int, default=1)
    _add_overrides(p_batch)

    p_sweep = sub.add_parser("sweep", help="sweep eta / p_max / sigma")
    p_sweep.add_argument("--config")
    p_sweep.add_argument("--eta-list", required=True)
    p_sweep.add_argument("--pm-list", required=True)
    p_sweep.add_argument("--sigma-list", required=True)
    p_sweep.add_argument("--trials", type=int, default=None)
    p_sweep.add_argument("--base-seed", type=int, default=None)
    p_sweep.add_argument("--out", default=None, help="optional sweep.csv directory")
    p_sweep.add_argument("--workers", type=int, default=1)
    _add_overrides(p_sweep)

    p_verify = sub.add_parser("verify", help="replay events.log against a config")
    p_verify.add_argument("events", help="path to events.log")
    p_verify.add_argument("--config")
    _add_overrides(p_verify)
    return parser


def _cmd_run(args) -> int:
    config = _load_config(args)
    seed = args.seed if args.seed is not None else config.seed
    result = run_trial(config, seed)
    write_run_artifacts(result, args.out)
    print(f"trial seed={seed}: " + "  ".join(
        f"{k}={v:.4f}" for k, v in result.metric_row().items()))
    print(f"artifacts written to {args.out}")
    return EXIT_OK


def _cmd_batch(args) -> int:
    config = _load_config(args)
    trials = args.trials if args.trials is not None else config.trials
    base_seed = args.base_seed if args.base_seed is not None else config.seed
    results, summary = run_batch(config, trials, base_seed, workers=args.workers)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_metrics_csv(results, out / "metrics.csv")
    for idx, result in enumerate(results):
        write_run_artifacts(result, out / f"trial_{idx:03d}")
    for key, stats in summary.items():
        print(f"{key}: mean={stats['mean']:.4f} min={stats['min']:.4f} "
              f"max={stats['max']:.4f}")
    print(f"{trials} trials written to {out}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    config = _load_config(args)
    trials = args.trials if args.trials is not None else config.trials
    base_seed = args.base_seed if args.base_seed is not None else config.seed
    rows = parameter_sweep(
        config,
        _floats(args.eta_list),
        _floats(args.pm_list),
        _floats(args.sigma_list),
        trials,
        base_seed,
        workers=args.workers,
    )
    header = list(rows[0])
    print("\t".join(header))
    for row in rows:
        print("\t".join(f"{row[k]:.6g}" for k in header))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "sweep.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=header)
            writer.writeheader()
            writer.writerows(rows)
        print(f"sweep table written to {out / 'sweep.csv'}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    config = _load_config(args)
    mismatches = verify_artifacts(args.events, config)
    if mismatches:
        for line in mismatches:
            print(_styled(f"MISMATCH {line}", "31"), file=sys.stderr)
        return EXIT_VERIFY
    print(_styled("verified: event replay matches recorded metrics", "32"))
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "batch": _cmd_batch,
        "sweep": _cmd_sweep,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PatrolSimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY if args.command == "verify" else 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
