"""Command-line entry point: run / batch / sweep / verify."""

import argparse
import csv
import os
import sys
from pathlib import Path

from .errors import ConfigurationError, PatrolSimError
from .export import verify_artifacts, write_metrics_csv, write_run_artifacts
from .scenario import (
    FIELD_TYPES,
    ScenarioConfig,
    parameter_sweep,
    parse_config,
    run_batch,
    run_trial,
    sweep_points,
)
from .strategy import STRATEGIES

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VERIFY = 3


def _styled(text: str, code: str) -> str:
    if os.environ.get("NO_COLOR") or not sys.stdout.isatty():
        return text
    return f"\x1b[{code}m{text}\x1b[0m"


# ScenarioConfig fields that every subcommand takes as a flag
# (`n_robots` as `--n-robots`), typed like the field
OVERRIDES = ("strategy", "n_robots", "bandwidth_s", "fail_fraction", "fail_at", "recover_at")


def _load_config(args) -> ScenarioConfig:
    """The config file (or the defaults) with every flag named like a
    ScenarioConfig field applied on top, checked with the other flags."""
    for name, value in vars(args).items():
        # Python 3.11's argparse stores `--flag=--` as [] without calling `type`
        if isinstance(value, list):
            flag = "base_seed" if name == "seed" and args.command != "run" else name
            raise ConfigurationError(f"--{flag.replace('_', '-')} needs one value, got '--'")
    overrides = {name: value for name, value in vars(args).items()
                 if name in FIELD_TYPES and value is not None}
    config = (parse_config(args.config, **overrides) if args.config
              else ScenarioConfig(**overrides))
    # run_batch checks this too, but only after batch and sweep create --out
    if getattr(args, "workers", 1) < 1:
        raise ConfigurationError(f"workers must be >= 1, got {args.workers}")
    return config


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

    config_flags = argparse.ArgumentParser(add_help=False)
    config_flags.add_argument("--config", help="flat key = value config file")
    for name in OVERRIDES:
        config_flags.add_argument("--" + name.replace("_", "-"), type=FIELD_TYPES[name],
                                  choices=STRATEGIES if name == "strategy" else None)
    trial_flags = argparse.ArgumentParser(add_help=False)
    trial_flags.add_argument("--trials", type=int)
    trial_flags.add_argument("--base-seed", dest="seed", type=int, metavar="BASE_SEED")
    trial_flags.add_argument("--workers", type=int, default=1)

    p_run = sub.add_parser("run", parents=[config_flags],
                           help="run a single trial and write artifacts")
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--out", default="out")

    p_batch = sub.add_parser("batch", parents=[config_flags, trial_flags],
                             help="run independent seeded trials")
    p_batch.add_argument("--out", default="out")

    p_sweep = sub.add_parser("sweep", parents=[config_flags, trial_flags],
                             help="sweep eta / p_max / sigma")
    p_sweep.add_argument("--eta-list", required=True)
    p_sweep.add_argument("--pm-list", required=True)
    p_sweep.add_argument("--sigma-list", required=True)
    p_sweep.add_argument("--out", default=None, help="optional sweep.csv directory")

    p_verify = sub.add_parser("verify", parents=[config_flags],
                              help="replay events.log against a config")
    p_verify.add_argument("events", help="path to events.log")
    return parser


def _cmd_run(args, config) -> int:
    Path(args.out).mkdir(parents=True, exist_ok=True)
    result = run_trial(config, config.seed)
    write_run_artifacts(result, args.out)
    print(f"trial seed={config.seed}: " + "  ".join(
        f"{k}={v:.4f}" for k, v in result.metric_row().items()))
    print(f"artifacts written to {args.out}")
    return EXIT_OK


def _cmd_batch(args, config) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    results, summary = run_batch(config, workers=args.workers)
    write_metrics_csv(results, out / "metrics.csv")
    for idx, result in enumerate(results):
        write_run_artifacts(result, out / f"trial_{idx:03d}")
    for key, stats in summary.items():
        print(f"{key}: mean={stats['mean']:.4f} min={stats['min']:.4f} "
              f"max={stats['max']:.4f}")
    print(f"{config.trials} trials written to {out}")
    return EXIT_OK


def _cmd_sweep(args, config) -> int:
    grid = [_floats(raw) for raw in (args.eta_list, args.pm_list, args.sigma_list)]
    sweep_points(config, *grid)  # a bad grid must fail before --out is created
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    rows = parameter_sweep(config, *grid, config.trials, config.seed, workers=args.workers)
    header = list(rows[0])
    print("\t".join(header))
    for row in rows:
        print("\t".join(f"{row[k]:.6g}" for k in header))
    if args.out:
        path = Path(args.out) / "sweep.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=header)
            writer.writeheader()
            writer.writerows(rows)
        print(f"sweep table written to {path}")
    return EXIT_OK


def _cmd_verify(args, config) -> int:
    mismatches = verify_artifacts(args.events, config)
    if mismatches:
        for line in mismatches:
            print(_styled(f"MISMATCH {line}", "31"), file=sys.stderr)
        return EXIT_VERIFY
    print(_styled("verified: event replay matches recorded metrics", "32"))
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "batch": _cmd_batch, "sweep": _cmd_sweep,
                "verify": _cmd_verify}
    try:
        return handlers[args.command](args, _load_config(args))
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
