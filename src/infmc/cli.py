"""Command-line harness: ``gauss``, ``dmm``, ``theorems`` and ``emit-data``."""
from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

from .experiments import (
    DMM_EXPERIMENTS,
    GAUSS_EXPERIMENTS,
    ExperimentConfig,
    emit,
    run_dmm,
    run_gauss,
    run_theorem_suite,
)
from .models import make_synthetic, save_dataset

__all__ = ["main"]


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v.strip()) for v in text.split(","))


def _float_pair(text: str) -> tuple[float, float]:
    values = tuple(float(v.strip()) for v in text.split(","))
    if len(values) != 2:
        raise argparse.ArgumentTypeError(f"expected two comma-separated values, got {text!r}")
    return values


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, required=True, help="base seed; mandatory for reproducibility")
    parser.add_argument("--config", type=str, default=None, help="flat key=value config file (schema 1)")
    parser.add_argument("--budgets", type=_int_list, default=None, help="comma-separated, strictly increasing")
    parser.add_argument("--replications", type=int, default=None)
    parser.add_argument("--method", choices=["plain", "inflated", "both"], default=None)
    parser.add_argument("--workers", type=int, default=None, help="thread workers across replications")
    parser.add_argument("--output", type=str, default=None, help="metrics file to write")
    parser.add_argument("--format", choices=["csv", "json"], default=None)


@contextlib.contextmanager
def _usage_errors(args: argparse.Namespace):
    """Report a ``ValueError`` from input validation as a usage error of the
    subcommand: the problem on stderr, exit code 2, nothing written."""
    try:
        yield
    except ValueError as exc:
        args.parser.error(str(exc))


def _build_config(args: argparse.Namespace, experiment: str, **extra) -> ExperimentConfig:
    overrides = {
        "experiment": experiment,
        "seed": args.seed,
        "budgets": args.budgets,
        "replications": args.replications,
        "method": args.method,
        "workers": args.workers,
        "output": args.output,
        "format": args.format,
    }
    overrides.update(extra)
    with _usage_errors(args):
        if args.config:
            return ExperimentConfig.from_file(args.config, **overrides)
        return ExperimentConfig(**{k: v for k, v in overrides.items() if v is not None})


def _write_series(series, cfg: ExperimentConfig) -> None:
    if cfg.output is None:
        raise SystemExit("an --output path is required to write metrics")
    emit(series, cfg.output, cfg.format)
    print(f"wrote {len(series)} rows to {cfg.output}")


def _cmd_gauss(args: argparse.Namespace) -> int:
    cfg = _build_config(
        args,
        args.experiment,
        group_size=args.group_size,
        sanity_fq=args.sanity_fq or None,
    )
    series = run_gauss(cfg)
    _write_series(series, cfg)
    return 0


def _cmd_dmm(args: argparse.Namespace) -> int:
    cfg = _build_config(
        args,
        args.experiment,
        generations=args.generations,
        inner_draws=args.inner_draws,
        kernel_bandwidth=args.kernel_bandwidth,
        kernel_cv=args.kernel_cv,
        true_means=args.means,
        data_count=args.data_count,
        mixing=args.mixing,
    )
    series, traces = run_dmm(cfg)
    _write_series(series, cfg)
    if args.traces:
        Path(args.traces).write_text(json.dumps({"schema_version": 1, "runs": traces}, indent=2) + "\n")
        print(f"wrote {len(traces)} replication traces to {args.traces}")
    return 0


def _cmd_theorems(args: argparse.Namespace) -> int:
    with _usage_errors(args):
        cfg = ExperimentConfig("theorem-suite", args.seed, instances=args.instances)
    report = run_theorem_suite(cfg.seed, instances=cfg.instances)
    payload = json.dumps(report.to_dict(), indent=2)
    if args.output:
        Path(args.output).write_text(payload + "\n")
    else:
        print(payload)
    for check in report.checks:
        status = "pass" if check.passed else "FAIL"
        print(f"{status}: {check.name} (worst {check.worst:.3e} over {check.cases} cases)", file=sys.stderr)
    return 0 if report.passed else 1


def _cmd_emit_data(args: argparse.Namespace) -> int:
    dataset = make_synthetic(args.kind, args.means, args.seed, count=args.count)
    save_dataset(dataset, args.output)
    print(f"wrote {dataset.observations.size} observations to {args.output}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="infmc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gauss = sub.add_parser("gauss", help="Gaussian-target comparison at several budgets")
    _add_common_flags(gauss)
    gauss.add_argument("--experiment", choices=list(GAUSS_EXPERIMENTS), default="gauss-centered")
    gauss.add_argument("--group-size", type=int, default=None, dest="group_size")
    gauss.add_argument("--sanity-fq", action="store_true", dest="sanity_fq",
                       help="target equals proposal: unit weights, zero log evidence")
    gauss.set_defaults(func=_cmd_gauss, parser=gauss)

    dmm = sub.add_parser("dmm", help="mixture-model comparison at matched eval budgets")
    _add_common_flags(dmm)
    dmm.add_argument("--experiment", choices=list(DMM_EXPERIMENTS), default="dmm-gauss")
    dmm.add_argument("--generations", type=int, default=None)
    dmm.add_argument("--inner-draws", type=int, default=None, dest="inner_draws")
    dmm.add_argument("--kernel-bandwidth", type=float, default=None, dest="kernel_bandwidth")
    dmm.add_argument("--kernel-cv", type=float, default=None, dest="kernel_cv")
    dmm.add_argument("--means", type=_float_pair, default=None)
    dmm.add_argument("--data-count", type=int, default=None, dest="data_count")
    dmm.add_argument("--mixing", type=float, default=None, help="proportion of the first component")
    dmm.add_argument("--traces", type=str, default=None, help="optional per-generation trace JSON")
    dmm.set_defaults(func=_cmd_dmm, parser=dmm)

    theorems = sub.add_parser("theorems", help="run the property suite; nonzero exit on failure")
    theorems.add_argument("--seed", type=int, required=True)
    theorems.add_argument("--instances", type=int, default=500)
    theorems.add_argument("--output", type=str, default=None)
    theorems.set_defaults(func=_cmd_theorems, parser=theorems)

    emit_data = sub.add_parser("emit-data", help="write a synthetic mixture dataset")
    emit_data.add_argument("--seed", type=int, required=True)
    emit_data.add_argument("--kind", choices=["gaussian", "student-t"], default="gaussian")
    emit_data.add_argument("--means", type=_float_pair, default=(-2.0, 2.0))
    emit_data.add_argument("--count", type=int, default=100)
    emit_data.add_argument("--output", type=str, required=True)
    emit_data.set_defaults(func=_cmd_emit_data)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
