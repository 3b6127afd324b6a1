"""Command-line harness: ``gauss``, ``dmm``, ``theorems`` and ``emit-data``."""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
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

_FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)}


def _seed(text: str) -> int:
    """Every subcommand's ``--seed``: a nonnegative integer, or a usage error."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"seed must be a nonnegative integer, got {text!r}")
    return int(text)


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v.strip()) for v in text.split(","))


def _float_pair(text: str) -> tuple[float, float]:
    values = tuple(float(v.strip()) for v in text.split(","))
    if len(values) != 2:
        raise argparse.ArgumentTypeError(f"expected two comma-separated values, got {text!r}")
    return values


def _add_common_flags(parser: argparse.ArgumentParser, experiments: tuple[str, ...]) -> None:
    """Flags shared by ``gauss`` and ``dmm``.  Every flag but ``--config``
    sets the ``ExperimentConfig`` field named by its ``dest``, and an unset
    flag is ``None``, so the config file or the field's default applies."""
    parser.add_argument("--seed", type=_seed, required=True, help="base seed; mandatory for reproducibility")
    parser.add_argument("--config", type=str, default=None, help="flat key=value config file (schema 1)")
    parser.add_argument("--experiment", choices=list(experiments), default=None,
                        help=f"default: the config file's, else {experiments[0]}")
    parser.add_argument("--budgets", type=_int_list, default=None, help="comma-separated, strictly increasing")
    parser.add_argument("--replications", type=int, default=None)
    parser.add_argument("--method", choices=["plain", "inflated", "both"], default=None)
    parser.add_argument("--workers", type=int, default=None, help="thread workers across replications")
    parser.add_argument("--output", type=str, default=None, help="metrics file to write")
    parser.add_argument("--format", choices=["csv", "json"], default=None)
    parser.set_defaults(parser=parser, experiments=experiments)


@contextlib.contextmanager
def _usage_errors(args: argparse.Namespace):
    """Report a ``ValueError`` from input validation as a usage error of the
    subcommand: the problem on stderr, exit code 2, nothing written."""
    try:
        yield
    except ValueError as exc:
        args.parser.error(str(exc))


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    """A flag beats the config file, and the file beats the subcommand's
    default experiment."""
    settings = {"experiment": args.experiments[0]}
    with _usage_errors(args):
        if args.config:
            settings.update(ExperimentConfig.read_file(args.config))
        settings.update((k, v) for k, v in vars(args).items() if k in _FIELDS and v is not None)
        if settings["experiment"] not in args.experiments:
            raise ValueError(f"{args.command} cannot run experiment {settings['experiment']!r}")
        if settings.get("output") is None:
            raise ValueError("an --output path is required to write metrics")
        if not settings["output"] or Path(settings["output"]).is_dir():
            raise ValueError(f"--output must name a file, got {settings['output']!r}")
        return ExperimentConfig(**settings)


def _write_series(series, cfg: ExperimentConfig) -> None:
    emit(series, cfg.output, cfg.format)
    print(f"wrote {len(series)} rows to {cfg.output}")


def _cmd_gauss(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    series = run_gauss(cfg)
    _write_series(series, cfg)
    return 0


def _cmd_dmm(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    series, traces = run_dmm(cfg)
    _write_series(series, cfg)
    if args.traces:
        Path(args.traces).write_text(json.dumps({"schema_version": 1, "runs": traces}, indent=2) + "\n")
        print(f"wrote {len(traces)} replication traces to {args.traces}")
    return 0


def _cmd_theorems(args: argparse.Namespace) -> int:
    if args.instances < 1:
        args.parser.error("instances must be >= 1")
    report = run_theorem_suite(args.seed, instances=args.instances)
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
    with _usage_errors(args):
        dataset = make_synthetic(args.kind, args.means, args.seed, count=args.count)
    save_dataset(dataset, args.output)
    print(f"wrote {dataset.observations.size} observations to {args.output}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="infmc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gauss = sub.add_parser("gauss", help="Gaussian-target comparison at several budgets")
    _add_common_flags(gauss, GAUSS_EXPERIMENTS)
    gauss.add_argument("--group-size", type=int, default=None)
    gauss.add_argument("--sanity-fq", action="store_true", default=None,
                       help="target equals proposal: unit weights, zero log evidence")
    gauss.set_defaults(func=_cmd_gauss)

    dmm = sub.add_parser("dmm", help="mixture-model comparison at matched eval budgets")
    _add_common_flags(dmm, DMM_EXPERIMENTS)
    dmm.add_argument("--generations", type=int, default=None)
    dmm.add_argument("--inner-draws", type=int, default=None)
    dmm.add_argument("--kernel-bandwidth", type=float, default=None)
    dmm.add_argument("--kernel-cv", type=float, default=None)
    dmm.add_argument("--means", type=_float_pair, default=None, dest="true_means", metavar="MEANS")
    dmm.add_argument("--data-count", type=int, default=None)
    dmm.add_argument("--mixing", type=float, default=None, help="proportion of the first component")
    dmm.add_argument("--traces", type=str, default=None, help="optional per-generation trace JSON")
    dmm.set_defaults(func=_cmd_dmm)

    theorems = sub.add_parser("theorems", help="run the property suite; nonzero exit on failure")
    theorems.add_argument("--seed", type=_seed, required=True)
    theorems.add_argument("--instances", type=int, default=500)
    theorems.add_argument("--output", type=str, default=None)
    theorems.set_defaults(func=_cmd_theorems, parser=theorems)

    emit_data = sub.add_parser("emit-data", help="write a synthetic mixture dataset")
    emit_data.add_argument("--seed", type=_seed, required=True)
    emit_data.add_argument("--kind", choices=["gaussian", "student-t"], default="gaussian")
    emit_data.add_argument("--means", type=_float_pair, default=(-2.0, 2.0))
    emit_data.add_argument("--count", type=int, default=100)
    emit_data.add_argument("--output", type=str, required=True)
    emit_data.set_defaults(func=_cmd_emit_data, parser=emit_data)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
