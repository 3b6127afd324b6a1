"""Command-line harness: ``gauss``, ``dmm`` and ``theorems``."""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
from pathlib import Path

from .experiments import (
    DMM_EXPERIMENTS,
    FORMATS,
    GAUSS_EXPERIMENTS,
    METHODS,
    ExperimentConfig,
    emit,
    run_dmm,
    run_gauss,
    run_theorem_suite,
)

__all__ = ["main"]

_FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)}


def _seed(text: str) -> int:
    """Every subcommand's ``--seed``: a nonnegative integer, or a usage error."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"seed must be a nonnegative integer, got {text!r}")
    return int(text)


def _add_common_flags(parser: argparse.ArgumentParser, experiments: tuple[str, ...]) -> None:
    """Flags shared by ``gauss`` and ``dmm``.  Every flag of theirs but
    ``--config`` and ``--traces`` sets the ``ExperimentConfig`` field named by
    its ``dest``, its text parsed as a config file's value is; an unset flag
    is ``None``, so the config file or the field's default applies."""
    parser.add_argument("--seed", type=_seed, required=True, help="base seed; mandatory for reproducibility")
    parser.add_argument("--config", help="flat key=value config file (schema 1)")
    parser.add_argument("--experiment", choices=experiments, help=f"default: the config file's, else {experiments[0]}")
    parser.add_argument("--budgets", help="comma-separated, strictly increasing")
    parser.add_argument("--replications")
    parser.add_argument("--method", choices=[*METHODS, "both"])
    parser.add_argument("--workers", help="thread workers across replications")
    parser.add_argument("--output", help="metrics file to write")
    parser.add_argument("--format", choices=FORMATS)
    parser.set_defaults(parser=parser, experiments=experiments)


@contextlib.contextmanager
def _usage_errors(args: argparse.Namespace):
    """Report a ``ValueError`` from input validation as a usage error of the
    subcommand: the problem on stderr, exit code 2, nothing written."""
    try:
        yield
    except ValueError as exc:
        args.parser.error(str(exc))


def _refuse_non_file(flag: str, path: str | None, existing: bool = False) -> None:
    """Every path flag's check, made before any work: an output path must
    name a file in a directory that exists, and an ``existing`` input path
    must name a file that exists."""
    if path is None:
        return
    if existing and not Path(path).is_file():
        raise ValueError(f"{flag} must name an existing file, got {path!r}")
    if not existing and (not path or Path(path).is_dir() or not Path(path).parent.is_dir()):
        raise ValueError(f"{flag} must name a file in an existing directory, got {path!r}")


def _refuse_shared_file(paths: dict[str, str | None]) -> None:
    """Made before any work, beside each flag's own check: no two path flags
    may name one file, or the later write would replace the earlier."""
    seen: dict[Path, str] = {}
    for flag, path in paths.items():
        if path is None:
            continue
        resolved = Path(path).resolve()
        if resolved in seen:
            raise ValueError(f"{seen[resolved]} and {flag} name the same file, got {path!r}")
        seen[resolved] = flag


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    """A flag beats the config file, and the file beats the subcommand's
    default experiment; a file's seed must equal the mandatory ``--seed``."""
    settings = {"experiment": args.experiments[0], "seed": args.seed}
    with _usage_errors(args):
        _refuse_non_file("--config", args.config, existing=True)
        if args.config is not None:
            settings.update(ExperimentConfig.read_file(args.config))
            if settings["seed"] != args.seed:
                raise ValueError(f"the config file's seed {settings['seed']} differs from --seed {args.seed}")
        settings.update((k, ExperimentConfig.parse_value(k, v)) for k, v in vars(args).items()
                        if k in _FIELDS and k != "seed" and v is not None)
        if settings["experiment"] not in args.experiments:
            raise ValueError(f"{args.command} cannot run experiment {settings['experiment']!r}")
        if settings.get("output") is None:
            raise ValueError("an --output path is required to write metrics")
        _refuse_non_file("--output", settings["output"])
        _refuse_non_file("--traces", getattr(args, "traces", None))
        _refuse_shared_file({"--config": args.config, "--output": settings["output"],
                             "--traces": getattr(args, "traces", None)})
        return ExperimentConfig(**settings)


def _write_rows(rows, cfg: ExperimentConfig) -> None:
    emit(rows, cfg.output, cfg.format)
    print(f"wrote {len(rows)} rows to {cfg.output}")


def _cmd_gauss(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    _write_rows(run_gauss(cfg), cfg)
    return 0


def _cmd_dmm(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    rows, traces = run_dmm(cfg)
    _write_rows(rows, cfg)
    if args.traces is not None:
        Path(args.traces).write_text(json.dumps({"schema_version": 1, "runs": traces}, indent=2) + "\n")
        print(f"wrote {len(traces)} replication traces to {args.traces}")
    return 0


def _cmd_theorems(args: argparse.Namespace) -> int:
    with _usage_errors(args):
        if args.instances < 1:
            raise ValueError("instances must be >= 1")
        _refuse_non_file("--output", args.output)
    report = run_theorem_suite(args.seed, instances=args.instances)
    payload = json.dumps(report.to_dict(), indent=2)
    if args.output is not None:
        Path(args.output).write_text(payload + "\n")
    else:
        print(payload)
    for check in report.checks:
        status = "pass" if check.passed else "FAIL"
        print(f"{status}: {check.name} (worst {check.worst:.3e} over {check.cases} cases)", file=sys.stderr)
    return 0 if report.passed else 1


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="infmc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gauss = sub.add_parser("gauss", help="Gaussian-target comparison at several budgets")
    _add_common_flags(gauss, GAUSS_EXPERIMENTS)
    gauss.add_argument("--group-size")
    gauss.set_defaults(func=_cmd_gauss)

    dmm = sub.add_parser("dmm", help="mixture-model comparison at matched eval budgets")
    _add_common_flags(dmm, DMM_EXPERIMENTS)
    dmm.add_argument("--generations")
    dmm.add_argument("--inner-draws")
    dmm.add_argument("--means", dest="true_means", metavar="MEANS", help="comma-separated")
    dmm.add_argument("--data-count")
    dmm.add_argument("--traces", help="optional per-generation trace JSON")
    dmm.set_defaults(func=_cmd_dmm)

    theorems = sub.add_parser("theorems", help="run the property suite; nonzero exit on failure")
    theorems.add_argument("--seed", type=_seed, required=True)
    theorems.add_argument("--instances", type=int, default=500)
    theorems.add_argument("--output", type=str, default=None)
    theorems.set_defaults(func=_cmd_theorems, parser=theorems)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
