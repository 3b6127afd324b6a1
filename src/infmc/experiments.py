"""Seeded experiment harness: runs the Gaussian-target and mixture-model
comparisons across replications, executes the estimator property suite, and
emits plot-ready CSV/JSON.

Replications use keyed substreams, so results are byte-identical across runs
and across worker counts; aggregation always reduces in replication order.
"""
from __future__ import annotations

import collections
import functools
import itertools
import json
import math
import numbers
import time
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .distributions import DiagGaussian
from .estimators import SampleSet, TestFunction, union_decomposition
from . import factorized
from .factorized import (
    FactorizedModel,
    FactorizedProposal,
    GroupedSampleSet,
    grouped_inflate,
    recombine,
    weigh,
)
from .models import (
    GAUSSIAN,
    NUM_COMPONENTS,
    STUDENT_T,
    DmmSpec,
    GaussianToy,
    MixtureAssignmentProposal,
    component_means_function,
    dmm_init_proposal,
    dmm_model,
    make_synthetic,
)
from .pmc import GaussianKernel, GammaKernel, PmcConfig, TupleKernel, VarianceKernel, run_pmc
from .pmc import trace_metrics
from .rng import RandomSource

__all__ = [
    "ExperimentConfig",
    "MetricRow",
    "run_gauss",
    "run_dmm",
    "run_theorem_suite",
    "TheoremReport",
    "emit",
    "gauss_replication",
    "dmm_replication",
]

GAUSS_EXPERIMENTS = ("gauss-centered", "gauss-offcenter")
# each mixture experiment's component family and per-block kernel, at the library defaults
_MIXTURES = {
    "dmm-gauss": (GAUSSIAN, GaussianKernel()),
    "dmm-t": (STUDENT_T, TupleKernel([GaussianKernel(), VarianceKernel(), GammaKernel()])),
}
DMM_EXPERIMENTS = tuple(_MIXTURES)
EXPERIMENTS = GAUSS_EXPERIMENTS + DMM_EXPERIMENTS
METHODS = ("plain", "inflated")
FORMATS = ("csv", "json")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a harness run needs: the one declaration of each setting's
    name, type, default and validity.  Config-file keys and the ``dest`` of
    every ``gauss``/``dmm`` flag are these field names, and config-file and
    flag values are parsed alike, by :meth:`parse_value`.

    Unset ``budgets`` and ``replications`` resolve per experiment family:
    (2000,) x 25 for the mixture experiments, (200, 2000, 20000) x 50
    otherwise.  A budget must be a positive integer, and a mixture budget
    counts the plain run's samples over all ``generations``, so it must split
    into that many populations.  Only the inflated method groups its draws:
    with it, a Gaussian budget must be a multiple of ``group_size``, each
    mixture population a multiple of ``inner_draws``.  The diagnostic labels
    enumerated at once, combinations x ``data_count`` x replications in flight, stay within the cap.
    """

    experiment: str
    seed: int
    budgets: tuple[int, ...] | None = None
    replications: int | None = None
    method: str = "both"
    group_size: int = 100
    generations: int = 20
    inner_draws: int = 2
    true_means: tuple[float, float] = (-2.0, 2.0)
    data_count: int = 100
    workers: int = 1
    output: str | None = None
    format: str = "csv"

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.method not in METHODS + ("both",):
            raise ValueError(f"unknown method {self.method!r}")
        if self.format not in FORMATS:
            raise ValueError(f"unknown format {self.format!r}")
        mixture = self.experiment in DMM_EXPERIMENTS
        if self.replications is None:
            object.__setattr__(self, "replications", 25 if mixture else 50)
        if self.budgets is None:
            object.__setattr__(self, "budgets", (2000,) if mixture else (200, 2000, 20000))
        if refused := [b for b in self.budgets if not isinstance(b, numbers.Integral)]:
            raise ValueError(f"budget {refused[0]!r} must be an integer")
        budgets = tuple(int(b) for b in self.budgets)
        object.__setattr__(self, "budgets", budgets)
        if not budgets or any(b2 <= b1 for b1, b2 in zip(budgets, budgets[1:])):
            raise ValueError("budgets must be one or more strictly increasing values")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValueError(f"seed {self.seed!r} must be an integer >= 0")
        means = self.true_means
        if len(means) != NUM_COMPONENTS or not all(isinstance(m, numbers.Real) and math.isfinite(m) for m in means):
            raise ValueError(f"true_means must give the two component means, finite, got {means!r}")
        counts = ("replications", "workers", "group_size", "generations", "inner_draws", "data_count")
        for name in counts:
            if not isinstance(value := getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} {value!r} must be an integer")
        if self.replications < 2:
            raise ValueError("need at least 2 replications to estimate variances")
        for name in counts[1:]:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        inflated = "inflated" in self.methods
        draws = self.inner_draws if inflated else 1  # the inner draws of the largest generation
        in_flight = min(self.workers, self.replications)  # replications enumerating labels at once
        for budget in budgets:
            if mixture:
                population, rest = divmod(budget, self.generations)
                if population < 1 or rest or population % draws:
                    each = f", each a positive multiple of inner_draws {self.inner_draws}" if inflated else ""
                    raise ValueError(f"budget {budget} must split into {self.generations} generations{each}")
                combinations = population // draws * draws**NUM_COMPONENTS
                if (labels := combinations * self.data_count * in_flight) > factorized.MAX_UNCAPPED_COMBINATIONS:
                    raise ValueError(
                        f"budget {budget} at inner_draws {draws} makes {combinations} combinations per generation, "
                        f"beyond the cap: their {labels} labels at data_count {self.data_count} exceed "
                        f"{factorized.MAX_UNCAPPED_COMBINATIONS} over {in_flight} replications on {self.workers} workers"
                    )
            elif budget < 1 or (inflated and budget % self.group_size):
                multiple = f"multiple of group_size {self.group_size}" if inflated else "number of draws"
                raise ValueError(f"budget {budget} must be a positive {multiple}")

    @property
    def methods(self) -> tuple[str, ...]:
        return METHODS if self.method == "both" else (self.method,)

    @classmethod
    def read_file(cls, path) -> dict:
        """Parse the flat ``key = value`` config format (schema version 1)
        into keyword arguments of this class.

        Lines are ``key = value`` with ``#`` comments; keys are field names
        and values are parsed by :meth:`parse_value`.  A ``schema_version =
        1`` entry is required, and a key may appear only once.
        """
        entries: dict[str, str] = {}
        for raw in Path(path).read_text().splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in entries:
                raise ValueError(f"config key {key!r} is given more than once")
            entries[key] = value
        if entries.pop("schema_version", None) != "1":
            raise ValueError("config file must declare schema_version = 1")
        return {key: cls.parse_value(key, value) for key, value in entries.items()}

    @classmethod
    def parse_value(cls, key: str, value: str):
        """One setting's value from its text in a config file or a flag:
        parsed by the field's type, ``X | None`` as ``X`` and a tuple as
        comma-separated items.  A ``ValueError`` names the setting."""
        kind = typing.get_type_hints(cls).get(key)
        if kind is None:
            raise ValueError(f"unknown config key {key!r}")
        if type(None) in typing.get_args(kind):
            kind = typing.get_args(kind)[0]
        try:
            if typing.get_origin(kind) is tuple:
                return tuple(typing.get_args(kind)[0](v.strip()) for v in value.split(","))
            return kind(value)
        except ValueError as exc:
            raise ValueError(f"invalid {key} value {value!r}: {exc}") from None


@dataclass(frozen=True)
class MetricRow:
    experiment: str
    method: str
    budget: int
    replications: int
    component: int
    squared_bias: float
    variance: float
    mse: float
    mean_estimate: float
    log_evidence_mse: float
    wall_seconds: float

    def __post_init__(self):
        if not (self.mse >= self.variance >= 0.0):
            raise ValueError(f"need mse >= variance >= 0, got {self.mse}, {self.variance}")
        if abs(self.mse - (self.variance + self.squared_bias)) > 1e-9 * max(1.0, self.mse):
            raise ValueError("mse must decompose into variance plus squared bias")


CSV_COLUMNS = tuple(f.name for f in fields(MetricRow))


def _metric_rows(
    experiment: str,
    method: str,
    budget: int,
    estimates: np.ndarray,
    truth: np.ndarray,
    log_evidence_mse: float,
    wall_seconds: float,
) -> list[MetricRow]:
    """Replication aggregation: squared bias from the replication mean,
    variance across replications, and mse as their (exact) sum."""
    estimates = np.asarray(estimates, dtype=float)
    mean_est = estimates.mean(axis=0)
    squared_bias = (mean_est - truth) ** 2
    variance = estimates.var(axis=0)
    rows = []
    for comp in range(estimates.shape[1]):
        rows.append(
            MetricRow(
                experiment=experiment,
                method=method,
                budget=int(budget),
                replications=int(estimates.shape[0]),
                component=comp,
                squared_bias=float(squared_bias[comp]),
                variance=float(variance[comp]),
                mse=float(variance[comp] + squared_bias[comp]),
                mean_estimate=float(mean_est[comp]),
                log_evidence_mse=float(log_evidence_mse),
                wall_seconds=float(wall_seconds),
            )
        )
    return rows


def _replicate(cfg: ExperimentConfig, replication: Callable[[ExperimentConfig, int, RandomSource], dict]):
    """Yield ``(budget, results)`` per budget, ``results`` an iterator over
    ``replication(cfg, budget, src)`` for every replication, in replication
    order; a budget's results are consumed before the next budget is asked
    for.  At one worker the replications run one at a time on the calling
    thread as the iterator is read.  On ``cfg.workers`` threads at most
    ``2 × workers`` replications are submitted at once, one running and one
    queued per worker, and the next is submitted as the oldest result is
    taken.  When a replication raises, or the consumer closes the iterator,
    the queued replications are cancelled and the running ones finish before
    the exception propagates.  Replication ``r`` at budget index ``bi``
    draws only from ``RandomSource(cfg.seed).child(bi, r)``, so the results
    do not depend on the worker count."""
    root = RandomSource(cfg.seed)
    for bi, budget in enumerate(cfg.budgets):
        run = lambda r, bi=bi, budget=budget: replication(cfg, budget, root.child(bi, r))
        if cfg.workers == 1:
            yield budget, map(run, range(cfg.replications))
        else:
            yield budget, _windowed(run, cfg.replications, cfg.workers)


def _windowed(run: Callable[[int], dict], count: int, workers: int):
    """``run(r)`` for ``r`` in ``range(count)`` on ``workers`` threads, yielded
    in order with at most ``2 × workers`` calls submitted; see :func:`_replicate`."""
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending: collections.deque = collections.deque()
        try:
            for r in range(count):
                pending.append(pool.submit(run, r))
                if len(pending) == 2 * workers:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
        finally:
            for future in pending:
                future.cancel()


# ---------------------------------------------------------------------------
# Gaussian-target experiment
# ---------------------------------------------------------------------------


def gauss_replication(cfg: ExperimentConfig, budget: int, src: RandomSource) -> dict:
    """One replication on :class:`GaussianToy`, proposing around 0 for
    ``gauss-centered`` and around 5 in every coordinate for
    ``gauss-offcenter``: the same proposal draws feed both methods, the plain
    method recombining them as groups of one, the inflated method within
    each group of ``cfg.group_size``; each set picks its own estimator."""
    toy = GaussianToy()
    center = 0.0 if cfg.experiment == "gauss-centered" else 5.0
    model, prop = toy.model(), toy.proposal(center)
    pts = toy.sample_proposal(budget, src, center)
    out: dict[str, dict] = {}
    for method in cfg.methods:
        t0 = time.perf_counter()
        sample_set = (weigh(model, prop, None, pts[:, :, None]) if method == "plain"
                      else grouped_inflate(pts, cfg.group_size, model, prop))
        out[method] = {
            "expectation": sample_set.self_normalized_mean(),
            "log_evidence": sample_set.log_evidence(),
            "samples": sample_set.size,
            "wall": time.perf_counter() - t0,
        }
    return out


def run_gauss(cfg: ExperimentConfig) -> list[MetricRow]:
    """Expectation and log-evidence metrics for the Gaussian target, one row
    per (budget, method, component), over seeded replications."""
    if cfg.experiment not in GAUSS_EXPERIMENTS:
        raise ValueError(f"run_gauss cannot run {cfg.experiment!r}")
    toy = GaussianToy()
    rows: list[MetricRow] = []
    for budget, results in _replicate(cfg, gauss_replication):
        # each result is reduced to its estimates, log evidence and wall time as it arrives
        estimates = {method: np.empty((cfg.replications, toy.dimension)) for method in cfg.methods}
        log_ev = {method: np.empty(cfg.replications) for method in cfg.methods}
        wall = dict.fromkeys(cfg.methods, 0.0)
        for r, res in enumerate(results):
            for method in cfg.methods:
                estimates[method][r] = res[method]["expectation"]
                log_ev[method][r] = res[method]["log_evidence"]
                wall[method] += res[method]["wall"]
        for method in cfg.methods:
            lev_mse = float(np.mean((log_ev[method] - toy.true_log_evidence) ** 2))
            rows.extend(_metric_rows(cfg.experiment, method, budget, estimates[method], toy.true_mean, lev_mse,
                                     wall[method]))
    return rows


# ---------------------------------------------------------------------------
# Mixture-model experiment
# ---------------------------------------------------------------------------


def _aligned_estimate(estimate: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Component labels are exchangeable; align the estimate to the truth by
    the error-minimizing permutation before computing metrics."""
    best = None
    for perm in itertools.permutations(range(truth.size)):
        candidate = estimate[list(perm)]
        err = float(np.linalg.norm(candidate - truth))
        if best is None or err < best[0]:
            best = (err, candidate)
    return best[1]


def _best_log_likelihoods(model: FactorizedModel, spec: DmmSpec, sample_set: GroupedSampleSet) -> tuple[float, float]:
    """The largest data log-likelihood given the labels and the largest
    mixture marginal likelihood over a generation's combinations: two
    batches from one enumeration, both outside the generation's budget."""
    (weights, labels), blocks = sample_set.aligned()
    best = float(np.max(model.data_log_likelihood((weights, labels), blocks)))
    marginal = spec.marginal_data_log_likelihood(weights, np.stack(blocks, axis=1))
    return best, float(np.max(marginal))


def _dmm_method(cfg: ExperimentConfig, budget: int, src: RandomSource, spec: DmmSpec, model: FactorizedModel,
                init: FactorizedProposal, method: str) -> dict:
    """One method's run within :func:`dmm_replication` and its summaries; its
    generations are released on return, before the next method runs."""
    truth = np.asarray(cfg.true_means, dtype=float)
    pmc_cfg = PmcConfig(
        population_size=budget // cfg.generations,
        generations=cfg.generations,
        kernel=_MIXTURES[cfg.experiment][1],
        inner_draws=cfg.inner_draws if method == "inflated" else 1,
        global_proposal_builder=functools.partial(MixtureAssignmentProposal, spec),
    )
    t0 = time.perf_counter()
    gens = run_pmc(model, init, pmc_cfg, src.child(1, METHODS.index(method)), component_means_function(spec))
    wall = time.perf_counter() - t0
    # components are exchangeable: every generation's estimate is aligned, as the final one is
    estimates = [_aligned_estimate(g.cumulative_estimate, truth) for g in gens]
    best, best_marginal = map(np.array, zip(*(_best_log_likelihoods(model, spec, g.sample_set) for g in gens)))
    errors = [np.linalg.norm(e - truth) for e in estimates]
    trace = trace_metrics(best, errors, [g.block_evals for g in gens])
    return {
        "estimate": estimates[-1],
        "error": float(errors[-1]),
        "trace": trace,
        "best_marginal": best_marginal,
        "block_evals": int(trace.block_evals.sum()),
        "samples_per_generation": len(gens[0].sample_set),
        "wall": wall,
    }


def dmm_replication(cfg: ExperimentConfig, budget: int, src: RandomSource) -> dict:
    """One (plain, inflated) pair on a fresh synthetic dataset at matched
    likelihood-evaluation budgets, one method's generations alive at a time."""
    family, _ = _MIXTURES[cfg.experiment]
    data_seed = int(src.child(0).generator.integers(2**63))
    dataset = make_synthetic(family, cfg.true_means, data_seed, cfg.data_count)
    spec = DmmSpec(dataset.observations, family)
    model, init = dmm_model(spec), dmm_init_proposal(spec)
    out: dict[str, dict] = {"truth": np.asarray(cfg.true_means, dtype=float), "dataset_seed": data_seed}
    for method in cfg.methods:
        out[method] = _dmm_method(cfg, budget, src, spec, model, init, method)
    return out


def run_dmm(cfg: ExperimentConfig) -> tuple[list[MetricRow], list[dict]]:
    """Mixture-model comparison; returns the metric rows plus the raw
    per-replication traces (best log likelihood, errors, eval counts)."""
    if cfg.experiment not in DMM_EXPERIMENTS:
        raise ValueError(f"run_dmm cannot run {cfg.experiment!r}")
    truth = np.asarray(cfg.true_means, dtype=float)
    rows: list[MetricRow] = []
    all_traces: list[dict] = []
    for budget, results in _replicate(cfg, dmm_replication):
        results = list(results)
        for r, res in enumerate(results):
            record = {"budget": int(budget), "replication": r, "dataset_seed": res["dataset_seed"]}
            for method in cfg.methods:
                trace = res[method]["trace"]
                best_marginal = res[method]["best_marginal"]
                record[method] = {
                    "best_log_likelihood": trace.best_log_likelihood.tolist(),
                    "best_log_likelihood_so_far": trace.best_log_likelihood_so_far.tolist(),
                    "best_marginal_log_likelihood": best_marginal.tolist(),
                    "best_marginal_so_far": np.maximum.accumulate(best_marginal).tolist(),
                    "estimate_error": trace.estimate_error.tolist(),
                    "block_evals": trace.block_evals.tolist(),
                    "final_estimate": np.asarray(res[method]["estimate"]).tolist(),
                    "final_error": res[method]["error"],
                }
            all_traces.append(record)
        for method in cfg.methods:
            estimates = np.array([res[method]["estimate"] for res in results])
            wall = float(sum(res[method]["wall"] for res in results))
            rows.extend(_metric_rows(cfg.experiment, method, budget, estimates, truth, float("nan"), wall))
    return rows, all_traces


# ---------------------------------------------------------------------------
# Property suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    cases: int
    worst: float
    tolerance: float
    passed: bool


@dataclass
class TheoremReport:
    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {"schema_version": 1, "passed": self.passed, **asdict(self)}


def _random_partition(rng: RandomSource, max_size: int, span: float):
    total = int(rng.generator.integers(1, max_size + 1))
    parts = int(rng.generator.integers(1, min(5, total) + 1))
    cuts = np.sort(rng.generator.choice(np.arange(1, total), size=parts - 1, replace=False)) if parts > 1 else []
    bounds = [0, *cuts, total]
    points = rng.generator.standard_normal((total, 2))
    log_w = -rng.generator.random(total) * span
    return [
        SampleSet(points[a:b], log_w[a:b]) for a, b in zip(bounds[:-1], bounds[1:])
    ]


def _random_small_instance(rng: RandomSource):
    """A small factorized model/proposal pair with a nontrivial global block
    and at most 3 observations per block (9 data points total), with outer
    and inner draw counts for :func:`recombine`."""
    g = rng.generator
    k = int(g.integers(1, 4))
    data = [g.standard_normal(int(g.integers(1, 4))) for _ in range(k)]
    shift = float(g.normal())

    def make_lik(j):
        obs = data[j]
        # phi and gamma are aligned: one of each, or batches along the first axis
        return lambda phi, gamma: -0.5 * np.sum((obs - np.asarray(phi * shift + gamma)[..., None]) ** 2, axis=-1)

    prior = DiagGaussian(0.0, 1.0)
    model = FactorizedModel(
        num_blocks=k,
        global_log_prior=prior.log_density_each,
        block_log_priors=(prior.log_density_each,) * k,
        block_log_likelihoods=tuple(make_lik(j) for j in range(k)),
        log_evidence_offset=float(g.normal()),
    )
    proposal = FactorizedProposal(
        block_proposals=tuple(DiagGaussian(float(g.normal()), 2.0) for _ in range(k)),
        global_proposal=DiagGaussian(float(g.normal()), 2.0),
    )
    return model, proposal, int(g.integers(1, 4)), int(g.integers(1, 4))


def _counting_likelihoods(model: FactorizedModel) -> tuple[FactorizedModel, list[int]]:
    """``model`` with block likelihoods that append the number of values
    each call scores to the returned list: the first axis of an array of
    values, and 1 for one value (a tuple-valued block's value included)."""
    counts: list[int] = []

    def counted(lik):
        def count(values) -> int:
            return len(values) if isinstance(values, np.ndarray) and values.ndim else 1

        return lambda global_values, values: counts.append(count(values)) or lik(global_values, values)

    return replace(model, block_log_likelihoods=tuple(map(counted, model.block_log_likelihoods))), counts


def _residual(estimate: np.ndarray, per_set: np.ndarray, lambdas: np.ndarray) -> float:
    """Max-norm gap between a :func:`union_decomposition`'s union estimate and ``lambdas @ per_set``."""
    return float(np.max(np.abs(estimate - lambdas @ per_set)))


def run_theorem_suite(seed: int, instances: int = 500, inflation_instances: int = 200) -> TheoremReport:
    """Execute the estimator and recombination property checks on randomized
    instances and report the worst residual per check."""
    if instances < 1 or inflation_instances < 1:
        raise ValueError("instances and inflation_instances must be >= 1")
    rng = RandomSource(seed)
    h = TestFunction.identity(2)
    checks: list[CheckResult] = []

    kinds = ("standard", "self-normalized")
    partitions = [_random_partition(rng.child(0, i), 1000, float(rng.child(1, i).generator.random() * 600)) for i in range(instances)]
    ref_rng = rng.child(2)
    residuals: dict[str, list[float]] = {kind: [] for kind in kinds}
    worst_margin = 0.0
    for sets in partitions:
        reference = ref_rng.generator.standard_normal(2)
        for kind in kinds:
            estimate, per_set, lambdas = union_decomposition(sets, h, kind)
            residuals[kind].append(_residual(estimate, per_set, lambdas))
            combined = lambdas @ per_set
            for ord in (1, 2, np.inf):
                avg_error = float(lambdas @ [np.linalg.norm(v - reference, ord=ord) for v in per_set])
                worst_margin = min(worst_margin, avg_error - float(np.linalg.norm(combined - reference, ord=ord)))
    for kind in kinds:
        worst = max(residuals[kind])
        checks.append(CheckResult(f"union-decomposition-{kind}", instances, worst, 1e-10, worst < 1e-10))
    checks.append(
        CheckResult("error-convexity-bound", instances * 6, worst_margin, -1e-12, worst_margin >= -1e-12)
    )

    adversarial = [_random_partition(rng.child(3, i), 1000, 600.0) for i in range(50)]
    worst_adv = max(_residual(*union_decomposition(sets, h, kind)) for sets in adversarial for kind in kinds)
    checks.append(CheckResult("union-decomposition-600-log-units", 100, worst_adv, 1e-8, worst_adv < 1e-8))

    worst_cache = 0.0
    count_mismatches = 0
    for i in range(inflation_instances):
        inst_rng = rng.child(4, i)
        model, proposal, outer, inner = _random_small_instance(inst_rng)
        counted_model, counts = _counting_likelihoods(model)
        sample_set = recombine(counted_model, proposal, outer, inner, inst_rng)
        if sum(counts) != outer * inner * model.num_blocks:
            count_mismatches += 1
        global_values, block_values = sample_set.aligned()
        oracle = np.array(
            [
                model.joint_log_density(g, values) - proposal.joint_log_density(g, values)
                for g, values in zip(global_values, zip(*block_values))
            ]
        )
        worst_cache = max(worst_cache, float(np.max(np.abs(sample_set.log_weights - oracle))))
    checks.append(
        CheckResult("recombination-cache-vs-oracle", inflation_instances, worst_cache, 1e-12, worst_cache < 1e-12)
    )
    checks.append(
        CheckResult(
            "recombination-eval-count", inflation_instances, float(count_mismatches), 0.0, count_mismatches == 0
        )
    )
    return TheoremReport(checks)


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def _format_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit(rows: list[MetricRow], path, format: str = "csv") -> None:
    """Write the rows; CSV columns are fixed, JSON mirrors rows as objects,
    with ``null`` for an undefined (NaN) value.  Refuses to create a file for
    no rows."""
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}")
    if not rows:
        raise ValueError("refusing to emit no rows")
    path = Path(path)
    records = [asdict(row) for row in rows]
    if format == "csv":
        lines = [",".join(CSV_COLUMNS)]
        for record in records:
            lines.append(",".join(_format_value(record[col]) for col in CSV_COLUMNS))
        path.write_text("\n".join(lines) + "\n")
    else:
        undefined = lambda v: isinstance(v, float) and math.isnan(v)
        objects = [{c: None if undefined(v) else v for c, v in r.items()} for r in records]
        path.write_text(json.dumps({"schema_version": 1, "rows": objects}, indent=2, allow_nan=False) + "\n")
