"""Seeded experiment harness: runs the Gaussian-target and mixture-model
comparisons across replications, executes the estimator property suite, and
emits plot-ready CSV/JSON.

Replications use keyed substreams, so results are byte-identical across runs
and across worker counts; aggregation always reduces in replication order.
"""
from __future__ import annotations

import itertools
import json
import math
import time
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .distributions import DiagGaussian
from .estimators import (
    SampleSet,
    TestFunction,
    decomposition_residual,
    error_convexity_margin,
    evidence_estimate,
    self_normalized_estimate,
)
from .factorized import (
    FactorizedModel,
    FactorizedProposal,
    GroupedSampleSet,
    block_contributions,
    grouped_inflate,
    inflate,
)
from .models import (
    DmmSpec,
    GaussianToy,
    component_means_function,
    dmm_init_proposal,
    dmm_model,
    informed_assignment_builder,
    make_synthetic,
)
from .pmc import GaussianKernel, GammaKernel, PmcConfig, TupleKernel, VarianceKernel, run_pmc
from .pmc import trace_metrics
from .rng import RandomSource

__all__ = [
    "ExperimentConfig",
    "MetricRow",
    "MetricSeries",
    "run_gauss",
    "run_dmm",
    "run_theorem_suite",
    "TheoremReport",
    "emit",
    "gauss_replication",
    "dmm_replication",
]

GAUSS_EXPERIMENTS = ("gauss-centered", "gauss-offcenter")
DMM_EXPERIMENTS = ("dmm-gauss", "dmm-t")
EXPERIMENTS = GAUSS_EXPERIMENTS + DMM_EXPERIMENTS
METHODS = ("plain", "inflated")

CSV_COLUMNS = (
    "experiment",
    "method",
    "budget",
    "replications",
    "component",
    "squared_bias",
    "variance",
    "mse",
    "mean_estimate",
    "log_evidence_mse",
    "wall_seconds",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a harness run needs: the one declaration of each setting's
    name, type, default and validity.  Config-file keys and the ``dest`` of
    every ``gauss``/``dmm`` flag are these field names, and config values are
    parsed by the field's type.

    Unset ``budgets`` and ``replications`` resolve per experiment family:
    (2000,) x 25 for the mixture experiments, (200, 2000, 20000) x 50
    otherwise.  A Gaussian budget must be a positive multiple of
    ``group_size``; a mixture budget counts the plain run's samples over all
    ``generations``, so it must split into that many populations, each a
    multiple of ``inner_draws``.
    """

    experiment: str
    seed: int
    budgets: tuple[int, ...] | None = None
    replications: int | None = None
    method: str = "both"
    group_size: int = 100
    generations: int = 20
    inner_draws: int = 2
    kernel_bandwidth: float = 0.25
    kernel_cv: float = 0.3
    true_means: tuple[float, float] = (-2.0, 2.0)
    data_count: int = 100
    mixing: float = 0.5
    workers: int = 1
    sanity_fq: bool = False
    output: str | None = None
    format: str = "csv"

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.method not in METHODS + ("both",):
            raise ValueError(f"unknown method {self.method!r}")
        if self.format not in ("csv", "json"):
            raise ValueError(f"unknown format {self.format!r}")
        mixture = self.experiment in DMM_EXPERIMENTS
        if self.replications is None:
            object.__setattr__(self, "replications", 25 if mixture else 50)
        if self.budgets is None:
            object.__setattr__(self, "budgets", (2000,) if mixture else (200, 2000, 20000))
        budgets = tuple(int(b) for b in self.budgets)
        object.__setattr__(self, "budgets", budgets)
        if not budgets or any(b2 <= b1 for b1, b2 in zip(budgets, budgets[1:])):
            raise ValueError("budgets must be one or more strictly increasing values")
        if len(self.true_means) != 2 or not all(map(math.isfinite, self.true_means)):
            raise ValueError(f"true_means must give the two component means, finite, got {self.true_means!r}")
        if self.replications < 2:
            raise ValueError("need at least 2 replications to estimate variances")
        for name in ("workers", "group_size", "generations", "inner_draws", "data_count"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for budget in budgets:
            if mixture:
                population, rest = divmod(budget, self.generations)
                if population < 1 or rest or population % self.inner_draws:
                    raise ValueError(
                        f"budget {budget} must split into {self.generations} generations, "
                        f"each a positive multiple of inner_draws {self.inner_draws}"
                    )
            elif budget < self.group_size or budget % self.group_size:
                raise ValueError(f"budget {budget} must be a positive multiple of group_size {self.group_size}")
        for name in ("kernel_bandwidth", "kernel_cv"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 0.0 <= self.mixing <= 1.0:
            raise ValueError(f"mixing must lie in [0, 1], got {self.mixing!r}")

    @property
    def methods(self) -> tuple[str, ...]:
        return METHODS if self.method == "both" else (self.method,)

    @classmethod
    def read_file(cls, path) -> dict:
        """Parse the flat ``key = value`` config format (schema version 1)
        into keyword arguments of this class.

        Lines are ``key = value`` with ``#`` comments; keys are field names
        and values are parsed by the field's type: list values are comma
        separated, booleans are ``true``/``false``.  A ``schema_version = 1``
        entry is required, and a key may appear only once.
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
        types = typing.get_type_hints(cls)
        for key in entries:
            if key not in types:
                raise ValueError(f"unknown config key {key!r}")
        return {key: _parse_config_value(key, types[key], value) for key, value in entries.items()}


def _parse_config_value(key: str, kind, value: str):
    if type(None) in typing.get_args(kind):  # "X | None" parses as X
        kind = typing.get_args(kind)[0]
    if typing.get_origin(kind) is tuple:
        item = typing.get_args(kind)[0]
        return tuple(item(v.strip()) for v in value.split(","))
    if kind is bool:
        if value.lower() not in ("true", "false"):
            raise ValueError(f"{key} must be true or false, got {value!r}")
        return value.lower() == "true"
    return kind(value)


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


@dataclass
class MetricSeries:
    """Aggregated metrics, one row per (budget, method, component)."""

    rows: list[MetricRow] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rows)

    def to_records(self) -> list[dict]:
        return [{col: getattr(row, col) for col in CSV_COLUMNS} for row in self.rows]

    @classmethod
    def from_records(cls, records) -> MetricSeries:
        """Rows from :meth:`to_records`' dicts, reading JSON's ``None`` as NaN."""
        return cls([MetricRow(**{c: math.nan if r[c] is None else r[c] for c in CSV_COLUMNS}) for r in records])


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


def _map_replications(cfg: ExperimentConfig, worker: Callable[[int], dict]) -> list[dict]:
    if cfg.workers == 1:
        return [worker(r) for r in range(cfg.replications)]
    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        return list(pool.map(worker, range(cfg.replications)))


# ---------------------------------------------------------------------------
# Gaussian-target experiment
# ---------------------------------------------------------------------------


def _gauss_setup(cfg: ExperimentConfig):
    toy = GaussianToy(log_evidence_offset=0.0 if cfg.sanity_fq else -1000.0)
    center = np.zeros(2) if cfg.experiment == "gauss-centered" else np.array([5.0, 5.0])
    model = toy.model()
    if cfg.sanity_fq:
        prop = FactorizedProposal(block_proposals=(DiagGaussian(0.0, toy.variance),) * toy.dimension)
    else:
        prop = toy.proposal(center)
    return toy, center, model, prop


def _gauss_draw(toy: GaussianToy, center, count: int, src: RandomSource, sanity: bool):
    if sanity:
        return np.sqrt(toy.variance) * src.generator.standard_normal((count, toy.dimension))
    return toy.sample_proposal(count, src, center)


def gauss_replication(
    toy: GaussianToy,
    model: FactorizedModel,
    prop: FactorizedProposal,
    center,
    budget: int,
    group_size: int,
    src: RandomSource,
    methods=METHODS,
    sanity: bool = False,
) -> dict:
    """One replication: the same proposal draws feed both methods; the plain
    method estimates from them directly, the inflated method from every
    recombination within each group, contracted per block rather than
    enumerated."""
    pts = _gauss_draw(toy, center, budget, src, sanity)
    out: dict[str, dict] = {}
    if "plain" in methods:
        t0 = time.perf_counter()
        log_w, contrib = block_contributions(model, prop, pts)
        for column in contrib.T:  # ((base + c_0) + c_1): the recombined weight grid's order
            log_w = log_w + column
        sample_set = SampleSet(pts, log_w)
        out["plain"] = {
            "expectation": self_normalized_estimate(sample_set, TestFunction.identity(toy.dimension)),
            "log_evidence": evidence_estimate(sample_set),
            "samples": len(sample_set),
            "wall": time.perf_counter() - t0,
        }
    if "inflated" in methods:
        t0 = time.perf_counter()
        inflated = grouped_inflate(pts, group_size, model, prop)
        out["inflated"] = {
            "expectation": inflated.self_normalized_mean(),
            "log_evidence": inflated.log_evidence(),
            "samples": inflated.size,
            "wall": time.perf_counter() - t0,
        }
    return out


def run_gauss(cfg: ExperimentConfig) -> MetricSeries:
    """Expectation and log-evidence metrics for the Gaussian target, per
    budget and method, over seeded replications."""
    if cfg.experiment not in GAUSS_EXPERIMENTS:
        raise ValueError(f"run_gauss cannot run {cfg.experiment!r}")
    toy, center, model, prop = _gauss_setup(cfg)
    root = RandomSource(cfg.seed)
    truth = toy.true_mean
    series = MetricSeries()
    for bi, budget in enumerate(cfg.budgets):
        worker = lambda r: gauss_replication(
            toy, model, prop, center, budget, cfg.group_size, root.child(bi, r), cfg.methods, cfg.sanity_fq
        )
        results = _map_replications(cfg, worker)
        for method in cfg.methods:
            estimates = np.array([res[method]["expectation"] for res in results])
            log_ev = np.array([res[method]["log_evidence"] for res in results])
            wall = float(sum(res[method]["wall"] for res in results))
            lev_mse = float(np.mean((log_ev - toy.true_log_evidence) ** 2))
            series.rows.extend(
                _metric_rows(cfg.experiment, method, budget, estimates, truth, lev_mse, wall)
            )
    return series


# ---------------------------------------------------------------------------
# Mixture-model experiment
# ---------------------------------------------------------------------------


def _dmm_kernel(cfg: ExperimentConfig):
    if cfg.experiment == "dmm-gauss":
        return GaussianKernel(cfg.kernel_bandwidth)
    return TupleKernel(
        [GaussianKernel(cfg.kernel_bandwidth), VarianceKernel(cfg.kernel_cv), GammaKernel(cfg.kernel_cv)]
    )


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


def _best_marginal(spec: DmmSpec, sample_set: GroupedSampleSet) -> float:
    """Largest mixture marginal likelihood over a generation's combinations,
    as one batch from one enumeration."""
    (weights, _), blocks = sample_set.aligned()
    return float(np.max(spec.marginal_data_log_likelihood(weights, np.stack(blocks, axis=1))))


def dmm_replication(cfg: ExperimentConfig, budget: int, src: RandomSource) -> dict:
    """One (plain, inflated) pair on a fresh synthetic dataset at matched
    likelihood-evaluation budgets."""
    family = "gaussian" if cfg.experiment == "dmm-gauss" else "student-t"
    data_seed = int(src.child(0).generator.integers(2**63))
    dataset = make_synthetic(family, cfg.true_means, data_seed, cfg.data_count, cfg.mixing)
    spec = DmmSpec(dataset.observations, family)
    model = dmm_model(spec)
    init = dmm_init_proposal(spec)
    h = component_means_function(spec)
    kernel = _dmm_kernel(cfg)
    truth = np.asarray(cfg.true_means, dtype=float)

    out: dict[str, dict] = {"truth": truth, "dataset_seed": data_seed}
    for mi, method in enumerate(cfg.methods):
        pmc_cfg = PmcConfig(
            population_size=budget // cfg.generations,
            generations=cfg.generations,
            kernel=kernel,
            inner_draws=cfg.inner_draws if method == "inflated" else 1,
            global_proposal_builder=informed_assignment_builder(spec),
        )
        t0 = time.perf_counter()
        gens = run_pmc(model, init, pmc_cfg, src.child(1, mi), h)
        wall = time.perf_counter() - t0
        trace = trace_metrics(gens, truth)
        best_marginal = np.array([_best_marginal(spec, g.sample_set) for g in gens])
        aligned = _aligned_estimate(gens[-1].cumulative_estimate, truth)
        out[method] = {
            "estimate": aligned,
            "error": float(np.linalg.norm(aligned - truth)),
            "trace": trace,
            "best_marginal": best_marginal,
            "block_evals": int(trace.block_evals.sum()),
            "samples_per_generation": len(gens[0].sample_set),
            "wall": wall,
        }
    return out


def run_dmm(cfg: ExperimentConfig) -> tuple[MetricSeries, list[dict]]:
    """Mixture-model comparison; returns the aggregate series plus the raw
    per-replication traces (best log likelihood, errors, eval counts)."""
    if cfg.experiment not in DMM_EXPERIMENTS:
        raise ValueError(f"run_dmm cannot run {cfg.experiment!r}")
    root = RandomSource(cfg.seed)
    truth = np.asarray(cfg.true_means, dtype=float)
    series = MetricSeries()
    all_traces: list[dict] = []
    for bi, budget in enumerate(cfg.budgets):
        worker = lambda r: dmm_replication(cfg, budget, root.child(bi, r))
        results = _map_replications(cfg, worker)
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
            series.rows.extend(
                _metric_rows(cfg.experiment, method, budget, estimates, truth, float("nan"), wall)
            )
    return series, all_traces


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
    and inner draw counts for :func:`inflate`."""
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


def run_theorem_suite(seed: int, instances: int = 500, inflation_instances: int = 200) -> TheoremReport:
    """Execute the estimator and recombination property checks on randomized
    instances and report the worst residual per check."""
    if instances < 1 or inflation_instances < 1:
        raise ValueError("instances and inflation_instances must be >= 1")
    rng = RandomSource(seed)
    h = TestFunction.identity(2)
    checks: list[CheckResult] = []

    partitions = [_random_partition(rng.child(0, i), 1000, float(rng.child(1, i).generator.random() * 600)) for i in range(instances)]
    for kind in ("standard", "self-normalized"):
        worst = max(decomposition_residual(sets, h, kind) for sets in partitions)
        checks.append(CheckResult(f"union-decomposition-{kind}", instances, worst, 1e-10, worst < 1e-10))

    ref_rng = rng.child(2)
    worst_margin = 0.0
    for sets in partitions:
        reference = ref_rng.generator.standard_normal(2)
        for kind in ("standard", "self-normalized"):
            for ord in (1, 2, np.inf):
                margin = error_convexity_margin(sets, h, kind, reference, ord)
                worst_margin = min(worst_margin, margin)
    checks.append(
        CheckResult("error-convexity-bound", instances * 6, worst_margin, -1e-12, worst_margin >= -1e-12)
    )

    adversarial = [_random_partition(rng.child(3, i), 1000, 600.0) for i in range(50)]
    worst_adv = max(
        decomposition_residual(sets, h, kind)
        for sets in adversarial
        for kind in ("standard", "self-normalized")
    )
    checks.append(CheckResult("union-decomposition-600-log-units", 100, worst_adv, 1e-8, worst_adv < 1e-8))

    worst_cache = 0.0
    count_mismatches = 0
    for i in range(inflation_instances):
        inst_rng = rng.child(4, i)
        model, proposal, outer, inner = _random_small_instance(inst_rng)
        counted_model, counts = _counting_likelihoods(model)
        sample_set = inflate(counted_model, proposal, outer, inner, inst_rng)
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


def emit(series: MetricSeries, path, format: str = "csv") -> None:
    """Write the series; CSV columns are fixed, JSON mirrors rows as objects,
    with ``null`` for an undefined (NaN) value.  Refuses to create a file for
    an empty series."""
    if format not in ("csv", "json"):
        raise ValueError(f"unknown format {format!r}")
    if len(series) == 0:
        raise ValueError("refusing to emit an empty series")
    path = Path(path)
    if format == "csv":
        lines = [",".join(CSV_COLUMNS)]
        for record in series.to_records():
            lines.append(",".join(_format_value(record[col]) for col in CSV_COLUMNS))
        path.write_text("\n".join(lines) + "\n")
    else:
        undefined = lambda v: isinstance(v, float) and math.isnan(v)
        rows = [{c: None if undefined(v) else v for c, v in r.items()} for r in series.to_records()]
        path.write_text(json.dumps({"schema_version": 1, "rows": rows}, indent=2, allow_nan=False) + "\n")
