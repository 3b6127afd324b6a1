"""Per-layer tracing for the benchmark's traced run.

Spans are recorded from outside the package: every traced name is a public
function or method of an ``infmc`` module, replaced for the duration of
:func:`instrument` by a wrapper that opens a span, calls the original and
closes the span.  Private helpers are never wrapped, so their time shows up
as the self time of the public caller.

Each thread keeps its own span stack.  A span's self time is its duration
minus the durations of its direct children, which on one thread's stack are
sequential and never overlap.  Durations are read from the thread's CPU
clock: a thread waiting for the interpreter lock, or for worker threads to
finish, accrues no time, so self times are busy times even when replications
run on several threads.  Spans are aggregated in memory per
(replication, group) as they close; nothing is written until the run ends.
"""
from __future__ import annotations

import contextlib
import dataclasses
import functools
import sys
import threading
import time
from collections import Counter, defaultdict

import numpy as np

from harness import replaced
from infmc import distributions, estimators, experiments, factorized, models, pmc

BLOCK_EVAL = "models.block_eval"
DIAGNOSTIC = "models.diagnostic"
DENSITY_METHODS = {
    "sample": "distributions.sample",
    "sample_batch": "distributions.sample",
    "log_density": "distributions.log_density",
    "log_density_each": "distributions.log_density",
}


class Tracer:
    """Per-thread span stacks feeding per-(replication, group) counters."""

    def __init__(self, clock=time.thread_time):
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[dict] = []

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._tables.append(state.table)
        return state

    def set_replication(self, replication) -> None:
        """Tag every span this thread opens from now on."""
        self._state().replication = replication

    def parent_group(self) -> str | None:
        stack = self._state().stack
        return stack[-1][0] if stack else None

    def enter(self, group: str) -> list:
        state = self._state()
        frame = [group, state.replication, self._clock(), 0.0]
        state.stack.append(frame)
        return frame

    def exit(self, frame: list, counts: dict | None = None) -> None:
        state = self._state()
        if state.stack.pop() is not frame:
            raise RuntimeError("spans closed out of order")
        duration = self._clock() - frame[2]
        if state.stack:
            state.stack[-1][3] += duration
        agg = state.table[(frame[1], frame[0])]
        agg["calls"] += 1
        agg["self_s"] += duration - frame[3]
        if counts:
            agg.update(counts)

    def table(self) -> dict:
        """Every thread's counters merged, keyed by (replication, group)."""
        merged: dict = defaultdict(Counter)
        with self._lock:
            for table in self._tables:
                for key, agg in table.items():
                    merged[key].update(agg)
        return dict(merged)


class _ThreadState:
    def __init__(self):
        self.stack: list[list] = []
        self.replication = None
        self.table: dict = defaultdict(Counter)


def _traced(tracer: Tracer, fn, group: str, count=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.enter(group)
        counts = None
        try:
            result = fn(*args, **kwargs)
            if count is not None:
                counts = count(args, kwargs, result)
        finally:
            tracer.exit(frame, counts)
        return result

    return wrapper


def _traced_factor(tracer: Tracer, fn, is_likelihood: bool):
    """A model factor counts as budgeted unless a diagnostic called it."""

    @functools.wraps(fn)
    def factor(*args):
        group = DIAGNOSTIC if tracer.parent_group() == DIAGNOSTIC else BLOCK_EVAL
        frame = tracer.enter(group)
        try:
            return fn(*args)
        finally:
            tracer.exit(frame, {"evals": _elements(args[-1])} if is_likelihood else None)

    return factor


def _elements(value) -> int:
    return int(value.shape[0]) if isinstance(value, np.ndarray) and value.ndim else 1


def _recombined(ess_inputs: list):
    def count(args, kwargs, result):
        sample_set = result[0] if isinstance(result, tuple) else result  # inflate adds its counter
        ess_inputs.append(sample_set.log_weights)
        nbytes = sample_set.log_weights.nbytes
        if isinstance(sample_set.points, np.ndarray):
            nbytes += sample_set.points.nbytes
        return {"emitted": len(sample_set), "bytes": nbytes}

    return count


def _estimator_points(args, kwargs, result):
    first = args[0]
    if isinstance(first, estimators.SampleSet):
        return {"points": len(first)}
    return {"points": sum(len(s) for s in first)}


def _sample_set_points(args, kwargs, result):
    return {"points": len(args[0])}  # args[0] is the freshly built SampleSet


def _resampled(args, kwargs, result):
    return {"draws": len(result), "distinct": len({id(p) for p in result})}


def _wrap_model(tracer: Tracer, model: factorized.FactorizedModel) -> factorized.FactorizedModel:
    return dataclasses.replace(
        model,
        global_log_prior=_traced_factor(tracer, model.global_log_prior, False),
        block_log_priors=tuple(_traced_factor(tracer, f, False) for f in model.block_log_priors),
        block_log_likelihoods=tuple(_traced_factor(tracer, f, True) for f in model.block_log_likelihoods),
    )


def _density_classes():
    seen, todo = [], [distributions.Density]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            if sub.__module__.startswith("infmc.") and sub not in seen:
                seen.append(sub)
                todo.append(sub)
    return seen


@contextlib.contextmanager
def instrument(tracer: Tracer, ess_inputs: list):
    """Wrap the package's public names in spans; restore them on exit.

    A function is replaced in every ``infmc`` module namespace holding it.
    ``ess_inputs`` collects the log weights of every recombined sample set so
    that the Kish ESS can be computed after the run, outside any span.
    """
    recombined = _recombined(ess_inputs)
    functions = [
        (experiments.run_gauss, "experiments", None),
        (experiments.run_dmm, "experiments", None),
        (experiments.gauss_replication, "experiments", None),
        (experiments.dmm_replication, "experiments", None),
        (factorized.grouped_inflate, "factorized", recombined),
        (factorized.inflate, "factorized", recombined),
        (factorized.plain_factorized_sampler, "factorized", recombined),
        (estimators.standard_estimate, "estimators", _estimator_points),
        (estimators.self_normalized_estimate, "estimators", _estimator_points),
        (estimators.snis_variance_estimate, "estimators", _estimator_points),
        (estimators.evidence_estimate, "estimators", _estimator_points),
        (estimators.combine, "estimators", _estimator_points),
        (estimators.resample, "pmc.resample", _resampled),
        (pmc.run_pmc, "pmc", None),
        (pmc.pooled_estimate, "pmc", None),
        (pmc.trace_metrics, "pmc", None),
    ]
    methods = [
        (estimators.SampleSet, "__init__", "estimators", _sample_set_points),
        (factorized.FactorizedModel, "data_log_likelihood", DIAGNOSTIC, None),
        (models.DmmSpec, "marginal_data_log_likelihood", DIAGNOSTIC, None),
    ]
    for cls in _density_classes():
        for name, group in DENSITY_METHODS.items():
            if name in vars(cls):
                methods.append((cls, name, group, None))

    original_dmm_model = models.dmm_model
    original_toy_model = models.GaussianToy.model

    @functools.wraps(original_dmm_model)
    def dmm_model(spec):
        return _wrap_model(tracer, original_dmm_model(spec))

    @functools.wraps(original_toy_model)
    def toy_model(self):
        return _wrap_model(tracer, original_toy_model(self))

    replacements = [(fn, _traced(tracer, fn, group, count)) for fn, group, count in functions]
    replacements.append((original_dmm_model, dmm_model))
    with contextlib.ExitStack() as stack:
        for original, wrapper in replacements:
            for module in _modules_holding(original):
                stack.enter_context(replaced(module, original.__name__, wrapper))
        for cls, name, group, count in methods:
            stack.enter_context(replaced(cls, name, _traced(tracer, vars(cls)[name], group, count)))
        stack.enter_context(replaced(models.GaussianToy, "model", toy_model))
        yield


def _modules_holding(fn) -> list:
    return [
        module
        for module_name, module in list(sys.modules.items())
        if (module_name == "infmc" or module_name.startswith("infmc."))
        and vars(module).get(fn.__name__) is fn
    ]


def kish_ess(log_weights: np.ndarray) -> float:
    """(sum w)^2 / sum w^2, computed in log space."""
    top = float(np.max(log_weights))
    if top == -np.inf:
        return 0.0
    w = np.exp(log_weights - top)
    return float(w.sum() ** 2 / np.square(w).sum())


PER_LAYER_UNITS = {
    "distributions.sample_calls": "count/rep",
    "distributions.sample_s": "s/rep",
    "distributions.log_density_calls": "count/rep",
    "distributions.log_density_s": "s/rep",
    "models.block_evals": "count/rep",
    "models.block_eval_s": "s/rep",
    "models.diagnostic_evals": "count/rep",
    "models.diagnostic_s": "s/rep",
    "factorized.emitted_samples": "count/rep",
    "factorized.recombine_s": "s/rep",
    "factorized.bytes_materialized": "B/rep",
    "factorized.ess_per_sample": "ratio",
    "estimators.calls": "count/rep",
    "estimators.points": "count/rep",
    "estimators.s": "s/rep",
    "pmc.self_s": "s/rep",
    "pmc.resample_s": "s/rep",
    "pmc.resample_draws": "count/rep",
    "pmc.distinct_resampled_frac": "ratio",
    "experiments.self_s": "s/rep",
    "experiments.cores_busy": "cores",
    "trace.overhead_frac": "ratio",
}


def per_layer_metrics(
    table: dict,
    replications: int,
    ess_total: float,
    cores_busy: float,
    overhead_frac: float,
) -> dict[str, float]:
    """Per-replication layer numbers from a traced run's counters."""
    t: dict[str, Counter] = defaultdict(Counter)
    for (_, group), agg in table.items():
        t[group].update(agg)

    def per_rep(group: str, field: str) -> float:
        return t[group][field] / replications

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    fac = t["factorized"]
    res = t["pmc.resample"]
    return {
        "distributions.sample_calls": per_rep("distributions.sample", "calls"),
        "distributions.sample_s": per_rep("distributions.sample", "self_s"),
        "distributions.log_density_calls": per_rep("distributions.log_density", "calls"),
        "distributions.log_density_s": per_rep("distributions.log_density", "self_s"),
        "models.block_evals": per_rep(BLOCK_EVAL, "evals"),
        "models.block_eval_s": per_rep(BLOCK_EVAL, "self_s"),
        "models.diagnostic_evals": per_rep(DIAGNOSTIC, "evals"),
        "models.diagnostic_s": per_rep(DIAGNOSTIC, "self_s"),
        "factorized.emitted_samples": per_rep("factorized", "emitted"),
        "factorized.recombine_s": per_rep("factorized", "self_s"),
        "factorized.bytes_materialized": per_rep("factorized", "bytes"),
        "factorized.ess_per_sample": ratio(ess_total, fac["emitted"]),
        "estimators.calls": per_rep("estimators", "calls"),
        "estimators.points": per_rep("estimators", "points"),
        "estimators.s": per_rep("estimators", "self_s"),
        "pmc.self_s": per_rep("pmc", "self_s"),
        "pmc.resample_s": per_rep("pmc.resample", "self_s"),
        "pmc.resample_draws": per_rep("pmc.resample", "draws"),
        "pmc.distinct_resampled_frac": ratio(res["distinct"], res["draws"]),
        "experiments.self_s": per_rep("experiments", "self_s"),
        "experiments.cores_busy": cores_busy,
        "trace.overhead_frac": overhead_frac,
    }
