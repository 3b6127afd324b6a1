"""Workloads, the closed replication loop, output checks and digests.

A workload drives one public harness entry point (``run_gauss`` or
``run_dmm``) with a fixed configuration.  The only instrumentation on the
timed path is :class:`ReplicationLoop`, which replaces the public
per-replication function (``gauss_replication`` / ``dmm_replication``) that
the entry point calls.  The harness's own ``workers`` fan-out therefore
stays inside the measured path: with ``workers`` threads, a new replication
starts as soon as one finishes, so 1 to ``workers`` are in flight.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import inspect
import os
import resource
import statistics
import sys
import threading
import time
import traceback
from dataclasses import dataclass

import numpy as np

from infmc import experiments
from infmc.experiments import ExperimentConfig
from infmc.rng import RandomSource

GAUSS_LOG_EVIDENCE = -1000.0
# Far above the sampling error of either estimator at budget 20000 (about
# 1e-3), far below the slip a lost normalizer or offset would cause.
GAUSS_LOG_EVIDENCE_TOL = 0.05
# Upper end of a timed run's replication range; a run that exhausts it stops
# early rather than repeating seeds.
TIMED_REPLICATIONS = 2_000


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    budget: int
    workers: int
    # replications 0..traced_reps-1 form the digest and the traced run; a
    # timed run always completes them
    traced_reps: int
    group_size: int = 100
    generations: int = 20
    inner_draws: int = 2

    @property
    def is_gauss(self) -> bool:
        return self.experiment in experiments.GAUSS_EXPERIMENTS

    @property
    def entry(self) -> str:
        return "run_gauss" if self.is_gauss else "run_dmm"

    @property
    def target(self) -> str:
        return "gauss_replication" if self.is_gauss else "dmm_replication"

    def config(self, seed: int, replications: int) -> ExperimentConfig:
        return ExperimentConfig(
            experiment=self.experiment,
            seed=seed,
            budgets=(self.budget,),
            replications=replications,
            method="both",
            group_size=self.group_size,
            generations=self.generations,
            inner_draws=self.inner_draws,
            workers=self.workers,
        )

    def budgeted_evals(self, out: dict) -> int:
        """Block prior-plus-likelihood evaluations one replication is
        budgeted: every proposal draw evaluates each block once per method."""
        if self.is_gauss:
            return self.budget * _dimension(out) * len(experiments.METHODS)
        return sum(out[m]["block_evals"] for m in experiments.METHODS)

    def check(self, out: dict) -> list[str]:
        """Problems with one replication's output; empty when it is correct."""
        return _check_gauss(self, out) if self.is_gauss else _check_dmm(self, out)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("gauss-20k", "gauss-centered", budget=20000, workers=1, traced_reps=4),
        Workload("dmm-gauss", "dmm-gauss", budget=2000, workers=1, traced_reps=2),
        Workload("dmm-t-2w", "dmm-t", budget=2000, workers=2, traced_reps=2),
    )
}


def _dimension(gauss_out: dict) -> int:
    return len(gauss_out["plain"]["expectation"])


def _finite(value) -> bool:
    return bool(np.all(np.isfinite(np.asarray(value, dtype=float))))


def _check_gauss(w: Workload, out: dict) -> list[str]:
    problems = []
    expected = {"plain": w.budget, "inflated": (w.budget // w.group_size) * w.group_size ** _dimension(out)}
    for method, samples in expected.items():
        res = out[method]
        if res["samples"] != samples:
            problems.append(f"{method}: {res['samples']} samples, expected {samples}")
        if not (_finite(res["expectation"]) and _finite(res["log_evidence"])):
            problems.append(f"{method}: non-finite estimate")
        elif abs(res["log_evidence"] - GAUSS_LOG_EVIDENCE) > GAUSS_LOG_EVIDENCE_TOL:
            problems.append(f"{method}: log evidence {res['log_evidence']!r} too far from {GAUSS_LOG_EVIDENCE}")
    return problems


def _check_dmm(w: Workload, out: dict) -> list[str]:
    problems = []
    population = w.budget // w.generations
    per_generation = {"plain": population, "inflated": population // w.inner_draws * w.inner_draws**2}
    evals = {m: out[m]["block_evals"] for m in experiments.METHODS}
    if evals["plain"] != evals["inflated"] or evals["plain"] != 2 * w.budget:
        problems.append(f"block evaluations {evals}, expected {2 * w.budget} for each method")
    for method, samples in per_generation.items():
        res = out[method]
        if res["samples_per_generation"] != samples:
            problems.append(f"{method}: {res['samples_per_generation']} samples per generation, expected {samples}")
        trace = res["trace"]
        values = (res["estimate"], res["error"], res["best_marginal"], trace.best_log_likelihood, trace.estimate_error)
        if not all(_finite(v) for v in values):
            problems.append(f"{method}: non-finite estimate or trace")
    return problems


def digest(obj) -> str:
    """Stable hash of a replication's output, ignoring every ``wall`` entry."""
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def _feed(h, obj) -> None:
    if isinstance(obj, dict):
        h.update(b"{")
        for key in sorted(obj, key=str):
            if key in ("wall", "wall_seconds"):
                continue
            h.update(repr(key).encode() + b":")
            _feed(h, obj[key])
        h.update(b"}")
    elif isinstance(obj, np.ndarray):
        h.update(f"a{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj):
        _feed(h, {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)})
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            _feed(h, item)
            h.update(b",")
        h.update(b"]")
    elif isinstance(obj, (float, np.floating)):
        h.update(float(obj).hex().encode())
    else:
        h.update(repr(obj).encode())


@dataclass
class Replication:
    index: int
    wall: float = 0.0
    evals: int = 0
    problems: list = dataclasses.field(default_factory=list)
    digest: str = ""
    done_at: float = 0.0


class Stop(Exception):
    """Raised from the loop's wrapper to end the entry point's run."""


class ReplicationLoop:
    """Replacement for the harness's per-replication function.

    It times each replication, checks its output, and identifies it by its
    random stream (the harness derives replication ``r``'s stream as
    ``RandomSource(seed).child(0, r)`` for the single budget).  Once
    ``deadline`` has passed, every replication from ``min_reps`` on is
    refused, which ends the entry point's run.
    """

    def __init__(self, workload: Workload, seed: int, deadline: float, min_reps: int, tracer=None):
        self.workload = workload
        self.deadline = deadline
        self.min_reps = min_reps
        self.tracer = tracer
        self.records: list[Replication] = []
        self._target = getattr(experiments, workload.target)
        self._signature = inspect.signature(self._target)
        self._root = RandomSource(seed)
        self._keys: dict[int, int] = {}
        self._lock = threading.Lock()

    def _index(self, src: RandomSource) -> int:
        key = src.generator.bit_generator.state["state"]["state"]
        while key not in self._keys:
            start = len(self._keys)
            if start >= TIMED_REPLICATIONS:
                raise RuntimeError("replication stream not derived from the workload seed")
            for r in range(start, start + 64):
                self._keys[self._root.child(0, r).generator.bit_generator.state["state"]["state"]] = r
        return self._keys[key]

    def __call__(self, *args, **kwargs):
        src = self._signature.bind(*args, **kwargs).arguments["src"]
        with self._lock:
            index = self._index(src)
            if index >= self.min_reps and time.perf_counter() >= self.deadline:
                raise Stop
            record = Replication(index)
            self.records.append(record)
        if self.tracer is not None:
            self.tracer.set_replication(index)
        start = time.perf_counter()
        try:
            out = self._target(*args, **kwargs)
        except Exception:
            record.problems.append(traceback.format_exc())
            print(f"replication {index} raised:\n{record.problems[-1]}", file=sys.stderr)
            raise Stop
        record.done_at = time.perf_counter()
        record.wall = record.done_at - start
        record.evals = self.workload.budgeted_evals(out)
        record.problems.extend(self.workload.check(out))
        record.digest = digest(out)
        for problem in record.problems:
            print(f"replication {index}: {problem}", file=sys.stderr)
        return out

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r.problems)

    def replications_digest(self) -> str:
        """Digest of replications ``0..min_reps-1``, in index order."""
        by_index = {r.index: r.digest for r in self.records}
        return digest([by_index.get(i, "missing") for i in range(self.min_reps)])


@contextlib.contextmanager
def replaced(owner, name: str, value):
    """Set a module or class attribute for the duration of the block."""
    original = vars(owner)[name]
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, original)


@dataclass
class Pass:
    loop: ReplicationLoop
    wall: float
    cpu: float
    output_digest: str | None  # the entry point's own return value, if it returned


def run_pass(workload: Workload, seed: int, replications: int, deadline: float, min_reps: int, tracer=None) -> Pass:
    """Run the workload's entry point once through a :class:`ReplicationLoop`."""
    loop = ReplicationLoop(workload, seed, deadline, min_reps, tracer)
    cfg = workload.config(seed, replications)
    entry = getattr(experiments, workload.entry)
    output_digest = None
    cpu0, start = _cpu_seconds(), time.perf_counter()
    with replaced(experiments, workload.target, loop):
        try:
            output_digest = digest(entry(cfg))
        except Stop:
            pass
    wall = time.perf_counter() - start
    return Pass(loop, wall, _cpu_seconds() - cpu0, output_digest)


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def timed_metrics(workload: Workload, seed: int, seconds: float) -> tuple[Pass, dict]:
    """The closed loop: replications until ``seconds`` have passed."""
    start = time.perf_counter()
    run = run_pass(workload, seed, TIMED_REPLICATIONS, start + seconds, workload.traced_reps)
    done = [r for r in run.loop.records if r.done_at]
    if not done:
        raise RuntimeError("no replication completed")
    elapsed = max(r.done_at for r in done) - start
    metrics = {
        "rep_s_p50": statistics.median(r.wall for r in done),
        "evals_per_s": sum(r.evals for r in done) / elapsed,
    }
    return run, metrics


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
