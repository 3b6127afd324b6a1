"""Importance-sampling estimators with log-space weight bookkeeping.

All arithmetic on weights happens in log space through one stable
log-sum-exp kernel, :func:`log_sum_exp`; signed test-function values are
handled by sign-tracking accumulation, so the estimators stay exact even when
log weights sit hundreds of log-units below zero (linear-space weights are
never materialized).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .rng import RandomSource

__all__ = [
    "DegenerateWeightsError",
    "SampleSet",
    "TestFunction",
    "standard_estimate",
    "self_normalized_estimate",
    "snis_variance_estimate",
    "evidence_estimate",
    "combine",
    "union_decomposition",
    "resample",
    "log_sum_exp",
]

STANDARD = "standard"
SELF_NORMALIZED = "self-normalized"


class DegenerateWeightsError(ValueError):
    """Raised when every weight in a sample set is zero."""


def log_sum_exp(a: np.ndarray, axis: int, b: np.ndarray | None = None):
    """``log|sum(b * exp(a))|`` and its sign along ``axis``, keeping the axis.

    Bit for bit ``scipy.special.logsumexp(a, axis, b, keepdims=True,
    return_sign=True)`` for real input (scipy 1.17): the same arithmetic in
    the same order, after Blanchard, Higham & Higham, "Accurately computing
    the log-sum-exp and softmax functions" (IMA J. Numer. Anal. 2021).
    Entries where ``b`` is zero are dropped; the shifted sum leaves out the
    terms at the maximum and divides by their weight ``m``, giving
    ``log1p(s) + log|m| + max``; where that is not finite, the direct
    ``log|sum(b * exp(a))|`` is returned instead.  An empty ``axis`` raises
    ``ValueError`` (scipy returns ``-inf``).

    Without ``b``, a float64 array with other axes reduced over an axis of
    length 1 or 2 (a mixture's K = 2 components, a block's one or two
    inner draws) takes elementwise passes over that axis's slices: ``0.0 +
    x``, or ``log1p(exp(lo - hi)) + hi`` with ``hi``, ``lo`` the larger and
    smaller term.  These are the general path's bits: at a tie
    ``log1p(1.0)`` is ``log(2.0)``, else ``log(m)`` adds ``0.0``; the
    non-finite fallback is shared.  Longer axes (K > 2) take the general
    reductions.

    ``b``, when given, has the full shape and ``a`` broadcasts to it.  An
    ``(n, 1)`` column of log weights against ``(n, d)`` values is
    exponentiated once per row, not once per entry, unless some ``b`` is
    zero (then each column has its own maximum).  The weighted terms are
    summed as C-ordered ``b``-shaped arrays, so a sum over axis 0 adds row
    by row exactly as scipy's does.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if b is None and a.ndim > 1 and a.dtype == np.float64 and 0 < a.shape[axis] <= 2:
            out = _short_log_sum_exp(a, axis)
            sign = np.ones_like(out)
        else:
            out, sign = _general_log_sum_exp(a, axis, b)
        finite = np.isfinite(out)
        if not finite.all():
            total = np.sum(np.exp(a) if b is None else b * np.exp(a), axis=axis, keepdims=True)
            out = np.where(finite, out, np.log(np.abs(total)))
            sign = np.where(finite, sign, np.sign(total))
    return out, sign


def _short_log_sum_exp(a: np.ndarray, axis: int) -> np.ndarray:
    """The shifted-sum result over an axis of length 1 or 2, from its slices."""
    head = (slice(None),) * (axis % a.ndim)
    first = a[head + (slice(0, 1),)]
    if a.shape[axis] == 1:
        return 0.0 + first
    second = a[head + (slice(1, 2),)]
    hi = np.maximum(first, second)
    out = np.minimum(first, second)
    out -= hi
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += hi
    return out


def _general_log_sum_exp(a: np.ndarray, axis: int, b: np.ndarray | None):
    """The shifted-sum result and its sign over any axis, before the fallback."""
    kept = a
    if b is not None:
        b = np.ascontiguousarray(b, dtype=float)
        if (b == 0).any():
            kept = np.where(b == 0, -np.inf, a)
    # ufunc reductions called directly: np.max's and np.sum's bits without their argument handling
    a_max = np.maximum.reduce(kept, axis=axis, keepdims=True)
    is_max = kept == a_max
    shifted = np.where(is_max, -np.inf, kept)
    shifted -= a_max
    np.exp(shifted, out=shifted)
    if b is None:
        # s >= 0 and m >= 1 wherever the result is finite: no sign to track
        m = np.add.reduce(is_max, axis=axis, keepdims=True, dtype=float)
        s = np.add.reduce(shifted, axis=axis, keepdims=True) / m
        sign = np.sign(m)
    else:
        if kept is a and a.size == a.shape[axis] and np.count_nonzero(is_max) == 1:
            # One maximum shared by every column: its weight is the masked
            # sum in any order.  The other terms are zeros, or non-finite,
            # and then so is s, and the direct sum replaces the result.
            m = np.take(b, np.flatnonzero(is_max), axis=axis)
        else:
            m = np.sum(b * is_max, axis=axis, keepdims=True)
        s = np.sum(b * shifted, axis=axis, keepdims=True)
        s = np.where(s == 0, s, s / m)
        sign = np.sign(s + 1) * np.sign(m)
        s, m = np.where(s < -1, -s - 2, s), np.abs(m)
    return np.log1p(s) + np.log(m) + a_max, sign


def _check_log_weights(log_weights: np.ndarray) -> None:
    # one pass: the maximum is NaN if any entry is NaN, and +inf if any is +inf
    if not log_weights.max(initial=-np.inf) < np.inf:
        raise ValueError("log weights must be finite or -inf; found NaN or +inf")


class SampleSet:
    """An ordered collection of weighted samples with its cached log weight sum.

    ``points`` is an array whose first axis indexes the samples: ``(n, d)``
    floats for vector-valued points, or a recombination's ``(n, K, ...)``
    block values; estimators only ever hand points to a :class:`TestFunction`.
    Instances are immutable after construction and safe to share across
    threads.
    """

    __slots__ = ("points", "log_weights", "log_weight_sum")

    def __init__(self, points, log_weights):
        log_weights = np.asarray(log_weights, dtype=float)
        if log_weights.ndim != 1:
            raise ValueError("log_weights must be one-dimensional")
        _check_log_weights(log_weights)
        if not isinstance(points, np.ndarray) or points.ndim == 0 or len(points) != log_weights.size:
            raise ValueError("points must be an array with one row per log weight")
        self.points = points
        self.log_weights = log_weights
        self.log_weight_sum = float(log_sum_exp(log_weights, 0)[0][0]) if log_weights.size else -np.inf

    def __len__(self) -> int:
        return int(self.log_weights.size)


@dataclass(frozen=True)
class TestFunction:
    """A batched map from points to real vectors.

    ``fn`` receives the sample set's points array and must return an
    ``(n, dim)`` array.  It must be total on the target's support.
    """

    fn: Callable[[Any], np.ndarray]
    dim: int

    __test__ = False  # keep pytest from collecting this as a test class

    def __call__(self, points) -> np.ndarray:
        values = np.asarray(self.fn(points), dtype=float)
        n = len(points)
        if values.shape != (n, self.dim):
            raise ValueError(f"test function returned {values.shape}, expected {(n, self.dim)}")
        return values

    @classmethod
    def identity(cls, dim: int) -> TestFunction:
        return cls(lambda pts: np.asarray(pts, dtype=float).reshape(-1, dim), dim)


def _require_nonempty(x: SampleSet) -> None:
    if len(x) == 0:
        raise ValueError("estimation requires a non-empty sample set")


def _signed_weighted_sum(log_weights: np.ndarray, values: np.ndarray):
    """log|sum_i b_i e^{a_i}| and its sign, per column of ``values``."""
    log_abs, sign = log_sum_exp(log_weights[:, None], 0, values)
    return log_abs[0], sign[0]


def standard_estimate(x: SampleSet, h: TestFunction) -> np.ndarray:
    """Mean of ``w * h`` over the set, a ``(dim,)`` array; requires weights
    from a normalized target."""
    _require_nonempty(x)
    values = h(x.points)
    log_abs, sign = _signed_weighted_sum(x.log_weights, values)
    return sign * np.exp(log_abs - np.log(len(x)))


def self_normalized_estimate(x: SampleSet, h: TestFunction) -> np.ndarray:
    """Weight-sum-normalized estimate, a ``(dim,)`` array; valid when the
    target is known only up to a constant (the constant cancels)."""
    _require_nonempty(x)
    if x.log_weight_sum == -np.inf:
        raise DegenerateWeightsError("all weights are zero")
    values = h(x.points)
    log_abs, sign = _signed_weighted_sum(x.log_weights, values)
    return sign * np.exp(log_abs - x.log_weight_sum)


def snis_variance_estimate(x: SampleSet, h: TestFunction) -> np.ndarray:
    """Per-component variance estimate of the self-normalized estimator:
    ``sum_i (w_i / w_sum)^2 (h(x_i) - estimate)^2``."""
    est = self_normalized_estimate(x, h)
    values = h(x.points)
    dev_sq = (values - est) ** 2
    log_sq_norm_w = 2.0 * (x.log_weights - x.log_weight_sum)
    log_var, sign = log_sum_exp(log_sq_norm_w[:, None], 0, dev_sq)
    return np.where(sign[0] < 0, np.nan, np.exp(log_var[0]))


def evidence_estimate(x: SampleSet) -> float:
    """Log of the normalizing-constant estimate ``(1/n) sum_i w_i``,
    kept in log space throughout."""
    _require_nonempty(x)
    return float(x.log_weight_sum - np.log(len(x)))


def combine(sets: Sequence[SampleSet]) -> SampleSet:
    """Multiset union: a new set of the sets' points and log weights in order,
    duplicates kept; a recombination's factored set joins as its enumeration."""
    if not sets:
        raise ValueError("combine requires at least one sample set")
    points = np.concatenate([s.points for s in sets], axis=0)
    log_weights = np.concatenate([s.log_weights for s in sets])
    return SampleSet(points, log_weights)


_ESTIMATORS = {STANDARD: standard_estimate, SELF_NORMALIZED: self_normalized_estimate}


def union_decomposition(sets: Sequence[SampleSet], h: TestFunction, kind: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The union's estimate, the per-set estimates and their convex weights
    ``lambdas``: set sizes (standard kind) or weight-sum fractions
    (self-normalized kind).  In exact arithmetic the union's estimate is
    ``lambdas @ per_set`` for any partition of the union into ``sets``."""
    if kind not in _ESTIMATORS:
        raise ValueError(f"unknown estimator kind {kind!r}")
    estimator = _ESTIMATORS[kind]
    union = combine(list(sets))
    if kind == STANDARD:
        lambdas = np.array([len(s) / len(union) for s in sets])
    else:
        lambdas = np.exp(np.array([s.log_weight_sum for s in sets]) - union.log_weight_sum)
    per_set = np.array([estimator(s, h) for s in sets])
    return estimator(union, h), per_set, lambdas


def resample(x: SampleSet, count: int, rng: RandomSource) -> list:
    """``count`` multinomial draws with replacement, proportional to the log
    weights as listed over their own log-sum-exp, so a factored set draws what
    its enumeration does; one object per distinct drawn sample."""
    _require_nonempty(x)
    if x.log_weight_sum == -np.inf:
        raise DegenerateWeightsError("cannot resample: all weights are zero")
    log_weights = x.log_weights
    probs = np.exp(log_weights - log_sum_exp(log_weights, 0)[0][0])
    probs /= probs.sum()
    indices = rng.generator.choice(len(x), size=int(count), replace=True, p=probs)
    distinct, which = np.unique(indices, return_inverse=True)
    rows = list(x.points[distinct])
    return [rows[i] for i in which]
