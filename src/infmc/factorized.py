"""Factorizing-likelihood models and the sample-inflation engine.

A factorized model splits its unnormalized log density into a global-block
prior, per-block priors, and per-block likelihood factors whose data
partitions are disjoint.  Because blocks are conditionally independent given
the global block, the per-block factors computed for a handful of draws can
be recombined into every cross-combination of block values, yielding far more
(dependent) samples than likelihood evaluations.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .distributions import Density
from .estimators import DegenerateWeightsError, SampleSet, log_sum_exp
from .rng import RandomSource

__all__ = [
    "InflationBudgetError",
    "FactorizedPoint",
    "FactorizedModel",
    "FactorizedProposal",
    "recombine",
    "plain_factorized_sampler",
    "inflate",
    "block_contributions",
    "GroupedSampleSet",
    "grouped_inflate",
]

# enumeration and materialization refuse beyond this many combinations
MAX_UNCAPPED_COMBINATIONS = 10**8


class InflationBudgetError(ValueError):
    """Raised instead of silently allocating a huge combination set."""


@dataclass(frozen=True)
class FactorizedPoint:
    """A joint sample: the global-block value plus one value per block."""

    global_value: Any
    block_values: tuple

    @staticmethod
    def stack(points: Sequence[FactorizedPoint]) -> tuple[Any, list[np.ndarray]]:
        """The global values of ``points`` and each block's values, stacked
        along a leading axis that indexes the points: the aligned batches
        :meth:`FactorizedModel.data_log_likelihood` takes."""
        blocks = [np.array(values) for values in zip(*(p.block_values for p in points))]
        return _stacked([p.global_value for p in points]), blocks


def _stacked(values: Sequence, repeats: int = 1):
    """Global values stacked along a new leading axis, each repeated
    ``repeats`` times in a row: a tuple value part by part, and an empty
    global block (``None``) as ``None``."""
    if values[0] is None:
        return None
    stack = lambda parts: np.repeat(np.stack(parts), repeats, axis=0)
    return tuple(map(stack, zip(*values))) if isinstance(values[0], tuple) else stack(values)


@dataclass(frozen=True)
class FactorizedModel:
    """Unnormalized target split along the conditional-independence structure.

    The defining contract: the joint unnormalized log density of
    ``(global, blocks)`` equals ``global_log_prior(global)
    + sum_j [block_log_priors[j](blocks[j])
    + block_log_likelihoods[j](global, blocks[j])] + log_evidence_offset``.
    The data partition behind the block likelihoods must be disjoint across
    blocks for a fixed global value.

    Each evaluator, the global prior included, accepts one value or an
    array of values stacked along the first axis, and must return one term
    per value; a tuple global value stacks part by part (see
    :meth:`FactorizedPoint.stack`).  For models without a global block, pass
    evaluators that accept ``None``; the global prior may then return one
    scalar for every draw.  A block likelihood's global value carries the
    same leading axis as its block values, aligned with them: row ``i`` of
    the values goes with row ``i`` of the global values.  One value goes
    with one global value.
    """

    num_blocks: int
    global_log_prior: Callable[[Any], np.ndarray]
    block_log_priors: tuple[Callable[[Any], np.ndarray], ...]
    block_log_likelihoods: tuple[Callable[[Any, Any], np.ndarray], ...]
    log_evidence_offset: float = 0.0

    def __post_init__(self):
        if self.num_blocks < 1:
            raise ValueError("a factorized model needs at least one block")
        if len(self.block_log_priors) != self.num_blocks:
            raise ValueError("one block prior per block required")
        if len(self.block_log_likelihoods) != self.num_blocks:
            raise ValueError("one block likelihood per block required")

    def joint_log_density(self, global_value, block_values: Sequence) -> float:
        """The additive decomposition evaluated monolithically."""
        total = float(self.global_log_prior(global_value))
        for prior, lik, value in zip(self.block_log_priors, self.block_log_likelihoods, block_values):
            total += float(prior(value)) + float(lik(global_value, value))
        return total + self.log_evidence_offset

    def data_log_likelihood(self, global_values, block_values: Sequence) -> np.ndarray:
        """Likelihood factors only (no priors, no offset), one term per row of
        the aligned batches ``global_values`` and ``block_values[j]``."""
        return sum(lik(global_values, v) for lik, v in zip(self.block_log_likelihoods, block_values))


@dataclass(frozen=True)
class FactorizedProposal:
    """Per-block proposal densities; blocks are proposed independently given
    the global draw.  ``global_proposal=None`` models an empty global block
    (the global value is ``None`` and contributes nothing to the density)."""

    block_proposals: tuple[Density, ...]
    global_proposal: Density | None = None

    def __post_init__(self):
        if not self.block_proposals:
            raise ValueError("a factorized proposal needs at least one block")

    @property
    def num_blocks(self) -> int:
        return len(self.block_proposals)

    def joint_log_density(self, point: FactorizedPoint) -> float:
        total = 0.0
        if self.global_proposal is not None:
            total += float(self.global_proposal.log_density(point.global_value))
        for prop, value in zip(self.block_proposals, point.block_values):
            total += float(prop.log_density(value))
        return total


def _score_globals(drawn: list) -> tuple[list, np.ndarray]:
    """The global values and proposal log densities of a generation's
    ``(proposal, global variates, block draws)`` triples, scored with one
    ``score_variates`` call per global-proposal class.  An empty global block
    is ``None`` with log density 0."""
    values, log_q = [None] * len(drawn), np.zeros(len(drawn))
    by_class: dict[type, list[int]] = {}
    for i, (prop, _, _) in enumerate(drawn):
        if prop.global_proposal is not None:
            by_class.setdefault(type(prop.global_proposal), []).append(i)
    for cls, rows in by_class.items():
        densities, variates = [drawn[i][0].global_proposal for i in rows], [drawn[i][1] for i in rows]
        points, log_q[rows] = cls.score_variates(densities, variates)
        for i, point in zip(rows, points):
            values[i] = point
    if (log_q == -np.inf).any():
        raise RuntimeError("proposal density is zero at its own draw (global block)")
    return values, log_q


def _block_terms(
    model: FactorizedModel, proposals: Sequence[FactorizedProposal], j: int, global_values, values: np.ndarray
) -> np.ndarray:
    """``(prior_j(x) + lik_j(global, x)) - log q_j(x)`` for an array of block
    ``j``'s values with their aligned global values: the one place block
    weight terms are formed.  ``proposals[r]`` drew the ``r``-th of
    ``len(proposals)`` equal runs of consecutive values; each distinct
    block-``j`` proposal scores all of its rows in one call."""
    runs: dict[int, tuple[Density, list[int]]] = {}
    for r, prop in enumerate(proposals):
        if prop.num_blocks != model.num_blocks:
            raise ValueError("proposal and model disagree on the number of blocks")
        density = prop.block_proposals[j]
        runs.setdefault(id(density), (density, []))[1].append(r)
    if len(runs) == 1:  # one density drew every row
        log_q = density.log_density_each(values)
    else:
        n = len(values) // len(proposals)
        log_q = np.empty(len(values))
        for density, run_indices in runs.values():
            rows = (np.array(run_indices)[:, None] * n + np.arange(n)).reshape(-1)
            log_q[rows] = density.log_density_each(values[rows])
    if (log_q == -np.inf).any():
        raise RuntimeError(f"proposal density is zero at a value of block {j}")
    prior, lik = model.block_log_priors[j](values), model.block_log_likelihoods[j](global_values, values)
    if not np.shape(prior) == np.shape(lik) == np.shape(log_q):
        raise ValueError(f"block {j}'s prior and likelihood must return one term per value, as log q does")
    return (prior + lik) - log_q


def _along_block(j: int, k: int, column: np.ndarray) -> np.ndarray:
    """A ``(groups, n)`` block column shaped to broadcast along block ``j``'s
    axis of the ``(groups, n, ..., n)`` combination grid."""
    shape = [column.shape[0]] + [1] * k
    shape[1 + j] = column.shape[1]
    return column.reshape(shape)


def _weight_grid(base, contrib: np.ndarray) -> np.ndarray:
    """Log weights ``((base + c_1) + c_2) + ...`` of every combination within
    each group, flattened in lexicographic (C) order over ``(group, c_1, ...,
    c_K)``; ``contrib`` is ``(groups, K, n)``, ``base`` a scalar or per group."""
    k = contrib.shape[1]
    grid = np.reshape(base, (-1,) + (1,) * k) + _along_block(0, k, contrib[:, 0])
    for j in range(1, k):
        grid = grid + _along_block(j, k, contrib[:, j])
    return grid.reshape(-1)


def recombine(
    model: FactorizedModel,
    proposals: Iterable[FactorizedProposal],
    inner_draws: int,
    rng: RandomSource,
) -> SampleSet:
    """The recombining sampler behind every object-path draw.

    Per proposal, make one global draw and ``inner_draws`` draws per block,
    then emit every cross-combination of block indices, in lexicographic
    order, with

        log w = global prior + offset - log q_global
                + sum_j (prior_j + lik_j - log q_j)[c_j]

    One inner draw is plain importance sampling.  Every draw is made first,
    in generator order: per proposal the global variates, then each block's
    batch.  ``proposals`` is consumed lazily, one proposal per global draw,
    so a generator may draw from ``rng`` to build each proposal just before
    its draws are made.  The global draws are then scored together, one
    batch per proposal class, and the model's global prior scores them
    stacked, in one call.  Each block's draws of the whole call are scored
    by one call of :func:`_block_terms`, stacked as ``(outer * inner_draws,
    ...)`` with the global values repeated to align: one prior and one
    likelihood call per block.  Raises
    :class:`InflationBudgetError`, before its draws, for a global draw whose
    combinations would take the total beyond ``MAX_UNCAPPED_COMBINATIONS``.
    """
    if inner_draws < 1:
        raise ValueError("inner_draws must be >= 1")
    k = model.num_blocks
    per_draw = inner_draws**k
    drawn = []
    for prop in proposals:
        if (len(drawn) + 1) * per_draw > MAX_UNCAPPED_COMBINATIONS:
            raise InflationBudgetError(
                f"{len(drawn) * per_draw} + {inner_draws}^{k} combinations exceed {MAX_UNCAPPED_COMBINATIONS}"
            )
        variates = None if prop.global_proposal is None else prop.global_proposal.draw_variates(rng)
        drawn.append((prop, variates, [block.sample_batch(rng, inner_draws) for block in prop.block_proposals]))
    if not drawn:
        return SampleSet(np.empty(0, dtype=object), np.empty(0))
    global_values, log_q = _score_globals(drawn)
    stacked = _stacked(global_values)
    prior = model.global_log_prior(stacked)
    if np.shape(prior) != (len(drawn),) and not (stacked is None and np.ndim(prior) == 0):
        raise ValueError("the global block's prior must return one term per outer draw")
    bases = (prior + model.log_evidence_offset) - log_q
    props = [prop for prop, _, _ in drawn]
    stacked_globals = _stacked(global_values, inner_draws)  # row g * inner_draws + i: outer draw g
    terms, block_values = [], []
    for j in range(k):
        values = np.concatenate([block_draws[j] for _, _, block_draws in drawn])
        terms.append(_block_terms(model, props, j, stacked_globals, values).reshape(len(drawn), inner_draws))
        block_values.append(values.tolist() if values.ndim == 1 else list(map(tuple, values.tolist())))
    points: list[FactorizedPoint] = []
    for g, global_value in enumerate(global_values):
        rows = slice(g * inner_draws, (g + 1) * inner_draws)
        combos = itertools.product(*(listed[rows] for listed in block_values))
        points.extend(map(FactorizedPoint, itertools.repeat(global_value), combos))
    log_weights = _weight_grid(bases, np.stack(terms, axis=1))
    return SampleSet(np.fromiter(points, dtype=object, count=len(points)), log_weights)


def plain_factorized_sampler(
    model: FactorizedModel,
    prop: FactorizedProposal,
    count: int,
    rng: RandomSource,
) -> SampleSet:
    """Independent joint draws weighted by model density over joint proposal
    density: :func:`inflate` with one inner draw.  Each draw costs one
    likelihood evaluation per block."""
    return inflate(model, prop, count, 1, rng)


def inflate(
    model: FactorizedModel,
    prop: FactorizedProposal,
    outer_draws: int,
    inner_draws: int,
    rng: RandomSource,
) -> SampleSet:
    """:func:`recombine` over ``outer_draws`` global draws from ``prop``.

    Every global draw emits all ``inner_draws**num_blocks`` combinations.
    The block likelihoods score ``outer_draws * inner_draws * num_blocks``
    values in all.
    """
    if outer_draws < 1:
        raise ValueError("outer_draws must be >= 1")
    return recombine(model, itertools.repeat(prop, outer_draws), inner_draws, rng)


def block_contributions(
    model: FactorizedModel,
    prop: FactorizedProposal,
    points,
) -> tuple[float, np.ndarray]:
    """Log-weight terms of an ``(n, K)`` array of scalar block values.

    Returns the base term (global prior plus offset) and the ``(n, K)``
    per-block contributions, :func:`_block_terms` of each column, so that
    row ``i``'s log weight is ``base + sum_j contrib[i, j]``.  Only models
    with an empty global block are supported on this path.
    """
    if prop.global_proposal is not None:
        raise ValueError("array-path weights require an empty global block")
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != model.num_blocks:
        raise ValueError(f"points must be (n, {model.num_blocks}), got {pts.shape}")
    base = float(model.global_log_prior(None)) + model.log_evidence_offset
    return base, np.column_stack([_block_terms(model, (prop,), j, None, pts[:, j]) for j in range(model.num_blocks)])


class GroupedSampleSet:
    """Every recombination of pre-drawn scalar block values within each
    group, held factored instead of enumerated.

    ``contributions`` and ``values`` are ``(groups, K, n)``: block ``j`` of
    group ``g`` has the ``n`` values ``values[g, j]`` with log-weight terms
    ``contributions[g, j]``.  The set stands for the ``size = groups * n**K``
    combinations that :meth:`materialize` enumerates, combination
    ``(i_1, ..., i_K)`` of group ``g`` weighing ``base + sum_j
    contributions[g, j, i_j]``.  Weight sums over a group factor into
    per-block log-sum-exps, so the weight sum, the evidence and the
    self-normalized mean cost ``O(groups * K * n)``.  ``size`` is a Python
    int, so it holds counts beyond ``len()``'s 2**63 - 1.  Immutable after
    construction.
    """

    __slots__ = ("base", "contributions", "values", "size", "log_weight_sum", "_block_sums", "_group_sums")

    def __init__(self, base: float, contributions: np.ndarray, values: np.ndarray):
        contributions = np.asarray(contributions, dtype=float)
        values = np.asarray(values, dtype=float)
        if contributions.ndim != 3 or values.shape != contributions.shape or 0 in contributions.shape[1:]:
            raise ValueError("contributions and values must both be (groups, K >= 1, n >= 1)")
        if not (base < np.inf and contributions.max(initial=-np.inf) < np.inf):
            raise ValueError("log weights must be finite or -inf; found NaN or +inf")
        self.base = float(base)
        self.contributions = contributions
        self.values = values
        groups, k, n = contributions.shape
        self.size = groups * n**k
        self._block_sums = log_sum_exp(contributions, 2)[0][..., 0]  # L_gj = lse_i c_gji
        self._group_sums = self._per_group(self._block_sums)  # W_g, group g's weight sum
        self.log_weight_sum = float(log_sum_exp(self._group_sums, 0)[0][0]) if len(contributions) else -np.inf

    def _per_group(self, block_terms: np.ndarray) -> np.ndarray:
        """``((base + t_g1) + t_g2) + ...`` per group, the weight grid's order."""
        total = np.full(len(block_terms), self.base)
        for column in block_terms.T:
            total = total + column
        return total

    def __len__(self) -> int:
        return self.size

    def self_normalized_mean(self) -> np.ndarray:
        """Self-normalized estimate of the identity over every combination:
        per block ``j``, ``sum_g e^(W_g - L_gj) sum_i e^(c_gji) x_gji / W``
        with group weight sums ``W_g``, block sums ``L_gj`` and total ``W``,
        through the sign-tracking :func:`log_sum_exp`."""
        if self.contributions.shape[0] == 0:
            raise ValueError("estimation requires a non-empty sample set")
        if self.log_weight_sum == -np.inf:
            raise DegenerateWeightsError("all weights are zero")
        block_log_abs, block_sign = log_sum_exp(self.contributions, 2, self.values)
        group_sums = self._group_sums[:, None]
        with np.errstate(invalid="ignore"):
            # a group of zero weight contributes nothing, even where L_gj = -inf
            terms = np.where(group_sums == -np.inf, -np.inf, group_sums - self._block_sums + block_log_abs[..., 0])
        log_abs, sign = log_sum_exp(terms, 0, block_sign[..., 0])
        return sign[0] * np.exp(log_abs[0] - self.log_weight_sum)

    def log_evidence(self) -> float:
        """Log of the evidence estimate ``(1/size) sum w`` over every
        combination, as the mean over groups of ``base + sum_j (L_gj - log
        n)``: unit weights give exactly 0, which ``log_weight_sum -
        log(size)`` does not."""
        if self.contributions.shape[0] == 0:
            raise ValueError("estimation requires a non-empty sample set")
        groups, _, n = self.contributions.shape
        log_means = self._per_group(self._block_sums - np.log(n))
        return float(log_sum_exp(log_means, 0)[0][0] - np.log(groups))

    def _refuse_huge(self) -> None:
        if self.size > MAX_UNCAPPED_COMBINATIONS:
            raise InflationBudgetError(f"refusing to materialize {self.size} recombined samples")

    @property
    def log_weights(self) -> np.ndarray:
        """Every combination's log weight, in :meth:`materialize`'s order."""
        self._refuse_huge()
        return _weight_grid(self.base, self.contributions)

    @property
    def points(self) -> np.ndarray:
        """Every combination as a ``(size, K)`` row, in :meth:`materialize`'s order."""
        self._refuse_huge()
        groups, k, n = self.values.shape
        grid_shape = (groups,) + (n,) * k
        point_grid = [np.broadcast_to(_along_block(j, k, self.values[:, j]), grid_shape) for j in range(k)]
        return np.stack(point_grid, axis=-1).reshape(self.size, k)

    def materialize(self) -> SampleSet:
        """The enumerated set, in lexicographic order over ``(group, i_1, ...,
        i_K)``; the oracle for the factored sums.  Raises
        :class:`InflationBudgetError` beyond ``MAX_UNCAPPED_COMBINATIONS``."""
        return SampleSet(self.points, self.log_weights)


def grouped_inflate(
    points,
    group_size: int,
    model: FactorizedModel,
    prop: FactorizedProposal,
) -> GroupedSampleSet:
    """Recombine pre-drawn joint samples within consecutive groups.

    ``points`` is an ``(n, K)`` array of scalar block values drawn from
    ``prop``; each group of ``group_size`` rows is treated as that many inner
    draws per block and stands for all ``group_size**K`` recombinations.
    Nothing is enumerated: the result is a :class:`GroupedSampleSet`.
    Weights come from :func:`block_contributions`, with its restrictions.
    """
    base, contrib = block_contributions(model, prop, points)
    n, k = contrib.shape
    if group_size < 1 or n % group_size != 0:
        raise ValueError(f"{n} samples do not divide into groups of {group_size}")
    num_groups = n // group_size
    grouped = np.asarray(points, dtype=float).reshape(num_groups, group_size, k).transpose(0, 2, 1)
    return GroupedSampleSet(base, contrib.reshape(num_groups, group_size, k).transpose(0, 2, 1), grouped)
