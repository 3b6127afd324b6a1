"""Factorizing-likelihood models and the sample-inflation engine.

A factorized model splits its unnormalized log density into a global-block
prior, per-block priors, and per-block likelihood factors whose data
partitions are disjoint.  Because blocks are conditionally independent given
the global block, the per-block factors computed for a handful of draws can
be recombined into every cross-combination of block values, yielding far more
(dependent) samples than likelihood evaluations.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .distributions import Density
from .estimators import DegenerateWeightsError, SampleSet, TestFunction, log_sum_exp, self_normalized_estimate
from .rng import RandomSource

__all__ = [
    "InflationBudgetError",
    "FactorizedModel",
    "FactorizedProposal",
    "recombine",
    "plain_factorized_sampler",
    "inflate",
    "weigh",
    "GroupedSampleSet",
    "grouped_inflate",
]

# the enumeration cap, in combinations; each check reads it from this module at call time
MAX_UNCAPPED_COMBINATIONS = 10**8


class InflationBudgetError(ValueError):
    """Raised instead of silently allocating a huge combination set."""


def _repeated(stacked, repeats: int):
    """Stacked global values with each row repeated ``repeats`` times in a row."""
    if stacked is None:
        return None
    repeat = lambda part: np.repeat(part, repeats, axis=0)
    return tuple(map(repeat, stacked)) if isinstance(stacked, tuple) else repeat(stacked)


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
    :meth:`GroupedSampleSet.aligned`).  For models without a global block, pass
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
    (the global value is ``None`` and contributes nothing to the density).

    One proposal serves a whole :func:`recombine` call.  Each density holds
    scalar parameters, shared by every outer draw, or ``(outer, 1)``
    parameter columns, row ``g`` for outer draw ``g``: a generation of
    kernels centered on ``outer`` resampled points is one proposal, not one
    per point.  :func:`recombine` documents the order of its draws."""

    block_proposals: tuple[Density, ...]
    global_proposal: Density | None = None

    def __post_init__(self):
        if not self.block_proposals:
            raise ValueError("a factorized proposal needs at least one block")

    @property
    def num_blocks(self) -> int:
        return len(self.block_proposals)

    def joint_log_density(self, global_value, block_values: Sequence) -> float:
        """Log density at one joint value, given as to :meth:`FactorizedModel.joint_log_density`."""
        total = 0.0
        if self.global_proposal is not None:
            total += float(self.global_proposal.log_density(global_value))
        for prop, value in zip(self.block_proposals, block_values):
            total += float(prop.log_density(value))
        return total


def _block_terms(model: FactorizedModel, density: Density, j: int, global_values, values: np.ndarray) -> np.ndarray:
    """``(prior_j(x) + lik_j(global, x)) - log q_j(x)`` for block ``j``'s
    values drawn by ``density`` with their aligned global values: the one
    place block weight terms are formed.  ``density`` scores the values in
    their own shape, ``(n,)`` or ``(outer, inner)`` and any trailing part
    axis, in one call; the prior and the likelihood score them flattened to
    one row per value, aligned with ``global_values``."""
    log_q = density.log_density_each(values)
    if (log_q == -np.inf).any():
        raise RuntimeError(f"proposal density is zero at a value of block {j}")
    flat = values.reshape((log_q.size,) + values.shape[log_q.ndim:])
    prior, lik = model.block_log_priors[j](flat), model.block_log_likelihoods[j](global_values, flat)
    if not np.shape(prior) == np.shape(lik) == (log_q.size,):
        raise ValueError(f"block {j}'s prior and likelihood must return one term per value, as log q does")
    terms = (prior + lik).reshape(log_q.shape)
    terms -= log_q
    return terms


def _check_blocks(model: FactorizedModel, prop: FactorizedProposal) -> None:
    if prop.num_blocks != model.num_blocks:
        raise ValueError("proposal and model disagree on the number of blocks")


def _along_block(j: int, k: int, column: np.ndarray) -> np.ndarray:
    """A ``(groups, n, ...)`` block column shaped to broadcast along block
    ``j``'s axis of the ``(groups, n, ..., n, ...)`` combination grid."""
    shape = [column.shape[0]] + [1] * k + list(column.shape[2:])
    shape[1 + j] = column.shape[1]
    return column.reshape(shape)


def weigh(model: FactorizedModel, prop: FactorizedProposal, global_values, block_values) -> GroupedSampleSet:
    """The recombined set of values drawn from ``prop``: the one place log
    weights are formed.

    ``block_values`` is ``(groups, K, n, ...)``, ``n`` draws per block and
    group (trailing axes hold a tuple block's parts); ``global_values`` holds
    each group's global value stacked part by part, or is ``None`` without a
    global block.  Combination ``(i_1, ..., i_K)`` of group ``g`` weighs

        log w = global prior + offset - log q_global
                + sum_j (prior_j + lik_j - log q_j)[i_j]

    Each density scores its own values in one ``log_density_each`` call, in
    their ``(groups, ...)`` shape.  The model's global prior scores the
    global values in one call; each block's prior and likelihood score its
    ``groups * n`` values in one call each, flattened to rows with the global
    values repeated to align.
    """
    _check_blocks(model, prop)
    block_values = np.asarray(block_values, dtype=float)
    if block_values.ndim < 3 or block_values.shape[1] != model.num_blocks:
        raise ValueError(f"block values must be (groups, {model.num_blocks}, n, ...), got {block_values.shape}")
    groups, _, n = block_values.shape[:3]
    glob = prop.global_proposal
    log_q = 0.0 if glob is None else glob.log_density_each(global_values)
    if np.any(log_q == -np.inf):
        raise RuntimeError("proposal density is zero at its own draw (global block)")
    prior = model.global_log_prior(global_values)
    if np.shape(prior) != (groups,) and not (glob is None and np.ndim(prior) == 0):
        raise ValueError("the global block's prior must return one term per outer draw")
    bases = (prior + model.log_evidence_offset) - log_q
    aligned_globals = _repeated(global_values, n)  # row g * n + i: group g
    terms = [
        _block_terms(model, density, j, aligned_globals, block_values[:, j])
        for j, density in enumerate(prop.block_proposals)
    ]
    return GroupedSampleSet(bases, np.stack(terms, axis=1), block_values, global_values)


def recombine(
    model: FactorizedModel,
    prop: FactorizedProposal,
    outer_draws: int,
    inner_draws: int,
    rng: RandomSource,
) -> GroupedSampleSet:
    """The recombining sampler behind every object-path draw.

    Make ``outer_draws`` global draws and, per global draw, ``inner_draws``
    draws per block, then :func:`weigh` them: the result stands for every
    cross-combination of block indices, one group per global draw.  One
    inner draw is plain importance sampling.  With a global block, the
    inner draws average the blocks given each drawn global value, so the
    estimate is consistent only as ``outer_draws`` grows; at one outer draw
    it estimates the expectation conditional on that global value, however
    many inner draws are made.  ``prop``'s densities hold
    scalar parameters, shared by every outer draw, or ``(outer_draws, 1)``
    parameter columns, one row per outer draw.

    The draw order is fixed by design; a generation of the generation loop
    makes these generator calls, and no others, before it resamples:

    1. in a kernel generation, one ``integers(population, size=outer_draws)``
       call for the centers (made by the loop, before this call);
    2. the global block's ``sample_batch(rng, outer_draws)``; the mixture's
       label proposals make one ``dirichlet(size=outer_draws)`` call, then
       one ``random((outer_draws, observations))`` call;
    3. for each block in order, ``sample_batch(rng, (outer_draws,
       inner_draws))``: one generator call per part, a tuple block's parts
       stacked on a last axis.

    It enumerates nothing: the returned set itself refuses enumeration.
    """
    if outer_draws < 1:
        raise ValueError("outer_draws must be >= 1")
    if inner_draws < 1:
        raise ValueError("inner_draws must be >= 1")
    _check_blocks(model, prop)
    glob = prop.global_proposal
    global_values = None if glob is None else glob.sample_batch(rng, outer_draws)
    block_values = [density.sample_batch(rng, (outer_draws, inner_draws)) for density in prop.block_proposals]
    return weigh(model, prop, global_values, np.stack(block_values, axis=1))


def plain_factorized_sampler(
    model: FactorizedModel,
    prop: FactorizedProposal,
    count: int,
    rng: RandomSource,
) -> GroupedSampleSet:
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
) -> GroupedSampleSet:
    """:func:`recombine` over ``outer_draws`` global draws from ``prop``.

    Every global draw emits all ``inner_draws**num_blocks`` combinations.
    The block likelihoods score ``outer_draws * inner_draws * num_blocks``
    values in all.
    """
    return recombine(model, prop, outer_draws, inner_draws, rng)


class GroupedSampleSet:
    """Every recombination of each group's block draws, held factored
    instead of enumerated: the result of every recombining sampler.

    Block ``j`` of group ``g`` has the ``n`` values ``values[g, j]`` (trailing
    axes hold a tuple block's parts) with log-weight terms
    ``contributions[g, j]``, ``(groups, K, n)``.  ``base`` is one term, or
    one per group; ``global_values``, for a set with a global block, holds
    each group's global value stacked part by part.  The set stands for the
    ``size = groups * n**K`` combinations :meth:`materialize` enumerates,
    ``(i_1, ..., i_K)`` of group ``g`` weighing ``base_g + sum_j
    contributions[g, j, i_j]``.  Weight sums over a group factor into
    per-block log-sum-exps, so the weight sum, the evidence and the
    self-normalized mean of scalar blocks cost ``O(groups * K * n)``.
    With a global block, a group's combinations average its blocks given
    that group's one global value, so an estimate from the set is
    consistent only as the groups grow; from one group it estimates the
    expectation conditional on that group's global value.
    ``size`` is a Python int, so it holds counts beyond ``len()``'s 2**63 - 1.
    A set holds at least one group, so ``log_weight_sum`` is -inf only when
    every weight is zero.  Immutable after construction.
    """

    __slots__ = ("base", "contributions", "values", "global_values", "size", "log_weight_sum", "_block_sums",
                 "_group_sums")

    def __init__(self, base, contributions: np.ndarray, values: np.ndarray, global_values=None):
        base = np.asarray(base, dtype=float)
        contributions = np.asarray(contributions, dtype=float)
        values = np.asarray(values, dtype=float)
        if contributions.ndim != 3 or values.shape[:3] != contributions.shape or 0 in contributions.shape[1:]:
            raise ValueError("contributions must be (groups, K >= 1, n >= 1) and values (groups, K, n, ...)")
        if not len(contributions):
            raise ValueError("a sample set must be non-empty")
        if base.shape not in ((), contributions.shape[:1]):
            raise ValueError("base must be one term, or one term per group")
        if not (base.max() < np.inf and contributions.max() < np.inf):
            raise ValueError("log weights must be finite or -inf; found NaN or +inf")
        self.base = base
        self.contributions = contributions
        self.values = values
        self.global_values = global_values
        groups, k, n = contributions.shape
        self.size = groups * n**k
        self._block_sums = log_sum_exp(contributions, 2)[0][..., 0]  # L_gj = lse_i c_gji
        self._group_sums = self._per_group(self._block_sums)  # W_g, group g's weight sum
        self.log_weight_sum = float(log_sum_exp(self._group_sums, 0)[0][0])

    def _per_group(self, block_terms: np.ndarray) -> np.ndarray:
        """``((base + t_g1) + t_g2) + ...`` per group, the order of :attr:`log_weights`."""
        total = np.broadcast_to(self.base, len(block_terms))
        for column in block_terms.T:
            total = total + column
        return total

    def __len__(self) -> int:
        return self.size

    def self_normalized_mean(self) -> np.ndarray:
        """Self-normalized estimate of the identity over every combination of
        scalar blocks: per block ``j``, ``sum_g e^(W_g - L_gj) sum_i e^(c_gji)
        x_gji / W`` with group weight sums ``W_g``, block sums ``L_gj`` and
        total ``W``, through the sign-tracking :func:`log_sum_exp`.  With one
        inner draw the set is plain importance sampling: enumerating it is
        faster than the contraction and gives the oracle's bits, so it does,
        and so refuses, with :class:`InflationBudgetError`, a set beyond
        ``MAX_UNCAPPED_COMBINATIONS`` groups."""
        if self.log_weight_sum == -np.inf:
            raise DegenerateWeightsError("all weights are zero")
        if self.values.ndim != 3:
            raise ValueError("the contracted mean takes scalar blocks; estimate tuple blocks on .materialize()")
        if self.contributions.shape[2] == 1:
            return self_normalized_estimate(self.materialize(), TestFunction.identity(self.contributions.shape[1]))
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
        groups, _, n = self.contributions.shape
        log_means = self._per_group(self._block_sums - np.log(n))
        return float(log_sum_exp(log_means, 0)[0][0] - np.log(groups))

    def _refuse_huge(self) -> None:
        if self.size > MAX_UNCAPPED_COMBINATIONS:
            raise InflationBudgetError(f"refusing to materialize {self.size} recombined samples")

    @property
    def log_weights(self) -> np.ndarray:
        """Every combination's log weight ``((base + c_1) + c_2) + ...``, in
        :meth:`materialize`'s order."""
        self._refuse_huge()
        k = self.contributions.shape[1]
        grid = np.reshape(self.base, (-1,) + (1,) * k)
        for j in range(k):
            grid = grid + _along_block(j, k, self.contributions[:, j])
        return grid.reshape(-1)

    @property
    def points(self) -> np.ndarray:
        """Every combination's block values, ``(size, K, ...)``, in :meth:`materialize`'s order."""
        self._refuse_huge()
        (groups, k, n), trailing = self.contributions.shape, self.values.shape[3:]
        grid_shape = (groups,) + (n,) * k + trailing
        point_grid = [np.broadcast_to(_along_block(j, k, self.values[:, j]), grid_shape) for j in range(k)]
        return np.stack(point_grid, axis=1 + k).reshape((self.size, k) + trailing)

    def aligned(self) -> tuple[Any, list[np.ndarray]]:
        """Each combination's global value, repeated from its group, and each
        block's values, in :meth:`materialize`'s order: the aligned batches
        :meth:`FactorizedModel.data_log_likelihood` takes."""
        _, k, n = self.contributions.shape
        return _repeated(self.global_values, n**k), list(self.points.swapaxes(0, 1))

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
    ``prop``, whose global block must be empty; each group of ``group_size``
    rows is treated as that many inner draws per block and stands for all
    ``group_size**K`` recombinations.  Nothing is enumerated: the result is
    :func:`weigh` of the groups.
    """
    if prop.global_proposal is not None:
        raise ValueError("array-path weights require an empty global block")
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != model.num_blocks:
        raise ValueError(f"points must be (n, {model.num_blocks}), got {pts.shape}")
    n, k = pts.shape
    if group_size < 1 or n % group_size != 0:
        raise ValueError(f"{n} samples do not divide into groups of {group_size}")
    return weigh(model, prop, None, pts.reshape(n // group_size, group_size, k).transpose(0, 2, 1))
