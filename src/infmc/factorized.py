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
from .estimators import SampleSet
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
    "grouped_inflate",
]

# enumeration refuses beyond this many emitted combinations
MAX_UNCAPPED_COMBINATIONS = 10**8


class InflationBudgetError(ValueError):
    """Raised instead of silently allocating a huge combination set."""


@dataclass(frozen=True)
class FactorizedPoint:
    """A joint sample: the global-block value plus one value per block."""

    global_value: Any
    block_values: tuple


@dataclass(frozen=True)
class FactorizedModel:
    """Unnormalized target split along the conditional-independence structure.

    The defining contract: the joint unnormalized log density of
    ``(global, blocks)`` equals ``global_log_prior(global)
    + sum_j [block_log_priors[j](blocks[j])
    + block_log_likelihoods[j](global, blocks[j])] + log_evidence_offset``.
    The data partition behind the block likelihoods must be disjoint across
    blocks for a fixed global value.

    For models without a global block, pass evaluators that accept ``None``.
    Block evaluators accept one block value or an array of values stacked
    along the first axis, and must return one term per value.
    """

    num_blocks: int
    global_log_prior: Callable[[Any], float]
    block_log_priors: tuple[Callable[[Any], float], ...]
    block_log_likelihoods: tuple[Callable[[Any, Any], float], ...]
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

    def data_log_likelihood(self, global_value, block_values: Sequence) -> float:
        """Likelihood factors only (no priors, no offset)."""
        return float(
            sum(lik(global_value, v) for lik, v in zip(self.block_log_likelihoods, block_values))
        )


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


def _draw_global(model: FactorizedModel, prop: FactorizedProposal, rng: RandomSource):
    """Returns (global value, base log-weight term for that draw)."""
    if prop.global_proposal is None:
        global_value = None
        log_q_global = 0.0
    else:
        global_value, log_q_global = prop.global_proposal.sample_with_log_density(rng)
        log_q_global = float(log_q_global)
        if log_q_global == -np.inf:
            raise RuntimeError("proposal density is zero at its own draw (global block)")
    base = float(model.global_log_prior(global_value)) + model.log_evidence_offset - log_q_global
    return global_value, base


def _block_terms(model: FactorizedModel, prop: FactorizedProposal, j: int, global_value, values) -> np.ndarray:
    """``(prior_j(x) + lik_j(global, x)) - log q_j(x)`` for one value or an
    array of block ``j``'s values: the one place block weight terms are formed."""
    if prop.num_blocks != model.num_blocks:
        raise ValueError("proposal and model disagree on the number of blocks")
    log_q = prop.block_proposals[j].log_density_each(values)
    if (log_q == -np.inf).any():
        raise RuntimeError(f"proposal density is zero at a value of block {j}")
    prior, lik = model.block_log_priors[j](values), model.block_log_likelihoods[j](global_value, values)
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
    score each block's draws with one call of :func:`_block_terms`, then
    emit every cross-combination of block indices, in lexicographic order,
    with

        log w = global prior + offset - log q_global
                + sum_j (prior_j + lik_j - log q_j)[c_j]

    One inner draw is plain importance sampling.  ``proposals`` is consumed
    lazily, one proposal per global draw, so a generator may draw from
    ``rng`` to build each proposal just before its draws are made.  Raises
    :class:`InflationBudgetError`, before its draws, for a global draw whose
    combinations would take the total beyond ``MAX_UNCAPPED_COMBINATIONS``.
    """
    if inner_draws < 1:
        raise ValueError("inner_draws must be >= 1")
    k = model.num_blocks
    per_draw = inner_draws**k
    points: list[FactorizedPoint] = []
    bases, terms = [], []
    for prop in proposals:
        if len(points) + per_draw > MAX_UNCAPPED_COMBINATIONS:
            raise InflationBudgetError(
                f"{len(points)} + {inner_draws}^{k} combinations exceed {MAX_UNCAPPED_COMBINATIONS}"
            )
        global_value, base = _draw_global(model, prop, rng)
        bases.append(base)
        block_values = []
        for j, block_prop in enumerate(prop.block_proposals):
            drawn = block_prop.sample_batch(rng, inner_draws)
            block_values.append(drawn.tolist() if drawn.ndim == 1 else list(map(tuple, drawn.tolist())))
            # a lone draw goes in as its one value: scalar arithmetic is far cheaper than 1-element arrays
            values = drawn if inner_draws > 1 else block_values[j][0]
            terms.append(_block_terms(model, prop, j, global_value, values))
        points.extend(map(FactorizedPoint, itertools.repeat(global_value), itertools.product(*block_values)))
    log_weights = _weight_grid(np.array(bases), np.reshape(terms, (len(bases), k, inner_draws)))
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
    return base, np.column_stack([_block_terms(model, prop, j, None, pts[:, j]) for j in range(model.num_blocks)])


def grouped_inflate(
    points,
    group_size: int,
    model: FactorizedModel,
    prop: FactorizedProposal,
) -> SampleSet:
    """Recombine pre-drawn joint samples within consecutive groups.

    ``points`` is an ``(n, K)`` array of scalar block values drawn from
    ``prop``; each group of ``group_size`` rows is treated as that many inner
    draws per block and expanded to all ``group_size**K`` recombinations, and
    the groups are concatenated.  Weights come from
    :func:`block_contributions`, with its restrictions.
    """
    base, contrib = block_contributions(model, prop, points)
    n, k = contrib.shape
    if group_size < 1 or n % group_size != 0:
        raise ValueError(f"{n} samples do not divide into groups of {group_size}")
    num_groups = n // group_size
    total = num_groups * group_size**k
    if total > MAX_UNCAPPED_COMBINATIONS:
        raise InflationBudgetError(f"refusing to emit {total} recombined samples")
    log_weights = _weight_grid(base, contrib.reshape(num_groups, group_size, k).transpose(0, 2, 1))
    grouped = np.asarray(points, dtype=float).reshape(num_groups, group_size, k)
    grid_shape = (num_groups,) + (group_size,) * k
    point_grid = [np.broadcast_to(_along_block(j, k, grouped[..., j]), grid_shape) for j in range(k)]
    return SampleSet(np.stack(point_grid, axis=-1).reshape(total, k), log_weights)
