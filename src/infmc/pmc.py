"""Iterated importance sampling with proposals centered on earlier samples.

Each generation draws a population of weighted samples; each outer draw's
proposal is a Markov kernel centered on a point resampled (with replacement,
proportionally to weight) from the previous generation, and a generation's
kernels are one proposal whose parameters are columns, one row per outer
draw.  Weights always use
the drawing proposal's own density, so every generation is a valid importance
sample; with more than one inner draw per block, generations are recombined
at a matched likelihood-evaluation budget.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .distributions import Density, DiagGaussian, Gamma, ScalarInverseWishart, TupleDensity
from .estimators import (
    DegenerateWeightsError,
    TestFunction,
    combine,
    resample,
    self_normalized_estimate,
)
from . import factorized
from .factorized import FactorizedModel, FactorizedProposal, GroupedSampleSet, InflationBudgetError, recombine
from .rng import RandomSource

__all__ = [
    "DegenerateGenerationError",
    "Kernel",
    "GaussianKernel",
    "GammaKernel",
    "VarianceKernel",
    "TupleKernel",
    "PmcConfig",
    "Generation",
    "run_pmc",
    "pooled_estimate",
    "GenerationTrace",
    "trace_metrics",
]


class DegenerateGenerationError(DegenerateWeightsError):
    """A whole generation came out with zero total weight."""

    def __init__(self, generation: int):
        super().__init__(f"all weights are zero in generation {generation}")
        self.generation = generation


class Kernel:
    """Builds one proposal density centered on one block's values of
    ``outer`` resampled points, ``(outer, ...)``: its parameters are
    ``(outer, 1)`` columns, row ``g`` centered on point ``g``."""

    def at(self, centers) -> Density:
        raise NotImplementedError


def _column(centers) -> np.ndarray:
    return np.asarray(centers, dtype=float).reshape(-1, 1)


@dataclass(frozen=True)
class GaussianKernel(Kernel):
    """Gaussian step for unconstrained parameters."""

    bandwidth: float = 0.25

    def __post_init__(self):
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")

    def at(self, centers) -> Density:
        return DiagGaussian(_column(centers), self.bandwidth**2)


@dataclass(frozen=True)
class GammaKernel(Kernel):
    """Gamma step for positive parameters, moment-matched so the proposal
    mean sits at the center with the configured coefficient of variation."""

    cv: float = 0.3

    def __post_init__(self):
        if self.cv <= 0:
            raise ValueError("cv must be positive")

    def at(self, centers) -> Density:
        return Gamma(shape=1.0 / self.cv**2, scale=_column(centers) * self.cv**2)


@dataclass(frozen=True)
class VarianceKernel(Kernel):
    """Scalar inverse-Wishart step for variance parameters, with its mean at
    the center and the configured coefficient of variation."""

    cv: float = 0.3

    def __post_init__(self):
        if self.cv <= 0:
            raise ValueError("cv must be positive")

    def at(self, centers) -> Density:
        df = 2.0 * (2.0 + 1.0 / self.cv**2)
        return ScalarInverseWishart(_column(centers) * (df - 2.0), df)


class TupleKernel(Kernel):
    """One kernel per element of a tuple-valued block; its centers are ``(outer, parts)``."""

    def __init__(self, parts):
        self.parts = tuple(parts)

    def at(self, centers) -> Density:
        centers = np.asarray(centers, dtype=float)
        if centers.shape[-1:] != (len(self.parts),):
            raise ValueError(f"centers have {centers.shape[-1:]} parts, kernel expects {len(self.parts)}")
        return TupleDensity([k.at(centers[..., i]) for i, k in enumerate(self.parts)])


@dataclass(frozen=True)
class PmcConfig:
    """Population size and generation count, the per-block Markov kernel, the
    inner draws per block (1 is plain importance sampling), and optionally a
    builder for the global block's proposal (the default re-proposes the
    global block from the initial proposal every generation).

    A kernel generation draws ``outer`` centers, rows of block values
    ``(K, ...)`` of the previous generation's resampled points, and builds
    one proposal for all of them: ``kernel.at`` gets one block's ``(outer,
    ...)`` centers, and ``global_proposal_builder`` the ``(outer, K, ...)``
    centers; each returns one density whose parameters are ``(outer, 1)``
    columns, row ``g`` for outer draw ``g``."""

    population_size: int
    generations: int
    kernel: Kernel
    inner_draws: int = 1
    global_proposal_builder: Callable[[np.ndarray], Density] | None = None

    def __post_init__(self):
        if self.population_size < 1 or self.generations < 1:
            raise ValueError("population_size and generations must be >= 1")
        if self.inner_draws < 1:
            raise ValueError("inner_draws must be >= 1")
        if self.population_size % self.inner_draws != 0:
            raise ValueError(
                "population_size must divide into inner_draws so the "
                "likelihood-evaluation budget matches the plain run"
            )


@dataclass
class Generation:
    """One generation's weighted population and its summaries."""

    sample_set: GroupedSampleSet
    resampled_points: list
    cumulative_estimate: Optional[np.ndarray]
    block_evals: int


def _kernel_proposal(cfg: PmcConfig, init: FactorizedProposal, population: list, outer: int, rng: RandomSource):
    """One proposal for a kernel generation's ``outer`` draws, centered on
    points drawn uniformly from ``population`` in one generator call."""
    centers = np.asarray(population)[rng.generator.integers(len(population), size=outer)]
    blocks = tuple(cfg.kernel.at(centers[:, j]) for j in range(init.num_blocks))
    # default: the global block is re-proposed from the initial proposal
    glob = init.global_proposal if cfg.global_proposal_builder is None else cfg.global_proposal_builder(centers)
    return FactorizedProposal(block_proposals=blocks, global_proposal=glob)


def run_pmc(
    model: FactorizedModel,
    init: FactorizedProposal,
    cfg: PmcConfig,
    rng: RandomSource,
    test_function: TestFunction | None = None,
) -> list[Generation]:
    """Run the generation loop and return every generation's population.

    Generation 1 draws from ``init``; later generations center block kernels
    on uniformly chosen members of the previous generation's resampled
    population (never on samples from the same generation).  Each generation
    makes ``population_size / inner_draws`` outer draws, so its block
    likelihoods score exactly ``population_size * num_blocks`` values, the
    plain run's count, and nothing else scores them.  A kernel
    generation draws its outer draws' centers in one ``integers`` call and
    builds one proposal for all of them; then :func:`recombine` makes its
    draws, and :func:`resample` draws the next population from the
    materialized set; so the loop raises :class:`InflationBudgetError`, before
    its first draw, when a generation's combinations pass the enumeration cap.

    The cumulative estimate over generations ``1..t`` is the union
    decomposition of the pooled self-normalized estimate: each generation's
    own estimate, weighted by its share of the total weight.
    """
    outer = cfg.population_size // cfg.inner_draws
    if outer * cfg.inner_draws**model.num_blocks > factorized.MAX_UNCAPPED_COMBINATIONS:
        raise InflationBudgetError(f"{outer} x {cfg.inner_draws}^{model.num_blocks} combinations exceed the cap")
    block_evals = cfg.population_size * model.num_blocks  # outer * inner_draws values per block
    generations: list[Generation] = []
    prev_resampled: list | None = None
    log_sums: list[float] = []  # each generation's log weight sum, with its estimate of h
    estimates: list[np.ndarray] = []

    for t in range(1, cfg.generations + 1):
        prop = init if t == 1 else _kernel_proposal(cfg, init, prev_resampled, outer, rng)
        gen_set = recombine(model, prop, outer, cfg.inner_draws, rng)
        if gen_set.log_weight_sum == -np.inf:
            raise DegenerateGenerationError(t)

        materialized = gen_set.materialize()
        cum_est = None
        if test_function is not None:
            log_sums.append(gen_set.log_weight_sum)
            estimates.append(self_normalized_estimate(materialized, test_function))
            cum_est = np.exp(np.array(log_sums) - np.logaddexp.reduce(log_sums)) @ np.array(estimates)
        resampled = resample(materialized, cfg.population_size, rng)
        generations.append(Generation(gen_set, resampled, cum_est, block_evals))
        prev_resampled = resampled
    return generations


def pooled_estimate(generations: list[Generation], h: TestFunction) -> np.ndarray:
    """Self-normalized estimate over every generation's samples pooled
    together (the weights share one unnormalized target, so pooling is a
    valid importance sample)."""
    return self_normalized_estimate(combine([g.sample_set for g in generations]), h)


@dataclass
class GenerationTrace:
    """Per-generation series of a finished run."""

    best_log_likelihood: np.ndarray
    best_log_likelihood_so_far: np.ndarray
    estimate_error: np.ndarray
    block_evals: np.ndarray

    def __len__(self) -> int:
        return int(self.best_log_likelihood.size)


def trace_metrics(best_log_likelihood, estimate_error, block_evals) -> GenerationTrace:
    """Pack one value per generation of the best data log-likelihood, the
    cumulative estimate's error and the block evaluations, with the running
    best log-likelihood."""
    best = np.asarray(best_log_likelihood, dtype=float)
    if best.size == 0:
        raise ValueError("trace_metrics needs at least one generation")
    return GenerationTrace(
        best_log_likelihood=best,
        best_log_likelihood_so_far=np.maximum.accumulate(best),
        estimate_error=np.asarray(estimate_error, dtype=float),
        block_evals=np.asarray(block_evals),
    )
