"""Iterated importance sampling with proposals centered on earlier samples.

Each generation draws a population of weighted samples whose per-draw
proposals are Markov kernels centered on points resampled (with replacement,
proportionally to weight) from the previous generation.  Weights always use
the drawing proposal's own density, so every generation is a valid importance
sample; with more than one inner draw per block, generations are recombined
at a matched likelihood-evaluation budget.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .distributions import Density, DiagGaussian, Gamma, ScalarInverseWishart, TupleDensity
from .estimators import (
    DegenerateWeightsError,
    Estimate,
    SampleSet,
    TestFunction,
    combine,
    resample,
    self_normalized_estimate,
)
from .factorized import (
    FactorizedModel,
    FactorizedPoint,
    FactorizedProposal,
    recombine,
)
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
    """Builds a proposal density centered on a previous sample's block value."""

    def at(self, center) -> Density:
        raise NotImplementedError


@dataclass(frozen=True)
class GaussianKernel(Kernel):
    """Gaussian step for unconstrained parameters."""

    bandwidth: float = 0.25

    def __post_init__(self):
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")

    def at(self, center) -> Density:
        return DiagGaussian(center, self.bandwidth**2)


@dataclass(frozen=True)
class GammaKernel(Kernel):
    """Gamma step for positive parameters, moment-matched so the proposal
    mean sits at the center with the configured coefficient of variation."""

    cv: float = 0.3

    def __post_init__(self):
        if self.cv <= 0:
            raise ValueError("cv must be positive")

    def at(self, center) -> Density:
        center = float(center)
        if center <= 0:
            raise ValueError("gamma kernel needs a positive center")
        return Gamma(shape=1.0 / self.cv**2, scale=center * self.cv**2)


@dataclass(frozen=True)
class VarianceKernel(Kernel):
    """Scalar inverse-Wishart step for variance parameters, with its mean at
    the center and the configured coefficient of variation."""

    cv: float = 0.3

    def __post_init__(self):
        if self.cv <= 0:
            raise ValueError("cv must be positive")

    def at(self, center) -> Density:
        center = float(center)
        if center <= 0:
            raise ValueError("variance kernel needs a positive center")
        df = 2.0 * (2.0 + 1.0 / self.cv**2)
        return ScalarInverseWishart(center * (df - 2.0), df)


class TupleKernel(Kernel):
    """One kernel per element of a tuple-valued block."""

    def __init__(self, parts):
        self.parts = tuple(parts)

    def at(self, center) -> Density:
        if len(center) != len(self.parts):
            raise ValueError(f"center has {len(center)} parts, kernel expects {len(self.parts)}")
        return TupleDensity([k.at(v) for k, v in zip(self.parts, center)])


@dataclass(frozen=True)
class PmcConfig:
    """Population size and generation count, the per-block Markov kernel, the
    inner draws per block (1 is plain importance sampling), and optionally a
    per-center builder for the global block's proposal (the default
    re-proposes the global block from the initial proposal every
    generation)."""

    population_size: int
    generations: int
    kernel: Kernel
    inner_draws: int = 1
    global_proposal_builder: Callable[[FactorizedPoint], Density] | None = None

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

    index: int
    sample_set: SampleSet
    resampled_points: list
    cumulative_estimate: Optional[Estimate]
    best_log_likelihood: float
    block_evals: int


def _kernel_proposal(cfg: PmcConfig, init: FactorizedProposal, center) -> FactorizedProposal:
    blocks = tuple(cfg.kernel.at(v) for v in center.block_values)
    if cfg.global_proposal_builder is not None:
        global_prop = cfg.global_proposal_builder(center)
    else:
        # default: the global block is re-proposed from the initial proposal
        global_prop = init.global_proposal
    return FactorizedProposal(block_proposals=blocks, global_proposal=global_prop)


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
    makes ``population_size / inner_draws`` outer draws, so its
    block-likelihood evaluation count equals the plain run's.
    """
    outer = cfg.population_size // cfg.inner_draws
    block_evals = cfg.population_size * model.num_blocks  # outer * inner_draws values per block
    generations: list[Generation] = []
    all_sets: list[SampleSet] = []
    prev_resampled: list | None = None

    for t in range(1, cfg.generations + 1):
        if t == 1:
            proposals = itertools.repeat(init, outer)
        else:
            # each center is drawn just before the draws it centers
            proposals = (
                _kernel_proposal(
                    cfg, init, prev_resampled[int(rng.generator.integers(len(prev_resampled)))]
                )
                for _ in range(outer)
            )
        gen_set = recombine(model, proposals, cfg.inner_draws, rng)
        if gen_set.log_weight_sum == -np.inf:
            raise DegenerateGenerationError(t)
        all_sets.append(gen_set)

        cum_est = None
        if test_function is not None:
            cum_est = self_normalized_estimate(combine(all_sets), test_function)
        best = max(
            model.data_log_likelihood(p.global_value, p.block_values) for p in gen_set.points
        )
        resampled = resample(gen_set, cfg.population_size, rng)
        generations.append(Generation(t, gen_set, resampled, cum_est, best, block_evals))
        prev_resampled = resampled
    return generations


def pooled_estimate(generations: list[Generation], h: TestFunction) -> Estimate:
    """Self-normalized estimate over every generation's samples pooled
    together (the weights share one unnormalized target, so pooling is a
    valid importance sample)."""
    return self_normalized_estimate(combine([g.sample_set for g in generations]), h)


@dataclass
class GenerationTrace:
    """Per-generation series extracted from a finished run."""

    best_log_likelihood: np.ndarray
    best_log_likelihood_so_far: np.ndarray
    estimate_error: np.ndarray
    block_evals: np.ndarray

    def __len__(self) -> int:
        return int(self.best_log_likelihood.size)


def trace_metrics(generations: list[Generation], truth) -> GenerationTrace:
    """Best data log-likelihood and cumulative-estimate error against
    ``truth``, per generation."""
    if not generations:
        raise ValueError("trace_metrics needs at least one generation")
    truth = np.asarray(truth, dtype=float)
    best = np.array([g.best_log_likelihood for g in generations])
    errors = np.array(
        [
            np.linalg.norm(g.cumulative_estimate.value - truth)
            if g.cumulative_estimate is not None
            else np.nan
            for g in generations
        ]
    )
    return GenerationTrace(
        best_log_likelihood=best,
        best_log_likelihood_so_far=np.maximum.accumulate(best),
        estimate_error=errors,
        block_evals=np.array([g.block_evals for g in generations]),
    )
