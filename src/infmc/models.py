"""Concrete factorized models used in the experiments, plus synthetic data.

Two model families are provided: a two-dimensional Gaussian target whose
coordinates form two data-free blocks (with a large negative log-evidence
offset to force all arithmetic through log space), and one-dimensional
two-component mixture models whose component parameters are the blocks and
whose mixing weights plus per-point component assignments form the global
block.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .distributions import (
    LOG_TWO_PI,
    Density,
    DiagGaussian,
    Dirichlet,
    Gamma,
    ScalarInverseWishart,
    StudentT,
    TupleDensity,
    student_t_logpdf,
)
from .estimators import TestFunction, log_sum_exp
from .factorized import FactorizedModel, FactorizedProposal
from .rng import RandomSource

__all__ = [
    "GaussianToy",
    "DmmSpec",
    "MixtureGlobalProposal",
    "MixtureAssignmentProposal",
    "informed_assignment_builder",
    "dmm_model",
    "dmm_init_proposal",
    "component_means_function",
    "SyntheticDataset",
    "make_synthetic",
    "save_dataset",
    "load_dataset",
]

GAUSSIAN = "gaussian"
STUDENT_T = "student-t"
SYNTHETIC_T_DF = 30.0
NUM_COMPONENTS = 2
# one prior on the mixing weights, shared by the model and both global proposals
MIXING_PRIOR = Dirichlet((1.0,) * NUM_COMPONENTS)


@dataclass(frozen=True)
class GaussianToy:
    """Diagonal Gaussian target; each coordinate is its own block and the
    global block is empty.  The log evidence is offset to a large negative
    constant, so linear-space weights would underflow immediately."""

    dimension: int = 2
    variance: float = 2.0
    log_evidence_offset: float = -1000.0
    proposal_df: float = 20.0
    """Recombination removes only other blocks' weight noise: 1 - 1/E_q[w^2] ~ 0.5% of centered MSE at df 20."""

    def __post_init__(self):
        if self.dimension < 1 or not (self.variance > 0 and self.proposal_df > 0):
            raise ValueError(f"need dimension >= 1 and positive variance and proposal_df, got {self!r}")

    @property
    def true_mean(self) -> np.ndarray:
        return np.zeros(self.dimension)

    @property
    def true_log_evidence(self) -> float:
        return self.log_evidence_offset

    def model(self) -> FactorizedModel:
        density = DiagGaussian(0.0, self.variance)
        return FactorizedModel(
            num_blocks=self.dimension,
            global_log_prior=lambda phi: 0.0,
            block_log_priors=(density.log_density_each,) * self.dimension,
            block_log_likelihoods=(lambda phi, g: np.zeros(np.shape(g)),) * self.dimension,
            log_evidence_offset=self.log_evidence_offset,
        )

    def proposal(self, center=0.0) -> FactorizedProposal:
        """Per-coordinate Student-t proposal with the target's scale matrix."""
        center = np.asarray(center, dtype=float)
        scale = float(np.sqrt(self.variance))
        blocks = tuple(
            StudentT(float(c), scale, self.proposal_df) for c in np.broadcast_to(center, (self.dimension,))
        )
        return FactorizedProposal(block_proposals=blocks)

    def sample_proposal(self, count: int, rng: RandomSource, center=0.0) -> np.ndarray:
        """``(count, dimension)`` draws from :meth:`proposal` in one shot."""
        center = np.broadcast_to(np.asarray(center, dtype=float), (self.dimension,))
        draws = rng.generator.standard_t(self.proposal_df, size=(count, self.dimension))
        return center + np.sqrt(self.variance) * draws


@dataclass(frozen=True)
class DmmSpec:
    """A two-component mixture model over one-dimensional observations.

    The gaussian family has unit-variance components with only the means
    latent (standard normal prior on each mean).  The student-t family
    additionally treats each component's variance and degrees of freedom as
    latent, with heavy-tailed priors on all three.
    """

    data: np.ndarray
    component_family: str = GAUSSIAN

    def __post_init__(self):
        object.__setattr__(self, "data", np.asarray(self.data, dtype=float).reshape(-1))
        if self.component_family not in (GAUSSIAN, STUDENT_T):
            raise ValueError(f"unknown component family {self.component_family!r}")

    def component_prior(self) -> Density:
        if self.component_family == GAUSSIAN:
            return DiagGaussian(0.0, 1.0)
        return TupleDensity(
            [StudentT(0.0, 1.0, 1.0), ScalarInverseWishart(5.0, 1.0), Gamma(1.0, 1.0)]
        )

    def component_log_density_each(self, obs: np.ndarray, params) -> np.ndarray:
        """Per-observation log likelihood of a 1-d ``obs``, broadcast over the
        leading axes of ``params``: ``(...)`` for the gaussian family, ``(...,
        3)`` (mean, variance, df) for student-t.  The result is ``(...,
        len(obs))``, and ``-inf`` where a variance or df is not positive."""
        obs = np.asarray(obs, dtype=float)
        params = np.asarray(params, dtype=float)
        if self.component_family == GAUSSIAN:
            return -0.5 * (LOG_TWO_PI + (obs - params[..., None]) ** 2)
        if params.ndim == 1:  # one parameter set: float arithmetic is much cheaper
            mean, var, df = params.tolist()
            if var <= 0.0 or df <= 0.0:
                return np.full(obs.shape, -np.inf)
            return student_t_logpdf(obs, mean, math.sqrt(var), df)
        mean, var, df = (params[..., i, None] for i in range(3))
        outside = (var <= 0.0) | (df <= 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):  # masked just below
            comp = student_t_logpdf(obs, mean, np.sqrt(var), df)
        return np.where(outside, -np.inf, comp)

    def marginal_data_log_likelihood(self, weights, block_params):
        """Mixture log likelihood of the data with assignments summed out.

        Broadcasts over leading batch axes: ``weights`` is ``(..., K)`` and
        ``block_params`` is ``(..., K)`` for the gaussian family or
        ``(..., K, 3)`` (mean, variance, degrees of freedom) for student-t;
        the result has the batch shape.
        """
        weights = np.asarray(weights, dtype=float)
        comp = np.swapaxes(self.component_log_density_each(self.data, block_params), -1, -2)
        with np.errstate(divide="ignore"):
            comp = comp + np.log(weights)[..., None, :]
        return np.sum(log_sum_exp(comp, -1)[0][..., 0], axis=-1)


def _mixing_log_prob(weights, labels) -> float:
    """Shared Dirichlet-plus-assignments term, used by both the model prior
    and the assignment proposal so the two cancel exactly in weights."""
    weights = np.asarray(weights, dtype=float)
    labels = np.asarray(labels)
    total = MIXING_PRIOR.log_density(weights)
    if total == -np.inf:
        return -np.inf
    if labels.size and (labels.min() < 0 or labels.max() >= NUM_COMPONENTS):
        return -np.inf
    probs = weights[labels]
    if np.any(probs <= 0.0):
        return -np.inf
    return total + float(np.sum(np.log(probs)))


class MixtureGlobalProposal(Density):
    """Draws mixing weights from their Dirichlet prior and one component
    assignment per observation from the drawn weights."""

    def __init__(self, spec: DmmSpec):
        self.spec = spec

    def sample(self, rng: RandomSource):
        weights = MIXING_PRIOR.sample(rng)
        labels = rng.generator.choice(NUM_COMPONENTS, size=self.spec.data.size, p=weights)
        return weights, labels

    def log_density(self, x) -> float:
        weights, labels = x
        return _mixing_log_prob(weights, labels)


class MixtureAssignmentProposal(Density):
    """Assignment proposal informed by reference component parameters.

    Mixing weights come from their Dirichlet prior; each observation's
    assignment is drawn from the posterior responsibility it would have under
    the reference parameters (typically a resampled sample from the previous
    generation, so the proposal never depends on the current generation).
    The importance weight fully accounts for this density, so estimates stay
    valid; blind prior assignments make the likelihood a lottery over label
    patterns that no amount of adaptation can win.
    """

    def __init__(self, spec: DmmSpec, reference_params):
        self.spec = spec
        self._ref_each = np.ascontiguousarray(spec.component_log_density_each(spec.data, reference_params).T)

    def _assignment_log_probs(self, weights) -> np.ndarray:
        with np.errstate(divide="ignore"):
            scores = self._ref_each + np.log(np.asarray(weights, dtype=float))[None, :]
        return scores - log_sum_exp(scores, -1)[0]

    def _log_density(self, weights, labels: np.ndarray, log_probs) -> float:
        base = MIXING_PRIOR.log_density(weights)
        if base == -np.inf:
            return -np.inf
        if labels.size and (labels.min() < 0 or labels.max() >= NUM_COMPONENTS):
            return -np.inf
        if log_probs is None:
            log_probs = self._assignment_log_probs(weights)
        return base + float(log_probs[np.arange(labels.size), labels].sum())

    def sample(self, rng: RandomSource):
        return self.sample_with_log_density(rng)[0]

    def log_density(self, x) -> float:
        weights, labels = x
        return self._log_density(weights, np.asarray(labels), None)

    def sample_with_log_density(self, rng: RandomSource):
        """One computation of the assignment probabilities serves the draw
        and its density."""
        weights = MIXING_PRIOR.sample(rng)
        log_probs = self._assignment_log_probs(weights)
        cdf = np.cumsum(np.exp(log_probs), axis=1)
        u = rng.generator.random(self.spec.data.size)
        labels = np.minimum((u[:, None] > cdf).sum(axis=1), NUM_COMPONENTS - 1)
        return (weights, labels), self._log_density(weights, labels, log_probs)


def informed_assignment_builder(spec: DmmSpec):
    """Per-center global-proposal builder for the generation loop: assignments
    follow the responsibilities under the center's component parameters."""

    def build(center) -> MixtureAssignmentProposal:
        return MixtureAssignmentProposal(spec, center.block_values)

    return build


def dmm_model(spec: DmmSpec) -> FactorizedModel:
    """Mixture model as a factorized target.

    The global block is the pair ``(mixing weights, assignments)``; block ``j``
    holds component ``j``'s parameters, and its likelihood factor covers
    exactly the observations currently assigned to component ``j`` (an empty
    component contributes an empty product, i.e. zero).
    """
    prior = spec.component_prior()

    def global_log_prior(phi) -> float:
        weights, labels = phi
        return _mixing_log_prob(weights, labels)

    def make_likelihood(j: int):
        def block_log_likelihood(phi, params):
            _, labels = phi
            obs = spec.data[np.asarray(labels) == j]
            return np.sum(spec.component_log_density_each(obs, params), axis=-1)

        return block_log_likelihood

    return FactorizedModel(
        num_blocks=NUM_COMPONENTS,
        global_log_prior=global_log_prior,
        block_log_priors=(prior.log_density_each,) * NUM_COMPONENTS,
        block_log_likelihoods=tuple(make_likelihood(j) for j in range(NUM_COMPONENTS)),
    )


def dmm_init_proposal(spec: DmmSpec) -> FactorizedProposal:
    """Prior-based proposal: assignments from the mixing proposal, component
    parameters from their priors."""
    return FactorizedProposal(
        block_proposals=(spec.component_prior(),) * NUM_COMPONENTS,
        global_proposal=MixtureGlobalProposal(spec),
    )


def component_means_function(spec: DmmSpec) -> TestFunction:
    """Extracts the vector of component means from a joint mixture sample."""
    if spec.component_family == GAUSSIAN:
        extract = lambda point: point.block_values
    else:
        extract = lambda point: [v[0] for v in point.block_values]
    return TestFunction(lambda pts: np.array([extract(p) for p in pts], dtype=float), NUM_COMPONENTS)


@dataclass(frozen=True)
class SyntheticDataset:
    """Observations drawn from a known two-component mixture."""

    observations: np.ndarray
    true_means: tuple[float, float]
    seed: int
    kind: str

    def __post_init__(self):
        object.__setattr__(self, "observations", np.asarray(self.observations, dtype=float))


def make_synthetic(
    kind: str,
    means: tuple[float, float],
    seed: int,
    count: int = 100,
    mixing: float = 0.5,
) -> SyntheticDataset:
    """Draw ``count`` observations from an equal (or configured) mixture of
    two unit-scale components centered on ``means``.

    The gaussian kind uses unit-variance normals; the student-t kind uses
    unit-scale t components with 30 degrees of freedom.
    """
    if kind not in (GAUSSIAN, STUDENT_T):
        raise ValueError(f"unknown synthetic kind {kind!r}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = RandomSource(seed)
    means_arr = np.asarray(means, dtype=float)
    labels = (rng.generator.random(count) < (1.0 - mixing)).astype(int)
    if kind == GAUSSIAN:
        noise = rng.generator.standard_normal(count)
    else:
        noise = rng.generator.standard_t(SYNTHETIC_T_DF, size=count)
    obs = means_arr[labels] + noise
    return SyntheticDataset(obs, (float(means_arr[0]), float(means_arr[1])), seed, kind)


def save_dataset(dataset: SyntheticDataset, path) -> None:
    """One observation per line, header comment recording seed and truth."""
    means = ",".join(repr(m) for m in dataset.true_means)
    lines = [f"# schema=1 seed={dataset.seed} kind={dataset.kind} means={means}"]
    lines.extend(repr(float(x)) for x in dataset.observations)
    Path(path).write_text("\n".join(lines) + "\n")


def load_dataset(path) -> SyntheticDataset:
    text = Path(path).read_text().strip().splitlines()
    header = text[0]
    if not header.startswith("# schema=1 "):
        raise ValueError(f"unrecognized dataset header: {header!r}")
    fields = dict(part.split("=", 1) for part in header[2:].split() if "=" in part)
    means = tuple(float(v) for v in fields["means"].split(","))
    obs = np.array([float(line) for line in text[1:] if line.strip()])
    return SyntheticDataset(obs, (means[0], means[1]), int(fields["seed"]), fields["kind"])
