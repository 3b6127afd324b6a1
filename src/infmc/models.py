"""Concrete factorized models used in the experiments, plus synthetic data.

Two model families are provided: a two-dimensional Gaussian target whose
coordinates form two data-free blocks (with a large negative log-evidence
offset to force all arithmetic through log space), and one-dimensional
two-component mixture models whose component parameters are the blocks and
whose mixing weights plus per-point component assignments form the global
block.
"""
from __future__ import annotations

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
    "MixtureAssignmentProposal",
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
# the smallest unsigned integer type that names every component: one byte per drawn label at K = 2
LABEL_DTYPE = np.min_scalar_type(NUM_COMPONENTS - 1)
# one prior on the mixing weights, shared by the model and every assignment proposal
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
        draws *= np.sqrt(self.variance)
        draws += center
        return draws


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
            # built in one output array: -0.5 * (LOG_TWO_PI + (obs - mean) ** 2), operation for operation
            comp = np.subtract(obs, params[..., None])
            comp **= 2
            comp += LOG_TWO_PI
            comp *= -0.5
            return comp
        mean, var, df = (params[..., i, None] for i in range(3))
        with np.errstate(divide="ignore", invalid="ignore"):  # masked just below
            comp = student_t_logpdf(obs, mean, np.sqrt(var), df)
        np.copyto(comp, -np.inf, where=(var <= 0.0) | (df <= 0.0))
        return comp

    def marginal_data_log_likelihood(self, weights, block_params):
        """Mixture log likelihood of the data with assignments summed out.

        Broadcasts over leading batch axes: ``weights`` is ``(..., K)`` and
        ``block_params`` is ``(..., K)`` for the gaussian family or
        ``(..., K, 3)`` (mean, variance, degrees of freedom) for student-t;
        the result has the batch shape.  ``block_params`` carries the whole
        batch shape; ``weights`` may broadcast over it.
        """
        weights = np.asarray(weights, dtype=float)
        comp = np.swapaxes(self.component_log_density_each(self.data, block_params), -1, -2)
        with np.errstate(divide="ignore"):
            comp += np.log(weights)[..., None, :]
        return np.sum(log_sum_exp(comp, -1)[0][..., 0], axis=-1)


def _mixing_log_density(weights: np.ndarray, labels: np.ndarray, table: np.ndarray) -> np.ndarray:
    """The Dirichlet term of each row of ``weights`` plus its labels' entries
    of ``table``, the per-label log probabilities ``(..., observations or 1,
    K)``; ``-inf`` off the simplex or for a label that names no component."""
    in_range = np.all((labels >= 0) & (labels < NUM_COMPONENTS), axis=-1)
    last = NUM_COMPONENTS - 1
    # a fold over the K slices; out-of-range labels gather component 0's entry and are masked below
    gathered = np.where(labels == last, table[..., last], table[..., 0])
    for k in range(1, last):
        gathered = np.where(labels == k, table[..., k], gathered)
    prior = MIXING_PRIOR.log_density_each(weights)
    with np.errstate(invalid="ignore"):  # rows off the simplex may sum NaN or opposite infinities; masked here
        return np.where(in_range & (prior > -np.inf), prior + gathered.sum(axis=-1), -np.inf)


class MixtureAssignmentProposal(Density):
    """Mixing weights from their Dirichlet prior, then one component
    assignment per observation, each drawn from one uniform.

    Without ``centers`` each assignment's probabilities are the drawn weights:
    this is the model's global prior, so as a proposal it cancels that prior
    exactly in weights.  With ``centers`` each observation's assignment is drawn from
    the posterior responsibility it would have under reference component
    parameters (typically resampled samples from the previous generation, so
    the proposal never depends on the current generation).  The importance
    weight fully accounts for this density, so estimates stay valid; blind
    prior assignments make the likelihood a lottery over label patterns that
    no amount of adaptation can win.

    ``centers`` is one row of block values, ``(K, ...)``, shared by every
    draw, or ``(outer, K, ...)`` rows, one per outer draw; the reference
    table is ``(observations, K)`` or ``(outer, observations, K)``.  The
    density is the Dirichlet term plus each label's entry of the label
    log-probability table.
    """

    def __init__(self, spec: DmmSpec, centers=None):
        self.spec = spec
        self._reference = None
        if centers is not None:
            self._reference = np.swapaxes(spec.component_log_density_each(spec.data, centers), -1, -2)
            self.rows = len(self._reference) if self._reference.ndim == 3 else None

    def _label_log_probs(self, weights):
        """Per-observation label log probabilities: ``log(weights)`` without
        a reference, else each row's normalized responsibilities."""
        with np.errstate(divide="ignore", invalid="ignore"):  # rows off the simplex are masked by the Dirichlet term
            log_weights = np.log(weights)[..., None, :]
            if self._reference is None:
                return log_weights
            scores = self._reference + log_weights
            return scores - log_sum_exp(scores, -1)[0]

    def sample_batch(self, rng: RandomSource, shape):
        """``(weights, labels)`` stacked part by part: one Dirichlet call for
        every weight vector, then one call for every label's uniform.

        Each label is ``Generator.choice(K, p=exp(table row))``'s: the cdf
        ``c_k = c_{k-1} + p_k`` is ``cumsum``'s, built slice by slice over
        the K components, and the label counts the ``c_k / c_K <= u``.
        Labels are ``LABEL_DTYPE``, the smallest unsigned type naming every
        component."""
        weights = MIXING_PRIOR.sample_batch(rng, shape)
        uniforms = rng.generator.random(weights.shape[:-1] + self.spec.data.shape)
        probs = np.exp(self._label_log_probs(weights))
        cdf = [probs[..., 0]]
        for k in range(1, probs.shape[-1]):
            cdf.append(cdf[-1] + probs[..., k])
        labels = np.zeros(uniforms.shape, dtype=LABEL_DTYPE)
        for c_k in cdf:
            labels += c_k / cdf[-1] <= uniforms
        return weights, labels

    def log_density_each(self, xs) -> np.ndarray:
        """Per-point log densities of ``(weights, labels)`` points stacked part
        by part, ``(N, K)`` and ``(N, observations)``, or of one point."""
        weights, labels = np.asarray(xs[0], dtype=float), np.asarray(xs[1])
        if self.rows is not None and weights.shape[:-1] != (self.rows,):
            raise ValueError(f"{self.rows} reference rows score {self.rows} weight rows, got shape {weights.shape}")
        return _mixing_log_density(weights, labels, self._label_log_probs(weights))


def dmm_model(spec: DmmSpec) -> FactorizedModel:
    """Mixture model as a factorized target.

    The global block is the pair ``(mixing weights, assignments)``; block ``j``
    holds component ``j``'s parameters, and its likelihood factor covers
    exactly the observations currently assigned to component ``j`` (an empty
    component contributes an empty product, i.e. zero).  A batch of
    parameters goes with a batch of global values, ``(N, K)`` weights and
    ``(N, observations)`` labels, one row per parameter set.
    """
    prior = spec.component_prior()

    def make_likelihood(j: int):
        def block_log_likelihood(phi, params):
            _, labels = phi
            # every observation, those assigned elsewhere masked to 0 in place: one shape for a batch of label rows
            comp = spec.component_log_density_each(spec.data, params)
            np.copyto(comp, 0.0, where=np.asarray(labels) != j)
            return comp.sum(axis=-1)

        return block_log_likelihood

    return FactorizedModel(
        num_blocks=NUM_COMPONENTS,
        global_log_prior=MixtureAssignmentProposal(spec).log_density_each,
        block_log_priors=(prior.log_density_each,) * NUM_COMPONENTS,
        block_log_likelihoods=tuple(make_likelihood(j) for j in range(NUM_COMPONENTS)),
    )


def dmm_init_proposal(spec: DmmSpec) -> FactorizedProposal:
    """Prior-based proposal: assignments from the mixing proposal, component
    parameters from their priors."""
    return FactorizedProposal(
        block_proposals=(spec.component_prior(),) * NUM_COMPONENTS,
        global_proposal=MixtureAssignmentProposal(spec),
    )


def component_means_function(spec: DmmSpec) -> TestFunction:
    """Extracts the vector of component means from mixture samples' block
    values: ``(n, K)`` means, or the first part of ``(n, K, 3)`` student-t
    parameter sets."""
    if spec.component_family == STUDENT_T:
        return TestFunction(lambda pts: pts[..., 0], NUM_COMPONENTS)
    return TestFunction(lambda pts: pts, NUM_COMPONENTS)


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
    unit-scale t components with 30 degrees of freedom.  Raises
    ``ValueError``, before any draw, for means that are not two finite
    values and for a ``mixing`` outside [0, 1].
    """
    if kind not in (GAUSSIAN, STUDENT_T):
        raise ValueError(f"unknown synthetic kind {kind!r}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    means_arr = np.asarray(means, dtype=float)
    if means_arr.shape != (NUM_COMPONENTS,):
        raise ValueError(f"means must give the two component means, got {means!r}")
    if not np.all(np.isfinite(means_arr)):
        raise ValueError(f"means must be finite, got {means!r}")
    if not 0.0 <= mixing <= 1.0:
        raise ValueError(f"mixing must lie in [0, 1], got {mixing!r}")
    rng = RandomSource(seed)
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
    """The dataset in a file written by :func:`save_dataset`.  Raises
    ``ValueError`` for a file that :func:`save_dataset` could not have
    written from :func:`make_synthetic`'s output."""
    text = Path(path).read_text().strip().splitlines()
    if not text:
        raise ValueError(f"empty dataset file {str(path)!r}")
    header = text[0]
    if not header.startswith("# schema=1 "):
        raise ValueError(f"unrecognized dataset header: {header!r}")
    keys, fields = ("schema", "seed", "kind", "means"), {}
    for key, _, value in (part.partition("=") for part in header[2:].split()):
        if key not in keys:
            raise ValueError(f"unknown dataset header key {key!r}")
        if key in fields:
            raise ValueError(f"dataset header key {key!r} is given more than once")
        fields[key] = value
    missing = [key for key in keys[1:] if key not in fields]
    if missing:
        raise ValueError(f"dataset header lacks {', '.join(missing)}: {header!r}")
    if fields["kind"] not in (GAUSSIAN, STUDENT_T):
        raise ValueError(f"unknown dataset kind {fields['kind']!r}")
    means = tuple(float(v) for v in fields["means"].split(","))
    if len(means) != NUM_COMPONENTS:
        raise ValueError(f"dataset header needs {NUM_COMPONENTS} means, got {len(means)}")
    if not np.all(np.isfinite(means)):
        raise ValueError(f"dataset means must be finite, got {fields['means']!r}")
    if not fields["seed"].isdecimal():
        raise ValueError(f"dataset seed must be a nonnegative integer, got {fields['seed']!r}")
    obs = np.array([float(line) for line in text[1:] if line.strip()])
    if obs.size == 0:
        raise ValueError("dataset file holds no observations")
    if not np.all(np.isfinite(obs)):
        raise ValueError("dataset file holds a non-finite observation")
    return SyntheticDataset(obs, means, int(fields["seed"]), fields["kind"])
