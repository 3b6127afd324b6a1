"""Samplers and log-density evaluators for the distributions the experiments need.

Every density works in log space; ``log_density`` returns ``-inf`` outside the
support and never raises for out-of-support points.  Block densities also draw
a batch stacked along a first axis (``sample_batch``) and map such an array to
per-point log densities (``log_density_each``), one call per block's draws;
their ``log_density`` is that one formula applied to a single point.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

from .rng import RandomSource

__all__ = [
    "Density",
    "DiagGaussian",
    "StudentT",
    "Dirichlet",
    "Gamma",
    "ScalarInverseWishart",
    "TupleDensity",
    "student_t_logpdf",
]

LOG_TWO_PI = math.log(2.0 * math.pi)


class Density:
    """Base for a sampler / log-density pair."""

    def sample(self, rng: RandomSource):
        raise NotImplementedError

    def log_density(self, x) -> float:
        """The log density of one point: :meth:`log_density_each`'s single term."""
        terms = np.asarray(self.log_density_each(x))
        if terms.size != 1:
            raise ValueError(f"{type(self).__name__}.log_density takes one point, got {terms.size} terms")
        return float(terms.reshape(()))

    def sample_batch(self, rng: RandomSource, count: int) -> np.ndarray:
        """``count`` draws stacked along axis 0, using ``rng`` as ``count`` calls of :meth:`sample` do."""
        return np.array([self.sample(rng) for _ in range(count)])

    def draw_variates(self, rng: RandomSource):
        """The generator variates one :meth:`sample` call takes, in its order;
        :meth:`score_variates` turns them into the point.  By default they are the point."""
        return self.sample(rng)

    @classmethod
    def score_variates(cls, densities, variates) -> tuple[list, np.ndarray]:
        """The points and log densities of ``variates[g]``, drawn by
        ``densities[g]``, all of this class: the bits of :meth:`sample` then
        :meth:`log_density`.  Subclasses may score the whole batch as one
        array operation."""
        points = list(variates)
        return points, np.array([float(d.log_density(x)) for d, x in zip(densities, points)])

    def log_density_each(self, xs: np.ndarray) -> np.ndarray:
        """Per-point log densities of points stacked along the first axis."""
        raise NotImplementedError(f"{type(self).__name__} has no elementwise form")


def _positive(value, name: str) -> np.ndarray:
    if isinstance(value, (int, float)):  # the kernels' per-draw case, without array reductions
        ok = value > 0 and math.isfinite(value)
        arr = np.float64(value)
    else:
        arr = np.asarray(value, dtype=float)
        ok = np.all(arr > 0) and np.all(np.isfinite(arr))
    if not ok:
        raise ValueError(f"{name} must be strictly positive and finite, got {value!r}")
    return arr


class DiagGaussian(Density):
    """Univariate Gaussian; independent coordinates are a :class:`TupleDensity` of these."""

    def __init__(self, mean, var):
        self.mean = np.asarray(mean, dtype=float)
        self.var = _positive(var, "var")
        if self.mean.ndim or self.var.ndim:
            raise ValueError(f"mean and var must be scalars, got shapes {self.mean.shape} and {self.var.shape}")
        # fixed at construction, so the per-draw calls only read them
        self._sd = np.sqrt(self.var)
        self._log_norm = LOG_TWO_PI + np.log(self.var)

    def sample(self, rng: RandomSource) -> float:
        return float(self.mean + self._sd * rng.generator.standard_normal())

    def sample_batch(self, rng: RandomSource, count: int) -> np.ndarray:
        # one generator call gives the same bits as ``count`` calls of ``sample``
        return self.mean + self._sd * rng.generator.standard_normal(count)

    def log_density_each(self, xs: np.ndarray) -> np.ndarray:
        d = np.asarray(xs, dtype=float) - self.mean
        # ``d * d``, not ``d ** 2``: a lone value's scalar power (libm ``pow``) may round differently
        return -0.5 * (self._log_norm + d * d / self.var)


def student_t_logpdf(x, loc, scale, df, log_norm=None):
    """Elementwise Student-t log density with location, scale and degrees of
    freedom; ``log_norm``, its x-free part, may be passed in precomputed."""
    if log_norm is None:
        log_norm = gammaln((df + 1.0) / 2.0) - gammaln(df / 2.0) - 0.5 * np.log(df * np.pi) - np.log(scale)
    z = (x - loc) / scale
    return log_norm - (df + 1.0) / 2.0 * np.log1p(z * z / df)


class StudentT(Density):
    """Univariate Student-t with location, scale and degrees of freedom."""

    def __init__(self, loc: float, scale: float, df: float):
        self.loc = float(loc)
        self.scale = float(_positive(scale, "scale"))
        self.df = float(_positive(df, "df"))
        self._log_norm = student_t_logpdf(self.loc, self.loc, self.scale, self.df)  # at z = 0 it is the x-free part

    def sample(self, rng: RandomSource) -> float:
        return self.loc + self.scale * float(rng.generator.standard_t(self.df))

    def log_density_each(self, xs: np.ndarray) -> np.ndarray:
        return student_t_logpdf(np.asarray(xs, dtype=float), self.loc, self.scale, self.df, self._log_norm)


class Dirichlet(Density):
    """Dirichlet over the probability simplex."""

    def __init__(self, concentration):
        self.concentration = np.atleast_1d(_positive(concentration, "concentration"))
        if self.concentration.size < 2:
            raise ValueError("Dirichlet needs at least two components")
        a = self.concentration
        # coordinates whose log enters the density; none at all-unit concentration
        self._free = np.flatnonzero(a != 1.0)
        self._exponents = a[self._free] - 1.0
        # the normalizer as two terms, added and subtracted in the per-call formula's order
        self._log_gamma_total = gammaln(a.sum())
        self._log_gamma_parts = np.sum(gammaln(a))

    def sample(self, rng: RandomSource) -> np.ndarray:
        draw = rng.generator.dirichlet(self.concentration)
        # pin the exact-sum invariant; the generator is only ulp-close
        draw[-1] = max(0.0, 1.0 - float(draw[:-1].sum()))
        return draw

    def log_density_each(self, xs: np.ndarray) -> np.ndarray:
        """Per-point log densities of points stacked along the first axis, or of one point."""
        xs = np.asarray(xs, dtype=float)
        if xs.shape[-1:] != self.concentration.shape:
            raise ValueError(f"dimension mismatch: points {xs.shape}, density {self.concentration.shape}")
        with np.errstate(divide="ignore", invalid="ignore"):  # off-simplex and non-finite points are masked below
            # a NaN fails both tests; a zero free coordinate has zero density (a>1) or is excluded by convention (a<1)
            inside = (xs.min(axis=-1) >= 0.0) & (np.abs(xs.sum(axis=-1) - 1.0) <= 1e-9)
            free = xs[..., self._free]
            terms = np.sum(self._exponents * np.log(free), axis=-1)
        inside &= np.all(free > 0.0, axis=-1)
        return np.where(inside, terms + self._log_gamma_total - self._log_gamma_parts, -np.inf)


class Gamma(Density):
    """Gamma in shape-scale parametrization (mean = shape * scale)."""

    def __init__(self, shape: float, scale: float):
        self.shape = float(_positive(shape, "shape"))
        self.scale = float(_positive(scale, "scale"))
        self._log_norm = -gammaln(self.shape) - self.shape * np.log(self.scale)

    def sample(self, rng: RandomSource) -> float:
        return float(rng.generator.gamma(self.shape, self.scale))

    def log_density_each(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = self._log_norm + (self.shape - 1.0) * np.log(xs) - xs / self.scale
        out = np.where(xs > 0.0, out, -np.inf)
        if self.shape == 1.0:  # Exp(1/scale): the boundary x=0 has finite density
            out = np.where(xs == 0.0, self._log_norm, out)
        return out


class ScalarInverseWishart(Density):
    """Inverse-Wishart on a 1x1 matrix, i.e. a scalar variance.

    The 1x1 reduction is an inverse-gamma with shape ``df/2`` and scale
    ``scale_sq/2``; only the scalar case is needed here.
    """

    def __init__(self, scale_sq: float, df: float):
        self.scale_sq = float(_positive(scale_sq, "scale_sq"))
        self.df = float(_positive(df, "df"))
        self._shape = self.df / 2.0
        self._rate = self.scale_sq / 2.0
        self._log_norm = self._shape * np.log(self._rate) - gammaln(self._shape)

    def sample(self, rng: RandomSource) -> float:
        return self._rate / float(rng.generator.gamma(self._shape, 1.0))

    def log_density_each(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            out = self._log_norm - (self._shape + 1.0) * np.log(xs) - self._rate / xs
        return np.where(xs > 0.0, out, -np.inf)


class TupleDensity(Density):
    """Independent parts sampled and evaluated jointly as a tuple."""

    def __init__(self, parts):
        self.parts = tuple(parts)
        if not self.parts:
            raise ValueError("TupleDensity needs at least one part")

    def sample(self, rng: RandomSource) -> tuple:
        return tuple(part.sample(rng) for part in self.parts)

    def log_density_each(self, xs: np.ndarray) -> np.ndarray:
        """Per-row log densities of an ``(n, parts)`` array, or of one row."""
        xs = np.asarray(xs, dtype=float)
        if xs.shape[-1:] != (len(self.parts),):
            raise ValueError(f"dimension mismatch: {xs.shape[-1:]} values for {len(self.parts)} parts")
        return sum(part.log_density_each(xs[..., i]) for i, part in enumerate(self.parts))
