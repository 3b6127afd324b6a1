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
    "log_gamma",
]

LOG_TWO_PI = math.log(2.0 * math.pi)

# Cephes ``lgam``'s constants, as scipy.special.gammaln runs them
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
           -2.77777777730099687205e-3, 8.33333333333331927722e-2)
_LGAM_B = (-1.37825152569120859100e3, -3.88016315134637840924e4, -3.31612992738871184744e5,
           -1.16237097492762307383e6, -1.72173700820839662146e6, -8.53555664245765465627e5)
# Cephes leaves C's leading 1 implied (p1evl); written out, 1.0 * x is x exactly
_LGAM_C = (1.0, -3.51815701436523470549e2, -1.70642106651881159223e4, -2.20528590553854454839e5,
           -1.13933444367982507207e6, -2.53252307177582951285e6, -2.01889141433532773231e6)
_LOG_SQRT_2PI = 0.91893853320467274178
_MAXLGM = 2.556348e305


def _polevl(x: float, coef) -> float:
    """Horner's rule over ``coef``, leading coefficient first."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _lgam(x: float) -> float:
    """Cephes ``lgam`` for ``0 < x < MAXLGM``, step for step and with libm's
    ``log``: a recurrence onto [2, 3) and a rational fit below 13, Stirling's
    series above, shortened from 1000 and cut to its leading terms above 1e8."""
    if x < 13.0:
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        x = x + (p - 2.0)
        return math.log(z) + x * _polevl(x, _LGAM_B) / _polevl(x, _LGAM_C)
    q = (x - 0.5) * math.log(x) - x + _LOG_SQRT_2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p + 0.0833333333333333333333) / x
    return q + _polevl(p, _LGAM_A) / x


def log_gamma(x):
    """``scipy.special.gammaln(x)``, bit for bit.

    A 0-d float in (0, MAXLGM), which is every scalar parameter a density
    takes, goes through a Python port of the Cephes routine gammaln runs;
    anything else (arrays, zero, negatives, NaN, infinities) goes to scipy,
    whose ``special`` module, tens of MB once loaded, is imported only here.
    """
    arr = np.asarray(x)
    if arr.ndim == 0 and arr.dtype == np.float64 and 0.0 < arr < _MAXLGM:
        return np.float64(_lgam(float(arr)))
    from scipy.special import gammaln

    return gammaln(x)


class Density:
    """Base for a sampler / log-density pair.

    Parameters are scalars, shared by every draw, or ``(outer, 1)`` columns,
    one row per outer draw.  A density with parameter columns draws and
    scores ``(outer, inner, ...)`` arrays whose first axis follows its rows,
    and refuses values without that axis, which would broadcast into an
    outer product instead.
    """

    rows: int | None = None  # the parameter columns' length; None for scalar parameters

    def sample_batch(self, rng: RandomSource, shape) -> np.ndarray:
        """Draws of the given shape, stacked along leading axes."""
        raise NotImplementedError(f"{type(self).__name__} has no batched sampler")

    def sample(self, rng: RandomSource):
        """One draw: :meth:`sample_batch`'s single row."""
        draw = self.sample_batch(rng, 1)
        return tuple(part[0] for part in draw) if isinstance(draw, tuple) else draw[0]

    def log_density(self, x) -> float:
        """The log density of one point: :meth:`log_density_each`'s single term."""
        terms = np.asarray(self.log_density_each(x))
        if terms.size != 1:
            raise ValueError(f"{type(self).__name__}.log_density takes one point, got {terms.size} terms")
        return float(terms.reshape(()))

    def log_density_each(self, xs: np.ndarray) -> np.ndarray:
        """Per-point log densities of points stacked along the leading axes."""
        raise NotImplementedError(f"{type(self).__name__} has no elementwise form")

    def _values(self, xs) -> np.ndarray:
        """``xs`` as floats, refused if parameter columns would broadcast it into an outer product."""
        xs = np.asarray(xs, dtype=float)
        if self.rows is not None and (xs.ndim < 2 or xs.shape[0] != self.rows):
            raise ValueError(f"{self.rows} parameter rows score (rows, inner) values, got shape {xs.shape}")
        return xs


def _positive(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if not (np.all(arr > 0) and np.all(np.isfinite(arr))):
        raise ValueError(f"{name} must be strictly positive and finite, got {value!r}")
    return arr


def _rows(*params) -> int | None:
    """The length of the parameter columns among ``params``, or None if all
    are scalars; refuses any other shape, and columns of unequal lengths."""
    shapes = {np.shape(p) for p in params} - {()}
    if len(shapes) > 1 or any(len(shape) != 2 or shape[1] != 1 for shape in shapes):
        found = [np.shape(p) for p in params]
        raise ValueError(f"parameters must be scalars or (outer, 1) columns of one length, got shapes {found}")
    return shapes.pop()[0] if shapes else None


class DiagGaussian(Density):
    """Univariate Gaussian; independent coordinates are a :class:`TupleDensity` of these."""

    def __init__(self, mean, var):
        self.mean, self.var = np.asarray(mean, dtype=float), _positive(var, "var")
        self.rows = _rows(self.mean, self.var)
        self._sd = np.sqrt(self.var)
        self._log_norm = LOG_TWO_PI + np.log(self.var)

    def sample_batch(self, rng: RandomSource, shape) -> np.ndarray:
        return self.mean + self._sd * rng.generator.standard_normal(shape)

    def log_density_each(self, xs: np.ndarray) -> np.ndarray:
        d = self._values(xs) - self.mean
        # ``d * d``, not ``d ** 2``: a lone value's scalar power (libm ``pow``) may round differently
        return -0.5 * (self._log_norm + d * d / self.var)


def student_t_logpdf(x, loc, scale, df, log_norm=None):
    """Elementwise Student-t log density with location, scale and degrees of
    freedom; ``log_norm``, its x-free part, may be passed in precomputed.

    The result is built in one array of the broadcast shape, each step of
    ``log_norm - (df + 1) / 2 * log1p(z * z / df)`` with ``z = (x - loc) /
    scale`` written over it; scalar arguments give a scalar."""
    if log_norm is None:
        log_norm = log_gamma((df + 1.0) / 2.0) - log_gamma(df / 2.0) - 0.5 * np.log(df * np.pi) - np.log(scale)
    out = np.empty(np.broadcast_shapes(*map(np.shape, (x, loc, scale, df, log_norm))))
    np.subtract(x, loc, out=out)
    out /= scale
    np.multiply(out, out, out=out)
    out /= df
    np.log1p(out, out=out)
    out *= (df + 1.0) / 2.0
    np.subtract(log_norm, out, out=out)
    return out[()]


class StudentT(Density):
    """Univariate Student-t with location, scale and degrees of freedom."""

    def __init__(self, loc, scale, df):
        self.loc, self.scale, self.df = np.asarray(loc, dtype=float), _positive(scale, "scale"), _positive(df, "df")
        self.rows = _rows(self.loc, self.scale, self.df)
        self._log_norm = student_t_logpdf(self.loc, self.loc, self.scale, self.df)  # at z = 0 it is the x-free part

    def sample_batch(self, rng: RandomSource, shape) -> np.ndarray:
        return self.loc + self.scale * rng.generator.standard_t(self.df, shape)

    def log_density_each(self, xs: np.ndarray) -> np.ndarray:
        return student_t_logpdf(self._values(xs), self.loc, self.scale, self.df, self._log_norm)


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
        self._log_gamma_total = log_gamma(a.sum())
        self._log_gamma_parts = np.sum([log_gamma(v) for v in a])  # entry by entry: scalars take the port

    def sample_batch(self, rng: RandomSource, shape) -> np.ndarray:
        draws = rng.generator.dirichlet(self.concentration, shape)
        # pin the exact-sum invariant; the generator is only ulp-close
        draws[..., -1] = np.maximum(0.0, 1.0 - draws[..., :-1].sum(axis=-1))
        return draws

    def log_density_each(self, xs: np.ndarray) -> np.ndarray:
        """Per-point log densities of points stacked along the leading axes, or of one point."""
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

    def __init__(self, shape, scale):
        self.shape, self.scale = _positive(shape, "shape"), _positive(scale, "scale")
        self.rows = _rows(self.shape, self.scale)
        self._log_norm = -log_gamma(self.shape) - self.shape * np.log(self.scale)

    def sample_batch(self, rng: RandomSource, shape) -> np.ndarray:
        return rng.generator.gamma(self.shape, self.scale, shape)

    def log_density_each(self, xs: np.ndarray) -> np.ndarray:
        xs = self._values(xs)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = self._log_norm + (self.shape - 1.0) * np.log(xs) - xs / self.scale
        out = np.where(xs > 0.0, out, -np.inf)
        # Exp(1/scale): the boundary x=0 has finite density
        return np.where((xs == 0.0) & (self.shape == 1.0), self._log_norm, out)


class ScalarInverseWishart(Density):
    """Inverse-Wishart on a 1x1 matrix, i.e. a scalar variance.

    The 1x1 reduction is an inverse-gamma with shape ``df/2`` and scale
    ``scale_sq/2``; only the scalar case is needed here.
    """

    def __init__(self, scale_sq, df):
        self.scale_sq, self.df = _positive(scale_sq, "scale_sq"), _positive(df, "df")
        self.rows = _rows(self.scale_sq, self.df)
        self._shape = self.df / 2.0
        self._rate = self.scale_sq / 2.0
        self._log_norm = self._shape * np.log(self._rate) - log_gamma(self._shape)

    def sample_batch(self, rng: RandomSource, shape) -> np.ndarray:
        return self._rate / rng.generator.gamma(self._shape, 1.0, shape)

    def log_density_each(self, xs: np.ndarray) -> np.ndarray:
        xs = self._values(xs)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            out = self._log_norm - (self._shape + 1.0) * np.log(xs) - self._rate / xs
        return np.where(xs > 0.0, out, -np.inf)


class TupleDensity(Density):
    """Independent parts sampled and evaluated jointly as a tuple."""

    def __init__(self, parts):
        self.parts = tuple(parts)
        if not self.parts:
            raise ValueError("TupleDensity needs at least one part")

    def sample_batch(self, rng: RandomSource, shape) -> np.ndarray:
        """Each part's draws in turn, one generator call per part, stacked on a last axis."""
        return np.stack([part.sample_batch(rng, shape) for part in self.parts], axis=-1)

    def log_density_each(self, xs: np.ndarray) -> np.ndarray:
        """Per-row log densities of a ``(..., parts)`` array, or of one row."""
        xs = np.asarray(xs, dtype=float)
        if xs.shape[-1:] != (len(self.parts),):
            raise ValueError(f"dimension mismatch: {xs.shape[-1:]} values for {len(self.parts)} parts")
        return sum(part.log_density_each(xs[..., i]) for i, part in enumerate(self.parts))
