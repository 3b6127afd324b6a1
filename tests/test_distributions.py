import numpy as np
import pytest
import scipy.stats
from scipy.special import gammaln

from infmc.distributions import (
    LOG_TWO_PI,
    DiagGaussian,
    Dirichlet,
    Gamma,
    ScalarInverseWishart,
    StudentT,
    TupleDensity,
    _positive,
    log_gamma,
    student_t_logpdf,
)
from infmc.models import MIXING_PRIOR, STUDENT_T, DmmSpec, GaussianToy
from infmc.pmc import GammaKernel, VarianceKernel
from infmc.rng import RandomSource


class TestRandomSource:
    def test_identical_seeds_identical_streams(self):
        a = RandomSource(1234).generator.standard_normal(1000)
        b = RandomSource(1234).generator.standard_normal(1000)
        assert np.array_equal(a, b)

    def test_child_streams_are_keyed_not_ordered(self):
        root = RandomSource(7)
        early = root.child(3).generator.standard_normal(10)
        # deriving other children first must not change child(3)
        root2 = RandomSource(7)
        root2.child(0), root2.child(1)
        late = root2.child(3).generator.standard_normal(10)
        assert np.array_equal(early, late)

    def test_children_differ_from_parent_and_each_other(self):
        root = RandomSource(7)
        streams = [root.child(i).generator.standard_normal(50) for i in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.allclose(streams[i], streams[j])

    def test_nested_keys(self):
        a = RandomSource(1).child(2, 3).generator.random()
        b = RandomSource(1).child(2).child(3).generator.random()
        assert a == b

    def test_invalid_seed(self):
        with pytest.raises(ValueError):
            RandomSource(-1)

    def test_child_needs_a_key(self):
        with pytest.raises(ValueError, match="at least one integer key"):
            RandomSource(1).child()


class TestDiagGaussian:
    def test_standard_normal_at_mode_2d(self):
        d = TupleDensity([DiagGaussian(0.0, 1.0), DiagGaussian(0.0, 1.0)])
        assert d.log_density(np.zeros(2)) == pytest.approx(-np.log(2 * np.pi), abs=1e-12)

    def test_sample_mean_law_of_large_numbers(self):
        d = TupleDensity([DiagGaussian(5.0, 2.0), DiagGaussian(5.0, 2.0)])
        rng = RandomSource(99)
        draws = np.array([d.sample(rng) for _ in range(10**5)])
        assert np.all(np.abs(draws.mean(axis=0) - 5.0) < 0.05)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            TupleDensity([DiagGaussian(0.0, 1.0), DiagGaussian(0.0, 1.0)]).log_density(np.zeros(3))

    def test_is_univariate(self):
        for mean, var in [([0.0, 1.0], 1.0), (0.0, [1.0, 2.0]), (np.zeros((1,)), 1.0)]:
            with pytest.raises(ValueError, match="must be scalars"):
                DiagGaussian(mean, var)
        with pytest.raises(ValueError, match="one point"):
            DiagGaussian(0.0, 1.0).log_density(np.zeros(2))

    def test_scalar_parameters_give_scalar_draws(self):
        d = DiagGaussian(0.0, 2.0)
        x = d.sample(RandomSource(0))
        assert isinstance(x, float)
        each = d.log_density_each(np.array([0.0, 1.0]))
        assert each.shape == (2,)
        assert each[0] == pytest.approx(d.log_density(0.0), abs=1e-15)

    def test_invalid_variance(self):
        with pytest.raises(ValueError):
            DiagGaussian(0.0, 0.0)

    def test_lone_value_scores_as_its_batch_element_bitwise(self):
        # numpy's scalar power rounds about 16 of these squares differently from the array square
        d = DiagGaussian(0.5, 1.7)
        xs = 0.5 + 3.0 * RandomSource(12).generator.standard_normal(20000)
        batch = d.log_density_each(xs)
        lone = np.array([d.log_density_each(x) for x in xs.tolist()])
        assert np.array_equal(lone, batch)

    @pytest.mark.parametrize(
        "mean, var",
        [(0.3, 1.7), (np.float64(-2.0), 0.5), (np.array([0.5, -1.0]), 2.0), (0.0, np.array([1.0, 3.0]))],
    )
    def test_equals_the_formula_bitwise(self, mean, var):
        """Constants fixed at construction leave every bit as the per-call
        formula computes it; vector parameters are a tuple of univariates."""
        mean_arr, var_arr = np.asarray(mean, dtype=float), np.asarray(var, dtype=float)
        shape = np.broadcast_shapes(mean_arr.shape, var_arr.shape)

        def formula(x):
            x = np.asarray(x, dtype=float)
            if x.shape != shape:
                raise ValueError(f"dimension mismatch: point {x.shape}, density {shape}")
            return float(-0.5 * np.sum(LOG_TWO_PI + np.log(var_arr) + np.square(x - mean_arr) / var_arr))

        if shape:
            d = TupleDensity([DiagGaussian(m, v) for m, v in zip(*np.broadcast_arrays(mean_arr, var_arr))])
        else:
            d = DiagGaussian(mean, var)
        score = d.log_density
        rng, ref = RandomSource(8), RandomSource(8)
        for _ in range(20):
            x = d.sample(rng)
            expected = mean_arr + np.sqrt(var_arr) * ref.generator.standard_normal(shape)
            assert np.array_equal(x, expected) and np.shape(x) == shape
            assert score(x) == formula(x)
        points = [0.7, np.float64(-3.1), np.array(1.25), np.array([0.1, 2.0]), np.array([0.1, 2.0, 5.0])]
        for x in points:
            try:
                expected = formula(x)
            except ValueError:
                with pytest.raises(ValueError):
                    score(x)
                with pytest.raises(ValueError):
                    d.log_density(x)
            else:
                assert score(x) == expected
        if not shape:
            xs = np.linspace(-4.0, 4.0, 33)
            expected = -0.5 * (LOG_TWO_PI + np.log(var_arr) + (xs - mean_arr) ** 2 / var_arr)
            assert np.array_equal(d.log_density_each(xs), expected)


class TestPositive:
    def test_rejects_nonpositive_and_nonfinite_scalars_and_arrays(self):
        for bad in [0, 0.0, -0.0, -1, -2.5, np.nan, np.inf, -np.inf, False, np.float64(np.nan), np.int64(0)]:
            with pytest.raises(ValueError):
                _positive(bad, "x")
            with pytest.raises(ValueError):
                _positive([1.0, bad], "x")
            with pytest.raises(ValueError):
                _positive(np.array([bad, 2.0]), "x")

    def test_accepts_positive_values_unchanged(self):
        for good in [1, 2.5, 5e-324, 1e308, np.float64(3.0), np.int64(4), True]:
            value = _positive(good, "x")
            assert np.shape(value) == () and value == float(good)
        assert np.array_equal(_positive([0.5, 2.0], "x"), [0.5, 2.0])


DMM_T_PRIOR = TupleDensity([StudentT(0.0, 1.0, 1.0), ScalarInverseWishart(5.0, 1.0), Gamma(1.0, 1.0)])
CENTERS = np.array([[0.5], [1.5], [3.0]])  # (outer, 1) parameter columns for three outer draws


def _column_case(make):
    """A density on the parameter columns, and row ``g``'s density on scalars."""
    return make(CENTERS), lambda g: make(float(CENTERS[g, 0]))


SCORED = {
    "gaussian": (DiagGaussian(0.5, 2.0), None),
    "student-t": (StudentT(0.0, 1.5, 4.0), None),
    "dirichlet": (Dirichlet([1.0, 2.0, 3.0]), None),
    "tuple": (DMM_T_PRIOR, None),
    "gaussian-column": _column_case(lambda c: DiagGaussian(c, 0.0625)),
    "student-t-column": _column_case(lambda c: StudentT(c, 0.5, 3.0)),
    "gamma-column": _column_case(lambda c: Gamma(1.0 / 0.09, c * 0.09)),
    "inverse-wishart-column": _column_case(lambda c: ScalarInverseWishart(c * 9.0, 22.0)),
    "tuple-column": _column_case(
        lambda c: TupleDensity([DiagGaussian(c, 0.0625), ScalarInverseWishart(c * 9.0, 22.0), Gamma(11.0, c * 0.09)])
    ),
}


class TestSampleBatchThenLogDensityEach:
    @pytest.mark.parametrize("name", SCORED)
    def test_equals_log_density_row_by_row(self, name):
        # one batch of three outer draws by four inner draws, then one scoring call for all of them
        density, row_density = SCORED[name]
        draws = density.sample_batch(RandomSource(17), (3, 4))
        each = density.log_density_each(draws)
        assert each.shape == (3, 4) and np.isfinite(each).all()
        for g, i in np.ndindex(each.shape):
            alone = density if row_density is None else row_density(g)
            assert each[g, i] == alone.log_density(draws[g, i])


class TestParameterColumns:
    def test_draw_row_g_from_row_gs_parameters(self):
        drawn = DiagGaussian(CENTERS, 1e-6).sample_batch(RandomSource(3), (3, 200))
        assert np.abs(drawn.mean(axis=1) - CENTERS[:, 0]).max() < 1e-3

    @pytest.mark.parametrize("name", [n for n in SCORED if n.endswith("column")])
    def test_flat_values_are_refused(self, name):
        # a (3, 1) column against flat values would broadcast into an outer product
        density, _ = SCORED[name]
        flat = density.sample_batch(RandomSource(4), (3, 2)).reshape((6,) + ((3,) if "tuple" in name else ()))
        with pytest.raises(ValueError, match="parameter rows"):
            density.log_density_each(flat)
        with pytest.raises(ValueError, match="parameter rows"):
            density.log_density_each(flat[:3])  # one value per row, but without the inner axis

    def test_columns_must_share_one_length(self):
        for mean, var in [(CENTERS, np.ones((2, 1))), (np.ones((3, 2)), 1.0), (np.ones((1, 3)), 1.0)]:
            with pytest.raises(ValueError, match="must be scalars"):
                DiagGaussian(mean, var)


class TestSampleBatch:
    @pytest.mark.parametrize(
        "density",
        [DiagGaussian(0.5, 2.0), Gamma(1.0 / 0.09, 4.0 * 0.09), StudentT(0.0, 1.5, 4.0),
         ScalarInverseWishart(5.0, 1.0), Dirichlet([1.0, 2.0, 3.0])],
        ids=["gaussian", "gamma-kernel", "student-t", "inverse-wishart", "dirichlet"],
    )
    def test_equals_count_calls_of_sample(self, density):
        batched, single = RandomSource(23), RandomSource(23)
        drawn = density.sample_batch(batched, 7)
        expected = np.array([density.sample(single) for _ in range(7)])
        assert drawn.shape == expected.shape and np.array_equal(drawn, expected)
        assert batched.generator.bit_generator.state == single.generator.bit_generator.state

    @pytest.mark.parametrize(
        "density",
        [TupleDensity([DiagGaussian(0.0, 1.0), DiagGaussian(1.0, 4.0)]), DMM_T_PRIOR],
        ids=["gaussian-vector", "dmm-t-prior"],
    )
    def test_tuple_draw_stacks_each_parts_batch(self, density):
        batched, parts = RandomSource(23), RandomSource(23)
        drawn = density.sample_batch(batched, (3, 7))
        expected = np.stack([part.sample_batch(parts, (3, 7)) for part in density.parts], axis=-1)
        assert drawn.shape == (3, 7, len(density.parts)) and np.array_equal(drawn, expected)
        assert batched.generator.bit_generator.state == parts.generator.bit_generator.state


def _dirichlet_per_call(a, x) -> float:
    """The Dirichlet log density written out per call, the oracle for the
    normalizers fixed at construction."""
    a, x = np.asarray(a, dtype=float), np.asarray(x, dtype=float)
    if np.any(x < 0.0) or abs(float(x.sum()) - 1.0) > 1e-9:
        return -np.inf
    nonunit = a != 1.0
    if np.any(nonunit & (x == 0.0)):
        return -np.inf
    return float((np.sum((a[nonunit] - 1.0) * np.log(x[nonunit])) + gammaln(a.sum())) - np.sum(gammaln(a)))


class TestNormalizersFixedAtConstruction:
    """Normalizers computed once per density keep every bit of the per-call formula."""

    XS = np.array([0.01, 0.3, 1.0, 2.5, 40.0])

    def test_student_t(self):
        d = StudentT(0.3, 1.7, 5.0)
        z = (self.XS - 0.3) / 1.7
        expected = (
            gammaln(3.0) - gammaln(2.5) - 0.5 * np.log(5.0 * np.pi) - np.log(1.7) - 3.0 * np.log1p(z * z / 5.0)
        )
        assert np.array_equal(d.log_density_each(self.XS), expected)
        assert [d.log_density(x) for x in self.XS] == expected.tolist()

    def test_gamma_and_inverse_wishart(self):
        gamma = -gammaln(2.5) - 2.5 * np.log(0.4) + 1.5 * np.log(self.XS) - self.XS / 0.4
        assert np.array_equal(Gamma(2.5, 0.4).log_density_each(self.XS), gamma)
        wishart = 3.0 * np.log(2.5) - gammaln(3.0) - 4.0 * np.log(self.XS) - 2.5 / self.XS
        assert np.array_equal(ScalarInverseWishart(5.0, 6.0).log_density_each(self.XS), wishart)

    DIRICHLET_POINTS = {
        2: [[0.3, 0.7], [0.5, 0.5], [1e-12, 1.0 - 1e-12], [0.0, 1.0], [1.0, 0.0],
            [0.7, 0.7], [-0.1, 1.1], [0.5, 0.5 + 1e-8]],
        3: [[0.2, 0.3, 0.5], [0.6, 0.3, 0.1], [0.0, 0.4, 0.6], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0],
            [0.4, 0.4, 0.4], [-0.2, 0.6, 0.6]],
    }

    @pytest.mark.parametrize("concentration", [(1.0, 1.0), (2.0, 3.5), (1.0, 2.0, 3.0), (0.5, 0.5)])
    def test_dirichlet(self, concentration):
        # interior, boundary-zero and off-simplex points, then draws
        d = Dirichlet(concentration)
        points = self.DIRICHLET_POINTS[len(concentration)] + [d.sample(RandomSource(s)) for s in range(20)]
        for x in points:
            assert d.log_density(np.array(x, dtype=float)) == _dirichlet_per_call(concentration, x), x


MAXLGM = 2.556348e305  # Cephes' bound above which lgam overflows


def _same_bits(ours, theirs) -> bool:
    """Equal as int64 views, so a sign bit or a NaN payload counts."""
    return np.array_equal(np.asarray(ours, dtype=float).view(np.int64), np.asarray(theirs, dtype=float).view(np.int64))


def _steps(value: float, count: int) -> list[float]:
    """``count`` representable neighbours of ``value`` on each side of it, and ``value``."""
    below, above, out = value, value, [value]
    for _ in range(count):
        below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
        out += [float(below), float(above)]
    return out


class TestLogGamma:
    """``log_gamma`` gives ``scipy.special.gammaln``'s bits: a 0-d float in
    (0, MAXLGM) through the Cephes port, anything else through scipy."""

    @staticmethod
    def _assert_port_matches(values):
        values = np.asarray(values, dtype=float)
        ours = np.array([log_gamma(v) for v in values])
        differ = values[ours.view(np.int64) != gammaln(values).view(np.int64)]
        assert differ.size == 0, f"{differ.size} of {values.size} differ, first {differ[:5].tolist()}"

    def test_port_matches_scipy_over_ranges(self):
        rng = np.random.default_rng(25)
        self._assert_port_matches(np.concatenate([
            rng.uniform(1e-6, 1.0, 20_000),
            rng.uniform(0.5, 13.0, 20_000),  # the recurrence and rational fit
            rng.uniform(13.0, 2000.0, 20_000),  # Stirling's series, either side of 1000
            np.exp(rng.uniform(-20.0, 30.0, 20_000)),
            np.exp(rng.uniform(np.log(1e-300), np.log(1e300), 20_000)),
            np.arange(1, 400) / 2.0,  # the half-integers and integers a parameter halves to
        ]))

    def test_port_matches_scipy_at_branch_edges(self):
        edges = [v for c in (1.0, 2.0, 3.0, 13.0, 1000.0, 1e8) for v in _steps(c, 50)]
        edges += [float(v) for v in _steps(MAXLGM, 50) if v < MAXLGM]
        subnormals = [5e-324, 1e-320, 1e-310, np.nextafter(2.2250738585072014e-308, 0.0), 2.2250738585072014e-308]
        # the library's own arguments: the kernels' shapes at cv 0.3, the toy's df 20 as (df + 1)/2 and df/2, the
        # t-mixture prior's halved dfs and unit shape, the uniform Dirichlet's total; then a df of 5 as tests use it
        constants = [1.0 / 0.3**2, 2.0 * (2.0 + 1.0 / 0.3**2) / 2.0, 10.5, 10.0, 0.5, 1.0, 2.0, 3.0, 2.5]
        self._assert_port_matches(edges + subnormals + constants)

    def test_everything_else_takes_scipys_path(self, monkeypatch):
        import scipy.special

        calls = []
        scipys = scipy.special.gammaln
        monkeypatch.setattr(scipy.special, "gammaln", lambda x: calls.append(x) or scipys(x))
        others = [0.0, -0.0, -0.5, -3.0, -1e300, np.nan, np.inf, -np.inf, MAXLGM, np.finfo(float).max]
        for x in others:
            assert _same_bits(log_gamma(x), scipys(x)), x
        arrays = [np.array([0.5, 2.5, 13.0]), np.array([[1.0], [20.0]]), np.array(others), np.array([3.5])]
        for x in arrays:
            got = log_gamma(x)
            assert got.shape == x.shape and _same_bits(got, scipys(x)), x
        assert len(calls) == len(others) + len(arrays)
        calls.clear()
        for x in (2.5, np.float64(2.5), np.array(7.25)):  # 0-d floats in range take the port
            assert _same_bits(log_gamma(x), scipys(x)), x
        assert type(log_gamma(2.5)) is np.float64 and calls == []


def _normalizer_through_scipy(d) -> np.ndarray:
    """A density's normalizer written out with ``scipy.special.gammaln``."""
    if isinstance(d, StudentT):
        df = d.df
        return gammaln((df + 1.0) / 2.0) - gammaln(df / 2.0) - 0.5 * np.log(df * np.pi) - np.log(d.scale)
    if isinstance(d, Gamma):
        return -gammaln(d.shape) - d.shape * np.log(d.scale)
    shape, rate = d.df / 2.0, d.scale_sq / 2.0
    return shape * np.log(rate) - gammaln(shape)


def test_library_normalizers_equal_scipys():
    """Every normalizer the library builds, on its own parameters, has the
    bits it has with scipy's gammaln throughout."""
    centers = np.array([0.05, 0.3, 1.0, 2.5, 40.0])
    densities = [
        *GaussianToy().proposal(0.0).block_proposals,
        *GaussianToy().proposal(5.0).block_proposals,
        *DmmSpec(np.zeros(3), STUDENT_T).component_prior().parts,
        GammaKernel().at(centers),
        VarianceKernel().at(centers),
        StudentT(centers[:, None], np.sqrt(centers)[:, None], (20.0 * centers)[:, None]),  # dmm-t's df columns
        StudentT(0.3, 1.7, 5.0),
        Gamma(2.5, 0.4),
        ScalarInverseWishart(5.0, 6.0),
    ]
    for d in densities:
        assert _same_bits(d._log_norm, _normalizer_through_scipy(d)), d
    for d in (MIXING_PRIOR, Dirichlet([2.0, 3.5]), Dirichlet([1.0, 2.0, 3.0]), Dirichlet([0.5, 0.5])):
        a = d.concentration
        assert _same_bits(d._log_gamma_total, gammaln(a.sum())) and _same_bits(d._log_gamma_parts, np.sum(gammaln(a)))


def _student_t_formula(x, loc, scale, df) -> float:
    z = (x - loc) / scale
    return float(
        gammaln((df + 1.0) / 2.0) - gammaln(df / 2.0) - 0.5 * np.log(df * np.pi) - np.log(scale)
        - (df + 1.0) / 2.0 * np.log1p(z * z / df)
    )


def _gamma_formula(x, shape, scale) -> float:
    if x > 0.0:
        return float(-gammaln(shape) - shape * np.log(scale) + (shape - 1.0) * np.log(x) - x / scale)
    if x == 0.0 and shape == 1.0:
        return float(-gammaln(shape) - shape * np.log(scale))
    return -np.inf


def _inverse_wishart_formula(x, scale_sq, df) -> float:
    shape, rate = df / 2.0, scale_sq / 2.0
    if not x > 0.0:
        return -np.inf
    return float(shape * np.log(rate) - gammaln(shape) - (shape + 1.0) * np.log(x) - rate / x)


def _gaussian_formula(x, mean, var) -> float:
    x = np.asarray(x, dtype=float)
    return float(-0.5 * (LOG_TWO_PI + np.log(var) + np.square(x - mean) / var))


class TestLogDensityEqualsTheFormulaBitwise:
    """``log_density`` of one point has the bits of each family's formula,
    inside the support, on its boundary and outside it."""

    REALS = [-2.0, 0.0, 0.3, 4.5, 1e-300, 1e150, np.inf, -np.inf]
    POSITIVES = [0.01, 0.5, 1.0, 7.3, 40.0, 5e-324, 0.0, -0.0, -0.5, -np.inf, np.nan]

    def test_student_t(self):
        d = StudentT(0.3, 1.7, 5.0)
        for x in self.REALS:
            assert d.log_density(x) == _student_t_formula(x, 0.3, 1.7, 5.0), x

    @pytest.mark.parametrize("shape, scale", [(1.0, 1.0), (1.0, 2.5), (2.5, 0.4), (1.0 / 0.09, 4.0 * 0.09)])
    def test_gamma(self, shape, scale):
        d = Gamma(shape, scale)
        for x in self.POSITIVES:
            assert d.log_density(x) == _gamma_formula(x, shape, scale), x

    @pytest.mark.parametrize("scale_sq, df", [(5.0, 1.0), (5.0, 6.0), (2.0, 4.0)])
    def test_scalar_inverse_wishart(self, scale_sq, df):
        d = ScalarInverseWishart(scale_sq, df)
        for x in self.POSITIVES:
            assert d.log_density(x) == _inverse_wishart_formula(x, scale_sq, df), x

    @pytest.mark.parametrize("mean, var", [(0.0, 1.0), (0.3, 1.7), (-5.0, 0.0625)])
    def test_scalar_gaussian(self, mean, var):
        d = DiagGaussian(mean, var)
        for x in self.REALS + [np.float64(-3.1), np.array(1.25)]:
            assert d.log_density(x) == _gaussian_formula(x, mean, var), x

    def test_dmm_t_prior(self):
        rows = [(0.3, 2.0, 1.5), (-40.0, 1e-3, 90.0), (0.0, 0.0, 0.0), (1.0, -1.0, 2.0), (1.0, 1.0, -1.0),
                (np.inf, 1.0, 1.0), (0.5, np.nan, 1.0)]
        for row in rows:
            expected = (
                _student_t_formula(row[0], 0.0, 1.0, 1.0)
                + _inverse_wishart_formula(row[1], 5.0, 1.0)
                + _gamma_formula(row[2], 1.0, 1.0)
            )
            assert DMM_T_PRIOR.log_density(row) == expected, row
            assert DMM_T_PRIOR.log_density(np.array(row)) == expected, row


class TestIndependentGaussianCoordinates:
    """Independent Gaussian coordinates are a ``TupleDensity`` of univariate
    ones, with the bits of the vector formula."""

    MEAN, VAR = np.array([0.5, -1.0]), np.array([2.0, 0.25])
    PAIR = TupleDensity([DiagGaussian(0.5, 2.0), DiagGaussian(-1.0, 0.25)])

    def test_draws_are_the_vector_formula_bitwise(self):
        rng, twin = RandomSource(31), RandomSource(31)
        drawn = self.PAIR.sample_batch(rng, 9)
        # one generator call per coordinate, in coordinate order
        expected = self.MEAN + np.sqrt(self.VAR) * twin.generator.standard_normal((2, 9)).T
        assert drawn.shape == (9, 2) and np.array_equal(drawn, expected)
        assert rng.generator.bit_generator.state == twin.generator.bit_generator.state

    def test_scores_rows_with_the_vector_formula_bitwise(self):
        rows = self.PAIR.sample_batch(RandomSource(32), 200).tolist() + [[0.5, -1.0], [1e150, 0.0], [np.inf, 0.0]]
        each = self.PAIR.log_density_each(np.array(rows))
        for row, score in zip(rows, each.tolist()):
            x = np.array(row)
            assert score == float(-0.5 * np.sum(LOG_TWO_PI + np.log(self.VAR) + (x - self.MEAN) ** 2 / self.VAR))
            # a lone row is the sum of its parts' scalar scores, with the row's bits
            alone = self.PAIR.log_density(x)
            assert alone == sum(part.log_density(v) for part, v in zip(self.PAIR.parts, row))
            assert alone == score


class TestStudentT:
    def test_matches_scipy(self):
        d = StudentT(0.3, 1.7, 5.0)
        for x in [-2.0, 0.0, 0.3, 4.5]:
            assert d.log_density(x) == pytest.approx(
                scipy.stats.t.logpdf(x, df=5.0, loc=0.3, scale=1.7), abs=1e-12
            )

    def test_logpdf_of_scalars_is_a_scalar_with_the_formulas_bits(self):
        for x in [-2.0, 0.0, 0.3, 4.5]:
            got = student_t_logpdf(x, 0.3, 1.7, 5.0)
            assert type(got) is np.float64 and got == _student_t_formula(x, 0.3, 1.7, 5.0)


class TestGamma:
    def test_unit_exponential_at_one(self):
        assert Gamma(1.0, 1.0).log_density(1.0) == pytest.approx(-1.0, abs=1e-12)

    def test_negative_support(self):
        assert Gamma(2.0, 1.0).log_density(-0.5) == -np.inf

    def test_matches_scipy(self):
        d = Gamma(2.5, 0.7)
        for x in [0.1, 1.0, 7.3]:
            assert d.log_density(x) == pytest.approx(
                scipy.stats.gamma.logpdf(x, a=2.5, scale=0.7), abs=1e-12
            )

    def test_sample_mean(self):
        rng = RandomSource(11)
        d = Gamma(3.0, 2.0)
        draws = np.array([d.sample(rng) for _ in range(20000)])
        assert draws.mean() == pytest.approx(6.0, abs=0.1)


class TestScalarInverseWishart:
    def test_equals_inverse_gamma_reduction(self):
        # 1x1 inverse-Wishart(scale_sq, df) is inverse-gamma(df/2, scale_sq/2)
        d = ScalarInverseWishart(5.0, 1.0)
        for x in [0.05, 0.5, 2.0, 40.0]:
            expected = scipy.stats.invgamma.logpdf(x, a=0.5, scale=2.5)
            assert d.log_density(x) == pytest.approx(expected, abs=1e-12)

    def test_nonpositive_support(self):
        d = ScalarInverseWishart(2.0, 4.0)
        assert d.log_density(0.0) == -np.inf
        assert d.log_density(-1.0) == -np.inf

    def test_sample_mean_when_defined(self):
        # mean is scale_sq / (df - 2) for df > 2
        d = ScalarInverseWishart(12.0, 8.0)
        rng = RandomSource(5)
        draws = np.array([d.sample(rng) for _ in range(40000)])
        assert draws.mean() == pytest.approx(2.0, rel=0.05)


class TestDirichlet:
    def test_samples_sum_to_one_exactly(self):
        d = Dirichlet([1.0, 1.0])
        rng = RandomSource(21)
        draws = np.array([d.sample(rng) for _ in range(5000)])
        assert np.all(draws.sum(axis=1) == 1.0)
        assert np.abs(draws.mean(axis=0) - 0.5).max() < 0.02

    def test_log_density_matches_scipy(self):
        d = Dirichlet([2.0, 3.5])
        for x in [0.2, 0.5, 0.9]:
            point = np.array([x, 1.0 - x])
            assert d.log_density(point) == pytest.approx(
                scipy.stats.dirichlet.logpdf(point, [2.0, 3.5]), abs=1e-12
            )

    def test_off_simplex(self):
        d = Dirichlet([2.0, 3.0])
        assert d.log_density(np.array([0.7, 0.7])) == -np.inf
        assert d.log_density(np.array([-0.1, 1.1])) == -np.inf

    def test_positive_concentration_required(self):
        with pytest.raises(ValueError):
            Dirichlet([1.0, 0.0])

    def test_one_component_and_points_of_another_dimension_are_refused(self):
        with pytest.raises(ValueError, match="at least two components"):
            Dirichlet([2.0])
        with pytest.raises(ValueError, match="dimension mismatch"):
            Dirichlet([1.0, 2.0]).log_density_each(np.full((4, 3), 1.0 / 3.0))

    @pytest.mark.parametrize("concentration", [(1.0, 1.0), (2.0, 3.0)])
    @pytest.mark.parametrize("x", [[np.nan, np.nan], [np.nan, 0.5], [np.inf, 0.0], [np.inf, -np.inf]])
    def test_non_finite_point_is_outside_the_support(self, concentration, x):
        assert Dirichlet(concentration).log_density(np.array(x)) == -np.inf


class TestTupleDensity:
    def test_needs_a_part(self):
        with pytest.raises(ValueError, match="at least one part"):
            TupleDensity([])

    def test_sums_parts(self):
        d = TupleDensity([DiagGaussian(0.0, 1.0), Gamma(1.0, 1.0)])
        value = (0.5, 2.0)
        expected = DiagGaussian(0.0, 1.0).log_density(0.5) + Gamma(1.0, 1.0).log_density(2.0)
        assert d.log_density(value) == pytest.approx(expected, abs=1e-12)
        drawn = d.sample(RandomSource(4))
        assert len(drawn) == 2

    def test_log_density_each_equals_per_row_sum_of_parts_bitwise(self):
        rows = DMM_T_PRIOR.sample_batch(RandomSource(9), 25)
        rows[3, 1] = -1.0  # a variance outside the support
        each = DMM_T_PRIOR.log_density_each(rows)
        expected = [sum(part.log_density(v) for part, v in zip(DMM_T_PRIOR.parts, row)) for row in rows]
        assert each.shape == (25,) and each.tolist() == expected
        assert [DMM_T_PRIOR.log_density(tuple(row)) for row in rows] == expected
        with pytest.raises(ValueError):
            DMM_T_PRIOR.log_density_each(rows[:, :2])


def _grid_mass_1d(density, lo, hi, n=200001):
    xs = np.linspace(lo, hi, n)
    return np.trapezoid(np.exp(density.log_density_each(xs)), xs)


class TestNormalization:
    """exp(log_density) integrates to 1 on a truncated support."""

    def test_univariate_families(self):
        cases = [
            (DiagGaussian(0.3, 1.7), -12.0, 12.0),
            (StudentT(0.2, 1.3, 5.0), -300.0, 300.0),
            (Gamma(2.0, 1.5), 1e-9, 60.0),
            (ScalarInverseWishart(2.0, 5.0), 1e-6, 400.0),
        ]
        for density, lo, hi in cases:
            assert _grid_mass_1d(density, lo, hi) == pytest.approx(1.0, abs=1e-3)

    def test_dirichlet_via_first_coordinate(self):
        d = Dirichlet([2.0, 3.0])
        xs = np.linspace(1e-9, 1.0 - 1e-9, 100001)
        pdf = np.exp([d.log_density(np.array([x, 1.0 - x])) for x in xs])
        assert np.trapezoid(pdf, xs) == pytest.approx(1.0, abs=1e-3)

    def test_2d_products(self):
        xs = np.linspace(-10.0, 10.0, 1201)
        cases = [
            (TupleDensity([DiagGaussian(0.0, 2.0), DiagGaussian(0.0, 2.0)]), DiagGaussian(0.0, 2.0)),
        ]
        for density, marginal in cases:
            each = marginal.log_density_each(xs)
            joint = each[:, None] + each[None, :]
            # the grid must agree with direct joint evaluation at spot points
            for i, j in [(0, 0), (600, 600), (600, 1200), (137, 901)]:
                direct = density.log_density(np.array([xs[i], xs[j]]))
                assert joint[i, j] == pytest.approx(direct, abs=1e-10)
            mass = np.trapezoid(np.trapezoid(np.exp(joint), xs, axis=1), xs)
            assert mass == pytest.approx(1.0, abs=1e-3)

    def test_reproducible_streams_per_family(self):
        for density in (DiagGaussian(0.0, 1.0), StudentT(0.0, 1.0, 3.0), Gamma(2.0, 2.0),
                        ScalarInverseWishart(3.0, 5.0), Dirichlet([1.5, 2.5])):
            a = [density.sample(RandomSource(1000)) for _ in range(1)]
            b = [density.sample(RandomSource(1000)) for _ in range(1)]
            assert repr(a) == repr(b)
