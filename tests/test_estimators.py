import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from infmc.estimators import (
    DegenerateWeightsError,
    SampleSet,
    TestFunction,
    combine,
    evidence_estimate,
    log_sum_exp,
    resample,
    self_normalized_estimate,
    snis_variance_estimate,
    standard_estimate,
    union_decomposition,
)
from infmc.rng import RandomSource

IDENTITY_1D = TestFunction.identity(1)


def make_set(points, log_weights):
    return SampleSet(np.asarray(points, dtype=float).reshape(len(log_weights), -1), log_weights)


def assert_same_bits_as_scipy(a, axis, b=None):
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        expected = logsumexp(a, axis=axis, b=b, keepdims=True, return_sign=True)
    for got, want in zip(log_sum_exp(a, axis, b), expected):
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)
        number = ~np.isnan(want)
        assert np.array_equal(np.signbit(got[number]), np.signbit(want[number]))  # -0.0 is not 0.0


class TestLogSumExp:
    def test_matches_scipy_bitwise(self):
        rng = np.random.default_rng(5)
        for shape in [(100, 2), (7, 1), (40, 3), (6, 9, 4)]:
            a = rng.normal(0.0, 30.0, size=shape)
            a[..., 0] = np.round(a[..., 0])
            a[..., -1] = np.round(a[..., -1])  # ties, including exact duplicates of the maximum
            for case in [a, a - 1000.0, np.where(rng.random(shape) < 0.2, -np.inf, a)]:
                assert_same_bits_as_scipy(case, -1)

    def test_infinite_entries_match_scipy(self):
        a = np.array([
            [0.5, -np.inf],  # a zero mixing weight
            [-np.inf, -np.inf],  # every weight zero
            [3.0, 3.0],
            [np.inf, 1.0],
            [-2.0, -np.inf],
        ])
        assert_same_bits_as_scipy(a, -1)
        assert log_sum_exp(a, -1)[0][1, 0] == -np.inf

    @pytest.mark.parametrize("shift", [0.0, -1000.0])
    def test_weighted_columns_match_scipy_bitwise(self, shift):
        """Axis 0 with a log-weight column against signed values, as the estimators call it."""
        rng = np.random.default_rng(11)
        n = 500
        a = np.round(rng.normal(0.0, 3.0, size=(n, 1)), 1) + shift
        a[rng.random((n, 1)) < 0.1] = -np.inf
        a[0] = np.max(a) + 1.0  # a single maximum
        tied = a.copy()
        tied[[3, 11, 40]] = a[0]  # three more terms at the maximum
        b = rng.normal(0.0, 2.0, size=(n, 3))
        for case in [a, tied]:
            assert_same_bits_as_scipy(case, 0, b)
            assert_same_bits_as_scipy(case, 0, np.asfortranarray(b))
            assert_same_bits_as_scipy(case, 0, b**2)
            assert_same_bits_as_scipy(case, 0, b[:, :1])
        b_zero = b.copy()
        b_zero[0, 1] = 0.0  # only column 1 loses the maximum, so the column maxima differ
        b_zero[:7, 2] = 0.0
        assert_same_bits_as_scipy(a, 0, b_zero)

    def test_negative_weights_and_reflection(self):
        a = np.array([[0.0], [-0.1], [-3.0], [0.0]])
        # rows 0 and 3 tie at the maximum, so m sums both of their weights;
        # columns 0 and 1 have s < -1, reflected as -s - 2; column 3 has m = 0
        b = np.array([
            [1.0, 0.5, -1.0, 1.0],
            [-5.0, -4.0, 2.0, 2.0],
            [2.0, 1.0, 0.25, 3.0],
            [1.0, 0.5, 3.0, -1.0],
        ])
        _, sign = log_sum_exp(a, 0, b)
        assert np.array_equal(sign, [[-1.0, -1.0, 1.0, 1.0]])
        assert_same_bits_as_scipy(a, 0, b)
        assert_same_bits_as_scipy(a, 0, -b)

    def test_nonfinite_weights_and_empty_columns(self):
        a = np.array([[0.0], [-1.0], [-2.0]])
        b = np.array([
            [np.inf, 1.0, 1.0, 0.0, 1.0],
            [1.0, -np.inf, 1.0, 0.0, 1.0],
            [1.0, 1.0, np.nan, 0.0, 1.0],
        ])
        assert_same_bits_as_scipy(a, 0, b)
        assert_same_bits_as_scipy(np.full((3, 1), -np.inf), 0, b)  # every log weight -inf
        out, sign = log_sum_exp(a, 0, b)
        assert out[0, 3] == -np.inf and sign[0, 3] == 0.0  # every weight zero

    def test_short_axes_in_the_library_layouts_match_scipy_bitwise(self):
        """Length-1 and length-2 axes as the mixture and the block sums pass
        them: swapaxes views, (G, K, 1) block columns, a length-1 axis that is
        not the last, Fortran order and empty batches; sign bits included."""
        edges = [-np.inf, np.inf, np.nan, -0.0, 0.0, 1.5, -3.0, -1000.25, 7e-17]
        pairs = np.array([(x, y) for x in edges for y in edges])  # every ordered pair: ties, all -inf, +inf, NaN
        rng = np.random.default_rng(17)
        noise = np.round(rng.normal(0.0, 4.0, size=(300, 2)), 1)  # rounding leaves ties
        rows = np.concatenate([pairs, noise, noise - 1000.0, noise[:, ::-1] * 1e-16])
        table = rows[: 3 * 100].reshape(3, 100, 2)  # (outer, observations, K)
        swapped = np.swapaxes(np.ascontiguousarray(np.swapaxes(table, -1, -2)), -1, -2)
        with np.errstate(divide="ignore"):
            log_w = np.log(rng.dirichlet((1.0, 1.0), size=3))
        with np.errstate(invalid="ignore"):
            marginal = swapped + log_w[:, None, :]  # the marginal likelihood's layout
        columns = rows.reshape(-1, 2, 1)  # (G, K, 1): one inner draw per block
        cases = [
            (rows, -1),
            (rows, 1),
            (table, -1),
            (swapped, -1),
            (swapped, 2),
            (marginal, -1),
            (columns, 2),
            (columns, 1),
            (rows[:, None, :], 1),  # a length-1 axis that is not the last
            (rows.T[None], 0),
            (np.asfortranarray(rows), -1),
            (np.asfortranarray(rows.T), 0),
            (np.asfortranarray(table), 2),
            (np.zeros((0, 2)), -1),  # empty batches
            (np.zeros((4, 0, 2)), -1),
            (np.zeros((0, 3, 1)), 2),
        ]
        for a, axis in cases:
            assert_same_bits_as_scipy(a, axis)

    def test_an_empty_reduced_axis_is_refused(self):
        with pytest.raises(ValueError):
            log_sum_exp(np.zeros((3, 0)), -1)

    def test_one_dimensional_total(self):
        rng = np.random.default_rng(3)
        a = np.round(rng.normal(0.0, 5.0, size=1001))
        for case in [a, a - 1000.0, np.full(4, -np.inf), np.array([np.inf, 1.0]), np.array([-np.inf, 2.0])]:
            assert_same_bits_as_scipy(case, 0)


class TestSampleSet:
    def test_log_weight_sum_matches_logaddexp(self):
        s = make_set([[0.0], [1.0], [2.0]], np.log([1.0, 2.0, 5.0]))
        assert s.log_weight_sum == pytest.approx(np.log(8.0), abs=1e-12)

    def test_rejects_nan_and_positive_infinity(self):
        with pytest.raises(ValueError):
            make_set([[0.0]], [np.nan])
        with pytest.raises(ValueError):
            make_set([[0.0]], [np.inf])
        with pytest.raises(ValueError):
            SampleSet([[0.0]], [0.0])  # points must be an array, not a list

    def test_zero_weight_allowed(self):
        s = make_set([[0.0], [1.0]], [0.0, -np.inf])
        assert s.log_weight_sum == pytest.approx(0.0, abs=1e-12)

    def test_log_weights_must_be_one_dimensional(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            SampleSet(np.zeros((2, 1)), np.zeros((2, 1)))


class TestTestFunction:
    def test_values_of_the_wrong_shape_are_refused(self):
        s = make_set([[0.0], [1.0]], [0.0, 0.0])
        with pytest.raises(ValueError, match=r"test function returned \(2, 1\), expected \(2, 2\)"):
            self_normalized_estimate(s, TestFunction(lambda pts: pts, 2))


class TestStandardEstimate:
    def test_unit_weights_collapse_to_sample_mean(self):
        s = make_set([[1.0], [3.0]], [0.0, 0.0])
        assert standard_estimate(s, IDENTITY_1D) == pytest.approx([2.0])

    def test_single_sample_weight_two(self):
        s = make_set([[3.0]], [np.log(2.0)])
        assert standard_estimate(s, IDENTITY_1D) == pytest.approx([6.0])

    def test_against_naive_summation(self):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(10, 1))
        log_w = rng.normal(size=10)
        s = make_set(points, log_w)
        naive = sum(np.exp(lw) * p for lw, p in zip(log_w, points[:, 0])) / 10.0
        assert standard_estimate(s, IDENTITY_1D) == pytest.approx([naive], abs=1e-12)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            standard_estimate(SampleSet(np.empty((0, 1)), np.empty(0)), IDENTITY_1D)


class TestSelfNormalizedEstimate:
    def test_uniform_weights_give_sample_mean(self):
        s = make_set([[0.0], [4.0]], [-3.3, -3.3])
        assert self_normalized_estimate(s, IDENTITY_1D) == pytest.approx([2.0])

    def test_hand_computed_two_samples(self):
        # (0*1 + 4*3) / (1+3) = 3
        s = make_set([[0.0], [4.0]], np.log([1.0, 3.0]))
        assert self_normalized_estimate(s, IDENTITY_1D) == pytest.approx([3.0], abs=1e-12)

    @given(st.floats(min_value=-800.0, max_value=600.0))
    def test_shift_invariance(self, offset):
        s = make_set([[0.5], [-1.25], [4.0]], [-0.3, -2.0, -1.1])
        base = self_normalized_estimate(s, IDENTITY_1D)
        shifted = self_normalized_estimate(SampleSet(s.points, s.log_weights + offset), IDENTITY_1D)
        assert shifted == pytest.approx(base, abs=1e-12)

    def test_matches_standard_when_weights_are_unit(self):
        s = make_set([[0.7], [-0.1], [2.0]], [0.0, 0.0, 0.0])
        a = standard_estimate(s, IDENTITY_1D)
        b = self_normalized_estimate(s, IDENTITY_1D)
        assert np.array_equal(a, b)

    def test_all_zero_weights_rejected(self):
        s = make_set([[0.0], [1.0]], [-np.inf, -np.inf])
        with pytest.raises(DegenerateWeightsError):
            self_normalized_estimate(s, IDENTITY_1D)

    def test_negative_components_handled_in_log_space(self):
        s = make_set([[-3.0], [1.0]], [-700.0, -700.0])
        assert self_normalized_estimate(s, IDENTITY_1D) == pytest.approx([-1.0], abs=1e-12)


class TestVarianceEstimate:
    def test_constant_function_gives_zero(self):
        s = make_set([[1.0], [2.0]], [0.0, -1.0])
        const = TestFunction(lambda pts: np.ones((len(pts), 1)), 1)
        assert snis_variance_estimate(s, const) == pytest.approx([0.0])

    def test_single_sample_gives_zero(self):
        s = make_set([[5.0]], [0.3])
        assert snis_variance_estimate(s, IDENTITY_1D) == pytest.approx([0.0])

    def test_three_samples_match_direct_double_pass(self):
        points = np.array([[1.0], [2.0], [4.0]])
        log_w = np.log([0.2, 0.5, 0.3])
        s = make_set(points, log_w)
        w = np.exp(log_w)
        est = np.sum(w * points[:, 0]) / w.sum()
        direct = np.sum((w / w.sum()) ** 2 * (points[:, 0] - est) ** 2)
        assert snis_variance_estimate(s, IDENTITY_1D) == pytest.approx([direct], abs=1e-12)


class TestEvidenceEstimate:
    def test_unit_weights_give_exact_zero(self):
        s = make_set([[0.0], [1.0], [2.0]], [0.0, 0.0, 0.0])
        assert type(evidence_estimate(s)) is float and evidence_estimate(s) == 0.0

    def test_constant_low_weights(self):
        s = make_set(np.zeros((7, 1)), np.full(7, -1000.0))
        assert evidence_estimate(s) == pytest.approx(-1000.0, abs=1e-10)

    def test_hand_computed_mixture(self):
        s = make_set([[0.0], [0.0]], np.log([2.0, 4.0]))
        assert evidence_estimate(s) == pytest.approx(np.log(3.0), abs=1e-12)


class TestCombine:
    def test_single_set_identity(self):
        s = make_set([[1.0], [-2.0]], [0.0, -3.5])
        u = combine([s])
        assert u is not s
        assert np.array_equal(u.points, s.points)
        assert np.array_equal(u.log_weights, s.log_weights)
        assert u.log_weight_sum == s.log_weight_sum

    def test_cardinality_and_weight_sum(self):
        a = make_set([[0.0], [1.0]], [-1.0, -2.0])
        b = make_set([[2.0]], [0.5])
        u = combine([a, b])
        assert len(u) == 3
        assert u.log_weight_sum == pytest.approx(
            np.logaddexp(a.log_weight_sum, b.log_weight_sum), abs=1e-12
        )

    def test_duplicates_preserved(self):
        a = make_set([[1.0]], [0.0])
        u = combine([a, a])
        assert len(u) == 2

    def test_no_sets_is_refused(self):
        with pytest.raises(ValueError, match="at least one sample set"):
            combine([])


def random_partition(seed, span=600.0, max_total=60, dim=2):
    rng = np.random.default_rng(seed)
    total = rng.integers(1, max_total + 1)
    parts = rng.integers(1, min(4, total) + 1)
    cuts = np.sort(rng.choice(np.arange(1, total), size=parts - 1, replace=False)) if parts > 1 else np.array([], dtype=int)
    bounds = [0, *cuts.tolist(), total]
    points = rng.normal(size=(total, dim))
    log_w = -rng.random(total) * span
    return [SampleSet(points[a:b], log_w[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]


def decomposition_residual(sets, h, kind):
    estimate, per_set, lambdas = union_decomposition(sets, h, kind)
    return float(np.max(np.abs(estimate - lambdas @ per_set)))


def error_convexity_margin(sets, h, kind, reference, ord):
    _, per_set, lambdas = union_decomposition(sets, h, kind)
    avg_error = float(lambdas @ [np.linalg.norm(v - reference, ord=ord) for v in per_set])
    return avg_error - float(np.linalg.norm(lambdas @ per_set - reference, ord=ord))


class TestDecomposition:
    """The union estimate equals the convex combination of per-part estimates."""

    def test_single_part_residual_zero(self):
        sets = random_partition(0)
        union = combine(sets)
        assert decomposition_residual([union], TestFunction.identity(2), "standard") == 0.0
        assert decomposition_residual([union], TestFunction.identity(2), "self-normalized") == 0.0

    def test_one_set_is_its_own_union(self):
        union = combine(random_partition(0))
        for kind in ("standard", "self-normalized"):
            estimate, per_set, lambdas = union_decomposition([union], TestFunction.identity(2), kind)
            assert lambdas.tolist() == [1.0]
            assert per_set.tolist() == [estimate.tolist()]

    def test_unknown_kind_is_a_value_error(self):
        with pytest.raises(ValueError, match="unknown estimator kind 'bogus'"):
            union_decomposition(random_partition(0), TestFunction.identity(2), "bogus")

    def test_two_explicit_parts(self):
        rng = np.random.default_rng(3)
        a = SampleSet(rng.normal(size=(5, 2)), rng.normal(size=5))
        b = SampleSet(rng.normal(size=(5, 2)), rng.normal(size=5))
        for kind in ("standard", "self-normalized"):
            assert decomposition_residual([a, b], TestFunction.identity(2), kind) < 1e-10

    @settings(max_examples=120, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_randomized_partitions(self, seed):
        sets = random_partition(seed)
        h = TestFunction.identity(2)
        for kind in ("standard", "self-normalized"):
            assert decomposition_residual(sets, h, kind) < 1e-10

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_error_convexity_over_three_norms(self, seed):
        sets = random_partition(seed)
        h = TestFunction.identity(2)
        reference = np.random.default_rng(seed + 1).normal(size=2)
        for kind in ("standard", "self-normalized"):
            for ord in (1, 2, np.inf):
                assert error_convexity_margin(sets, h, kind, reference, ord) >= -1e-12

    def test_theorem_side_check_explicit(self):
        # the weighted average of per-part errors bounds the union error
        sets = random_partition(17, span=5.0)
        h = TestFunction.identity(2)
        union = combine(sets)
        reference = np.array([0.25, -1.0])
        lambdas = np.array([len(s) / len(union) for s in sets])
        per_part = np.array([standard_estimate(s, h) for s in sets])
        avg_err = float(lambdas @ [np.linalg.norm(v - reference) for v in per_part])
        union_err = float(np.linalg.norm(standard_estimate(union, h) - reference))
        assert avg_err >= union_err - 1e-12 >= -1e-12


class TestResample:
    def test_single_sample_set(self):
        s = make_set([[3.0]], [0.0])
        draws = resample(s, 5, RandomSource(0))
        assert all(p[0] == 3.0 for p in draws)

    def test_zero_weight_never_drawn(self):
        s = make_set([[1.0], [2.0]], [0.0, -np.inf])
        draws = resample(s, 200, RandomSource(1))
        assert all(p[0] == 1.0 for p in draws)

    def test_frequencies_proportional_to_weights(self):
        s = make_set([[0.0], [1.0]], np.log([1.0, 3.0]))
        draws = np.array(resample(s, 10**5, RandomSource(2)))
        assert abs(draws.mean() - 0.75) < 0.01

    def test_one_object_per_distinct_sample(self):
        # the generation loop builds one kernel proposal per distinct object it is handed
        s = make_set([[1.0], [2.0]], [0.0, 0.0])
        draws = resample(s, 50, RandomSource(4))
        assert len({id(p) for p in draws}) == len({float(p[0]) for p in draws}) == 2

    def test_all_zero_weights_rejected(self):
        s = make_set([[1.0]], [-np.inf])
        with pytest.raises(DegenerateWeightsError):
            resample(s, 3, RandomSource(0))

    def test_preserves_weighted_mean_in_expectation(self):
        s = make_set([[0.0], [1.0], [4.0]], np.log([0.2, 0.3, 0.5]))
        target = self_normalized_estimate(s, IDENTITY_1D)[0]
        rng = RandomSource(33)
        reps, size = 10**4, 8
        means = np.empty(reps)
        for r in range(reps):
            means[r] = np.mean([p[0] for p in resample(s, size, rng)])
        stderr = means.std(ddof=1) / np.sqrt(reps)
        assert abs(means.mean() - target) < 3 * stderr


class TestConsistencyOnGaussianTarget:
    """Self-normalized estimates tighten at the 1/n rate on the 2-D toy."""

    def test_median_error_decreases_and_mse_rate(self):
        from infmc.distributions import StudentT
        from infmc.models import GaussianToy

        toy = GaussianToy()
        model = toy.model()
        t = StudentT(0.0, np.sqrt(2.0), 20.0)
        budgets = [100, 1000, 10000]
        errors = np.empty((50, len(budgets)))
        sq_err = np.empty((50, len(budgets)))
        root = RandomSource(2024)
        h = TestFunction.identity(2)
        for r in range(50):
            for bi, n in enumerate(budgets):
                pts = toy.sample_proposal(n, root.child(r, bi))
                log_w = (
                    model.block_log_priors[0](pts[:, 0])
                    + model.block_log_priors[1](pts[:, 1])
                    + toy.log_evidence_offset
                    - t.log_density_each(pts[:, 0])
                    - t.log_density_each(pts[:, 1])
                )
                est = self_normalized_estimate(SampleSet(pts, log_w), h)
                errors[r, bi] = np.linalg.norm(est)
                sq_err[r, bi] = float(np.sum(est**2))
        medians = np.median(errors, axis=0)
        assert medians[0] > medians[1] > medians[2]
        mse = sq_err.mean(axis=0)
        for a, b in zip(mse[:-1], mse[1:]):
            assert 5.0 <= a / b <= 20.0
