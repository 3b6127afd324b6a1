import numpy as np
import pytest

from infmc import factorized, pmc
from infmc.distributions import DiagGaussian, Gamma, ScalarInverseWishart
from infmc.estimators import SampleSet, TestFunction, self_normalized_estimate
from infmc.experiments import _counting_likelihoods
from infmc.factorized import (
    FactorizedModel,
    FactorizedProposal,
    InflationBudgetError,
    plain_factorized_sampler,
)
from infmc.models import (
    DmmSpec,
    component_means_function,
    dmm_init_proposal,
    dmm_model,
    informed_assignment_builder,
    make_synthetic,
)
from infmc.pmc import (
    DegenerateGenerationError,
    GammaKernel,
    GaussianKernel,
    PmcConfig,
    TupleKernel,
    VarianceKernel,
    pooled_estimate,
    run_pmc,
    trace_metrics,
)
from infmc.rng import RandomSource


def scalar_block_model(log_density_each, num_blocks=1):
    return FactorizedModel(
        num_blocks=num_blocks,
        global_log_prior=lambda phi: 0.0,
        block_log_priors=(log_density_each,) * num_blocks,
        block_log_likelihoods=(lambda phi, g: np.zeros(np.shape(g)),) * num_blocks,
    )


CENTERS = np.array([1.5, 4.0, 2.0])  # one block's centers for three outer draws


class TestKernels:
    def test_gaussian_kernel_centers(self):
        prop = GaussianKernel(0.5).at(CENTERS)
        assert isinstance(prop, DiagGaussian)
        assert np.array_equal(prop.mean, CENTERS[:, None]) and prop.rows == 3
        assert prop.var == 0.25

    def test_gamma_kernel_moment_matched(self):
        prop = GammaKernel(0.3).at(CENTERS)
        assert isinstance(prop, Gamma)
        np.testing.assert_allclose(prop.shape * prop.scale, CENTERS[:, None])  # mean at the center
        np.testing.assert_allclose(np.sqrt(prop.shape) * prop.scale / (prop.shape * prop.scale), 0.3)

    def test_variance_kernel_mean_and_cv(self):
        prop = VarianceKernel(0.3).at(CENTERS)
        assert isinstance(prop, ScalarInverseWishart)
        shape = prop.df / 2.0
        rate = prop.scale_sq / 2.0
        np.testing.assert_allclose(rate / (shape - 1.0), CENTERS[:, None])  # inverse-gamma mean
        assert 1.0 / np.sqrt(shape - 2.0) == pytest.approx(0.3)

    def test_tuple_kernel_builds_parts(self):
        kernel = TupleKernel([GaussianKernel(0.1), GammaKernel(0.2)])
        prop = kernel.at(np.array([(0.5, 3.0), (-1.0, 0.5)]))
        values = prop.sample_batch(RandomSource(0), (2, 4))
        assert values.shape == (2, 4, 2)
        assert np.isfinite(prop.log_density_each(values)).all()
        with pytest.raises(ValueError, match="kernel expects 2"):
            kernel.at(np.ones((2, 3)))

    def test_nonpositive_or_non_finite_centers_are_refused(self):
        for kernel in (GammaKernel(0.3), VarianceKernel(0.3)):
            for bad in (0.0, -1.0, np.inf, np.nan):
                with pytest.raises(ValueError, match="strictly positive and finite"):
                    kernel.at(np.array([1.0, bad]))

    def test_positive_bandwidths_required(self):
        with pytest.raises(ValueError):
            GaussianKernel(0.0)
        with pytest.raises(ValueError):
            GammaKernel(-1.0)


class TestConfig:
    def test_inflation_budget_divisibility(self):
        with pytest.raises(ValueError):
            PmcConfig(population_size=5, generations=2, kernel=GaussianKernel(), inner_draws=2)

    def test_basic_validation(self):
        with pytest.raises(ValueError):
            PmcConfig(population_size=0, generations=1, kernel=GaussianKernel())


class TestRunPmc:
    def test_single_generation_matches_direct_sampler(self):
        density = DiagGaussian(0.0, 2.0)
        model = scalar_block_model(density.log_density_each)
        init = FactorizedProposal(block_proposals=(DiagGaussian(0.0, 4.0),))
        cfg = PmcConfig(population_size=40, generations=1, kernel=GaussianKernel(0.3))
        h = TestFunction.identity(1)
        gens = run_pmc(model, init, cfg, RandomSource(55), h)
        direct = plain_factorized_sampler(model, init, 40, RandomSource(55))
        assert len(gens) == 1
        assert np.array_equal(gens[0].sample_set.log_weights, direct.log_weights)
        expected = self_normalized_estimate(direct, h)
        assert np.array_equal(gens[0].cumulative_estimate, expected)

    def test_stationary_toy_has_constant_weights_and_uniform_resampling(self):
        density = DiagGaussian(0.0, 1.0)
        model = FactorizedModel(
            num_blocks=1,
            global_log_prior=lambda phi: 0.0,
            block_log_priors=(density.log_density_each,) * 1,
            block_log_likelihoods=(lambda phi, g: np.zeros(np.shape(g)),) * 1,
        )
        init = FactorizedProposal(block_proposals=(density,))
        cfg = PmcConfig(population_size=200, generations=1, kernel=GaussianKernel(0.3))
        gens = run_pmc(model, init, cfg, RandomSource(2), TestFunction.identity(1))
        assert np.all(gens[0].sample_set.log_weights == 0.0)
        resampled = [p[0] for p in gens[0].resampled_points]
        original = list(gens[0].sample_set.points[:, 0])
        assert set(resampled) <= set(original)
        assert len(set(resampled)) > 100  # uniform resampling keeps most of the population

    def test_bimodal_target_estimates_mean(self):
        # ground truth from grid quadrature of the specified mixture density
        def mixture_log_density(x):
            x = np.asarray(x, dtype=float)
            a = -0.5 * (np.log(2 * np.pi) + (x + 1.5) ** 2)
            b = -0.5 * (np.log(2 * np.pi) + (x - 1.5) ** 2)
            m = np.maximum(a, b)
            return m + np.log(0.5 * np.exp(a - m) + 0.5 * np.exp(b - m))

        xs = np.linspace(-15.0, 15.0, 40001)
        pdf = np.exp(mixture_log_density(xs))
        truth = np.trapezoid(xs * pdf, xs) / np.trapezoid(pdf, xs)

        model = scalar_block_model(mixture_log_density)
        init = FactorizedProposal(block_proposals=(DiagGaussian(0.0, 25.0),))
        # the kernel must span the mode separation or populations stick to one mode
        cfg = PmcConfig(population_size=200, generations=10, kernel=GaussianKernel(2.0))
        h = TestFunction.identity(1)
        root = RandomSource(314)
        hits = 0
        for r in range(50):
            gens = run_pmc(model, init, cfg, root.child(r), h)
            estimate = pooled_estimate(gens, h)[0]
            hits += abs(estimate - truth) < 0.2
        assert hits >= 45

    def test_determinism(self):
        ds = make_synthetic("gaussian", (-2.0, 2.0), 5, count=30)
        spec = DmmSpec(ds.observations)
        model, init = dmm_model(spec), dmm_init_proposal(spec)
        h = component_means_function(spec)
        cfg = PmcConfig(population_size=50, generations=3, kernel=GaussianKernel(0.25))
        a = run_pmc(model, init, cfg, RandomSource(99), h)
        b = run_pmc(model, init, cfg, RandomSource(99), h)
        for ga, gb in zip(a, b):
            assert np.array_equal(ga.sample_set.log_weights, gb.sample_set.log_weights)
            assert np.array_equal(ga.cumulative_estimate, gb.cumulative_estimate)
            assert ga.best_log_likelihood == gb.best_log_likelihood

    def test_degenerate_generation_reports_index(self):
        density = DiagGaussian(0.0, 1.0)
        model = FactorizedModel(
            num_blocks=1,
            global_log_prior=lambda phi: 0.0,
            block_log_priors=(lambda g: np.full(np.shape(g), -np.inf),),
            block_log_likelihoods=(lambda phi, g: np.zeros(np.shape(g)),),
        )
        init = FactorizedProposal(block_proposals=(density,))
        cfg = PmcConfig(population_size=10, generations=2, kernel=GaussianKernel(0.3))
        with pytest.raises(DegenerateGenerationError) as excinfo:
            run_pmc(model, init, cfg, RandomSource(0))
        assert excinfo.value.generation == 1

    def test_kernel_at_is_called_once_per_block_per_generation(self):
        built = []

        class CountingKernel(GaussianKernel):
            def at(self, centers):
                built.append(np.shape(centers))
                return super().at(centers)

        model = scalar_block_model(DiagGaussian(0.0, 1.0).log_density_each, num_blocks=2)
        init = FactorizedProposal(block_proposals=(DiagGaussian(0.0, 4.0),) * 2)
        run_pmc(model, init, PmcConfig(40, 3, CountingKernel(0.5), inner_draws=2), RandomSource(3))
        assert built == [(20,)] * 2 * 2  # two kernel generations of 40 / 2 outer draws, two blocks each

    def test_a_dmm_t_generation_makes_one_generator_call_per_draw_kind(self):
        """Per generation: the centers, the weights, the labels' uniforms,
        and one call per part of each block; then resampling's one call."""
        calls = []

        class Recording:
            def __init__(self, generator):
                self._generator = generator

            def __getattr__(self, name):
                method = getattr(self._generator, name)
                return lambda *args, **kwargs: calls.append(name) or method(*args, **kwargs)

        spec = DmmSpec(make_synthetic("student-t", (-2.0, 2.0), 3, count=30).observations, "student-t")
        kernel = TupleKernel([GaussianKernel(0.25), VarianceKernel(0.3), GammaKernel(0.3)])
        cfg = PmcConfig(40, 2, kernel, 2, informed_assignment_builder(spec))
        rng = RandomSource(4)
        rng.generator = Recording(rng.generator)
        run_pmc(dmm_model(spec), dmm_init_proposal(spec), cfg, rng)
        prior_blocks = ["standard_t", "gamma", "gamma"] * 2
        kernel_blocks = ["standard_normal", "gamma", "gamma"] * 2
        first = ["dirichlet", "random", *prior_blocks]
        second = ["integers", "dirichlet", "random", *kernel_blocks]
        assert len(second) == 1 + 2 + 2 * 3
        assert calls == [*first, "choice", *second, "choice"]

    def test_inflated_generations_match_plain_eval_budget(self, monkeypatch):
        ds = make_synthetic("gaussian", (-2.0, 2.0), 7, count=40)
        spec = DmmSpec(ds.observations)
        model, counts = _counting_likelihoods(dmm_model(spec))
        init = dmm_init_proposal(spec)
        h = component_means_function(spec)
        # values scored by each generation's draws; the best-log-likelihood
        # diagnostic evaluates the likelihoods again outside the budget
        sampled = []

        def tallied(*args):
            before = sum(counts)
            drawn = factorized.recombine(*args)
            sampled.append(sum(counts) - before)
            return drawn

        monkeypatch.setattr(pmc, "recombine", tallied)
        plain_cfg = PmcConfig(population_size=40, generations=2, kernel=GaussianKernel(0.25))
        infl_cfg = PmcConfig(population_size=40, generations=2, kernel=GaussianKernel(0.25),
                             inner_draws=2)
        plain = run_pmc(model, init, plain_cfg, RandomSource(1), h)
        inflated = run_pmc(model, init, infl_cfg, RandomSource(2), h)
        assert sampled == [gen.block_evals for gen in plain + inflated] == [40 * 2] * 4
        for gp, gi in zip(plain, inflated):
            assert len(gi.sample_set) == 2 * len(gp.sample_set)  # inner_draws**(blocks-1) more
            assert len(gi.resampled_points) == len(gp.resampled_points) == 40


    @pytest.mark.parametrize("inner_draws", [1, 2])
    @pytest.mark.parametrize("family", ["gaussian", "student-t"])
    def test_best_log_likelihood_is_the_per_point_maximum_bitwise(self, family, inner_draws):
        spec = DmmSpec(make_synthetic(family, (-2.0, 2.0), 3, count=30).observations, family)
        model = dmm_model(spec)
        if family == "gaussian":
            kernel = GaussianKernel(0.25)
        else:
            kernel = TupleKernel([GaussianKernel(0.25), VarianceKernel(0.3), GammaKernel(0.3)])
        cfg = PmcConfig(20, 3, kernel, inner_draws, informed_assignment_builder(spec))
        for gen in run_pmc(model, dmm_init_proposal(spec), cfg, RandomSource(4)):
            (weights, labels), _ = gen.sample_set.aligned()
            # one global value and one value per block at a time
            per_point = [
                float(model.data_log_likelihood((w, z), values))
                for w, z, values in zip(weights, labels, gen.sample_set.points)
            ]
            assert gen.best_log_likelihood == max(per_point)

    def test_combination_cap_applies_before_any_block_evaluation(self, monkeypatch):
        ds = make_synthetic("gaussian", (-2.0, 2.0), 7, count=20)
        spec = DmmSpec(ds.observations)
        model, calls = _counting_likelihoods(dmm_model(spec))
        init = dmm_init_proposal(spec)
        monkeypatch.setattr(factorized, "MAX_UNCAPPED_COMBINATIONS", 10)
        cfg = PmcConfig(population_size=4, generations=1, kernel=GaussianKernel(0.25), inner_draws=4)
        with pytest.raises(InflationBudgetError):
            run_pmc(model, init, cfg, RandomSource(0))  # one outer draw emits 4^2 = 16 > 10
        assert calls == []


class TestResamplingLaw:
    def test_resampled_population_preserves_weighted_mean(self):
        density = DiagGaussian(0.0, 2.0)
        model = scalar_block_model(density.log_density_each)
        init = FactorizedProposal(block_proposals=(DiagGaussian(1.0, 4.0),))
        h = TestFunction.identity(1)
        gens = run_pmc(model, init, PmcConfig(50, 1, GaussianKernel(0.3)), RandomSource(8), h)
        gen_set = gens[0].sample_set
        target = self_normalized_estimate(gen_set, h)[0]
        from infmc.estimators import resample

        rng = RandomSource(80)
        reps = 10**4
        means = np.empty(reps)
        for r in range(reps):
            means[r] = np.mean([p[0] for p in resample(gen_set, 50, rng)])
        stderr = means.std(ddof=1) / np.sqrt(reps)
        assert abs(means.mean() - target) < 3 * stderr


class TestTraceMetrics:
    def _toy_generations(self, generations=3):
        density = DiagGaussian(0.0, 2.0)
        model = scalar_block_model(density.log_density_each)
        init = FactorizedProposal(block_proposals=(DiagGaussian(0.0, 4.0),))
        cfg = PmcConfig(30, generations, GaussianKernel(0.3))
        return run_pmc(model, init, cfg, RandomSource(21), TestFunction.identity(1))

    def test_single_generation_series(self):
        trace = trace_metrics(self._toy_generations(1), np.zeros(1))
        assert len(trace) == 1
        assert trace.best_log_likelihood.shape == (1,)
        assert np.isfinite(trace.estimate_error).all()

    def test_identical_generations_give_constant_series(self):
        gens = self._toy_generations(1)
        clones = [gens[0], gens[0], gens[0]]
        trace = trace_metrics(clones, np.zeros(1))
        assert np.all(trace.best_log_likelihood == trace.best_log_likelihood[0])
        assert np.all(trace.estimate_error == trace.estimate_error[0])

    def test_best_so_far_is_monotone(self):
        trace = trace_metrics(self._toy_generations(4), np.zeros(1))
        assert np.all(np.diff(trace.best_log_likelihood_so_far) >= 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            trace_metrics([], np.zeros(1))
