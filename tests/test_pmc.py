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
from infmc.models import DmmSpec, component_means_function, dmm_init_proposal, dmm_model, make_synthetic
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


def block_value_function(dim=1):
    return TestFunction.from_pointwise(lambda p: [float(v) for v in p.block_values], dim)


class TestKernels:
    def test_gaussian_kernel_centers(self):
        prop = GaussianKernel(0.5).at(1.5)
        assert isinstance(prop, DiagGaussian)
        assert prop.mean == 1.5
        assert prop.var == 0.25

    def test_gamma_kernel_moment_matched(self):
        prop = GammaKernel(0.3).at(4.0)
        assert isinstance(prop, Gamma)
        assert prop.shape * prop.scale == pytest.approx(4.0)  # mean at the center
        assert np.sqrt(prop.shape) * prop.scale / (prop.shape * prop.scale) == pytest.approx(0.3)

    def test_variance_kernel_mean_and_cv(self):
        prop = VarianceKernel(0.3).at(2.0)
        assert isinstance(prop, ScalarInverseWishart)
        shape = prop.df / 2.0
        rate = prop.scale_sq / 2.0
        assert rate / (shape - 1.0) == pytest.approx(2.0)  # inverse-gamma mean
        assert 1.0 / np.sqrt(shape - 2.0) == pytest.approx(0.3)

    def test_tuple_kernel_builds_parts(self):
        kernel = TupleKernel([GaussianKernel(0.1), GammaKernel(0.2)])
        prop = kernel.at((0.5, 3.0))
        value = prop.sample(RandomSource(0))
        assert len(value) == 2
        assert np.isfinite(prop.log_density(value))

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
        h = block_value_function()
        gens = run_pmc(model, init, cfg, RandomSource(55), h)
        direct = plain_factorized_sampler(model, init, 40, RandomSource(55))
        assert len(gens) == 1
        assert np.array_equal(gens[0].sample_set.log_weights, direct.log_weights)
        expected = self_normalized_estimate(direct, h).value
        assert np.array_equal(gens[0].cumulative_estimate.value, expected)

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
        gens = run_pmc(model, init, cfg, RandomSource(2), block_value_function())
        assert np.all(gens[0].sample_set.log_weights == 0.0)
        resampled = [p.block_values[0] for p in gens[0].resampled_points]
        original = [p.block_values[0] for p in gens[0].sample_set.points]
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
        h = block_value_function()
        root = RandomSource(314)
        hits = 0
        for r in range(50):
            gens = run_pmc(model, init, cfg, root.child(r), h)
            estimate = pooled_estimate(gens, h).value[0]
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
            assert np.array_equal(ga.cumulative_estimate.value, gb.cumulative_estimate.value)
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
        h = block_value_function()
        gens = run_pmc(model, init, PmcConfig(50, 1, GaussianKernel(0.3)), RandomSource(8), h)
        gen_set = gens[0].sample_set
        target = self_normalized_estimate(gen_set, h).value[0]
        from infmc.estimators import resample

        rng = RandomSource(80)
        reps = 10**4
        means = np.empty(reps)
        for r in range(reps):
            means[r] = np.mean([p.block_values[0] for p in resample(gen_set, 50, rng)])
        stderr = means.std(ddof=1) / np.sqrt(reps)
        assert abs(means.mean() - target) < 3 * stderr


class TestTraceMetrics:
    def _toy_generations(self, generations=3):
        density = DiagGaussian(0.0, 2.0)
        model = scalar_block_model(density.log_density_each)
        init = FactorizedProposal(block_proposals=(DiagGaussian(0.0, 4.0),))
        cfg = PmcConfig(30, generations, GaussianKernel(0.3))
        return run_pmc(model, init, cfg, RandomSource(21), block_value_function())

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
