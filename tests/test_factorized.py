import dataclasses
import functools
import itertools
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from infmc.distributions import DiagGaussian, Gamma
from infmc.estimators import (
    DegenerateWeightsError,
    SampleSet,
    TestFunction,
    evidence_estimate,
    resample,
    self_normalized_estimate,
    union_decomposition,
)
from infmc.experiments import _counting_likelihoods
from infmc.factorized import (
    FactorizedModel,
    FactorizedProposal,
    GroupedSampleSet,
    InflationBudgetError,
    grouped_inflate,
    inflate,
    plain_factorized_sampler,
    recombine,
    weigh,
)
from infmc.models import (
    DmmSpec,
    MixtureAssignmentProposal,
    GaussianToy,
    dmm_init_proposal,
    dmm_model,
    make_synthetic,
)
from infmc.pmc import GammaKernel, GaussianKernel, PmcConfig, TupleKernel, VarianceKernel, _kernel_proposal, run_pmc
from infmc.rng import RandomSource


def priors_only_model(num_blocks=2, offset=0.0):
    density = DiagGaussian(0.0, 1.0)
    return FactorizedModel(
        num_blocks=num_blocks,
        global_log_prior=lambda phi: 0.0,
        block_log_priors=(density.log_density_each,) * num_blocks,
        block_log_likelihoods=(lambda phi, g: np.zeros(np.shape(g)),) * num_blocks,
        log_evidence_offset=offset,
    )


def two_block_data_model(shift=0.5):
    """Two blocks, three observations split 2/1, with a global scalar."""
    data = (np.array([0.3, -0.7]), np.array([1.4]))
    prior = DiagGaussian(0.0, 1.0)

    def make_lik(j):
        obs = data[j]
        # phi and g are aligned: one of each, or batches along the first axis
        return lambda phi, g: -0.5 * np.sum((obs - np.asarray(phi * shift + g)[..., None]) ** 2, axis=-1)

    return FactorizedModel(
        num_blocks=2,
        global_log_prior=prior.log_density_each,
        block_log_priors=(prior.log_density_each,) * 2,
        block_log_likelihoods=tuple(make_lik(j) for j in range(2)),
        log_evidence_offset=-3.25,
    )


def joint_rows(sample_set):
    """Each combination's scalar global value and tuple of block values, in
    the set's order."""
    global_values, block_values = sample_set.aligned()
    return zip(global_values, zip(*block_values))


def gaussian_proposal(num_blocks=2, with_global=False, center=0.0):
    return FactorizedProposal(
        block_proposals=tuple(DiagGaussian(center, 2.0) for _ in range(num_blocks)),
        global_proposal=DiagGaussian(0.0, 2.0) if with_global else None,
    )


class TestModelAndProposalShapes:
    @pytest.mark.parametrize(
        "num_blocks, priors, likelihoods, problem",
        [
            (0, 0, 0, "at least one block"),
            (2, 1, 2, "one block prior per block"),
            (2, 2, 3, "one block likelihood per block"),
        ],
    )
    def test_model_block_counts_must_agree(self, num_blocks, priors, likelihoods, problem):
        prior, lik = DiagGaussian(0.0, 1.0).log_density_each, lambda phi, g: np.zeros(np.shape(g))
        with pytest.raises(ValueError, match=problem):
            FactorizedModel(num_blocks, lambda phi: 0.0, (prior,) * priors, (lik,) * likelihoods)

    def test_proposal_needs_a_block(self):
        with pytest.raises(ValueError, match="at least one block"):
            FactorizedProposal(block_proposals=())


class TestPlainSampler:
    @pytest.mark.parametrize("sampler", ["plain", "grouped_inflate"])
    def test_model_equals_proposal_gives_zero_weights(self, sampler):
        density = DiagGaussian(0.0, 1.0)
        model = FactorizedModel(
            num_blocks=2,
            global_log_prior=lambda phi: 0.0,
            block_log_priors=(density.log_density_each,) * 2,
            block_log_likelihoods=(lambda phi, g: np.zeros(np.shape(g)),) * 2,
        )
        prop = FactorizedProposal(block_proposals=(density, density))
        if sampler == "plain":
            drawn = plain_factorized_sampler(model, prop, 20, RandomSource(5))
        else:
            drawn = grouped_inflate(density.sample_batch(RandomSource(5), (200, 2)), 100, model, prop)
        assert np.all(drawn.log_weights == 0.0)
        assert drawn.log_evidence() == 0.0  # unit weights, exactly

    def test_single_block_reduces_to_plain_importance_sampling(self):
        model = two_block_data_model()
        single = FactorizedModel(
            num_blocks=1,
            global_log_prior=model.global_log_prior,
            block_log_priors=model.block_log_priors[:1],
            block_log_likelihoods=model.block_log_likelihoods[:1],
            log_evidence_offset=model.log_evidence_offset,
        )
        prop = gaussian_proposal(1, with_global=True)
        drawn = plain_factorized_sampler(single, prop, 25, RandomSource(8))
        for (phi, values), lw in zip(joint_rows(drawn), drawn.log_weights):
            direct = single.joint_log_density(phi, values)
            direct -= prop.joint_log_density(phi, values)
            assert lw == pytest.approx(direct, abs=1e-12)

    def test_weights_match_monolithic_density_oracle(self):
        model = two_block_data_model()
        prop = gaussian_proposal(2, with_global=True)
        drawn = plain_factorized_sampler(model, prop, 30, RandomSource(9))
        for (phi, (g1, g2)), lw in zip(joint_rows(drawn), drawn.log_weights):
            # unfactorized joint evaluated directly
            joint = (
                DiagGaussian(0.0, 1.0).log_density(phi)
                + DiagGaussian(0.0, 1.0).log_density(g1)
                + DiagGaussian(0.0, 1.0).log_density(g2)
                + float(-0.5 * np.sum((np.array([0.3, -0.7]) - (phi * 0.5 + g1)) ** 2))
                + float(-0.5 * np.sum((np.array([1.4]) - (phi * 0.5 + g2)) ** 2))
                - 3.25
            )
            log_q = prop.joint_log_density(phi, (g1, g2))
            assert lw == pytest.approx(joint - log_q, abs=1e-12)

    def test_counts_block_evaluations(self):
        model, counts = _counting_likelihoods(two_block_data_model())
        drawn = plain_factorized_sampler(model, gaussian_proposal(2, True), 7, RandomSource(1))
        assert sum(counts) == 7 * 2
        assert len(drawn) == 7


class TestInflate:
    def test_single_inner_draw_matches_plain_sampler(self):
        model = two_block_data_model()
        prop = gaussian_proposal(2, with_global=True)
        plain = plain_factorized_sampler(model, prop, 6, RandomSource(77))
        inflated = inflate(model, prop, 6, 1, RandomSource(77))
        assert len(inflated) == 6
        assert np.array_equal(plain.points, inflated.points)
        assert np.array_equal(plain.aligned()[0], inflated.aligned()[0])
        assert np.array_equal(plain.log_weights, inflated.log_weights)

    def test_two_by_two_emits_four_lexicographic_combinations(self):
        model, counts = _counting_likelihoods(priors_only_model(2))
        prop = gaussian_proposal(2)
        drawn = inflate(model, prop, 1, 2, RandomSource(3))
        assert len(drawn) == 4
        assert counts == [2, 2]  # one call per block, on both of its inner draws
        b0, b1 = drawn.points.T
        # lexicographic index order: (0,0), (0,1), (1,0), (1,1)
        assert b0[0] == b0[1] and b0[2] == b0[3] and b0[0] != b0[2]
        assert b1[0] == b1[2] and b1[1] == b1[3] and b1[0] != b1[1]

    def test_sample_and_eval_counts(self):
        model, counts = _counting_likelihoods(priors_only_model(2))
        drawn = inflate(model, gaussian_proposal(2), 5, 3, RandomSource(0))
        assert len(drawn) == 5 * 3**2 == 45
        assert sum(counts) == 5 * 3 * 2 == 30

    def test_eval_budget_sample_multiplier(self):
        # at the same block-eval budget the recombining sampler emits
        # inner_draws**(num_blocks-1) times more samples
        prop = gaussian_proposal(2, with_global=True)
        budget = 24
        plain_model, plain_counts = _counting_likelihoods(two_block_data_model())
        infl_model, infl_counts = _counting_likelihoods(two_block_data_model())
        plain = plain_factorized_sampler(plain_model, prop, budget // 2, RandomSource(4))
        inflated = inflate(infl_model, prop, budget // (2 * 3), 3, RandomSource(4))
        assert sum(plain_counts) == sum(infl_counts) == budget
        assert len(inflated) == len(plain) * 3 ** (2 - 1)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_cached_weights_match_monolithic_oracle(self, seed):
        rng = RandomSource(seed)
        g = rng.generator
        k = int(g.integers(1, 4))
        data = [g.standard_normal(int(g.integers(1, 5))) for _ in range(k)]
        shift = float(g.normal())
        prior = DiagGaussian(0.0, 1.0)

        def make_lik(j):
            obs = data[j]
            return lambda phi, gam: -0.5 * np.sum((obs - np.asarray(phi * shift + gam)[..., None]) ** 2, axis=-1)

        model, counts = _counting_likelihoods(
            FactorizedModel(
                num_blocks=k,
                global_log_prior=prior.log_density_each,
                block_log_priors=(prior.log_density_each,) * k,
                block_log_likelihoods=tuple(make_lik(j) for j in range(k)),
                log_evidence_offset=float(g.normal()),
            )
        )
        prop = FactorizedProposal(
            block_proposals=tuple(DiagGaussian(float(g.normal()), 2.0) for _ in range(k)),
            global_proposal=DiagGaussian(0.0, 2.0),
        )
        outer, inner = int(g.integers(1, 4)), int(g.integers(1, 4))
        drawn = inflate(model, prop, outer, inner, rng)
        assert sum(counts) == outer * inner * k
        for (phi, values), lw in zip(joint_rows(drawn), drawn.log_weights):
            oracle = model.joint_log_density(phi, values)
            oracle -= prop.joint_log_density(phi, values)
            assert lw == pytest.approx(oracle, abs=1e-12)

    def test_refuses_huge_uncapped_enumeration(self):
        # recombine draws the 10**10 combinations cheaply; only enumerating them is refused
        drawn = inflate(priors_only_model(2), gaussian_proposal(2), 1, 100000, RandomSource(0))
        assert drawn.size == 10**10
        with pytest.raises(InflationBudgetError):
            drawn.materialize()
        with pytest.raises(InflationBudgetError):
            drawn.points

    def test_thirty_two_blocks_with_a_global_block_contract_by_hand(self):
        # 4 * 10**32 combinations, far beyond len()'s 2**63 - 1: every sum is written out per block
        k, outer, inner = 32, 4, 10
        y = RandomSource(3).generator.normal(size=k)
        prior, mu_prior = DiagGaussian(0.0, 1.0), DiagGaussian(0.0, 4.0)
        lik = lambda j: lambda mu, theta: -0.5 * (y[j] - theta - mu) ** 2  # N(y_j | theta_j + mu, 1), unnormalized
        model = FactorizedModel(
            num_blocks=k,
            global_log_prior=mu_prior.log_density_each,
            block_log_priors=(prior.log_density_each,) * k,
            block_log_likelihoods=tuple(lik(j) for j in range(k)),
            log_evidence_offset=-7.5,
        )
        mu_prop = DiagGaussian(0.5, 1.5)
        prop = FactorizedProposal(tuple(DiagGaussian(y[j], 2.0) for j in range(k)), global_proposal=mu_prop)
        drawn = recombine(model, prop, outer, inner, RandomSource(4))
        assert drawn.size == outer * inner**k
        with pytest.raises(InflationBudgetError):
            drawn.materialize()

        def log_normal(x, mean, var):
            return -0.5 * (np.log(2 * np.pi * var) + (x - mean) ** 2 / var)

        mu, x = drawn.global_values, drawn.values  # (outer,) and (outer, k, inner)
        base = log_normal(mu, 0.0, 4.0) - 7.5 - log_normal(mu, 0.5, 1.5)
        c = log_normal(x, 0.0, 1.0) - 0.5 * (y[:, None] - x - mu[:, None, None]) ** 2 - log_normal(x, y[:, None], 2.0)
        block_sums = np.logaddexp.reduce(c, axis=2)  # L_gj
        group_sums = base + block_sums.sum(axis=1)  # W_g
        total = np.logaddexp.reduce(group_sums)  # W
        assert drawn.log_weight_sum == pytest.approx(total, abs=1e-12)
        within = np.sum(np.exp(c - block_sums[..., None]) * x, axis=2)  # per group and block
        expected = np.exp(group_sums - total) @ within
        np.testing.assert_allclose(drawn.self_normalized_mean(), expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize(
        "outer_draws, inner_draws, refused",
        [(1, 0, "inner_draws"), (1, -1, "inner_draws"), (0, 1, "outer_draws"), (-1, 2, "outer_draws")],
    )
    def test_draw_counts_below_one_are_refused(self, outer_draws, inner_draws, refused):
        with pytest.raises(ValueError, match=f"{refused} must be >= 1"):
            inflate(priors_only_model(2), gaussian_proposal(2), outer_draws, inner_draws, RandomSource(0))

    @pytest.mark.parametrize("inner_draws", [1, 2])
    def test_block_value_outside_its_proposal_is_refused(self, inner_draws):
        class DrawsZero(Gamma):  # a gamma with shape 2 has zero density at 0
            def sample_batch(self, rng, shape):
                return np.zeros(shape)

        model = priors_only_model(2)
        prop = FactorizedProposal(block_proposals=(DiagGaussian(0.0, 1.0), DrawsZero(2.0, 1.0)))
        with pytest.raises(RuntimeError, match="block 1"):
            inflate(model, prop, 2, inner_draws, RandomSource(0))

    @pytest.mark.parametrize(
        "log_q, error, match", [(-np.inf, RuntimeError, "global block"), (np.nan, ValueError, "NaN")]
    )
    def test_degenerate_global_density_is_refused(self, log_q, error, match):
        class Degenerate(DiagGaussian):  # its density at its own draws is -inf or NaN
            def log_density_each(self, xs):
                return np.full(np.shape(xs), log_q)

        model = dataclasses.replace(priors_only_model(2), global_log_prior=DiagGaussian(0.0, 1.0).log_density_each)
        model, calls = _counting_likelihoods(model)
        prop = dataclasses.replace(gaussian_proposal(2), global_proposal=Degenerate(0.0, 1.0))
        with pytest.raises(error, match=match):
            inflate(model, prop, 3, 2, RandomSource(0))
        if log_q == -np.inf:
            assert calls == []  # refused before any block likelihood is called

    @pytest.mark.parametrize("summed", ["prior", "likelihood", "global prior"])
    def test_evaluator_summing_over_the_values_is_refused(self, summed):
        # a summed term would broadcast to every inner or outer draw and miss the joint density
        model = priors_only_model(2)
        if summed == "prior":
            model = dataclasses.replace(model, block_log_priors=(lambda g: float(np.sum(-0.5 * np.square(g))),) * 2)
        elif summed == "likelihood":
            model = dataclasses.replace(model, block_log_likelihoods=(lambda phi, g: float(np.sum(g)),) * 2)
        else:
            model = dataclasses.replace(model, global_log_prior=lambda phi: float(np.sum(-0.5 * np.square(phi))))
            with pytest.raises(ValueError, match="global block's prior must return one term per outer draw"):
                inflate(model, gaussian_proposal(2, with_global=True), 3, 2, RandomSource(1))
            return
        prop = gaussian_proposal(2)
        with pytest.raises(ValueError, match="one term per value"):
            inflate(model, prop, 1, 2, RandomSource(1))
        with pytest.raises(ValueError, match="one term per value"):
            grouped_inflate(np.zeros((4, 2)), 2, model, prop)

    def test_index_tuple_partition_satisfies_union_decomposition(self):
        # samples sharing a combination index form one iid set per index
        model = two_block_data_model()
        prop = gaussian_proposal(2, with_global=True)
        m, inner = 12, 2
        drawn = inflate(model, prop, m, inner, RandomSource(5))
        per_draw = inner**2
        h = TestFunction.identity(2)
        first = np.arange(m) * per_draw
        points, log_weights = drawn.points, drawn.log_weights
        parts = [SampleSet(points[first + c], log_weights[first + c]) for c in range(per_draw)]
        for kind in ("standard", "self-normalized"):
            estimate, per_set, lambdas = union_decomposition(parts, h, kind)
            assert np.max(np.abs(estimate - lambdas @ per_set)) < 1e-10


class TestRecombineStream:
    """``recombine`` and a kernel generation's proposal make the documented
    generator calls, and weigh each row with its own outer draw's proposal."""

    OUTER = 7

    def _drawn(self, family, proposal, inner_draws):
        """One generation's draws from the prior proposal or a kernel
        proposal, with what made them; ``centers`` is None for the prior."""
        spec = DmmSpec(make_synthetic(family, (-2.0, 2.0), 4, count=40).observations, family)
        if family == "gaussian":
            kernel = GaussianKernel(0.25)
        else:
            kernel = TupleKernel([GaussianKernel(0.25), VarianceKernel(0.3), GammaKernel(0.3)])
        model, init = dmm_model(spec), dmm_init_proposal(spec)
        population = list(recombine(model, init, 6, 1, RandomSource(8)).points)  # (K, ...) block-value rows
        cfg = PmcConfig(self.OUTER, 2, kernel, 1, functools.partial(MixtureAssignmentProposal, spec))
        rng, prop, centers = RandomSource(31), init, None
        if proposal == "kernel":
            prop = _kernel_proposal(cfg, init, population, self.OUTER, rng)
            centers = np.asarray(population)[RandomSource(31).generator.integers(len(population), size=self.OUTER)]
        drawn = recombine(model, prop, self.OUTER, inner_draws, rng)
        return SimpleNamespace(
            spec=spec, model=model, init=init, prop=prop, kernel=kernel, drawn=drawn, rng=rng, centers=centers
        )

    @staticmethod
    def _reference_block(g, spec, centers, shape):
        """Plain numpy: one generator call per part of a block, as documented."""
        if centers is None:  # the prior
            if spec.component_family == "gaussian":
                return g.standard_normal(shape)
            return np.stack([g.standard_t(1.0, shape), 2.5 / g.gamma(0.5, 1.0, shape), g.gamma(1.0, 1.0, shape)], -1)
        if spec.component_family == "gaussian":
            return centers[:, None] + 0.25 * g.standard_normal(shape)
        df = 2.0 * (2.0 + 1.0 / 0.09)
        mean = centers[:, None, 0] + 0.25 * g.standard_normal(shape)
        var = (centers[:, None, 1] * (df - 2.0)) / 2.0 / g.gamma(df / 2.0, 1.0, shape)
        dof = g.gamma(1.0 / 0.09, centers[:, None, 2] * 0.09, shape)
        return np.stack([mean, var, dof], axis=-1)

    @pytest.mark.parametrize("inner_draws", [1, 2])
    @pytest.mark.parametrize("proposal", ["init", "kernel"])
    @pytest.mark.parametrize("family", ["gaussian", "student-t"])
    def test_draws_are_the_documented_generator_calls(self, family, proposal, inner_draws):
        run = self._drawn(family, proposal, inner_draws)
        spec, centers, drawn = run.spec, run.centers, run.drawn
        g, outer = RandomSource(31).generator, self.OUTER
        if centers is not None:
            g.integers(6, size=outer)  # the centers' draw
        weights = g.dirichlet([1.0, 1.0], outer)
        weights[:, -1] = np.maximum(0.0, 1.0 - weights[:, 0])
        uniforms = g.random((outer, spec.data.size))
        blocks = [
            self._reference_block(g, spec, None if centers is None else centers[:, j], (outer, inner_draws))
            for j in range(2)
        ]
        if centers is None:  # ``Generator.choice(p=weights)`` per observation
            cdf = np.cumsum(weights, axis=1) / weights.sum(axis=1, keepdims=True)
            labels = np.array([np.searchsorted(c, u, side="right") for c, u in zip(cdf, uniforms)])
        else:  # the responsibilities under each row's center
            log_r = np.swapaxes(spec.component_log_density_each(spec.data, centers), 1, 2) + np.log(weights)[:, None]
            cdf = np.cumsum(np.exp(log_r - logsumexp(log_r, axis=-1, keepdims=True)), axis=-1)
            labels = np.minimum((uniforms[..., None] > cdf).sum(axis=-1), 1)
        assert np.array_equal(drawn.global_values[0], weights)
        # one byte per label, in the draws and in every combination's aligned batch
        assert drawn.global_values[1].dtype == np.uint8
        assert np.array_equal(drawn.global_values[1], labels)
        aligned_labels = drawn.aligned()[0][1]
        assert aligned_labels.dtype == np.uint8
        assert np.array_equal(aligned_labels, np.repeat(labels, inner_draws**2, axis=0))
        assert np.array_equal(drawn.values, np.stack(blocks, axis=1))
        assert run.rng.generator.bit_generator.state == g.bit_generator.state

    @pytest.mark.parametrize("inner_draws", [1, 2])
    @pytest.mark.parametrize("proposal", ["init", "kernel"])
    @pytest.mark.parametrize("family", ["gaussian", "student-t"])
    def test_each_row_is_weighed_with_its_own_outer_draws_proposal(self, family, proposal, inner_draws):
        run = self._drawn(family, proposal, inner_draws)
        spec, model, drawn, centers = run.spec, run.model, run.drawn, run.centers
        weights, labels = drawn.global_values
        for g in range(self.OUTER):
            phi = (weights[g], labels[g])
            if centers is None:
                block_q = [density.log_density for density in run.init.block_proposals]
                global_q = run.init.global_proposal.log_density(phi)
            else:  # outer draw g's own kernels, as one-row columns, and its own assignment proposal
                row_densities = [run.kernel.at(centers[g:g + 1, j]) for j in range(2)]
                block_q = [lambda v, d=d: d.log_density(np.reshape(v, (1, 1) + np.shape(v))) for d in row_densities]
                global_q = MixtureAssignmentProposal(spec, centers[g]).log_density(phi)
            assert drawn.base[g] == (model.global_log_prior(phi) + model.log_evidence_offset) - global_q
            for j, i in itertools.product(range(2), range(inner_draws)):
                v = drawn.values[g, j, i]
                own = (model.block_log_priors[j](v) + model.block_log_likelihoods[j](phi, v)) - block_q[j](v)
                assert drawn.contributions[g, j, i] == own  # elementwise formulas: bitwise
            for i0, i1 in itertools.product(range(inner_draws), repeat=2):
                values = (drawn.values[g, 0, i0], drawn.values[g, 1, i1])
                oracle = model.joint_log_density(phi, values) - (global_q + block_q[0](values[0]) + block_q[1](values[1]))
                row = (g * inner_draws + i0) * inner_draws + i1
                assert drawn.log_weights[row] == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("inner_draws", [1, 2])
    @pytest.mark.parametrize("proposal", ["init", "kernel"])
    @pytest.mark.parametrize("family", ["gaussian", "student-t"])
    def test_weights_are_weigh_of_the_draws(self, family, proposal, inner_draws):
        run = self._drawn(family, proposal, inner_draws)
        drawn = run.drawn
        weighed = weigh(run.model, run.prop, drawn.global_values, drawn.values)
        assert np.array_equal(drawn.base, weighed.base)
        assert np.array_equal(drawn.contributions, weighed.contributions)


class TestWeigh:
    def test_grouped_inflate_is_weigh_of_its_groups(self):
        toy = GaussianToy(dimension=3)
        model, prop = toy.model(), toy.proposal(-1.0)
        pts = toy.sample_proposal(60, RandomSource(12), -1.0)
        grouped = grouped_inflate(pts, 4, model, prop)
        weighed = weigh(model, prop, None, pts.reshape(15, 4, 3).transpose(0, 2, 1))
        assert np.array_equal(grouped.base, weighed.base)
        assert np.array_equal(grouped.contributions, weighed.contributions)
        assert np.array_equal(grouped.values, weighed.values)

    @pytest.mark.parametrize("shape", [(4, 2), (4, 3, 1)])
    def test_block_values_of_another_shape_are_refused(self, shape):
        with pytest.raises(ValueError, match="block values must be"):
            weigh(priors_only_model(2), gaussian_proposal(2), None, np.zeros(shape))


class TestBatchedBlockScoring:
    def test_one_log_density_each_per_density_and_one_factor_call_per_block(self):
        calls = []

        class Counted(DiagGaussian):
            def log_density_each(self, xs):
                calls.append(("log q", id(self), np.shape(xs)))
                return super().log_density_each(xs)

        def counted(kind, j, evaluator):
            def wrapped(*args):
                calls.append((kind, j, np.shape(args[-1])))
                return evaluator(*args)

            return wrapped

        base = two_block_data_model()
        model = dataclasses.replace(
            base,
            global_log_prior=counted("global prior", None, base.global_log_prior),
            block_log_priors=tuple(counted("prior", j, f) for j, f in enumerate(base.block_log_priors)),
            block_log_likelihoods=tuple(counted("lik", j, f) for j, f in enumerate(base.block_log_likelihoods)),
        )
        outer, inner = 7, 3
        centers = np.linspace(-1.0, 1.0, outer)[:, None]  # one block's kernel centers, a parameter column
        shared, column, glob = Counted(0.5, 2.0), Counted(centers, 2.0), Counted(0.0, 2.0)
        drawn = recombine(model, FactorizedProposal((shared, column), glob), outer, inner, RandomSource(5))
        assert sorted(c[1:] for c in calls if c[0] == "log q") == sorted(
            [(id(glob), (outer,)), (id(shared), (outer, inner)), (id(column), (outer, inner))]
        )
        assert [c for c in calls if c[0] == "global prior"] == [("global prior", None, (outer,))]
        # the model factors take flat rows: perfbench counts evaluations by the first axis
        assert sorted(c for c in calls if c[0] in ("prior", "lik")) == [
            ("lik", 0, (outer * inner,)), ("lik", 1, (outer * inner,)),
            ("prior", 0, (outer * inner,)), ("prior", 1, (outer * inner,)),
        ]
        # each row is weighed with its own outer draw's block-1 parameters
        per_draw = inner**2
        rows, log_weights = list(joint_rows(drawn)), drawn.log_weights
        for g in range(outer):
            prop = FactorizedProposal((DiagGaussian(0.5, 2.0), DiagGaussian(centers[g, 0], 2.0)), DiagGaussian(0.0, 2.0))
            for (phi, values), lw in zip(rows[g * per_draw:(g + 1) * per_draw], log_weights[g * per_draw:]):
                oracle = base.joint_log_density(phi, values) - prop.joint_log_density(phi, values)
                assert lw == pytest.approx(oracle, abs=1e-12)


class TestGroupedInflate:
    def test_paper_scale_counts(self):
        toy = GaussianToy()
        pts = toy.sample_proposal(20000, RandomSource(123))
        inflated = grouped_inflate(pts, 100, toy.model(), toy.proposal())
        assert len(inflated) == 2_000_000

    def test_group_size_one_is_identity(self):
        toy = GaussianToy()
        model, prop = toy.model(), toy.proposal()
        pts = toy.sample_proposal(50, RandomSource(4))
        out = grouped_inflate(pts, 1, model, prop).materialize()
        assert np.array_equal(out.points, pts)
        # same accumulation order as the per-point weight formula
        expected = np.full(50, model.log_evidence_offset)
        for j in range(2):
            expected = expected + (
                model.block_log_priors[j](pts[:, j]) - prop.block_proposals[j].log_density_each(pts[:, j])
            )
        assert np.array_equal(out.log_weights, expected)

    def test_two_draw_group_gives_cartesian_square(self):
        toy = GaussianToy()
        pts = np.array([[1.0, 10.0], [2.0, 20.0]])
        out = grouped_inflate(pts, 2, toy.model(), toy.proposal()).materialize()
        expected = [(1.0, 10.0), (1.0, 20.0), (2.0, 10.0), (2.0, 20.0)]
        assert [tuple(p) for p in out.points] == expected

    def test_points_and_log_weights_read_as_the_materialized_set(self):
        toy = GaussianToy()
        grouped = grouped_inflate(toy.sample_proposal(30, RandomSource(2)), 3, toy.model(), toy.proposal())
        full = grouped.materialize()
        assert np.array_equal(grouped.points, full.points)
        assert np.array_equal(grouped.log_weights, full.log_weights)

    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_weights_match_monolithic_oracle(self, dimension):
        toy = GaussianToy(dimension=dimension)
        model, prop = toy.model(), toy.proposal()
        pts = toy.sample_proposal(40, RandomSource(6))
        out = grouped_inflate(pts, 10, model, prop).materialize()
        assert len(out) == 4 * 10**dimension
        for point, lw in zip(out.points, out.log_weights):
            joint = model.joint_log_density(None, tuple(point))
            log_q = sum(prop.block_proposals[j].log_density(point[j]) for j in range(dimension))
            assert lw == pytest.approx(joint - log_q, abs=1e-12)

    def test_indivisible_group_size_rejected(self):
        toy = GaussianToy()
        pts = toy.sample_proposal(10, RandomSource(0))
        with pytest.raises(ValueError):
            grouped_inflate(pts, 3, toy.model(), toy.proposal())

    @pytest.mark.parametrize("shape", [(10,), (10, 3), (5, 2, 1)])
    def test_points_of_another_shape_are_refused(self, shape):
        toy = GaussianToy()
        with pytest.raises(ValueError, match=re.escape(f"points must be (n, 2), got {shape}")):
            grouped_inflate(np.zeros(shape), 5, toy.model(), toy.proposal())

    @pytest.mark.parametrize("num_blocks", [1, 3])
    def test_proposal_block_count_must_match_model(self, num_blocks):
        """Every caller of the shared block-term function refuses the mismatch."""
        toy = GaussianToy()
        pts = toy.sample_proposal(4, RandomSource(0))
        model, prop = toy.model(), gaussian_proposal(num_blocks)
        calls = [
            lambda: weigh(model, prop, None, pts[:, :, None]),
            lambda: grouped_inflate(pts, 2, model, prop),
            lambda: inflate(model, prop, 2, 2, RandomSource(0)),
            lambda: run_pmc(model, prop, PmcConfig(4, 1, GaussianKernel()), RandomSource(0)),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="disagree on the number of blocks"):
                call()

    def test_global_block_not_supported(self):
        model = two_block_data_model()
        prop = gaussian_proposal(2, with_global=True)
        with pytest.raises(ValueError):
            grouped_inflate(np.zeros((4, 2)), 2, model, prop)

    def test_refuses_huge_output(self):
        toy = GaussianToy()
        pts = toy.sample_proposal(40000, RandomSource(0))
        grouped = grouped_inflate(pts, 20000, toy.model(), toy.proposal())
        assert len(grouped) == 2 * 20000**2
        with pytest.raises(InflationBudgetError):
            grouped.materialize()


def _materialized_oracle(grouped: GroupedSampleSet, dimension: int):
    full = grouped.materialize()
    return (
        self_normalized_estimate(full, TestFunction.identity(dimension)),
        full.log_weight_sum,
        evidence_estimate(full),
    )


class TestGroupedContraction:
    """The factored sums against the enumerated set, at the toy's -1000
    evidence offset."""

    @pytest.mark.parametrize("center", [0.0, -3.0], ids=["centered", "off-center"])
    @pytest.mark.parametrize(
        "dimension, group_size, draws",
        [(1, 1, 200), (1, 10, 200), (1, 100, 200), (2, 1, 200), (2, 10, 200), (2, 100, 200),
         (3, 1, 200), (3, 10, 200), (3, 100, 100), (10, 2, 200)],
    )
    def test_matches_materialized_set(self, dimension, group_size, draws, center):
        toy = GaussianToy(dimension=dimension)
        pts = toy.sample_proposal(draws, RandomSource(17), center)
        grouped = grouped_inflate(pts, group_size, toy.model(), toy.proposal(center))
        estimate, log_weight_sum, log_evidence = _materialized_oracle(grouped, dimension)
        assert grouped.size == len(grouped) == draws // group_size * group_size**dimension
        np.testing.assert_allclose(grouped.self_normalized_mean(), estimate, rtol=1e-12, atol=1e-12)
        assert grouped.log_weight_sum == pytest.approx(log_weight_sum, abs=1e-12)
        assert grouped.log_evidence() == pytest.approx(log_evidence, abs=1e-12)

    @pytest.mark.parametrize("center", [0.0, -3.0], ids=["centered", "off-center"])
    def test_group_size_one_matches_the_plain_estimate(self, center):
        toy = GaussianToy()
        model, prop = toy.model(), toy.proposal(center)
        pts = toy.sample_proposal(500, RandomSource(23), center)
        # the plain weights summed by hand, in the recombined grid's order ((base + c_0) + c_1)
        log_w = model.global_log_prior(None) + model.log_evidence_offset
        for j, density in enumerate(prop.block_proposals):
            prior, lik = model.block_log_priors[j](pts[:, j]), model.block_log_likelihoods[j](None, pts[:, j])
            log_w = log_w + ((prior + lik) - density.log_density_each(pts[:, j]))
        plain = SampleSet(pts, log_w)
        groups_of_one = weigh(model, prop, None, pts[:, :, None]).materialize()
        assert np.array_equal(groups_of_one.points, plain.points)
        assert np.array_equal(groups_of_one.log_weights, plain.log_weights)
        grouped = grouped_inflate(pts, 1, model, prop)
        plain_mean, plain_evidence = self_normalized_estimate(plain, TestFunction.identity(2)), evidence_estimate(plain)
        np.testing.assert_allclose(grouped.self_normalized_mean(), plain_mean, rtol=1e-12, atol=1e-12)
        assert grouped.log_weight_sum == pytest.approx(plain.log_weight_sum, abs=1e-12)
        assert grouped.log_evidence() == pytest.approx(plain_evidence, abs=1e-12)
        # groups of one are the plain set: the mean is estimated on its enumeration, and the
        # evidence's per-group means are its group sums, so both give the plain set's bits
        assert np.array_equal(grouped.self_normalized_mean(), plain_mean)
        assert grouped.log_evidence() == plain_evidence

    @pytest.mark.parametrize("center", [0.0, -3.0], ids=["centered", "off-center"])
    def test_one_group_of_the_whole_budget_is_each_blocks_own_estimate(self, center):
        # full recombination: 20000^2 virtual samples; within one group the
        # other blocks' weight sums cancel, leaving each block's own SNIS
        toy = GaussianToy()
        model, prop = toy.model(), toy.proposal(center)
        pts = toy.sample_proposal(20000, RandomSource(29), center)
        grouped = grouped_inflate(pts, 20000, model, prop)
        assert len(grouped) == 20000**2
        groups_of_one = weigh(model, prop, None, pts[:, :, None])
        base, contrib = groups_of_one.base, groups_of_one.contributions[:, :, 0]
        per_block = [SampleSet(pts[:, [j]], contrib[:, j]) for j in range(2)]
        expected = [self_normalized_estimate(s, TestFunction.identity(1))[0] for s in per_block]
        np.testing.assert_allclose(grouped.self_normalized_mean(), expected, rtol=1e-12, atol=1e-12)
        log_weight_sum = base + per_block[0].log_weight_sum + per_block[1].log_weight_sum
        assert grouped.log_weight_sum == pytest.approx(log_weight_sum, abs=1e-12)
        assert grouped.log_evidence() == pytest.approx(log_weight_sum - 2 * np.log(20000.0), abs=1e-12)
        with pytest.raises(InflationBudgetError):
            grouped.materialize()

    def test_ten_blocks_in_groups_of_100_estimate_without_materializing(self):
        # 2 * 100**10 combinations: beyond len()'s 2**63 - 1, and far beyond the cap
        toy = GaussianToy(dimension=10)
        grouped = grouped_inflate(toy.sample_proposal(200, RandomSource(1)), 100, toy.model(), toy.proposal())
        assert grouped.size == 2 * 100**10
        assert np.all(np.isfinite(grouped.self_normalized_mean()))
        assert np.isfinite(grouped.log_evidence()) and np.isfinite(grouped.log_weight_sum)
        for materialized in ("points", "log_weights"):
            with pytest.raises(InflationBudgetError):
                getattr(grouped, materialized)
        with pytest.raises(InflationBudgetError):
            grouped.materialize()

    def test_empty_set_refuses_estimation(self):
        grouped = GroupedSampleSet(0.0, np.zeros((0, 2, 3)), np.zeros((0, 2, 3)))
        assert grouped.size == 0 and grouped.log_weight_sum == -np.inf
        for estimate in (grouped.self_normalized_mean, grouped.log_evidence):
            with pytest.raises(ValueError, match="non-empty"):
                estimate()

    def test_zero_total_weight_is_degenerate(self):
        contrib = np.full((2, 2, 3), -np.inf)
        grouped = GroupedSampleSet(-1000.0, contrib, np.ones_like(contrib))
        assert grouped.log_weight_sum == -np.inf
        with pytest.raises(DegenerateWeightsError):
            grouped.self_normalized_mean()

    @pytest.mark.parametrize("block_1_values", ["signed", "zero"])
    def test_a_zero_weight_group_or_block_value_drops_out(self, block_1_values):
        contrib = np.log(np.arange(1.0, 13.0)).reshape(2, 2, 3)
        contrib[0, 1] = -np.inf  # group 0 has zero weight
        contrib[1, 0, 2] = -np.inf
        values = np.linspace(-2.0, 3.0, 12).reshape(2, 2, 3)
        if block_1_values == "zero":
            values[:, 1] = 0.0  # no block-1 term survives, and the estimate is exactly 0
        grouped = GroupedSampleSet(-1000.0, contrib, values)
        estimate, log_weight_sum, _ = _materialized_oracle(grouped, 2)
        np.testing.assert_allclose(grouped.self_normalized_mean(), estimate, rtol=1e-12, atol=1e-12)
        assert grouped.log_weight_sum == pytest.approx(log_weight_sum, abs=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nan_or_positive_infinite_contribution_is_refused(self, bad):
        contrib = np.zeros((2, 2, 3))
        contrib[1, 0, 2] = bad
        with pytest.raises(ValueError, match="NaN or \\+inf"):
            GroupedSampleSet(0.0, contrib, np.ones_like(contrib))

    @pytest.mark.parametrize(
        "contributions, values",
        [((2, 3), (2, 3)), ((2, 2, 3), (2, 2, 4)), ((2, 0, 3), (2, 0, 3)), ((2, 2, 0), (2, 2, 0))],
        ids=["two-axes", "values-mismatch", "no-blocks", "no-draws"],
    )
    def test_contributions_and_values_of_other_shapes_are_refused(self, contributions, values):
        with pytest.raises(ValueError, match=re.escape("contributions must be (groups, K >= 1, n >= 1)")):
            GroupedSampleSet(0.0, np.zeros(contributions), np.zeros(values))


class TestTupleBlocksAndPerGroupBase:
    """The set the object path returns: one base term and one global value
    per group, and blocks whose values are tuples, at a -1000 offset."""

    GROUPS, K, N, PARTS = 3, 2, 4, 3

    def _grouped(self):
        g = np.random.default_rng(12)
        base = -1000.0 + g.normal(size=self.GROUPS)
        contrib = 3.0 * g.normal(size=(self.GROUPS, self.K, self.N))
        values = g.normal(size=(self.GROUPS, self.K, self.N, self.PARTS))
        global_values = (g.random((self.GROUPS, 2)), g.integers(0, 2, (self.GROUPS, 5)))
        return GroupedSampleSet(base, contrib, values, global_values)

    def test_weight_sum_and_evidence_match_the_materialized_set(self):
        grouped = self._grouped()
        full = grouped.materialize()
        assert full.points.shape == (self.GROUPS * self.N**self.K, self.K, self.PARTS)
        assert grouped.log_weight_sum == pytest.approx(full.log_weight_sum, abs=1e-12)
        assert grouped.log_evidence() == pytest.approx(evidence_estimate(full), abs=1e-12)

    def test_combinations_are_enumerated_in_lexicographic_order(self):
        grouped = self._grouped()
        points, log_weights = grouped.points, grouped.log_weights
        (weights, labels), blocks = grouped.aligned()
        for g, i, k in itertools.product(range(self.GROUPS), range(self.N), range(self.N)):
            row = (g * self.N + i) * self.N + k
            assert np.array_equal(points[row], [grouped.values[g, 0, i], grouped.values[g, 1, k]])
            assert log_weights[row] == (grouped.base[g] + grouped.contributions[g, 0, i]) + grouped.contributions[g, 1, k]
            assert np.array_equal(weights[row], grouped.global_values[0][g])
            assert np.array_equal(labels[row], grouped.global_values[1][g])
        for j, values in enumerate(blocks):
            assert np.array_equal(values, points[:, j])

    def test_contracted_mean_refuses_tuple_blocks(self):
        with pytest.raises(ValueError, match="scalar blocks"):
            self._grouped().self_normalized_mean()

    def test_base_must_be_one_term_or_one_per_group(self):
        with pytest.raises(ValueError, match="one term per group"):
            GroupedSampleSet(np.zeros(2), np.zeros((3, 2, 4)), np.zeros((3, 2, 4)))

    def test_resampling_draws_what_the_materialized_set_draws(self):
        model = two_block_data_model()
        drawn = inflate(model, gaussian_proposal(2, with_global=True), 6, 3, RandomSource(9))
        full = drawn.materialize()
        factored = resample(drawn, 40, RandomSource(10))
        enumerated = resample(full, 40, RandomSource(10))
        assert np.array_equal(np.array(factored), np.array(enumerated))


class TestInflatedEstimatesConverge:
    def test_median_error_shrinks_with_draw_budget(self):
        toy = GaussianToy()
        model, prop = toy.model(), toy.proposal()
        budgets = [100, 1000, 10000]
        root = RandomSource(31)
        errors = np.empty((50, 3))
        for r in range(50):
            for bi, n in enumerate(budgets):
                pts = toy.sample_proposal(n, root.child(r, bi))
                est = grouped_inflate(pts, 100, model, prop).self_normalized_mean()
                errors[r, bi] = np.linalg.norm(est)
        medians = np.median(errors, axis=0)
        assert medians[0] > medians[1] > medians[2]
