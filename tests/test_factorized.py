import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infmc.distributions import DiagGaussian, Gamma
from infmc.estimators import SampleSet, TestFunction, decomposition_residual
from infmc.experiments import _counting_likelihoods
from infmc.factorized import (
    FactorizedModel,
    FactorizedProposal,
    InflationBudgetError,
    block_contributions,
    grouped_inflate,
    inflate,
    plain_factorized_sampler,
)
from infmc.models import GaussianToy
from infmc.pmc import GaussianKernel, PmcConfig, run_pmc
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
        return lambda phi, g: -0.5 * np.sum((obs - (phi * shift + np.asarray(g)[..., None])) ** 2, axis=-1)

    return FactorizedModel(
        num_blocks=2,
        global_log_prior=prior.log_density,
        block_log_priors=(prior.log_density_each,) * 2,
        block_log_likelihoods=tuple(make_lik(j) for j in range(2)),
        log_evidence_offset=-3.25,
    )


def gaussian_proposal(num_blocks=2, with_global=False, center=0.0):
    return FactorizedProposal(
        block_proposals=tuple(DiagGaussian(center, 2.0) for _ in range(num_blocks)),
        global_proposal=DiagGaussian(0.0, 2.0) if with_global else None,
    )


class TestPlainSampler:
    def test_model_equals_proposal_gives_zero_weights(self):
        density = DiagGaussian(0.0, 1.0)
        model = FactorizedModel(
            num_blocks=2,
            global_log_prior=lambda phi: 0.0,
            block_log_priors=(density.log_density_each,) * 2,
            block_log_likelihoods=(lambda phi, g: np.zeros(np.shape(g)),) * 2,
        )
        prop = FactorizedProposal(block_proposals=(density, density))
        drawn = plain_factorized_sampler(model, prop, 20, RandomSource(5))
        assert np.all(drawn.log_weights == 0.0)

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
        for point, lw in zip(drawn.points, drawn.log_weights):
            direct = single.joint_log_density(point.global_value, point.block_values)
            direct -= prop.joint_log_density(point)
            assert lw == pytest.approx(direct, abs=1e-12)

    def test_weights_match_monolithic_density_oracle(self):
        model = two_block_data_model()
        prop = gaussian_proposal(2, with_global=True)
        drawn = plain_factorized_sampler(model, prop, 30, RandomSource(9))
        for point, lw in zip(drawn.points, drawn.log_weights):
            phi, (g1, g2) = point.global_value, point.block_values
            # unfactorized joint evaluated directly
            joint = (
                DiagGaussian(0.0, 1.0).log_density(phi)
                + DiagGaussian(0.0, 1.0).log_density(g1)
                + DiagGaussian(0.0, 1.0).log_density(g2)
                + float(-0.5 * np.sum((np.array([0.3, -0.7]) - (phi * 0.5 + g1)) ** 2))
                + float(-0.5 * np.sum((np.array([1.4]) - (phi * 0.5 + g2)) ** 2))
                - 3.25
            )
            log_q = prop.joint_log_density(point)
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
        for a, b in zip(plain.points, inflated.points):
            assert a == b
        assert np.array_equal(plain.log_weights, inflated.log_weights)

    def test_two_by_two_emits_four_lexicographic_combinations(self):
        model, counts = _counting_likelihoods(priors_only_model(2))
        prop = gaussian_proposal(2)
        drawn = inflate(model, prop, 1, 2, RandomSource(3))
        assert len(drawn) == 4
        assert counts == [2, 2]  # one call per block, on both of its inner draws
        b0 = [p.block_values[0] for p in drawn.points]
        b1 = [p.block_values[1] for p in drawn.points]
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
            return lambda phi, gam: -0.5 * np.sum((obs - (phi * shift + np.asarray(gam)[..., None])) ** 2, axis=-1)

        model, counts = _counting_likelihoods(
            FactorizedModel(
                num_blocks=k,
                global_log_prior=prior.log_density,
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
        for point, lw in zip(drawn.points, drawn.log_weights):
            oracle = model.joint_log_density(point.global_value, point.block_values)
            oracle -= prop.joint_log_density(point)
            assert lw == pytest.approx(oracle, abs=1e-12)

    def test_refuses_huge_uncapped_enumeration(self):
        model = priors_only_model(2)
        with pytest.raises(InflationBudgetError):
            inflate(model, gaussian_proposal(2), 1, 100000, RandomSource(0))

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
            def sample(self, rng):
                return 0.0

        model = priors_only_model(2)
        prop = FactorizedProposal(block_proposals=(DiagGaussian(0.0, 1.0), DrawsZero(2.0, 1.0)))
        with pytest.raises(RuntimeError, match="block 1"):
            inflate(model, prop, 2, inner_draws, RandomSource(0))

    @pytest.mark.parametrize("summed", ["prior", "likelihood"])
    def test_evaluator_summing_over_the_values_is_refused(self, summed):
        # a summed term would broadcast to every inner draw and miss the joint density
        model = priors_only_model(2)
        if summed == "prior":
            model = dataclasses.replace(model, block_log_priors=(DiagGaussian(0.0, 1.0).log_density,) * 2)
        else:
            model = dataclasses.replace(model, block_log_likelihoods=(lambda phi, g: float(np.sum(g)),) * 2)
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
        h = TestFunction.from_pointwise(lambda p: [p.block_values[0], p.block_values[1]], 2)
        first = np.arange(m) * per_draw
        parts = [SampleSet(drawn.points[first + c], drawn.log_weights[first + c]) for c in range(per_draw)]
        for kind in ("standard", "self-normalized"):
            assert decomposition_residual(parts, h, kind) < 1e-10


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
        out = grouped_inflate(pts, 1, model, prop)
        assert np.array_equal(np.asarray(out.points), pts)
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
        out = grouped_inflate(pts, 2, toy.model(), toy.proposal())
        expected = [(1.0, 10.0), (1.0, 20.0), (2.0, 10.0), (2.0, 20.0)]
        assert [tuple(p) for p in np.asarray(out.points)] == expected

    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_weights_match_monolithic_oracle(self, dimension):
        toy = GaussianToy(dimension=dimension)
        model, prop = toy.model(), toy.proposal()
        pts = toy.sample_proposal(40, RandomSource(6))
        out = grouped_inflate(pts, 10, model, prop)
        assert len(out) == 4 * 10**dimension
        for point, lw in zip(np.asarray(out.points), out.log_weights):
            joint = model.joint_log_density(None, tuple(point))
            log_q = sum(prop.block_proposals[j].log_density(point[j]) for j in range(dimension))
            assert lw == pytest.approx(joint - log_q, abs=1e-12)

    def test_indivisible_group_size_rejected(self):
        toy = GaussianToy()
        pts = toy.sample_proposal(10, RandomSource(0))
        with pytest.raises(ValueError):
            grouped_inflate(pts, 3, toy.model(), toy.proposal())

    @pytest.mark.parametrize("num_blocks", [1, 3])
    def test_proposal_block_count_must_match_model(self, num_blocks):
        """Every caller of the shared block-term function refuses the mismatch."""
        toy = GaussianToy()
        pts = toy.sample_proposal(4, RandomSource(0))
        model, prop = toy.model(), gaussian_proposal(num_blocks)
        calls = [
            lambda: block_contributions(model, prop, pts),
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
        with pytest.raises(InflationBudgetError):
            grouped_inflate(pts, 20000, toy.model(), toy.proposal())


class TestInflatedEstimatesConverge:
    def test_median_error_shrinks_with_draw_budget(self):
        from infmc.estimators import SampleSet, self_normalized_estimate

        toy = GaussianToy()
        model, prop = toy.model(), toy.proposal()
        h = TestFunction.identity(2)
        budgets = [100, 1000, 10000]
        root = RandomSource(31)
        errors = np.empty((50, 3))
        for r in range(50):
            for bi, n in enumerate(budgets):
                pts = toy.sample_proposal(n, root.child(r, bi))
                inflated = grouped_inflate(pts, 100, model, prop)
                est = self_normalized_estimate(inflated, h).value
                errors[r, bi] = np.linalg.norm(est)
        medians = np.median(errors, axis=0)
        assert medians[0] > medians[1] > medians[2]
