import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp

from infmc import models
from infmc.distributions import LOG_TWO_PI, DiagGaussian, Dirichlet
from infmc.factorized import recombine
from infmc.models import (
    DmmSpec,
    GaussianToy,
    MixtureAssignmentProposal,
    component_means_function,
    dmm_init_proposal,
    dmm_model,
    make_synthetic,
)
from infmc.rng import RandomSource


class TestGaussianToy:
    def test_joint_at_origin(self):
        model = GaussianToy().model()
        expected = 2 * (-0.5 * np.log(4 * np.pi)) - 1000.0
        assert model.joint_log_density(None, (0.0, 0.0)) == pytest.approx(expected, abs=1e-10)

    def test_additive_decomposition_at_random_points(self):
        model = GaussianToy().model()
        rng = np.random.default_rng(0)
        density = DiagGaussian(0.0, 2.0)
        for point in rng.normal(size=(100, 2)):
            expected = (
                density.log_density(point[0]) + density.log_density(point[1]) - 1000.0
            )
            assert model.joint_log_density(None, tuple(point)) == pytest.approx(expected, abs=1e-12)

    def test_quadrature_recovers_log_evidence(self):
        model = GaussianToy().model()
        xs = np.linspace(-10.0, 10.0, 2001)
        each = model.block_log_priors[0](xs)
        joint = each[:, None] + each[None, :] + model.log_evidence_offset
        dx = xs[1] - xs[0]
        log_mass = logsumexp(joint) + 2 * np.log(dx)
        assert abs(log_mass - (-1000.0)) < np.log(1.001)

    def test_proposal_is_heavier_tailed_product_t(self):
        toy = GaussianToy()
        prop = toy.proposal(center=(5.0, 5.0))
        assert len(prop.block_proposals) == 2
        assert prop.block_proposals[0].loc == 5.0
        assert prop.block_proposals[0].df == 20.0
        assert prop.block_proposals[0].scale == pytest.approx(np.sqrt(2.0))

    def test_batched_proposal_matches_blocks(self):
        toy = GaussianToy()
        pts = toy.sample_proposal(1000, RandomSource(9), center=(1.0, -1.0))
        assert pts.shape == (1000, 2)
        assert abs(np.median(pts[:, 0]) - 1.0) < 0.2
        assert abs(np.median(pts[:, 1]) + 1.0) < 0.2

    def test_rejects_invalid_parameters(self):
        for field, value in [("variance", 0.0), ("variance", -2.0), ("proposal_df", 0.0), ("dimension", 0)]:
            with pytest.raises(ValueError):
                GaussianToy(**{field: value})


def small_spec(family="gaussian"):
    return DmmSpec(np.array([-1.9, -2.2, 2.1]), family)


class TestDmmModel:
    def test_unknown_component_family_is_refused(self):
        with pytest.raises(ValueError, match="unknown component family 'cauchy'"):
            small_spec("cauchy")

    def test_empty_component_contributes_nothing(self):
        spec = small_spec()
        model = dmm_model(spec)
        phi = (np.array([0.5, 0.5]), np.zeros(3, dtype=int))
        assert model.block_log_likelihoods[1](phi, 0.0) == 0.0
        assert model.block_log_likelihoods[1](phi, 123.4) == 0.0

    def test_joint_matches_direct_mixture_evaluation(self):
        spec = small_spec()
        model = dmm_model(spec)
        weights = np.array([0.3, 0.7])
        labels = np.array([0, 0, 1])
        means = (-2.0, 2.0)
        direct = (
            np.log(1.0)  # Dirichlet(1,1) density on the simplex
            + np.sum(np.log(weights[labels]))
            + DiagGaussian(0.0, 1.0).log_density(-2.0)
            + DiagGaussian(0.0, 1.0).log_density(2.0)
            - 0.5 * np.sum(LOG_TWO_PI + (spec.data[:2] - means[0]) ** 2)
            - 0.5 * np.sum(LOG_TWO_PI + (spec.data[2:] - means[1]) ** 2)
        )
        assert model.joint_log_density((weights, labels), means) == pytest.approx(direct, abs=1e-12)

    def test_relabeling_symmetry(self):
        spec = small_spec()
        model = dmm_model(spec)
        weights = np.array([0.3, 0.7])
        labels = np.array([0, 1, 1])
        blocks = (-1.5, 1.5)
        swapped = model.joint_log_density((weights[::-1], 1 - labels), blocks[::-1])
        assert model.joint_log_density((weights, labels), blocks) == pytest.approx(swapped, abs=1e-12)

    def test_student_t_variant_joint(self):
        spec = small_spec("student-t")
        model = dmm_model(spec)
        weights = np.array([0.6, 0.4])
        labels = np.array([0, 0, 1])
        blocks = ((-2.0, 1.5, 10.0), (2.0, 0.5, 3.0))
        value = model.joint_log_density((weights, labels), blocks)
        assert np.isfinite(value)
        prior = spec.component_prior()
        expected = (
            np.sum(np.log(weights[labels]))
            + prior.log_density(blocks[0])
            + prior.log_density(blocks[1])
            + np.sum(spec.component_log_density_each(spec.data[:2], blocks[0]))
            + np.sum(spec.component_log_density_each(spec.data[2:], blocks[1]))
        )
        assert value == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("family", ["gaussian", "student-t"])
    def test_batched_block_likelihood_equals_the_compacted_subset_sum(self, family):
        spec = DmmSpec(make_synthetic(family, (-2.0, 2.0), 4, count=40), family)
        model = dmm_model(spec)
        rng = np.random.default_rng(9)
        rows = 25
        weights = rng.dirichlet((1.0, 1.0), size=rows)
        labels = rng.integers(0, 2, size=(rows, spec.data.size))
        labels[0], labels[1] = 0, 1  # a component that no label names
        if family == "gaussian":
            params = rng.normal(0.0, 2.0, rows)
        else:
            params = np.stack([rng.normal(0.0, 2.0, rows), rng.gamma(2.0, 1.0, rows), rng.gamma(2.0, 5.0, rows)], -1)
        for j in range(2):
            batched = model.block_log_likelihoods[j]((weights, labels), params)
            assert batched.shape == (rows,)
            for row in range(rows):
                subset = spec.data[labels[row] == j]
                expected = spec.component_log_density_each(subset, params[row]).sum(axis=-1)
                assert batched[row] == pytest.approx(expected, rel=0.0, abs=1e-12)
            assert batched[1 - j] == 0.0  # an empty product, exactly

    def test_invalid_labels_have_zero_density(self):
        spec = small_spec()
        model = dmm_model(spec)
        assert model.global_log_prior((np.array([0.5, 0.5]), np.array([0, 1, 2]))) == -np.inf

    def test_marginal_likelihood_matches_direct_sum(self):
        spec = small_spec()
        weights = np.array([0.25, 0.75])
        means = (-2.0, 2.0)
        direct = sum(
            np.log(
                weights[0] * np.exp(-0.5 * (d - means[0]) ** 2) / np.sqrt(2 * np.pi)
                + weights[1] * np.exp(-0.5 * (d - means[1]) ** 2) / np.sqrt(2 * np.pi)
            )
            for d in spec.data
        )
        assert spec.marginal_data_log_likelihood(weights, means) == pytest.approx(direct, abs=1e-12)

    @pytest.mark.parametrize("family", ["gaussian", "student-t"])
    def test_batched_marginal_equals_per_point_loop_bitwise(self, family):
        spec = DmmSpec(make_synthetic(family, (-2.0, 2.0), 4), family)
        rng = np.random.default_rng(8)
        weights = rng.dirichlet((1.0, 1.0), size=30)
        weights[3] = (0.0, 1.0)  # an empty component
        if family == "gaussian":
            params = rng.normal(0.0, 2.0, size=(30, 2))
        else:
            params = np.stack(
                [rng.normal(0.0, 2.0, (30, 2)), rng.gamma(2.0, 1.0, (30, 2)), rng.gamma(2.0, 5.0, (30, 2))],
                axis=-1,
            )
            params[5, 1, 1] = 0.0  # variance outside the support
            params[6, 0, 1] = -1.0
            params[7, 0, 2] = 0.0  # degrees of freedom outside the support
            params[8, 1, 2] = -3.0
            params[9, :, 1] = (-0.5, 0.0)  # no component explains the data
            params[10, 0, 1:] = (-2.0, -1.0)
        expected = []
        for w, p in zip(weights, params):
            block_params = p if family == "gaussian" else [tuple(c) for c in p]
            comp = np.stack([spec.component_log_density_each(spec.data, c) for c in block_params], axis=1)
            # one call over both components is the per-component stack, bit for bit
            assert np.array_equal(spec.component_log_density_each(spec.data, p).T, comp)
            with np.errstate(divide="ignore"):
                comp = comp + np.log(w)[None, :]
            expected.append(float(np.sum(logsumexp(comp, axis=1))))
        batched = spec.marginal_data_log_likelihood(weights, params)
        assert batched.shape == (30,)
        assert np.array_equal(batched, expected)
        if family == "student-t":
            # the other component still explains the data
            assert np.all(np.isfinite(batched[[5, 6, 7, 8, 10]])) and batched[9] == -np.inf


class TestStudentTTable:
    """The student-t component table over (mean, variance, df) rows: one
    output array, with the bits of the formula written out."""

    SPEC = DmmSpec(make_synthetic("student-t", (-2.0, 2.0), 4), "student-t")

    @staticmethod
    def _params():
        rng = np.random.default_rng(5)
        params = np.stack([rng.normal(0.0, 2.0, 200), rng.gamma(2.0, 1.0, 200), rng.gamma(2.0, 5.0, 200)], axis=-1)
        params[3, 1], params[4, 1], params[5, 2], params[6, 2] = 0.0, -1.0, 0.0, -2.0  # outside the support
        params[7, 1:] = (-1.0, 0.0)
        return params

    def test_equals_the_written_out_formula_bit_for_bit(self):
        params = self._params()
        mean, var, df = (params[:, i, None] for i in range(3))
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.sqrt(var)
            log_norm = gammaln((df + 1.0) / 2.0) - gammaln(df / 2.0) - 0.5 * np.log(df * np.pi) - np.log(scale)
            z = (self.SPEC.data - mean) / scale
            formula = log_norm - (df + 1.0) / 2.0 * np.log1p(z * z / df)
        expected = np.where((var <= 0.0) | (df <= 0.0), -np.inf, formula)
        table = self.SPEC.component_log_density_each(self.SPEC.data, params)
        assert table.shape == (200, 100) and np.array_equal(table, expected)
        assert (table[3:8] == -np.inf).all() and np.isfinite(np.delete(table, range(3, 8), axis=0)).all()

    def test_traced_peak_is_at_most_twice_the_tables_bytes(self):
        params = self._params()
        self.SPEC.component_log_density_each(self.SPEC.data, params)  # first use loads scipy.special: untraced
        tracemalloc.start()
        try:
            table = self.SPEC.component_log_density_each(self.SPEC.data, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * table.nbytes, (peak, table.nbytes)


class TestComponentMeansFunction:
    @pytest.mark.parametrize("family", ["gaussian", "student-t"])
    def test_equals_per_point_extraction_bitwise(self, family):
        spec = DmmSpec(make_synthetic(family, (-2.0, 2.0), 4, count=20), family)
        points = recombine(dmm_model(spec), dmm_init_proposal(spec), 5, 2, RandomSource(3)).points
        if family == "gaussian":
            per_point = [list(p) for p in points]
        else:
            per_point = [[v[0] for v in p] for p in points]
        means = component_means_function(spec)(points)
        assert means.shape == (20, 2) and np.array_equal(means, np.array(per_point, dtype=float))


def _mixing_log_prob_per_label(weights, labels) -> float:
    """The Dirichlet(1, 1) term plus one log per gathered label, written out:
    the oracle for the prior proposal's density, which is the model's global
    prior."""
    weights, labels = np.asarray(weights, dtype=float), np.asarray(labels)
    if not (np.all(weights >= 0.0) and abs(float(weights.sum()) - 1.0) <= 1e-9):
        return -np.inf
    if np.any((labels < 0) | (labels >= 2)):
        return -np.inf
    probs = weights[labels]
    if np.any(probs <= 0.0):
        return -np.inf
    dirichlet = float((0.0 + gammaln(2.0)) - np.sum(gammaln(np.ones(2))))
    return dirichlet + float(np.sum(np.log(probs)))


class TestMixingLogProb:
    """The mixture global block's density, scored as one batch."""

    @staticmethod
    def _proposal(spec, informed):
        return MixtureAssignmentProposal(spec, (-1.0, 2.5) if informed else None)

    @pytest.mark.parametrize("informed", [False, True])
    def test_equals_per_label_logs_on_proposal_draws(self, informed):
        spec = DmmSpec(make_synthetic("gaussian", (-2.0, 2.0), 6, count=40))
        rng = RandomSource(41)
        points = [self._proposal(spec, informed).sample(rng) for _ in range(200)]
        stacked = tuple(np.stack(part) for part in zip(*points))
        expected = [_mixing_log_prob_per_label(weights, labels) for weights, labels in points]
        assert dmm_model(spec).global_log_prior(stacked).tolist() == expected

    @pytest.mark.parametrize("informed", [False, True])
    def test_batch_rows_equal_one_by_one_scoring(self, informed):
        spec = DmmSpec(make_synthetic("gaussian", (-2.0, 2.0), 6, count=3))
        prop = self._proposal(spec, informed)
        rows = [
            ([0.3, 0.7], [0, 1, 1]),
            ([0.0, 1.0], [1, 1, 1]),  # a zero weight that no label names
            ([0.0, 1.0], [1, 0, 1]),  # a label naming a zero weight
            ([np.nan, np.nan], [0, 1, 0]),
            ([np.nan, 0.5], [0, 1, 0]),
            ([0.5, 0.5], [0, 2, 1]),  # a label naming no component
            ([0.5, 0.5], [-1, 0, 1]),
            ([0.7, 0.7], [0, 1, 1]),  # off the simplex
            ([np.inf, -np.inf], [0, 1, 1]),
        ]
        weights, labels = (np.array(part) for part in zip(*rows))
        batch = prop.log_density_each((weights, labels))
        one_by_one = [prop.log_density((w, l)) for w, l in zip(weights, labels)]
        assert batch.shape == (len(rows),) and batch.tolist() == one_by_one
        assert np.isfinite(batch[:2]).all() and (batch[2:] == -np.inf).all()
        if not informed:
            assert one_by_one == [_mixing_log_prob_per_label(w, l) for w, l in rows]


class TestGlobalProposals:
    def test_prior_proposal_cancels_model_prior(self):
        spec = small_spec()
        model = dmm_model(spec)
        prop = MixtureAssignmentProposal(spec)
        rng = RandomSource(12)
        for _ in range(25):
            phi = prop.sample(rng)
            assert model.global_log_prior(phi) == prop.log_density(phi)

    def test_informed_proposal_densities_are_proper(self):
        spec = small_spec()
        prop = MixtureAssignmentProposal(spec, (-2.0, 2.0))
        rng = RandomSource(3)
        for _ in range(25):
            phi = prop.sample(rng)
            assert np.isfinite(prop.log_density(phi))
        # the informed assignments should track the data's closest component
        labels = [prop.sample(rng)[1] for _ in range(50)]
        first_two = np.array([l[:2] for l in labels])
        assert first_two.mean() < 0.2  # observations near -2 almost never map to component 1

    @pytest.mark.parametrize("informed", [False, True])
    def test_sample_batch_then_log_density_each_equals_log_density_row_by_row(self, informed):
        spec = DmmSpec(make_synthetic("gaussian", (-2.0, 2.0), 6))
        references = np.array([(-1.0, 2.5), (0.5, -3.0)] * 10)
        # one reference table row per outer draw, as a generation's kernel proposals are
        prop = MixtureAssignmentProposal(spec, references if informed else None)
        weights, labels = prop.sample_batch(RandomSource(21), 20)
        assert weights.shape == (20, 2) and labels.shape == (20, spec.data.size)
        log_q = prop.log_density_each((weights, labels))
        assert log_q.shape == (20,) and np.isfinite(log_q).all()
        for g in range(20):
            alone = MixtureAssignmentProposal(spec, references[g]) if informed else prop
            assert log_q[g] == alone.log_density((weights[g], labels[g]))
        if informed:  # reference rows never broadcast against other weight rows
            with pytest.raises(ValueError, match="reference rows"):
                prop.log_density_each((weights[:5], labels[:5]))
            with pytest.raises(ValueError, match="reference rows"):
                prop.log_density((weights[0], labels[0]))

    @pytest.mark.parametrize("informed", [False, True])
    def test_a_draw_table_scores_only_the_weights_it_drew(self, monkeypatch, informed):
        spec = DmmSpec(make_synthetic("gaussian", (-2.0, 2.0), 6))
        references = np.array([(-1.0, 2.5), (0.5, -3.0)] * 10) if informed else None
        prop, never_drew = MixtureAssignmentProposal(spec, references), MixtureAssignmentProposal(spec, references)
        tables = []
        normalize = prop._label_log_probs
        monkeypatch.setattr(prop, "_label_log_probs", lambda weights: tables.append(1) or normalize(weights))
        weights, labels = prop.sample_batch(RandomSource(21), 20)
        other = (weights[::-1].copy(), labels)
        assert prop.log_density_each(other).tolist() == never_drew.log_density_each(other).tolist()
        assert len(tables) == 2  # the draw's, then the other weights' own
        assert prop.log_density_each((weights, labels)).tolist() == never_drew.log_density_each((weights, labels)).tolist()
        assert len(tables) == 3  # the first score dropped the draw's table
        weights, labels = prop.sample_batch(RandomSource(22), 20)
        assert prop.log_density_each((weights, labels)).tolist() == never_drew.log_density_each((weights, labels)).tolist()
        assert len(tables) == 4  # the draw's table, read by its score
        with pytest.raises(ValueError, match="read-only"):
            weights[0] = 0.5

    def test_prior_proposal_labels_equal_generator_choice(self, monkeypatch):
        """Labels and generator use are ``Generator.choice``'s, also at
        weights within 1e-12 of 0 and 1, drawn one by one or scored as one batch."""
        edges = [0.0, 1e-300, 5e-13, 1e-12, 0.5, 1.0 - 1e-12, 1.0 - 5e-13, 1.0]
        first = np.concatenate([edges, RandomSource(40).generator.random(1200)])
        all_weights = np.column_stack([first, 1.0 - first])

        class PinnedPrior(Dirichlet):
            def sample_batch(self, rng, shape):
                return np.array([next(pinned) for _ in range(shape)])

        monkeypatch.setattr(models, "MIXING_PRIOR", PinnedPrior((1.0, 1.0)))
        spec = DmmSpec(make_synthetic("gaussian", (-2.0, 2.0), 6))
        prop = MixtureAssignmentProposal(spec)
        pinned, rng, chosen = iter(all_weights), RandomSource(41), []
        for weights in all_weights:
            expected = np.random.Generator(np.random.PCG64())
            expected.bit_generator.state = rng.generator.bit_generator.state
            _, labels = prop.sample(rng)
            chosen.append(expected.choice(2, spec.data.size, p=weights))
            assert np.array_equal(labels, chosen[-1])
            assert rng.generator.bit_generator.state == expected.bit_generator.state
        pinned, batch_rng = iter(all_weights), RandomSource(41)
        _, labels = prop.sample_batch(batch_rng, len(all_weights))
        assert np.array_equal(labels, np.array(chosen))
        assert batch_rng.generator.bit_generator.state == rng.generator.bit_generator.state

    def test_informed_proposal_labels_equal_generator_choice(self, monkeypatch):
        """Each observation's label is ``Generator.choice(K, p=exp(row))`` of
        its normalized responsibilities, drawn from the same stream, also at
        responsibilities within 1e-12 of 0 and 1; one batch draws the same."""
        edges = [1e-300, 5e-13, 0.5, 1.0 - 5e-13, 1.0]
        first = np.concatenate([edges, RandomSource(42).generator.random(150)])
        all_weights = np.column_stack([first, 1.0 - first])

        class PinnedPrior(Dirichlet):
            def sample_batch(self, rng, shape):
                return np.array([next(pinned) for _ in range(shape)])

        monkeypatch.setattr(models, "MIXING_PRIOR", PinnedPrior((1.0, 1.0)))
        # at equal weights an observation at x has responsibility 1 / (1 + exp(4x)) for
        # component 0, so |x| near 6.9 puts it within about 1e-12 of 0 or 1
        data = np.concatenate([make_synthetic("gaussian", (-2.0, 2.0), 7), np.linspace(-7.5, 7.5, 31)])
        spec = DmmSpec(data)
        centers = (-2.0, 2.0)
        prop = MixtureAssignmentProposal(spec, centers)
        comp = spec.component_log_density_each(spec.data, np.asarray(centers)).T
        pinned, rng, chosen, extremes = iter(all_weights), RandomSource(43), [], 0
        for weights in all_weights:
            with np.errstate(divide="ignore"):
                scores = comp + np.log(weights)
            p = np.exp(scores - logsumexp(scores, axis=-1, keepdims=True))
            extremes += np.count_nonzero((p[:, 0] < 1e-12) | (p[:, 0] > 1.0 - 1e-12))
            expected = np.random.Generator(np.random.PCG64())
            expected.bit_generator.state = rng.generator.bit_generator.state
            _, labels = prop.sample(rng)
            chosen.append([expected.choice(2, p=row) for row in p])
            assert np.array_equal(labels, chosen[-1])
            assert rng.generator.bit_generator.state == expected.bit_generator.state
        assert extremes > 100
        pinned, batch_rng = iter(all_weights), RandomSource(43)
        _, labels = prop.sample_batch(batch_rng, len(all_weights))
        assert np.array_equal(labels, np.array(chosen))
        assert batch_rng.generator.bit_generator.state == rng.generator.bit_generator.state

    @pytest.mark.parametrize("informed", [False, True])
    def test_a_zero_uniform_never_names_a_zero_weight_component(self, monkeypatch, informed):
        class PinnedPrior(Dirichlet):
            def sample_batch(self, rng, shape):
                return np.tile([0.0, 1.0], (shape, 1))

        monkeypatch.setattr(models, "MIXING_PRIOR", PinnedPrior((1.0, 1.0)))
        spec = small_spec()
        prop = MixtureAssignmentProposal(spec, (-2.0, 2.0) if informed else None)
        zero_uniforms = SimpleNamespace(generator=SimpleNamespace(random=np.zeros))
        weights, labels = prop.sample_batch(zero_uniforms, 4)
        assert labels.shape == (4, spec.data.size) and (labels == 1).all()
        assert np.isfinite(prop.log_density_each((weights, labels))).all()

    def test_init_proposal_shares_prior_blocks(self):
        spec = small_spec()
        init = dmm_init_proposal(spec)
        assert len(init.block_proposals) == 2
        assert init.global_proposal is not None


class TestSynthetic:
    def test_gaussian_mixture_grand_mean(self):
        obs = make_synthetic("gaussian", (-2.0, 2.0), 77)
        assert obs.shape == (100,)
        assert abs(obs.mean()) < 0.5

    def test_equal_means_still_valid(self):
        obs = make_synthetic("gaussian", (1.0, 1.0), 5)
        assert obs.shape == (100,)
        assert abs(obs.mean() - 1.0) < 0.5

    def test_t_components_have_t_variance(self):
        obs = make_synthetic("student-t", (-40.0, 40.0), 11, count=2000)
        left = obs[obs < 0] + 40.0
        right = obs[obs > 0] - 40.0
        for comp in (left, right):
            assert comp.var() == pytest.approx(30.0 / 28.0, rel=0.25)

    @pytest.mark.parametrize("kind", ["gaussian", "student-t"])
    def test_components_are_drawn_in_equal_proportion(self, kind):
        obs = make_synthetic(kind, (-50.0, 50.0), 3, count=1000)
        assert np.mean(obs < 0) == pytest.approx(0.5, abs=0.05)

    @pytest.mark.parametrize(
        "kind, draw_noise",
        [
            ("gaussian", lambda generator, count: generator.standard_normal(count)),
            ("student-t", lambda generator, count: generator.standard_t(30.0, size=count)),
        ],
        ids=["gaussian", "student-t"],
    )
    def test_labels_then_noise_come_from_the_seed(self, kind, draw_noise):
        """The seed a dmm trace records regenerates its data bit for bit:
        labels first, as ``random(count) < 0.5`` picking the second mean,
        then one noise draw per observation."""
        generator = RandomSource(21).generator
        second = generator.random(50) < 0.5
        expected = np.where(second, 2.5, -1.5) + draw_noise(generator, 50)
        assert np.array_equal(make_synthetic(kind, (-1.5, 2.5), 21, count=50), expected)

    @pytest.mark.parametrize("kind", ["gaussian", "student-t"])
    def test_other_seeds_give_other_data(self, kind):
        first = make_synthetic(kind, (-2.0, 2.0), 8)
        assert np.array_equal(first, make_synthetic(kind, (-2.0, 2.0), 8))
        assert not np.array_equal(first, make_synthetic(kind, (-2.0, 2.0), 9))

    @pytest.mark.parametrize("kind", ["gaussian", "student-t"])
    @pytest.mark.parametrize("count", [1, 100])
    def test_returns_count_finite_observations(self, kind, count):
        obs = make_synthetic(kind, (-2.0, 2.0), 4, count=count)
        assert obs.shape == (count,) and obs.dtype == np.float64
        assert np.isfinite(obs).all()
        assert np.array_equal(DmmSpec(obs, kind).data, obs)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_synthetic("poisson", (0.0, 1.0), 0)

    @pytest.mark.parametrize(
        "means, count, problem",
        [
            ((-2.0, 2.0, 5.0), 100, "means must give the two component means"),
            ((1.0,), 100, "means must give the two component means"),
            ((), 100, "means must give the two component means"),
            (((-2.0, 2.0),), 100, "means must give the two component means"),
            ((float("nan"), 0.0), 100, "means must be finite"),
            ((0.0, -float("inf")), 100, "means must be finite"),
            ((-2.0, 2.0), 0, "count must be >= 1"),
            ((-2.0, 2.0), -3, "count must be >= 1"),
        ],
        ids=["three-means", "one-mean", "no-means", "means-in-a-row", "nan-mean", "inf-mean", "no-observations",
             "negative-count"],
    )
    def test_refuses_means_and_count_it_cannot_honour(self, means, count, problem):
        with pytest.raises(ValueError, match=problem):
            make_synthetic("gaussian", means, 1, count=count)
