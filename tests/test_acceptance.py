"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line.  Fixtures are shared where criteria examine the same runs.
"""
import time

import numpy as np
import pytest
from scipy import integrate

from infmc.estimators import SampleSet, resample
from infmc.experiments import (
    ExperimentConfig,
    emit,
    gauss_replication,
    run_dmm,
    run_gauss,
    run_theorem_suite,
)
from infmc.models import GaussianToy
from infmc.rng import RandomSource

ACCEPTANCE_SEED = 20240817
GAUSS_BUDGETS = (200, 2000, 20000)
GROUP_SIZE = 100
REPLICATIONS = 50


def _report(number: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"{status} criterion {number}: {description}{suffix}")
    assert passed, f"criterion {number}: {description}{suffix}"


@pytest.fixture(scope="module")
def property_suite():
    start = time.perf_counter()
    report = run_theorem_suite(ACCEPTANCE_SEED, instances=500, inflation_instances=200)
    elapsed = time.perf_counter() - start
    return report, elapsed


def _gauss_config() -> ExperimentConfig:
    return ExperimentConfig(
        experiment="gauss-centered", seed=ACCEPTANCE_SEED, budgets=GAUSS_BUDGETS,
        replications=REPLICATIONS, group_size=GROUP_SIZE,
    )


def _block_chi_square(log_target, log_proposal) -> float:
    """chi^2 = E_q[(p/q)^2] - 1 of one univariate block, by quadrature."""
    second_moment, _ = integrate.quad(
        lambda x: float(np.exp(2.0 * log_target(x) - log_proposal(x))), -np.inf, np.inf
    )
    return second_moment - 1.0


@pytest.fixture(scope="module")
def gauss_runs():
    """Per (seed, budget): plain and inflated expectation estimates and log
    evidences, sharing each replication's proposal draws."""
    cfg = _gauss_config()
    root = RandomSource(cfg.seed)
    start = time.perf_counter()
    results = {budget: [] for budget in GAUSS_BUDGETS}
    for bi, budget in enumerate(GAUSS_BUDGETS):
        for r in range(REPLICATIONS):
            results[budget].append(
                gauss_replication(cfg, budget, root.child(bi, r))
            )
    elapsed = time.perf_counter() - start
    return results, elapsed


def test_criterion_1_union_decomposition(property_suite):
    report, elapsed = property_suite
    checks = {c.name: c for c in report.checks}
    worst = max(
        checks["union-decomposition-standard"].worst,
        checks["union-decomposition-self-normalized"].worst,
    )
    _report(
        1,
        "union estimate equals convex combination of per-part estimates "
        "(500 partitions, both estimator kinds, residual < 1e-10, < 10 s)",
        worst < 1e-10 and elapsed < 10.0,
        f"worst residual {worst:.2e}, {elapsed:.1f} s",
    )


def test_criterion_2_error_convexity(property_suite):
    report, _ = property_suite
    check = next(c for c in report.checks if c.name == "error-convexity-bound")
    _report(
        2,
        "combined-estimate error never exceeds the convex combination of "
        "errors (L1/L2/Linf, slack 1e-12)",
        check.worst >= -1e-12,
        f"worst margin {check.worst:.2e} over {check.cases} cases",
    )


def test_criterion_3_cache_correctness(property_suite):
    report, _ = property_suite
    checks = {c.name: c for c in report.checks}
    cache = checks["recombination-cache-vs-oracle"]
    counts = checks["recombination-eval-count"]
    _report(
        3,
        "recombined weights match the no-cache monolithic oracle to 1e-12 "
        "with exactly outer*inner*blocks likelihood evaluations (200 instances)",
        cache.worst < 1e-12 and counts.passed,
        f"worst weight gap {cache.worst:.2e}",
    )


def test_criterion_4_consistency(gauss_runs):
    results, elapsed = gauss_runs
    inflated_median = []
    plain_mse = []
    for budget in GAUSS_BUDGETS:
        errs = [np.linalg.norm(rep["inflated"]["expectation"]) for rep in results[budget]]
        inflated_median.append(float(np.median(errs)))
        sq = [float(np.sum(rep["plain"]["expectation"] ** 2)) for rep in results[budget]]
        plain_mse.append(float(np.mean(sq)))
    decreasing = inflated_median[0] > inflated_median[1] > inflated_median[2]
    ratios = [plain_mse[0] / plain_mse[1], plain_mse[1] / plain_mse[2]]
    rate_ok = all(5.0 <= ratio <= 20.0 for ratio in ratios)
    _report(
        4,
        "inflated median error strictly decreases over budgets 200/2000/20000 "
        "and plain mse shrinks by a per-decade factor in [5, 20] (< 2 min)",
        decreasing and rate_ok and elapsed < 120.0,
        f"medians {[f'{m:.4f}' for m in inflated_median]}, ratios "
        f"{[f'{r:.1f}' for r in ratios]}, {elapsed:.0f} s",
    )


def test_criterion_5_centered_mse_comparison(gauss_runs):
    # To first order the plain SNIS error is inflated + delta, where delta is
    # the other block's weight noise that recombination averages away within
    # each group of n.  Under the product proposal delta is uncorrelated with
    # the inflated error and E|delta|^2 = chi2 (1 - 1/n) / (1 + chi2/n)
    # E|inflated|^2, with chi2 = E_q[(p/q)^2] - 1 of one block (both
    # coordinates share the same block law).
    results, _ = gauss_runs
    reps = results[20000]
    assert all(rep["inflated"]["samples"] == 2_000_000 for rep in reps)
    plain = np.array([np.sum(rep["plain"]["expectation"] ** 2) for rep in reps])
    inflated = np.array([np.sum(rep["inflated"]["expectation"] ** 2) for rep in reps])
    aggregate_ok = inflated.mean() <= plain.mean()

    model, prop = GaussianToy().model(), GaussianToy().proposal(0.0)
    chi2 = _block_chi_square(model.block_log_priors[0], prop.block_proposals[0].log_density_each)
    inflated_vec = np.array([rep["inflated"]["expectation"] for rep in reps])
    delta = np.array([rep["plain"]["expectation"] for rep in reps]) - inflated_vec
    removed = np.sum(delta**2, axis=1)
    ratio = removed.mean() / (chi2 * inflated.mean())
    expected = (1.0 - 1.0 / GROUP_SIZE) / (1.0 + chi2 / GROUP_SIZE)
    ratio_se = ratio * removed.std(ddof=1) / (np.sqrt(len(reps)) * removed.mean())
    cross = 2.0 * np.sum(inflated_vec * delta, axis=1)
    cross_z = cross.mean() / (cross.std(ddof=1) / np.sqrt(len(reps)))
    _report(
        5,
        "at 20000 draws in groups of 100 (2,000,000 dependent samples) over 50 "
        "pairs, the noise recombination removes, mean|plain - inflated|^2, is "
        "chi2 (1 - 1/n)/(1 + chi2/n) mean|inflated|^2 within 4 standard errors, "
        "its cross term 2 mean(inflated . delta) is within 3 standard errors of 0, "
        "and the inflated expectation mse wins in aggregate",
        abs(ratio - expected) <= 4.0 * ratio_se and abs(cross_z) <= 3.0 and aggregate_ok,
        f"chi2 {chi2:.5f}, mean|delta|^2 / (chi2 mean|inflated|^2) {ratio:.3f}, "
        f"expected {expected:.3f} +- {4.0 * ratio_se:.3f}, cross-term z {cross_z:+.2f}, aggregate "
        f"{inflated.mean():.3e} vs {plain.mean():.3e}",
    )


def test_criterion_6_evidence(gauss_runs):
    results, _ = gauss_runs
    reps = results[20000]
    plain_z = np.array([rep["plain"]["log_evidence"] for rep in reps])
    inflated_z = np.array([rep["inflated"]["log_evidence"] for rep in reps])
    mean_gap = float(np.mean(plain_z + 1000.0))
    plain_mse = float(np.mean((plain_z + 1000.0) ** 2))
    inflated_mse = float(np.mean((inflated_z + 1000.0) ** 2))
    _report(
        6,
        "plain log-evidence centers on -1000 within 0.05 and inflated "
        "evidence mse stays within 3x of plain",
        abs(mean_gap) <= 0.05 and inflated_mse <= 3.0 * plain_mse,
        f"mean gap {mean_gap:+.4f}, mse ratio {inflated_mse / plain_mse:.2f}",
    )


def test_criterion_7_mixture_model_comparison():
    cfg = ExperimentConfig(
        experiment="dmm-gauss", seed=ACCEPTANCE_SEED, budgets=(2000,), replications=25,
    )
    _, traces = run_dmm(cfg)
    best_diff = np.array(
        [
            t["inflated"]["best_log_likelihood_so_far"][2] - t["plain"]["best_log_likelihood_so_far"][2]
            for t in traces
        ]
    )
    err_inflated = np.median([t["inflated"]["final_error"] for t in traces])
    err_plain = np.median([t["plain"]["final_error"] for t in traces])
    # 2000 plain samples x 2 blocks = 4000 likelihood evaluations, both methods
    parity = all(
        t["plain"]["block_evals"] == t["inflated"]["block_evals"]
        and sum(t["plain"]["block_evals"]) == 4000
        for t in traces
    )
    _report(
        7,
        "at equal likelihood-eval budgets the inflated run's best log "
        "likelihood by generation 3 leads in the median and its final mean "
        "estimates are at least as close in the median",
        parity and float(np.median(best_diff)) > 0.0 and err_inflated <= err_plain,
        f"median best-ll lead {np.median(best_diff):+.2f}, final errors "
        f"{err_inflated:.3f} vs {err_plain:.3f}",
    )


def test_criterion_8_resampling_law():
    weights = np.log(np.array([1.0, 3.0, 6.0]))
    sample_set = SampleSet(np.array([[0.0], [1.0], [2.0]]), weights)
    draws = np.array(resample(sample_set, 10**5, RandomSource(ACCEPTANCE_SEED)))[:, 0]
    freqs = np.array([np.mean(draws == v) for v in (0.0, 1.0, 2.0)])
    target = np.array([0.1, 0.3, 0.6])
    gap = float(np.max(np.abs(freqs - target)))
    _report(
        8,
        "multinomial resampling frequencies over 1e5 draws match (0.1, 0.3, 0.6) within 0.01",
        gap < 0.01,
        f"max gap {gap:.4f}",
    )


def test_criterion_9_determinism_golden(tmp_path):
    def run(workers: int, tag: str) -> list[str]:
        cfg = ExperimentConfig(
            experiment="gauss-centered", seed=42, budgets=(200, 2000), replications=5,
            workers=workers,
        )
        path = tmp_path / f"golden_{tag}.csv"
        emit(run_gauss(cfg), path, "csv")
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        keep = [i for i, col in enumerate(header) if col != "wall_seconds"]
        return [",".join(np.array(line.split(","))[keep]) for line in lines]

    first = run(1, "a")
    second = run(1, "b")
    third = run(4, "c")
    _report(
        9,
        "the seed-42 run emits byte-identical CSV (excluding wall_seconds) "
        "across invocations and worker counts",
        first == second == third,
        f"{len(first) - 1} data rows",
    )
