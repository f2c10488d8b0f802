import io
import math

import numpy as np
import pytest
import scipy.special
import scipy.stats

from gbstn.analysis import (
    CutoffPolicy,
    choose_cutoff,
    delta_gamma,
    dmax_bipartite,
    dmax_closed_form,
    dmax_fbs,
    dmax_gbs,
    mode_of_distribution,
    outcomes_with_total,
    pi_gamma,
    scaling_rows,
    write_scaling_report,
)
from gbstn.errors import UnsupportedConfigurationError
from gbstn.gauss import photon_pair_distribution


def _delta_oracle(num_modes, r, gamma, sources, n_tilde):
    """Independent double-loop arithmetic, built on scipy instead of math."""
    total = 0.0
    for x in range(1, sources + 1):
        binom = scipy.stats.binom.pmf(x, sources, gamma)
        n = n_tilde + x
        if n % 2 == 0:
            nu = n // 2
            pair = (
                scipy.special.comb(nu + num_modes // 2 - 1, nu, exact=True)
                * np.cosh(r) ** (-num_modes)
                * np.tanh(r) ** (2 * nu)
            )
            total += binom * pair
    return total


class TestPiGamma:
    def test_single_source(self):
        assert pi_gamma(1, 0.3, 0) == pytest.approx(0.7)
        assert pi_gamma(1, 0.3, 1) == pytest.approx(0.3)

    def test_zero_rate(self):
        assert pi_gamma(5, 0.0, 0) == 1.0
        assert all(pi_gamma(5, 0.0, x) == 0.0 for x in range(1, 6))

    @pytest.mark.parametrize("sources", [1, 7, 32, 64])
    def test_normalization(self, sources):
        total = sum(pi_gamma(sources, 0.23, x) for x in range(sources + 1))
        assert abs(total - 1.0) < 1e-12

    def test_out_of_support(self):
        assert pi_gamma(3, 0.5, 4) == 0.0
        assert pi_gamma(3, 0.5, -1) == 0.0

    @pytest.mark.parametrize("sources", [6, 100, 1128, 5000])
    @pytest.mark.parametrize("gamma", [0.01, 0.05, 0.5])
    def test_matches_scipy_past_the_float_range_of_the_binomial(self, sources, gamma):
        # C(Q, x) alone passes the float range near Q = 1030
        expected = scipy.stats.binom.pmf(np.arange(sources + 1), sources, gamma)
        for x in np.flatnonzero(expected > 1e-300).tolist():
            assert pi_gamma(sources, gamma, x) == pytest.approx(expected[x], rel=1e-10, abs=0.0)

    def test_integral_float_counts_are_counts(self):
        assert pi_gamma(3.0, 0.1, 1.0) == pi_gamma(3, 0.1, 1)


class TestDeltaGamma:
    def test_zero_loss(self):
        policy = CutoffPolicy(gamma=0.0, num_sources=6, num_modes=4, r=0.5, n_tilde=2)
        assert delta_gamma(policy) == 0.0

    def test_zero_squeezing(self):
        policy = CutoffPolicy(gamma=0.1, num_sources=6, num_modes=4, r=0.0, n_tilde=0)
        assert delta_gamma(policy) == 0.0

    def test_against_independent_double_loop(self):
        policy = CutoffPolicy(gamma=0.05, num_sources=6, num_modes=4, r=0.5, n_tilde=4)
        ours = delta_gamma(policy)
        oracle = _delta_oracle(4, 0.5, 0.05, 6, 4)
        assert abs(ours - oracle) <= 1e-12 * max(1.0, ours)

    def test_fifty_point_grid(self):
        count = 0
        for gamma in (0.01, 0.03, 0.05, 0.08, 0.1):
            for n_tilde in (0, 1, 2, 3, 4):
                for sources in (2, 9):
                    policy = CutoffPolicy(
                        gamma=gamma, num_sources=sources, num_modes=6, r=0.45, n_tilde=n_tilde
                    )
                    ours = delta_gamma(policy)
                    oracle = _delta_oracle(6, 0.45, gamma, sources, n_tilde)
                    assert abs(ours - oracle) <= 1e-12 * max(1.0, abs(ours), abs(oracle))
                    count += 1
        assert count == 50

    def test_odd_mode_count_unsupported(self):
        policy = CutoffPolicy(gamma=0.1, num_sources=2, num_modes=3, r=0.4, n_tilde=0)
        with pytest.raises(UnsupportedConfigurationError):
            delta_gamma(policy)


class TestChooseCutoff:
    def test_zero_loss_returns_target(self):
        policy = CutoffPolicy(gamma=0.0, num_sources=4, num_modes=4, r=0.5, n_tilde=3)
        n_c, achieved = choose_cutoff(policy)
        assert n_c == 3 and achieved == 0.0

    def test_unit_epsilon_returns_target(self):
        policy = CutoffPolicy(
            gamma=0.3, num_sources=10, num_modes=4, r=0.8, n_tilde=5, epsilon=1.0
        )
        assert choose_cutoff(policy)[0] == 5

    def test_monotone_in_epsilon(self):
        previous = None
        for epsilon in (1e-4, 1e-6, 1e-8):
            policy = CutoffPolicy(
                gamma=0.05, num_sources=6, num_modes=4, r=0.5, n_tilde=4, epsilon=epsilon
            )
            n_c, achieved = choose_cutoff(policy)
            assert achieved < epsilon
            if previous is not None:
                assert n_c >= previous
            previous = n_c

    def test_achieved_value_is_delta_at_cutoff(self):
        policy = CutoffPolicy(gamma=0.05, num_sources=6, num_modes=4, r=0.5, n_tilde=4)
        n_c, achieved = choose_cutoff(policy)
        assert achieved == delta_gamma(policy, n_c)
        if n_c > policy.n_tilde:
            assert delta_gamma(policy, n_c - 1) >= policy.epsilon


class TestBondBounds:
    def test_dmax_fbs_examples(self):
        assert dmax_fbs((1, 1, 1)) == 8
        assert dmax_fbs((3,)) == 4
        assert dmax_fbs((0, 0)) == 1
        assert dmax_fbs((2, 0, 1)) == 6

    def test_dmax_fbs_upper_bound_and_equality(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            outcome = rng.integers(0, 4, size=5)
            bound = dmax_fbs(outcome)
            assert bound <= 2 ** int(outcome.sum())
            all_single = np.all(outcome[outcome > 0] == 1)
            assert (bound == 2 ** int(outcome.sum())) == bool(all_single)

    def test_dmax_gbs(self):
        assert dmax_gbs(2, 4) == 4
        assert dmax_gbs(10, 10) == 10**5
        with pytest.raises(UnsupportedConfigurationError):
            dmax_gbs(3, 5)

    def test_fbs_below_gbs_in_hard_regime(self):
        mode = mode_of_distribution(20, 0.5)
        assert 1 < mode < 20
        assert 2**mode < dmax_gbs(mode, 20)

    def test_dmax_bipartite_edge_cases(self):
        assert dmax_bipartite(3, 3, 0) == 1
        assert dmax_bipartite(2, 2, 1) == 2
        assert dmax_bipartite(5, 5, 1) == 2
        assert dmax_bipartite(2, 2, 2) == 4

    def test_dmax_bipartite_partition_symmetry(self):
        for n in range(7):
            assert dmax_bipartite(3, 5, n) == dmax_bipartite(5, 3, n)

    def test_closed_form_equals_bipartite(self):
        for num_modes in range(2, 13, 2):
            for n in range(13):
                half = num_modes // 2
                assert dmax_closed_form(num_modes, n) == dmax_bipartite(half, half, n)

    def test_closed_form_example(self):
        assert dmax_closed_form(4, 2) == 4

    def test_below_power_of_two_for_many_photons(self):
        for num_modes in range(2, 11, 2):
            for n in range(num_modes, 15):
                assert dmax_closed_form(num_modes, n) < 2**n

    def test_odd_modes_unsupported(self):
        with pytest.raises(UnsupportedConfigurationError):
            dmax_closed_form(5, 3)


class TestModeOfDistribution:
    def test_zero_squeezing(self):
        assert mode_of_distribution(6, 0.0) == 0

    def test_agrees_with_argmax_of_distribution(self):
        for num_modes, r in [(4, 0.5), (8, 0.5), (12, 0.4), (20, 0.6)]:
            probs = [photon_pair_distribution(num_modes, r, nu) for nu in range(51)]
            argmax = 2 * int(np.argmax(probs))
            formula = mode_of_distribution(num_modes, r)
            assert abs(formula - argmax) <= 2  # same rounding cell

    def test_exact_argmax_at_reference_point(self):
        probs = [photon_pair_distribution(4, 0.5, nu) for nu in range(51)]
        assert mode_of_distribution(4, 0.5) == 2 * int(np.argmax(probs))

    def test_scales_with_sinh_squared(self):
        small = 2 * (10 - 1) * math.sinh(0.3) ** 2
        big = 2 * (10 - 1) * math.sinh(0.3 * 2) ** 2  # not exactly 2x, just larger
        assert mode_of_distribution(20, 0.6) >= mode_of_distribution(20, 0.3)
        assert big > small

    def test_requirements(self):
        with pytest.raises(UnsupportedConfigurationError):
            mode_of_distribution(3, 0.4)
        with pytest.raises(UnsupportedConfigurationError):
            mode_of_distribution(2, 0.4)


class TestOutcomes:
    def test_counts_are_stars_and_bars(self):
        assert len(list(outcomes_with_total(4, 2))) == 10
        assert len(list(outcomes_with_total(4, 4))) == 35
        assert list(outcomes_with_total(3, 0)) == [(0, 0, 0)]

    def test_every_outcome_sums_correctly(self):
        for outcome in outcomes_with_total(5, 3):
            assert sum(outcome) == 3 and len(outcome) == 5

    def test_no_duplicates(self):
        outcomes = list(outcomes_with_total(4, 5))
        assert len(outcomes) == len(set(outcomes))


class TestScalingGrid:
    def test_rows_cover_grid(self):
        rows = scaling_rows(range(6, 31, 2), [0.3, 0.4, 0.5, 0.6, 0.7])
        assert len(rows) == 13 * 5

    def test_bounds_at_least_one(self):
        for row in scaling_rows(range(6, 31, 2), [0.3, 0.5, 0.7]):
            assert row["D_heisenberg"] >= 1
            assert row["D_schrodinger"] >= 0

    def test_out_of_regime_flagged_not_omitted(self):
        rows = scaling_rows([6], [0.3])  # modal total is 0 here
        assert rows[0]["out_of_regime"] is True

    def test_heisenberg_advantage_in_regime(self):
        for row in scaling_rows(range(10, 31, 2), [0.3, 0.4, 0.5, 0.6, 0.7]):
            if not row["out_of_regime"]:
                assert row["D_heisenberg"] < row["D_schrodinger"]

    def test_ratio_nondecreasing_in_modes_at_fixed_r(self):
        rows = [r for r in scaling_rows(range(6, 31, 2), [0.5]) if not r["out_of_regime"]]
        ratios = [r["D_schrodinger"] / r["D_heisenberg"] for r in rows]
        assert all(b >= a for a, b in zip(ratios, ratios[1:]))

    def test_csv_output(self):
        buffer = io.StringIO()
        rows = write_scaling_report(buffer, [6, 8], [0.5])
        lines = buffer.getvalue().strip().splitlines()
        assert lines[0] == "M,r,n_mode,D_heisenberg,D_schrodinger,out_of_regime"
        assert len(lines) == len(rows) + 1


_POLICY = {"gamma": 0.05, "num_sources": 6, "num_modes": 4, "r": 0.5, "n_tilde": 2}


class TestRefusals:
    """Each bad input raises the named error, with a message naming what is wrong."""

    CASES = {
        "policy-negative-sources": (lambda: CutoffPolicy(**{**_POLICY, "num_sources": -1}),
                                    ValueError, "num_sources"),
        "policy-no-modes": (lambda: CutoffPolicy(**{**_POLICY, "num_modes": 0}), ValueError, "num_modes"),
        "policy-fractional-sources": (lambda: CutoffPolicy(**{**_POLICY, "num_sources": 2.5}),
                                      ValueError, "num_sources must be an integer, got 2.5"),
        "policy-fractional-modes": (lambda: CutoffPolicy(**{**_POLICY, "num_modes": 2.5}),
                                    ValueError, "num_modes must be an integer, got 2.5"),
        "policy-fractional-target": (lambda: CutoffPolicy(**{**_POLICY, "n_tilde": 2.5}),
                                     ValueError, "n_tilde must be an integer, got 2.5"),
        "policy-text-target": (lambda: CutoffPolicy(**{**_POLICY, "n_tilde": "2"}),
                               ValueError, "n_tilde must be an integer, got '2'"),
        "policy-infinite-squeezing": (lambda: CutoffPolicy(**{**_POLICY, "r": math.inf}), ValueError, "r must"),
        "policy-nan-squeezing": (lambda: CutoffPolicy(**{**_POLICY, "r": math.nan}), ValueError, "r must"),
        "policy-infinite-epsilon": (lambda: CutoffPolicy(**{**_POLICY, "epsilon": math.inf}),
                                    ValueError, "epsilon"),
        "policy-nan-epsilon": (lambda: CutoffPolicy(**{**_POLICY, "epsilon": math.nan}), ValueError, "epsilon"),
        "delta-negative-target": (lambda: delta_gamma(CutoffPolicy(**_POLICY), n_tilde=-1),
                                  ValueError, "n_tilde"),
        "gbs-cutoff-below-one": (lambda: dmax_gbs(0, 4), ValueError, "local_cutoff"),
        "bipartite-empty-left": (lambda: dmax_bipartite(0, 3, 2), ValueError, "partitions"),
        "bipartite-empty-right": (lambda: dmax_bipartite(3, 0, 2), ValueError, "partitions"),
        "bipartite-negative-photons": (lambda: dmax_bipartite(3, 3, -1), ValueError, "total_photons"),
        "closed-form-no-modes": (lambda: dmax_closed_form(0, 2), UnsupportedConfigurationError, "even mode"),
        "closed-form-negative-photons": (lambda: dmax_closed_form(4, -1), ValueError, "total_photons"),
        "binomial-fractional-sources": (lambda: pi_gamma(2.5, 0.1, 1), ValueError,
                                        "num_sources must be an integer, got 2.5"),
        "binomial-fractional-photons": (lambda: pi_gamma(3, 0.1, 1.5), ValueError,
                                        r"photons must be an integer, got 1.5"),
        "binomial-gamma-of-one": (lambda: pi_gamma(3, 1.0, 1), ValueError, r"gamma must lie in \[0, 1\)"),
        "binomial-negative-gamma": (lambda: pi_gamma(3, -0.1, 1), ValueError, r"gamma must lie in \[0, 1\)"),
        "outcomes-negative-total": (lambda: list(outcomes_with_total(3, -1)), ValueError,
                                    "total must be >= 0, got -1"),
        "outcomes-no-modes": (lambda: list(outcomes_with_total(0, 2)), ValueError,
                              "num_modes must be >= 1, got 0"),
        "outcomes-fractional-total": (lambda: list(outcomes_with_total(3, 1.5)), ValueError,
                                      "total must be an integer, got 1.5"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_raises(self, case):
        call, error, message = self.CASES[case]
        with pytest.raises(error, match=message):
            call()

    def test_integral_counts_become_ints(self):
        policy = CutoffPolicy(**{**_POLICY, "num_sources": 6.0, "num_modes": np.int64(4), "n_tilde": 2.0})
        assert policy == CutoffPolicy(**_POLICY)
        assert [type(policy.num_sources), type(policy.num_modes), type(policy.n_tilde)] == [int, int, int]
        assert choose_cutoff(policy) == choose_cutoff(CutoffPolicy(**_POLICY))
