"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion summary lines).  Criteria 1 and 2 drive the oracle-triangle and
lossy cross-checks whose measured bond dimensions feed criterion 5.
"""

import time
from dataclasses import dataclass

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
    outcomes_with_total,
)
from gbstn.circuit import build_brickwork, circuit_to_mode_unitary, with_uniform_loss
from gbstn.fockdense import (
    dense_evolve_density,
    dense_evolve_state,
    dense_probability,
    dense_squeezed_vacuum,
)
from gbstn.gauss import (
    gbs_probability,
    hafnian,
    photon_pair_distribution,
    propagate,
    propagate_circuit,
    squeezed_vacuum_cov,
)
from gbstn.tnet import (
    EvolutionStats,
    TruncationPolicy,
    _evolve_mps,
    fock_mps,
    heisenberg_probability_lossless,
    heisenberg_probability_lossy,
    mps_overlap,
    schrodinger_probability,
)


def _report(criterion: int, message: str) -> None:
    print(f"[PASS] criterion {criterion}: {message}")


# ----------------------------------------------------------------------------
# shared computations for criteria 1, 2, 3, 5
# ----------------------------------------------------------------------------

C1_SEEDS = range(20)
C1_MODES, C1_DEPTH, C1_R, C1_CUTOFF = 4, 4, 0.4, 8
C1_TOTALS = (0, 2, 4)

C2_SEEDS = range(10)
C2_MODES, C2_DEPTH, C2_GAMMA, C2_R, C2_CUTOFF = 3, 3, 0.05, 0.4, 4
C2_TOTALS = (0, 1, 2, 3)


@dataclass
class TriangleData:
    heisenberg: dict
    schrodinger: dict
    dense: dict
    gaussian: dict
    heis_stats: dict
    schr_stats: dict
    elapsed: float


@pytest.fixture(scope="session")
def lossless_triangle() -> TriangleData:
    policy = TruncationPolicy()  # unlimited bond, default threshold
    outcomes = [n for t in C1_TOTALS for n in outcomes_with_total(C1_MODES, t)]
    heis, schr, dens, gaus = {}, {}, {}, {}
    heis_stats, schr_stats = {}, {}
    start = time.monotonic()
    for seed in C1_SEEDS:
        circuit = build_brickwork(C1_MODES, C1_DEPTH, seed=seed)
        state = dense_evolve_state(
            dense_squeezed_vacuum(C1_R, C1_MODES, C1_CUTOFF), circuit
        )
        gstate = propagate(
            squeezed_vacuum_cov(C1_R, C1_MODES), circuit_to_mode_unitary(circuit)
        )
        for n in outcomes:
            key = (seed, n)
            heis[key], heis_stats[key] = heisenberg_probability_lossless(
                circuit, n, C1_R, C1_CUTOFF, policy
            )
            schr[key], schr_stats[key] = schrodinger_probability(
                circuit, n, C1_R, C1_CUTOFF, policy
            )
            dens[key] = dense_probability(state, n)
            gaus[key] = gbs_probability(gstate, n)
    elapsed = time.monotonic() - start
    return TriangleData(heis, schr, dens, gaus, heis_stats, schr_stats, elapsed)


@dataclass
class LossyData:
    tn: dict
    dense: dict
    stats: dict
    elapsed: float


@pytest.fixture(scope="session")
def lossy_crosscheck() -> LossyData:
    policy = TruncationPolicy()
    outcomes = [n for t in C2_TOTALS for n in outcomes_with_total(C2_MODES, t)]
    tn, dens, stats = {}, {}, {}
    start = time.monotonic()
    for seed in C2_SEEDS:
        circuit = with_uniform_loss(build_brickwork(C2_MODES, C2_DEPTH, seed=seed), C2_GAMMA)
        rho = dense_evolve_density(
            dense_squeezed_vacuum(C2_R, C2_MODES, C2_CUTOFF).to_density(), circuit
        )
        for n in outcomes:
            key = (seed, n)
            tn[key], stats[key] = heisenberg_probability_lossy(
                circuit, n, C2_R, C2_CUTOFF, policy
            )
            dens[key] = dense_probability(rho, n)
    elapsed = time.monotonic() - start
    return LossyData(tn, dens, stats, elapsed)


# ----------------------------------------------------------------------------
# criteria
# ----------------------------------------------------------------------------


def test_criterion_01_lossless_oracle_triangle(lossless_triangle):
    """All four backends pairwise within 1e-8 on 20 seeded M=4 instances."""
    data = lossless_triangle
    worst = 0.0
    for key in data.heisenberg:
        values = [data.heisenberg[key], data.schrodinger[key], data.dense[key],
                  data.gaussian[key]]
        worst = max(worst, max(values) - min(values))
    assert worst < 1e-8, f"worst pairwise spread {worst}"
    assert data.elapsed < 120.0, f"criterion 1 took {data.elapsed:.1f}s"
    _report(1, f"oracle triangle, worst spread {worst:.2e}, {data.elapsed:.1f}s")


def test_criterion_02_lossy_correctness(lossy_crosscheck):
    """Adjoint-channel MPO probabilities match dense Kraus evolution at 1e-8."""
    data = lossy_crosscheck
    worst = max(abs(data.tn[key] - data.dense[key]) for key in data.tn)
    assert worst < 1e-8, f"worst lossy deviation {worst}"
    assert data.elapsed < 120.0, f"criterion 2 took {data.elapsed:.1f}s"
    _report(2, f"lossy MPO vs dense, worst deviation {worst:.2e}, {data.elapsed:.1f}s")


def test_criterion_03_lossless_sum_rule(lossless_triangle):
    """Shell sums of the Heisenberg probabilities reproduce the pair distribution."""
    data = lossless_triangle
    worst = 0.0
    for seed in C1_SEEDS:
        for total in C1_TOTALS:
            shell = sum(
                data.heisenberg[(seed, n)] for n in outcomes_with_total(C1_MODES, total)
            )
            expected = photon_pair_distribution(C1_MODES, C1_R, total // 2)
            worst = max(worst, abs(shell - expected))
    assert worst < 1e-4, f"worst sum-rule deviation {worst}"
    _report(3, f"sum rule over photon shells, worst deviation {worst:.2e}")


def test_criterion_04_loss_bound():
    """Shell-sum spillover stays below the binomial gain bound Delta_gamma.

    The criterion fixes M = 2 and gamma but leaves depth, squeezing, and seeds
    open; depth 8 (4 lossy gates) keeps the circuit inside the d < 1/gamma
    regime where the one-photon-per-source binomial model is valid.  Shallower
    layouts (1-3 lossy gates) genuinely violate the bound because one loss
    channel can absorb several photons at once.
    """
    depth, r, cutoff = 8, 0.4, 4
    worst_margin = -np.inf
    for seed in (0, 1, 2):
        for gamma in (0.02, 0.05, 0.1):
            circuit = with_uniform_loss(build_brickwork(2, depth, seed=seed), gamma)
            policy = CutoffPolicy(
                gamma=gamma,
                num_sources=circuit.num_lossy_gates,
                num_modes=2,
                r=r,
                n_tilde=0,
            )
            for n_tilde in (0, 2):
                shell = sum(
                    heisenberg_probability_lossy(circuit, n, r, cutoff)[0]
                    for n in outcomes_with_total(2, n_tilde)
                )
                ideal = photon_pair_distribution(2, r, n_tilde // 2)
                bound = delta_gamma(policy, n_tilde)
                margin = (shell - ideal) - bound
                worst_margin = max(worst_margin, margin)
                assert margin <= 1e-6, (
                    f"bound violated: seed={seed} gamma={gamma} n~={n_tilde} "
                    f"excess={margin:.3e}"
                )
    _report(4, f"loss bound holds, worst margin {worst_margin:+.2e} (<= 1e-6)")


def test_criterion_05_bond_dimension_bounds(lossless_triangle, lossy_crosscheck):
    """Measured bonds never exceed the analytic bounds.

    (a) single photon <= 2; (b) n photons in one mode <= n + 1; (c) product
    bound on every criterion-1 state evolution.  The criterion-2 instances
    evolve operators, not states: photon gains occupy extra sectors, so the
    applicable ceiling is the operator-space bound (n_c + 1)^(2 min(k, M-k))
    across cuts, checked last.
    """
    violations = 0

    # (a) delocalized single photons on M = 6 circuits
    for seed in range(3):
        circuit = build_brickwork(6, 6, seed=seed)
        for k in range(6):
            outcome = [0] * 6
            outcome[k] = 1
            stats = EvolutionStats()
            _evolve_mps(fock_mps(outcome, 2), circuit, TruncationPolicy(), stats, reverse=True)
            if stats.max_bond_seen > 2:
                violations += 1

    # (b) photon bunches in a single mode
    for seed in range(3):
        circuit = build_brickwork(4, 4, seed=seed)
        for photons in (1, 2, 3, 4):
            _, stats = heisenberg_probability_lossless(
                circuit, (photons, 0, 0, 0), C1_R, C1_CUTOFF
            )
            if stats.max_bond_seen > photons + 1:
                violations += 1

    # (c) product bound on every criterion-1 Heisenberg instance
    for (seed, outcome), stats in lossless_triangle.heis_stats.items():
        if stats.max_bond_seen > dmax_fbs(outcome):
            violations += 1

    # Schrodinger instances obey the state-space ceiling (n_c + 1)^(M/2)
    for stats in lossless_triangle.schr_stats.values():
        if stats.max_bond_seen > (C1_CUTOFF + 1) ** (C1_MODES // 2):
            violations += 1

    # criterion-2 operator evolutions: operator-space ceiling across cuts
    op_ceiling = max(
        (C2_CUTOFF + 1) ** (2 * min(k + 1, C2_MODES - k - 1))
        for k in range(C2_MODES - 1)
    )
    for stats in lossy_crosscheck.stats.values():
        if stats.max_bond_seen > op_ceiling:
            violations += 1

    assert violations == 0, f"{violations} bond-bound violations"
    _report(5, "bond bounds: zero violations on all instances")


def test_criterion_06_single_particle_transfer():
    """TN single-photon amplitudes reproduce the mode unitary at 1e-10."""
    worst = 0.0
    for seed in range(5):
        circuit = build_brickwork(6, 6, seed=seed)
        u = circuit_to_mode_unitary(circuit)
        for k in range(6):
            outcome = [0] * 6
            outcome[k] = 1
            stats = EvolutionStats()
            evolved = _evolve_mps(
                fock_mps(outcome, 1), circuit, TruncationPolicy(), stats, reverse=True
            )
            for i in range(6):
                probe = [0] * 6
                probe[i] = 1
                amp = mps_overlap(fock_mps(probe, 1), evolved)  # <1_i|U^dag|1_k>
                worst = max(worst, abs(abs(amp) ** 2 - abs(u[k, i]) ** 2))
    assert worst < 1e-10, f"worst transfer deviation {worst}"
    _report(6, f"single-particle transfer, worst deviation {worst:.2e}")


def test_criterion_07_bipartition_bounds():
    """Closed form equals the bipartition sum; both stay below 2^N for N >= M."""
    for num_modes in range(2, 13, 2):
        half = num_modes // 2
        for total in range(13):
            assert dmax_closed_form(num_modes, total) == dmax_bipartite(half, half, total)
    for num_modes in range(2, 13, 2):
        for total in range(num_modes, 15):
            assert dmax_closed_form(num_modes, total) < 2**total
    _report(7, "closed form == bipartition sum (M <= 12, N <= 12); D_max < 2^N for N >= M")


def test_criterion_08_hafnian_identities():
    """Hafnian reference identities plus multilinearity on random matrices."""
    b = np.array([[0.0, 3.5], [3.5, 0.0]])
    assert hafnian(b) == 3.5

    rng = np.random.default_rng(123)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = m + m.T
    expansion = m[0, 1] * m[2, 3] + m[0, 2] * m[1, 3] + m[0, 3] * m[1, 2]
    assert abs(hafnian(m) - expansion) < 1e-12

    assert hafnian(np.ones((6, 6))) == 15

    for _ in range(100):
        matrix = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        matrix = matrix + matrix.T
        scale = rng.normal() + 1j * rng.normal()
        k = int(rng.integers(0, 6))
        scaled = matrix.copy()
        scaled[k, :] *= scale
        scaled[:, k] *= scale
        scaled[k, k] = matrix[k, k] * scale
        reference = scale * hafnian(matrix)
        assert abs(hafnian(scaled) - reference) <= 1e-10 * max(1.0, abs(reference))
    _report(8, "hafnian identities and multilinearity on 100 random matrices")


def test_criterion_09_scaling_grid(tmp_path):
    """Heisenberg bound beats the Schrodinger bound across the hard regime."""
    import csv

    from gbstn.cli import main

    path = tmp_path / "grid.csv"
    start = time.monotonic()
    code = main(["scaling", "--modes", "6:30:2", "--squeezing", "0.3:0.7:0.1",
                 "--output", str(path)])
    elapsed = time.monotonic() - start
    assert code == 0
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 13 * 5
    in_regime = [row for row in rows if row["out_of_regime"] == "False"]
    assert in_regime, "validity regime unexpectedly empty"
    for row in in_regime:
        if int(row["M"]) >= 10:
            assert int(row["D_heisenberg"]) < int(row["D_schrodinger"]), row
    assert elapsed < 1.0, f"scaling command took {elapsed:.3f}s"
    _report(9, f"{len(in_regime)} in-regime points, D_H < D_S for all M >= 10, {elapsed:.3f}s")


def test_criterion_10_cutoff_machinery():
    """choose_cutoff edge cases, monotonicity, and the independent Delta check."""
    for gamma, epsilon in ((0.0, 1e-6), (0.3, 1.0)):
        policy = CutoffPolicy(
            gamma=gamma, num_sources=6, num_modes=4, r=0.5, n_tilde=4, epsilon=epsilon
        )
        assert choose_cutoff(policy)[0] == 4

    previous = None
    for epsilon in (1e-3, 1e-5, 1e-7, 1e-9):
        policy = CutoffPolicy(
            gamma=0.05, num_sources=6, num_modes=4, r=0.5, n_tilde=4, epsilon=epsilon
        )
        n_c, achieved = choose_cutoff(policy)
        assert achieved < epsilon
        if previous is not None:
            assert n_c >= previous
        previous = n_c

    checked = 0
    for gamma in (0.01, 0.03, 0.05, 0.08, 0.1):
        for n_tilde in (0, 1, 2, 3, 4):
            for sources in (3, 8):
                policy = CutoffPolicy(
                    gamma=gamma, num_sources=sources, num_modes=6, r=0.45, n_tilde=n_tilde
                )
                ours = delta_gamma(policy)
                oracle = 0.0
                for x in range(1, sources + 1):
                    if (n_tilde + x) % 2 == 0:
                        nu = (n_tilde + x) // 2
                        oracle += scipy.stats.binom.pmf(x, sources, gamma) * (
                            scipy.special.comb(nu + 2, nu, exact=True)
                            * np.cosh(0.45) ** -6.0
                            * np.tanh(0.45) ** (2 * nu)
                        )
                assert abs(ours - oracle) <= 1e-12 * max(1.0, abs(ours), abs(oracle))
                checked += 1
    assert checked == 50
    _report(10, "cutoff selection edge cases, monotonicity, 50-point Delta cross-check")


def test_lossless_bond_ceiling_at_scale():
    """The outcome's bond stays at dmax_fbs at M = 32, N = 6, well past the
    sizes criterion 5 covers, and the probability matches the Gaussian value."""
    modes, photons = 32, 6
    circuit = build_brickwork(modes, modes, seed=1)
    outcome = (1,) * photons + (0,) * (modes - photons)
    start = time.monotonic()
    p, stats = heisenberg_probability_lossless(circuit, outcome, C1_R, photons)
    elapsed = time.monotonic() - start
    assert stats.max_bond_seen <= dmax_fbs(outcome)
    reference = gbs_probability(
        propagate_circuit(squeezed_vacuum_cov(C1_R, modes), circuit), outcome
    )
    deviation = abs(p - reference) / reference
    assert deviation < 1e-8
    _report(
        5,
        f"M = {modes}, N = {photons}: bond {stats.max_bond_seen} <= {dmax_fbs(outcome)}, "
        f"relative deviation {deviation:.1e}, {elapsed:.1f}s",
    )


def test_eight_photons_at_scale():
    """M = 32, N = 8: the photon-number blocks keep the route at the
    dmax_fbs = 256 ceiling within a minute, and the probability matches the
    hafnian of the Gaussian formula."""
    modes, photons = 32, 8
    circuit = build_brickwork(modes, modes, seed=1)
    outcome = (1,) * photons + (0,) * (modes - photons)
    start = time.monotonic()
    p, stats = heisenberg_probability_lossless(circuit, outcome, C1_R, photons)
    elapsed = time.monotonic() - start
    assert dmax_fbs(outcome) == 256
    assert stats.max_bond_seen <= dmax_fbs(outcome)
    reference = gbs_probability(
        propagate_circuit(squeezed_vacuum_cov(C1_R, modes), circuit), outcome
    )
    deviation = abs(p - reference) / reference
    assert deviation <= 1e-9
    _report(
        5,
        f"M = {modes}, N = {photons}: bond {stats.max_bond_seen} <= {dmax_fbs(outcome)}, "
        f"relative deviation {deviation:.1e}, {elapsed:.1f}s",
    )
