import decimal
import itertools
import math

import numpy as np
import pytest

from gbstn.circuit import (
    Circuit,
    Gate,
    build_brickwork,
    circuit_to_mode_unitary,
    kraus_set,
    load_circuit,
    save_circuit,
    single_photon_block,
    with_uniform_loss,
)
from gbstn import errors
from gbstn.errors import NumericalFailureError, ResourceLimitError, UnsupportedConfigurationError
from gbstn.fockdense import (
    dense_evolve_density,
    dense_evolve_state,
    dense_probability,
    dense_squeezed_vacuum,
    single_mode_squeezed_vector,
)
from gbstn.gauss import (
    GaussianState,
    gbs_probability,
    hafnian,
    photon_pair_distribution,
    propagate,
    propagate_circuit,
    squeezed_vacuum_cov,
    uniform_loss,
)


def _matching_sum(matrix) -> complex:
    """Hafnian by exhaustive recursion over all (2N-1)!! perfect matchings:
    the first free index is paired with every later free index.  The oracle
    for :func:`hafnian` up to 2N = 12."""
    rows = [[complex(x) for x in row] for row in np.asarray(matrix)]

    def match(free: tuple[int, ...]) -> complex:
        if not free:
            return 1.0 + 0.0j
        first, rest = free[0], free[1:]
        return sum(
            rows[first][j] * match(rest[:pos] + rest[pos + 1 :]) for pos, j in enumerate(rest)
        )

    return match(tuple(range(len(rows))))


def _random_symmetric(rng, n: int) -> np.ndarray:
    b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return b + b.T


def _full_transfer_reference(state: GaussianState, circuit: Circuit) -> np.ndarray:
    """sigma -> T sigma T^dag gate by gate with the full 2M x 2M T = u (+) u*,
    then sigma -> s sigma s + (1 - eta)/2 on the lossy mode's diagonals."""
    m = circuit.num_modes
    cov = state.cov.copy()
    for gate in circuit.gates():
        i = gate.modes[0]
        u = np.eye(m, dtype=np.complex128)
        u[i : i + 2, i : i + 2] = single_photon_block(gate.params)
        t = np.block([[u, np.zeros((m, m))], [np.zeros((m, m)), u.conj()]])
        cov = t @ cov @ t.conj().T
        eta = 1.0 - gate.loss_gamma
        scale = np.ones(2 * m)
        scale[[gate.loss_site, m + gate.loss_site]] = np.sqrt(eta)
        cov = cov * np.outer(scale, scale)
        cov[gate.loss_site, gate.loss_site] += (1.0 - eta) / 2.0
        cov[m + gate.loss_site, m + gate.loss_site] += (1.0 - eta) / 2.0
    return cov


def _with_seeded_loss(circuit: Circuit, seed: int) -> Circuit:
    rng = np.random.default_rng(seed)
    layers = tuple(
        tuple(
            Gate(g.modes, g.params, float(rng.uniform(0.0, 0.2)), int(rng.integers(2)))
            for g in layer
        )
        for layer in circuit.layers
    )
    return Circuit(num_modes=circuit.num_modes, layers=layers)


def _dense_moments(r: float, cutoff: int = 120):
    """Second moments <a*a> and <a^2> of the squeezed vacuum, from the oracle."""
    v = single_mode_squeezed_vector(r, cutoff)
    a = np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), 1)
    mean_n = float(np.real(np.vdot(v, np.diag(np.arange(cutoff + 1.0)) @ v)))
    a_squared = complex(np.vdot(v, (a @ a) @ v))
    return mean_n, a_squared


class TestCovariance:
    @pytest.mark.parametrize("r", [0.0, 0.25, 0.5, 0.8])
    def test_frozen_entries_match_dense_oracle(self, r):
        # regression for the hyperbolic closed forms against the dense oracle
        g = squeezed_vacuum_cov(r, 1)
        mean_n, a_squared = _dense_moments(r)
        assert abs(g.cov[0, 0] - (mean_n + 0.5)) < 1e-12
        assert abs(g.cov[0, 1] - a_squared) < 1e-12
        assert abs(g.cov[1, 0] - a_squared) < 1e-12
        assert abs(g.cov[1, 1] - (mean_n + 0.5)) < 1e-12

    def test_vacuum(self):
        g = squeezed_vacuum_cov(0.0, 3)
        assert np.allclose(g.cov, 0.5 * np.eye(6))
        assert np.allclose(g.mean_photons(), 0.0)

    def test_mean_photons(self):
        g = squeezed_vacuum_cov(0.5, 1)
        assert abs(g.mean_photons()[0] - np.sinh(0.5) ** 2) < 1e-12

    @pytest.mark.parametrize("r", [[0.1, 0.7], [0.4, 0.4, 0.4]])
    def test_hermitian(self, r):
        g = squeezed_vacuum_cov(r)
        assert np.linalg.norm(g.cov - g.cov.conj().T) < 1e-12


class TestPropagate:
    def test_identity(self):
        g = squeezed_vacuum_cov([0.2, 0.5])
        out = propagate(g, np.eye(2))
        assert np.allclose(out.cov, g.cov)

    def test_swap_exchanges_mode_blocks(self):
        g = squeezed_vacuum_cov([0.2, 0.7])
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = propagate(g, swap)
        expected = squeezed_vacuum_cov([0.7, 0.2])
        assert np.allclose(out.cov, expected.cov, atol=1e-14)

    def test_phase_leaves_occupation_invariant(self):
        g = squeezed_vacuum_cov(0.5, 1)
        out = propagate(g, np.array([[np.exp(1.3j)]]))
        assert abs(out.mean_photons()[0] - np.sinh(0.5) ** 2) < 1e-12

    def test_total_mean_photons_preserved(self):
        c = build_brickwork(4, 4, seed=6)
        g = squeezed_vacuum_cov(0.4, 4)
        out = propagate(g, circuit_to_mode_unitary(c))
        assert abs(out.total_mean_photons() - g.total_mean_photons()) < 1e-10

    def test_contractions_compose_to_their_product(self):
        # the lossy channels compose: Phi_A(Phi_B(sigma)) = Phi_AB(sigma)
        rng = np.random.default_rng(4)
        g = squeezed_vacuum_cov([0.3, 0.6, 0.1])
        pair = rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3))
        a, b = (x / np.linalg.norm(x, 2) for x in pair)  # largest singular value 1
        out = propagate(propagate(g, b), a)
        assert np.abs(out.cov - propagate(g, a @ b).cov).max() < 1e-14
        assert np.abs(out.cov - out.cov.conj().T).max() < 1e-14

    def test_scaled_identity_is_uniform_loss(self):
        g = squeezed_vacuum_cov([0.2, 0.9])
        eta = 0.3
        expected = eta * g.cov + (1.0 - eta) / 2.0 * np.eye(4)
        assert np.abs(propagate(g, np.sqrt(eta) * np.eye(2)).cov - expected).max() < 1e-15

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            propagate(squeezed_vacuum_cov(0.1, 2), np.eye(3))

    def test_gate_by_gate_matches_compiled_unitary(self):
        c = build_brickwork(5, 5, seed=12)
        g = squeezed_vacuum_cov(0.3, 5)
        a = propagate(g, circuit_to_mode_unitary(c))
        b = propagate_circuit(g, c)
        assert np.linalg.norm(a.cov - b.cov) < 1e-12

    def test_gate_by_gate_matches_full_transfer_matrix_with_per_gate_loss(self):
        m = 48
        c = _with_seeded_loss(build_brickwork(m, m, seed=3), 48)
        assert {g.lossy_mode for g in c.gates()} == {0, 1}
        g = squeezed_vacuum_cov(0.4, m)
        assert np.abs(propagate_circuit(g, c).cov - _full_transfer_reference(g, c)).max() < 1e-12

    def test_gate_order_within_a_layer_does_not_matter(self, tmp_path):
        # a file may list a layer's gates in any order; reverse every layer
        m = 10
        c = _with_seeded_loss(build_brickwork(m, m, seed=5), 10)
        path = tmp_path / "reversed.json"
        layers = tuple(l[::-1] for l in c.layers) + ((),)  # an empty layer is the identity
        save_circuit(Circuit(num_modes=m, layers=layers), path)
        loaded = load_circuit(path)
        assert [g.modes for g in loaded.layers[0]] == [(8, 9), (6, 7), (4, 5), (2, 3), (0, 1)]
        g = squeezed_vacuum_cov([0.1 * k for k in range(m)], m)
        assert np.abs(propagate_circuit(g, loaded).cov - _full_transfer_reference(g, c)).max() < 1e-12

    def test_state_covariance_is_read_only(self):
        cov = squeezed_vacuum_cov(0.3, 2).cov.copy()
        g = GaussianState(cov=cov, num_modes=2)
        with pytest.raises(ValueError):
            g.cov[0, 0] = 1.0
        cov[0, 0] = 1.0  # the state holds its own copy
        assert g.cov[0, 0] != 1.0


class TestUniformLoss:
    def test_full_transmission_is_identity(self):
        g = squeezed_vacuum_cov(0.5, 2)
        assert np.allclose(uniform_loss(g, 1.0).cov, g.cov)

    def test_half_loss_mean_photons_vs_dense_kraus(self):
        g = uniform_loss(squeezed_vacuum_cov(0.5, 1), 0.5)
        assert abs(g.total_mean_photons() - 0.5 * np.sinh(0.5) ** 2) < 1e-12
        # dense oracle: one Kraus channel of gamma = 0.5 on the squeezed vacuum
        cutoff = 40
        rho = dense_squeezed_vacuum(0.5, 1, cutoff).to_density().matrix
        rho = sum(k @ rho @ k.conj().T for k in kraus_set(0.5, cutoff))
        mean_dense = float(np.trace(np.diag(np.arange(cutoff + 1.0)) @ rho).real)
        assert abs(g.total_mean_photons() - mean_dense) < 1e-10

    def test_small_transmission_approaches_vacuum(self):
        g = uniform_loss(squeezed_vacuum_cov(0.8, 2), 1e-9)
        assert np.linalg.norm(g.cov - 0.5 * np.eye(4)) < 1e-8

    def test_eta_range(self):
        g = squeezed_vacuum_cov(0.1, 1)
        for eta in (0.0, 1.5, -0.1):
            with pytest.raises(ValueError):
                uniform_loss(g, eta)


class TestHafnian:
    @pytest.mark.parametrize("size", [2, 4, 6, 8, 10, 12])
    def test_matches_matching_sum(self, size):
        rng = np.random.default_rng(size)
        for _ in range(20):
            b = _random_symmetric(rng, size)
            expected = _matching_sum(b)
            assert abs(hafnian(b) - expected) <= 1e-12 * abs(expected)

    @pytest.mark.parametrize(
        "repeats", [(2,), (3,), (1, 2), (0, 3), (2, 2), (3, 1, 0), (1, 1, 2, 0), (2, 1, 1, 2)]
    )
    def test_repeats_match_matching_sum_of_expanded_matrix(self, repeats):
        rng = np.random.default_rng(sum(repeats) + len(repeats))
        k = len(repeats)
        b = _random_symmetric(rng, 2 * k)
        # rows and columns j and K + j each appear repeats[j] times
        idx = [j for j in range(k) for _ in range(repeats[j])]
        idx += [k + j for j in idx]
        expected = _matching_sum(b[np.ix_(idx, idx)])
        assert abs(hafnian(b, repeats) - expected) <= 1e-12 * abs(expected)

    def test_unit_repeats_are_the_default(self):
        b = _random_symmetric(np.random.default_rng(3), 8)
        assert hafnian(b, [1, 1, 1, 1]) == hafnian(b)

    def test_zero_repeats_give_the_empty_hafnian(self):
        assert hafnian(np.ones((4, 4)), [0, 0]) == 1.0

    @pytest.mark.parametrize("repeats", [[1], [1, 1, 1], [1, -1], [1.5, 1], ["1", 1], 2])
    def test_bad_repeats_rejected(self, repeats):
        with pytest.raises(ValueError):
            hafnian(np.ones((4, 4)), repeats)

    def test_integral_float_repeats_are_counts(self):
        b = _random_symmetric(np.random.default_rng(4), 4)
        assert hafnian(b, [1.0, 2.0]) == hafnian(b, np.array([1, 2]))

    def test_direct_sum_at_twenty_four(self):
        # haf(A (+) B) = haf(A) haf(B), each factor from the oracle; the sum
        # over 2^12 signed terms cancels, so the bound is looser than at 2N <= 12
        rng = np.random.default_rng(24)
        a, b = _random_symmetric(rng, 12), _random_symmetric(rng, 12)
        block = np.zeros((24, 24), dtype=np.complex128)
        block[:12, :12], block[12:, 12:] = a, b
        expected = _matching_sum(a) * _matching_sum(b)
        assert abs(hafnian(block) - expected) <= 1e-8 * abs(expected)

    def test_two_by_two(self):
        b = np.array([[1.0, 7.5], [7.5, 2.0]])
        assert hafnian(b) == 7.5

    def test_four_by_four_expansion(self):
        rng = np.random.default_rng(0)
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        b = b + b.T
        expected = b[0, 1] * b[2, 3] + b[0, 2] * b[1, 3] + b[0, 3] * b[1, 2]
        assert abs(hafnian(b) - expected) < 1e-12

    def test_all_ones_counts_matchings(self):
        assert hafnian(np.ones((6, 6))) == 15  # 5!!

    def test_empty_matrix(self):
        assert hafnian(np.zeros((0, 0))) == 1.0

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            hafnian(np.ones((3, 3)))

    @pytest.mark.parametrize("shape", [(2, 4), (4,), (2, 2, 2)])
    def test_non_square_rejected(self, shape):
        with pytest.raises(ValueError, match="hafnian needs a square matrix"):
            hafnian(np.ones(shape))

    def test_multilinearity_in_rows(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            b = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            b = b + b.T
            k = rng.integers(0, 6)
            c = rng.normal() + 1j * rng.normal()
            scaled = b.copy()
            scaled[k, :] *= c
            scaled[:, k] *= c
            # row k appears in exactly one factor of every matching, but the
            # diagonal (k, k) never does, so undo its double scaling
            scaled[k, k] = b[k, k] * c
            h, hs = hafnian(b), hafnian(scaled)
            assert abs(hs - c * h) <= 1e-10 * max(1.0, abs(c * h))


class TestGbsProbability:
    def test_vacuum_state_vacuum_outcome(self):
        g = squeezed_vacuum_cov(0.0, 3)
        assert abs(gbs_probability(g, (0, 0, 0)) - 1.0) < 1e-12

    def test_vacuum_state_nonzero_outcome(self):
        g = squeezed_vacuum_cov(0.0, 2)
        assert gbs_probability(g, (1, 0)) < 1e-12
        assert gbs_probability(g, (2, 2)) < 1e-12

    def test_single_mode_pair_probability(self):
        g = squeezed_vacuum_cov(0.5, 1)
        expected = np.tanh(0.5) ** 2 / np.cosh(0.5) / 2.0
        assert abs(gbs_probability(g, (2,)) - expected) < 1e-12

    def test_odd_total_is_zero_for_pure_squeezed(self):
        c = build_brickwork(3, 3, seed=2)
        g = propagate(squeezed_vacuum_cov(0.4, 3), circuit_to_mode_unitary(c))
        assert gbs_probability(g, (1, 0, 0)) < 1e-12
        assert gbs_probability(g, (1, 1, 1)) < 1e-12

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            gbs_probability(squeezed_vacuum_cov(0.1, 1), (-1,))

    def test_singular_covariance_raises(self):
        g = GaussianState(cov=np.full((2, 2), np.nan), num_modes=1)
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericalFailureError):
                gbs_probability(g, (0,))

    @pytest.mark.parametrize(
        "seed, modes",
        [(356655155, (5, 11, 17, 21, 29, 43)), (326825268, (2, 24, 34, 36, 39, 47))],
    )
    def test_cancelling_signed_sum_is_taken_again(self, seed, modes):
        # p ~ 1e-12: the 2^6 signed terms of the power-trace formula cancel,
        # and one pass in double precision was 1.1e-8 and 1.3e-8 off
        state = propagate_circuit(squeezed_vacuum_cov(0.4, 48), build_brickwork(48, 48, seed=seed))
        outcome = tuple(int(k in modes) for k in range(48))
        idx = list(modes) + [48 + k for k in modes]
        expected = _matching_sum(state.kernel[np.ix_(idx, idx)]) * state.normalization
        assert abs(gbs_probability(state, outcome) - expected.real) <= 1e-10 * abs(expected)

    @pytest.mark.parametrize("photons", [100, 150])
    def test_sum_cancelling_past_the_roundoff_window_is_refused(self, photons):
        # terms of C(N, m) ~ 1e29 and more; even in extended precision the
        # sum gave 8.3e-9 for N = 100 and 0.88 for N = 150, against 5e-44 and 4e-65
        with pytest.raises(NumericalFailureError, match="signed sum cancels"):
            gbs_probability(squeezed_vacuum_cov(0.4, 4), (photons, 0, 0, 0))

    @pytest.mark.parametrize("photons", [171, 1000])
    def test_factorials_past_the_float_range_are_refused(self, photons):
        # 171! > 1.8e308; the parent raised OverflowError after the hafnian
        with pytest.raises(NumericalFailureError, match="factorials"):
            gbs_probability(squeezed_vacuum_cov(0.4, 4), (photons, 0, 0, 0))

    def test_count_vector_table_passes_the_size_guard(self, monkeypatch):
        # six single photons: 2^6 count vectors of 6 entries each
        monkeypatch.setattr(errors, "SIZE_LIMIT", 6 * 2**6 - 1)
        with pytest.raises(ResourceLimitError, match="count-vector table"):
            gbs_probability(squeezed_vacuum_cov(0.4, 6), (1,) * 6)
        monkeypatch.setattr(errors, "SIZE_LIMIT", 6 * 2**6)
        assert gbs_probability(squeezed_vacuum_cov(0.4, 6), (1,) * 6) >= 0.0

    def test_normalization_at_desk_scale(self):
        # M = 2, r = 0.4: the tail beyond 8 photons is ~6e-5 < 1e-4
        c = build_brickwork(2, 2, seed=5)
        g = propagate(squeezed_vacuum_cov(0.4, 2), circuit_to_mode_unitary(c))
        total = 0.0
        for t in range(9):
            for n in itertools.product(range(t + 1), repeat=2):
                if sum(n) == t:
                    total += gbs_probability(g, n)
        assert total >= 1.0 - 1e-4
        assert total <= 1.0 + 1e-10

    @pytest.mark.parametrize("num_modes", [2, 4])
    def test_sum_rule_matches_pair_distribution(self, num_modes):
        c = build_brickwork(num_modes, num_modes, seed=8)
        g = propagate(
            squeezed_vacuum_cov(0.4, num_modes), circuit_to_mode_unitary(c)
        )
        for total in (0, 2, 4, 6):
            shell = 0.0
            for n in itertools.product(range(total + 1), repeat=num_modes):
                if sum(n) == total:
                    shell += gbs_probability(g, n)
            expected = photon_pair_distribution(num_modes, 0.4, total // 2)
            assert abs(shell - expected) < 1e-8

    def test_lossy_circuit_probabilities_match_dense(self):
        # per-gate loss handled exactly at covariance level
        c = with_uniform_loss(build_brickwork(2, 2, seed=3), 0.1)
        g = propagate_circuit(squeezed_vacuum_cov(0.4, 2), c)
        rho = dense_evolve_density(dense_squeezed_vacuum(0.4, 2, 14).to_density(), c)
        for n in itertools.product(range(4), repeat=2):
            assert abs(gbs_probability(g, n) - dense_probability(rho, n)) < 1e-10


class TestPairDistribution:
    def test_zero_squeezing(self):
        assert photon_pair_distribution(4, 0.0, 0) == 1.0
        assert photon_pair_distribution(4, 0.0, 3) == 0.0

    def test_two_modes_single_pair(self):
        r = 0.37
        expected = np.tanh(r) ** 2 / np.cosh(r) ** 2
        assert abs(photon_pair_distribution(2, r, 1) - expected) < 1e-14

    def test_normalization(self):
        total = sum(photon_pair_distribution(4, 0.5, nu) for nu in range(51))
        assert abs(total - 1.0) < 1e-10

    def test_matches_convolution_of_dense_single_mode_distributions(self):
        # P_M is the M-fold convolution of the single-mode photon distribution
        r, cutoff = 0.5, 60
        p1 = np.abs(single_mode_squeezed_vector(r, cutoff)) ** 2
        p2 = np.convolve(p1, p1)
        p4 = np.convolve(p2, p2)
        for nu in range(8):
            assert abs(photon_pair_distribution(4, r, nu) - p4[2 * nu]) < 1e-10

    @pytest.mark.parametrize("pairs", [500, 1000])
    def test_a_thousand_modes_stay_in_the_float_range(self, pairs):
        # the binomial C(nu + 499, nu) passes the float range and tanh^(2 nu)
        # underflows; the exact value, to 50 digits, is about 1e-155 at
        # nu = 500 and about 1e-460 at nu = 1000, which is 0 as a float
        with decimal.localcontext(decimal.Context(prec=50)):
            sech, tanh = 1 / decimal.Decimal(math.cosh(0.4)), decimal.Decimal(math.tanh(0.4))
            exact = math.comb(pairs + 499, pairs) * sech**1000 * tanh ** (2 * pairs)
        assert photon_pair_distribution(1000, 0.4, pairs) == pytest.approx(float(exact), rel=1e-12, abs=0.0)
        assert (float(exact) > 0.0) == (pairs == 500)

    def test_odd_mode_count_unsupported(self):
        with pytest.raises(UnsupportedConfigurationError):
            photon_pair_distribution(3, 0.4, 1)

    def test_negative_pairs_rejected(self):
        with pytest.raises(ValueError):
            photon_pair_distribution(2, 0.4, -1)

    def test_fractional_pairs_rejected(self):
        with pytest.raises(ValueError, match="pairs must be an integer, got 1.5"):
            photon_pair_distribution(4, 0.5, 1.5)
        assert photon_pair_distribution(4, 0.5, 1.0) == photon_pair_distribution(4, 0.5, 1)


class TestOracleTriangleEdge:
    def test_dense_state_agrees_on_seeded_circuit(self):
        c = build_brickwork(4, 4, seed=17)
        g = propagate(squeezed_vacuum_cov(0.4, 4), circuit_to_mode_unitary(c))
        psi = dense_evolve_state(dense_squeezed_vacuum(0.4, 4, 8), c)
        for n in [(0, 0, 0, 0), (1, 1, 0, 0), (2, 0, 0, 0), (1, 0, 2, 1)]:
            assert abs(gbs_probability(g, n) - dense_probability(psi, n)) < 1e-10
