from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from gbstn.circuit import Circuit, Gate, GateParams, build_brickwork, kraus_set, with_uniform_loss
from gbstn.errors import ResourceLimitError, UnsupportedConfigurationError
from gbstn.fockdense import (
    DenseDensity,
    dense_evolve_density,
    dense_evolve_state,
    dense_fock_state,
    dense_probability,
    dense_squeezed_vacuum,
    flat_index,
    single_mode_squeezed_vector,
    squeeze_values,
)


class TestSqueezedVacuum:
    def test_zero_squeezing_is_vacuum(self):
        psi = dense_squeezed_vacuum(0.0, 3, 4)
        expected = np.zeros((5, 5, 5))
        expected[0, 0, 0] = 1.0
        assert np.allclose(psi.amplitudes, expected)

    def test_odd_amplitudes_vanish(self):
        v = single_mode_squeezed_vector(0.5, 11)
        assert np.max(np.abs(v[1::2])) == 0.0

    @pytest.mark.parametrize("r", [-0.7, 0.0, 0.5, 1.2])
    def test_closed_form_matches_the_exponentiated_generator(self, r):
        # S(r)|0> from expm of r (a^2 - a*^2) / 2, truncated at 400 photons:
        # the amplitude there is below 1e-16, so the first entries are free of
        # the truncation
        a = np.diag(np.sqrt(np.arange(1.0, 401)), 1)
        reference = scipy.linalg.expm(0.5 * r * (a @ a - a.T @ a.T))[:, 0]
        for cutoff in (0, 1, 6, 60):
            v = single_mode_squeezed_vector(r, cutoff)
            assert v.shape == (cutoff + 1,) and not v.flags.writeable
            assert np.max(np.abs(v - reference[: cutoff + 1])) <= 1e-14

    def test_vacuum_overlap_closed_form(self):
        # |<0|S(r)|0>|^2 = sech(r), checked at a tail-free cutoff
        v = single_mode_squeezed_vector(0.5, 60)
        assert abs(abs(v[0]) ** 2 - 1.0 / np.cosh(0.5)) < 1e-12

    def test_two_photon_amplitude_closed_form(self):
        v = single_mode_squeezed_vector(0.5, 60)
        expected = np.tanh(0.5) ** 2 / np.cosh(0.5) / 2.0
        assert abs(abs(v[2]) ** 2 - expected) < 1e-12

    def test_mean_photon_number(self):
        v = single_mode_squeezed_vector(0.5, 60)
        mean = float(np.sum(np.arange(61) * np.abs(v) ** 2))
        assert abs(mean - np.sinh(0.5) ** 2) < 1e-12

    def test_truncation_keeps_norm_below_one(self):
        with pytest.warns(UserWarning):
            psi = dense_squeezed_vacuum(0.5, 1, 6)
        assert psi.norm() < 1.0

    def test_per_mode_squeezing(self):
        psi = dense_squeezed_vacuum([0.0, 0.5], local_cutoff=12)
        v = single_mode_squeezed_vector(0.5, 12)
        assert abs(psi.amplitudes[0, 2] - v[2]) < 1e-14
        assert abs(psi.amplitudes[2, 0]) < 1e-14


class TestEvolveState:
    def test_identity_circuit(self):
        c = build_brickwork(3, 2, angles=[(0.0, 0.0, 0.0)] * 2)
        psi = dense_squeezed_vacuum(0.3, 3, 6)
        out = dense_evolve_state(psi, c)
        assert np.allclose(out.amplitudes, psi.amplitudes, atol=1e-12)

    def test_single_photon_balanced_splitter(self):
        c = build_brickwork(2, 1, angles=[(np.pi / 4, 0.0, 0.0)])
        out = dense_evolve_state(dense_fock_state((1, 0), 3), c)
        assert abs(dense_probability(out, (1, 0)) - 0.5) < 1e-12
        assert abs(dense_probability(out, (0, 1)) - 0.5) < 1e-12

    def test_norm_preserved(self):
        c = build_brickwork(3, 3, seed=4)
        psi = dense_fock_state((1, 0, 2), 3)
        out = dense_evolve_state(psi, c)
        assert abs(out.norm() - 1.0) < 1e-10

    def test_lossy_gate_rejected(self):
        c = with_uniform_loss(build_brickwork(2, 1, seed=0), 0.1)
        with pytest.raises(UnsupportedConfigurationError):
            dense_evolve_state(dense_fock_state((1, 0), 2), c)


class TestEvolveDensity:
    def test_lossless_matches_pure_evolution(self):
        c = build_brickwork(3, 3, seed=9)
        psi = dense_squeezed_vacuum(0.4, 3, 4)
        pure = dense_evolve_state(psi, c)
        rho = dense_evolve_density(psi.to_density(), c)
        fidelity = np.real(pure.vector().conj() @ rho.matrix @ pure.vector())
        assert abs(fidelity - pure.norm() ** 4) < 1e-10

    def test_single_mode_loss_populations(self):
        # theta = 0 gate with loss on its lower output mode: |1> -> 0.7|1><1| + 0.3|0><0|
        gate = Gate(modes=(0, 1), params=GateParams(0.0, 0.0, 0.0), loss_gamma=0.3, lossy_mode=0)
        c = Circuit(num_modes=2, layers=((gate,),))
        rho = dense_evolve_density(dense_fock_state((1, 0), 2).to_density(), c)
        assert abs(dense_probability(rho, (1, 0)) - 0.7) < 1e-12
        assert abs(dense_probability(rho, (0, 0)) - 0.3) < 1e-12

    def test_trace_nonincreasing_and_hermitian(self):
        c = with_uniform_loss(build_brickwork(3, 3, seed=1), 0.2)
        rho0 = dense_squeezed_vacuum(0.4, 3, 3).to_density()
        rho = dense_evolve_density(rho0, c)
        assert rho.trace() <= rho0.trace() + 1e-10
        assert np.linalg.norm(rho.matrix - rho.matrix.conj().T) < 1e-10
        eigs = np.linalg.eigvalsh(rho.matrix)
        assert eigs.min() > -1e-10


class TestProbability:
    def test_vacuum_identity(self):
        c = build_brickwork(2, 1, angles=[(0.0, 0.0, 0.0)])
        out = dense_evolve_state(dense_squeezed_vacuum(0.0, 2, 2), c)
        assert abs(dense_probability(out, (0, 0)) - 1.0) < 1e-12

    def test_matches_gaussian_engine(self):
        from gbstn.circuit import circuit_to_mode_unitary
        from gbstn.gauss import gbs_probability, propagate, squeezed_vacuum_cov

        c = build_brickwork(2, 1, angles=[(np.pi / 4, 0.0, 0.0)])
        psi = dense_evolve_state(dense_squeezed_vacuum(0.5, 2, 16), c)
        g = propagate(squeezed_vacuum_cov(0.5, 2), circuit_to_mode_unitary(c))
        assert abs(dense_probability(psi, (1, 1)) - gbs_probability(g, (1, 1))) < 1e-12

    def test_probabilities_sum_to_trace(self):
        c = with_uniform_loss(build_brickwork(2, 2, seed=3), 0.1)
        rho = dense_evolve_density(dense_squeezed_vacuum(0.4, 2, 5).to_density(), c)
        total = sum(
            dense_probability(rho, (a, b)) for a in range(6) for b in range(6)
        )
        assert abs(total - rho.trace()) < 1e-10

    def test_out_of_cutoff_rejected(self):
        psi = dense_fock_state((1, 0), 2)
        with pytest.raises(ValueError):
            dense_probability(psi, (3, 0))


class TestInvariants:
    def test_memory_guard(self):
        with pytest.raises(ResourceLimitError):
            dense_squeezed_vacuum(0.1, 10, 9)  # 10^10 amplitudes

    def test_density_guard(self):
        psi = dense_squeezed_vacuum(0.4, 4, 7)  # 8^4 amplitudes, within the guard
        with pytest.raises(ResourceLimitError):
            psi.to_density()  # (8^4)^2 = 1.7e7 entries

    def test_kraus_vs_covariance_mean_photons(self):
        # k applications of the loss channel compose to eta = (1-gamma)^k
        from gbstn.gauss import squeezed_vacuum_cov, uniform_loss

        gamma, cutoff = 0.3, 30
        rho = dense_squeezed_vacuum(0.5, 1, cutoff).to_density().matrix
        ks = kraus_set(gamma, cutoff)
        number = np.diag(np.arange(cutoff + 1.0))
        for k_applications in range(1, 4):
            rho = sum(k @ rho @ k.conj().T for k in ks)
            mean_dense = float(np.trace(number @ rho).real)
            g = uniform_loss(squeezed_vacuum_cov(0.5, 1), (1 - gamma) ** k_applications)
            assert abs(mean_dense - g.total_mean_photons()) < 1e-10

    def test_little_endian_flat_index(self):
        assert flat_index((1, 0, 2), 3) == 1 + 2 * 16
        psi = dense_fock_state((1, 0, 2), 3)
        vec = psi.vector()
        assert vec[flat_index((1, 0, 2), 3)] == 1.0
        assert np.count_nonzero(vec) == 1

    def test_density_tensor_round_trip(self):
        rho = dense_squeezed_vacuum(0.3, 2, 3).to_density()
        again = DenseDensity._from_tensor(rho._tensor(), 2, 3)
        assert np.array_equal(again.matrix, rho.matrix)


class TestRefusals:
    """Each bad input raises the named error, with a message naming what is wrong."""

    CASES = {
        "squeezing-2d": (lambda: squeeze_values([[0.1, 0.2], [0.3, 0.4]]), ValueError, "1-d sequence"),
        "vacuum-no-modes": (lambda: dense_squeezed_vacuum(0.4, 0, 3), ValueError, "at least one mode"),
        "vacuum-empty-squeezing": (lambda: dense_squeezed_vacuum([], None, 3), ValueError, "at least one mode"),
        "state-mode-mismatch": (lambda: dense_evolve_state(dense_fock_state((1, 0, 0), 2), build_brickwork(2, 1, seed=1)),
                                ValueError, "mode count mismatch"),
        "density-mode-mismatch": (
            lambda: dense_evolve_density(dense_fock_state((1, 0, 0), 2).to_density(), build_brickwork(2, 1, seed=1)),
            ValueError, "mode count mismatch",
        ),
        "probability-of-another-type": (
            lambda: dense_probability(SimpleNamespace(num_modes=2, local_cutoff=2), (1, 0)),
            TypeError, "expected DenseState or DenseDensity",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_raises(self, case):
        call, error, message = self.CASES[case]
        with pytest.raises(error, match=message):
            call()

