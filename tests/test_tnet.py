import itertools
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from gbstn.analysis import dmax_fbs
from gbstn.circuit import (
    Circuit,
    Gate,
    GateParams,
    _gate_unitary_cached,
    build_brickwork,
    circuit_to_mode_unitary,
    gate_tensor,
    with_uniform_loss,
)
from gbstn.errors import NumericalFailureError, ResourceLimitError, UnsupportedConfigurationError
from gbstn.fockdense import (
    dense_evolve_density,
    dense_evolve_state,
    dense_probability,
    dense_squeezed_vacuum,
    single_mode_squeezed_vector,
)
from gbstn.gauss import gbs_probability, propagate, propagate_circuit, squeezed_vacuum_cov
from gbstn import tnet
from gbstn.tnet import (
    EvolutionStats,
    TruncationPolicy,
    apply_gate_mpo_adjoint,
    apply_gate_mps,
    fock_mps,
    fock_projector_mpo,
    heisenberg_probability_lossless,
    heisenberg_probability_lossy,
    mps_overlap,
    schrodinger_probability,
    squeezed_mps,
    _evolve_mps,
)


def _gate(theta=0.3, varphi=0.9, phi=1.4, modes=(0, 1), gamma=0.0, lossy=1):
    return Gate(
        modes=modes, params=GateParams(theta, varphi, phi), loss_gamma=gamma, lossy_mode=lossy
    )


class TestPolicy:
    def test_threshold_range(self):
        with pytest.raises(ValueError):
            TruncationPolicy(svd_threshold=1.0)
        with pytest.raises(ValueError):
            TruncationPolicy(svd_threshold=-0.5)

    def test_max_bond_positive(self):
        with pytest.raises(ValueError):
            TruncationPolicy(max_bond=0)


class TestStates:
    def test_fock_mps_is_one_hot(self):
        psi = fock_mps((2, 0, 1), 3)
        dense = psi.to_dense()
        assert abs(dense[2, 0, 1] - 1.0) < 1e-14
        assert np.count_nonzero(dense) == 1
        assert psi.max_bond() == 1

    def test_fock_mps_vacuum_self_overlap(self):
        psi = fock_mps((0, 0), 4)
        assert abs(mps_overlap(psi, psi) - 1.0) < 1e-14

    def test_fock_mps_cutoff_checked(self):
        with pytest.raises(ValueError):
            fock_mps((5, 0), 3)

    def test_squeezed_mps_zero_is_vacuum(self):
        psi = squeezed_mps(0.0, 3, 4)
        assert abs(mps_overlap(fock_mps((0, 0, 0), 4), psi) - 1.0) < 1e-14
        assert psi.max_bond() == 1

    def test_squeezed_mps_site_norm_equals_truncated_mass(self):
        # tail(r=0.5, n_c=10) from the dense oracle: about 2.8e-5, kept as is
        v = single_mode_squeezed_vector(0.5, 10)
        kept = float(np.vdot(v, v).real)
        psi = squeezed_mps(0.5, 1, 10)
        assert abs(mps_overlap(psi, psi).real - kept) < 1e-14
        assert 1.0 - kept < 3e-5
        assert kept < 1.0  # not renormalized

    def test_squeezed_mps_matches_dense(self):
        psi = squeezed_mps([0.2, 0.5], 2, 8)
        dense = dense_squeezed_vacuum([0.2, 0.5], local_cutoff=8)
        assert np.allclose(psi.to_dense(), dense.amplitudes, atol=1e-14)


class TestApplyGateMps:
    def test_identity_gate_preserves_state(self):
        psi = squeezed_mps(0.4, 2, 5)
        out = apply_gate_mps(psi, _gate(0.0, 0.0, 0.0))
        assert abs(mps_overlap(psi, out) / mps_overlap(psi, psi) - 1.0) < 1e-12

    def test_single_photon_swap(self):
        psi = fock_mps((1, 0), 2)
        out = apply_gate_mps(psi, _gate(np.pi / 2, 0.0, 0.0))
        assert abs(abs(mps_overlap(fock_mps((0, 1), 2), out)) - 1.0) < 1e-12

    def test_bond_growth_capped_by_svd_rank(self):
        policy = TruncationPolicy(max_bond=3)
        psi = squeezed_mps(0.5, 2, 6)
        stats = EvolutionStats()
        out = apply_gate_mps(psi, _gate(), policy, stats)
        assert out.max_bond() <= 3
        out2 = apply_gate_mps(squeezed_mps(0.5, 2, 6), _gate())
        assert out2.max_bond() <= 7  # old_bond * (n_c + 1)

    def test_norm_preserved_without_truncation(self):
        psi = fock_mps((1, 1, 0), 4)
        out = apply_gate_mps(psi, _gate())
        assert abs(out.norm() - 1.0) < 1e-10

    def test_reverse_applies_adjoint(self):
        psi = fock_mps((1, 0), 3)
        forward = apply_gate_mps(psi, _gate())
        back = apply_gate_mps(forward, _gate(), reverse=True)
        assert abs(mps_overlap(psi, back) - 1.0) < 1e-12

    def test_lossy_gate_rejected(self):
        with pytest.raises(UnsupportedConfigurationError):
            apply_gate_mps(fock_mps((0, 0), 2), _gate(gamma=0.1))

    @pytest.mark.parametrize("operator", [False, True])
    def test_input_train_is_left_unchanged(self, operator):
        c = build_brickwork(4, 4, seed=7)
        if operator:
            train = fock_projector_mpo((1, 0, 1, 0), 2)
            for gate in reversed(c.layers[-1] + c.layers[-2]):
                train = apply_gate_mpo_adjoint(train, gate)
            gate, apply = _gate(modes=(1, 2), gamma=0.1), apply_gate_mpo_adjoint
        else:
            train = _evolve_mps(
                fock_mps((1, 0, 1, 0), 2), c, TruncationPolicy(), EvolutionStats(), reverse=True
            )
            gate, apply = _gate(modes=(1, 2)), apply_gate_mps
        tensors = [t.copy() for t in train.tensors]
        bonds = [q.copy() for q in train.bond_charges]
        center = train.center
        out = apply(train, gate)
        assert out.tensors[1] is not train.tensors[1]
        assert train.center == center
        assert all(np.array_equal(a, b) for a, b in zip(train.tensors, tensors))
        assert all(np.array_equal(a, b) for a, b in zip(train.bond_charges, bonds))

    def test_matches_dense_evolution(self):
        c = build_brickwork(3, 3, seed=21)
        psi = squeezed_mps(0.4, 3, 5)
        stats = EvolutionStats()
        evolved = _evolve_mps(psi, c, TruncationPolicy(), stats, reverse=False)
        dense = dense_evolve_state(dense_squeezed_vacuum(0.4, 3, 5), c)
        assert np.allclose(evolved.to_dense(), dense.amplitudes, atol=1e-12)


class TestPictureEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lossless_pictures_agree(self, seed):
        c = build_brickwork(4, 4, seed=seed)
        for n in [(0, 0, 0, 0), (1, 1, 0, 0), (2, 0, 1, 1), (0, 2, 2, 0)]:
            ph, _ = heisenberg_probability_lossless(c, n, 0.5, 6)
            ps, _ = schrodinger_probability(c, n, 0.5, 6)
            assert abs(ph - ps) < 1e-8

    def test_heisenberg_matches_gaussian(self):
        c = build_brickwork(4, 4, seed=33)
        g = propagate(squeezed_vacuum_cov(0.4, 4), circuit_to_mode_unitary(c))
        p, _ = heisenberg_probability_lossless(c, (1, 1, 0, 0), 0.4, 8)
        assert abs(p - gbs_probability(g, (1, 1, 0, 0))) < 1e-8

    def test_identity_circuit_factorizes(self):
        c = build_brickwork(3, 2, angles=[(0.0, 0.0, 0.0)] * 2)
        p, _ = schrodinger_probability(c, (2, 0, 2), 0.5, 8)
        v = np.abs(single_mode_squeezed_vector(0.5, 8)) ** 2
        assert abs(p - v[2] * v[0] * v[2]) < 1e-12

    def test_vacuum_identity_unit_probability(self):
        c = build_brickwork(2, 1, angles=[(0.0, 0.0, 0.0)])
        p, _ = heisenberg_probability_lossless(c, (0, 0), 0.0, 2)
        assert abs(p - 1.0) < 1e-12

    def test_lossy_circuit_rejected_on_state_paths(self):
        c = with_uniform_loss(build_brickwork(2, 2, seed=0), 0.1)
        with pytest.raises(UnsupportedConfigurationError):
            heisenberg_probability_lossless(c, (0, 0), 0.4, 3)
        with pytest.raises(UnsupportedConfigurationError):
            schrodinger_probability(c, (0, 0), 0.4, 3)


class TestBondBounds:
    def test_single_photon_w_state_bound(self):
        c = build_brickwork(6, 6, seed=3)
        u = circuit_to_mode_unitary(c)
        for k in range(6):
            n = [0] * 6
            n[k] = 1
            stats = EvolutionStats()
            phi = _evolve_mps(fock_mps(n, 1), c, TruncationPolicy(), stats, reverse=True)
            assert stats.max_bond_seen <= 2
            for i in range(6):
                m = [0] * 6
                m[i] = 1
                amp = mps_overlap(fock_mps(m, 1), phi)  # <1_i|U^dag|1_k> = conj(u[k, i])
                assert abs(abs(amp) ** 2 - abs(u[k, i]) ** 2) < 1e-10

    def test_photons_in_one_mode_bound(self):
        c = build_brickwork(4, 4, seed=14)
        for n_photons in (1, 2, 3):
            outcome = (n_photons, 0, 0, 0)
            _, stats = heisenberg_probability_lossless(c, outcome, 0.4, 4)
            assert stats.max_bond_seen <= n_photons + 1

    def test_product_bound_for_general_outcomes(self):
        c = build_brickwork(4, 4, seed=15)
        for outcome in [(1, 1, 1, 1), (2, 1, 0, 1), (2, 2, 0, 0), (0, 3, 1, 0)]:
            _, stats = heisenberg_probability_lossless(c, outcome, 0.4, 4)
            bound = int(np.prod([n + 1 for n in outcome if n]))
            assert stats.max_bond_seen <= bound

    def test_schrodinger_bound(self):
        c = build_brickwork(4, 4, seed=16)
        _, stats = schrodinger_probability(c, (0, 0, 0, 0), 0.4, 4)
        assert stats.max_bond_seen <= 5 ** 2  # (n_c + 1)^(M/2)


class TestCanonicalForm:
    def test_truncation_weight_is_the_lost_norm(self):
        # n_c = N keeps the four-photon sector whole, so every gate is unitary
        # on it and only truncation can shrink the norm
        c = build_brickwork(8, 8, seed=1)
        stats = EvolutionStats()
        phi = _evolve_mps(
            fock_mps((1, 1, 1, 1, 0, 0, 0, 0), 4), c, TruncationPolicy(max_bond=4), stats,
            reverse=True,
        )
        assert stats.truncation_weight > 0.1
        assert abs((1.0 - phi.norm() ** 2) - stats.truncation_weight) < 1e-12

    def test_bond_stays_at_the_outcome_ceiling(self):
        m, photons = 36, 4
        c = build_brickwork(m, m, seed=1)
        outcome = (1,) * photons + (0,) * (m - photons)
        p, stats = heisenberg_probability_lossless(c, outcome, 0.4, photons)
        assert stats.max_bond_seen <= dmax_fbs(outcome)
        reference = gbs_probability(propagate_circuit(squeezed_vacuum_cov(0.4, m), c), outcome)
        assert abs(p - reference) <= 1e-8 * reference

    def test_gate_cache_holds_a_whole_circuit(self):
        m, photons = 36, 4
        c = build_brickwork(m, m, seed=1)
        assert c.num_gates == 630
        outcome = (1,) * photons + (0,) * (m - photons)
        _gate_unitary_cached.cache_clear()
        heisenberg_probability_lossless(c, outcome, 0.4, photons)
        misses = _gate_unitary_cached.cache_info().misses
        heisenberg_probability_lossless(c, outcome, 0.4, photons)
        # the gates outside the light cone are never looked up
        assert _gate_unitary_cached.cache_info().misses - misses == 0


def _counted_gate_updates(monkeypatch) -> list:
    calls = []
    apply = tnet.apply_gate_mps

    def counted(psi, gate, *args, **kwargs):
        calls.append(gate)
        return apply(psi, gate, *args, **kwargs)

    monkeypatch.setattr(tnet, "apply_gate_mps", counted)
    return calls


class TestLightCone:
    def test_gates_on_untouched_empty_modes_are_skipped(self, monkeypatch):
        # photons on modes 0-3 of a depth-36 brickwork on 36 modes: reading the
        # circuit backward, 240 of its 630 gates meet two modes still in vacuum
        m, photons = 36, 4
        c = build_brickwork(m, m, seed=1)
        outcome = (1,) * photons + (0,) * (m - photons)
        calls = _counted_gate_updates(monkeypatch)
        p, stats = heisenberg_probability_lossless(c, outcome, 0.4, photons)
        assert len(calls) == 390
        assert len(stats.per_layer_bonds) == m
        reference = gbs_probability(propagate_circuit(squeezed_vacuum_cov(0.4, m), c), outcome)
        assert abs(p - reference) <= 1e-10 * reference

    def test_every_gate_runs_when_every_mode_is_occupied(self, monkeypatch):
        c = build_brickwork(4, 4, seed=3)
        calls = _counted_gate_updates(monkeypatch)
        p, _ = heisenberg_probability_lossless(c, (1, 1, 1, 1), 0.4, 4)
        assert len(calls) == c.num_gates
        reference = gbs_probability(propagate_circuit(squeezed_vacuum_cov(0.4, 4), c), (1, 1, 1, 1))
        assert abs(p - reference) <= 1e-10 * reference

    def test_a_gate_that_acts_widens_the_cone(self, monkeypatch):
        # backward from n = (1, 0, 0, 0): the last layer's gate on (0, 1) acts
        # and lights mode 1, so the middle layer's (1, 2) acts and lights 2,
        # so the first layer's (2, 3) acts as well; (2, 3) of the last layer
        # meets the vacuum
        c = build_brickwork(4, 3, seed=4)
        assert [[g.modes for g in layer] for layer in c.layers] == [
            [(0, 1), (2, 3)], [(1, 2)], [(0, 1), (2, 3)]
        ]
        calls = _counted_gate_updates(monkeypatch)
        heisenberg_probability_lossless(c, (1, 0, 0, 0), 0.4, 1)
        assert len(calls) == 4
        assert set(calls) == {c.layers[2][0], c.layers[1][0], *c.layers[0]}


def _assert_charges_hold(train):
    """Every bond label vector has its bond's length, and every site entry
    whose left label plus physical charge differs from its right label is 0."""
    assert len(train.bond_charges) == train.num_modes + 1
    for k, t in enumerate(train.tensors):
        left, right = train.bond_charges[k], train.bond_charges[k + 1]
        assert left.shape == (t.shape[0],) and right.shape == (t.shape[2],)
        off = np.add.outer(left, train.phys_charges)[:, :, None] != right[None, None, :]
        assert np.all(t[off] == 0.0)


class TestChargeBlocks:
    def test_outcome_train_keeps_its_photon_number(self):
        c = build_brickwork(8, 8, seed=2)
        outcome = (1, 0, 2, 0, 1, 1, 0, 0)
        phi = _evolve_mps(
            fock_mps(outcome, 5), c, TruncationPolicy(), EvolutionStats(), reverse=True
        )
        assert phi.max_bond() > 1
        assert np.array_equal(phi.phys_charges, np.arange(6))
        assert phi.bond_charges[0].tolist() == [0] and phi.bond_charges[-1].tolist() == [5]
        _assert_charges_hold(phi)

    def test_lossy_operator_train_keeps_out_minus_in(self):
        c = with_uniform_loss(build_brickwork(4, 4, seed=3), 0.1)
        op = fock_projector_mpo((1, 0, 1, 0), 2)
        for layer in reversed(c.layers):
            for gate in layer:
                op = apply_gate_mpo_adjoint(op, gate)
        assert op.max_bond() > 1
        m, n = np.divmod(np.arange(9), 3)  # the (out m, in n) leg, vectorised
        assert np.array_equal(op.phys_charges, m - n)
        assert op.bond_charges[0].tolist() == [0] and op.bond_charges[-1].tolist() == [0]
        _assert_charges_hold(op)

    def test_max_bond_keeps_the_globally_largest_schmidt_values(self):
        c = build_brickwork(6, 4, seed=5)
        psi = _evolve_mps(
            fock_mps((1, 1, 1, 1, 0, 0), 4), c, TruncationPolicy(), EvolutionStats(), reverse=False
        )
        gate = _gate(0.7, 0.3, 1.9, modes=(2, 3))
        # the same pair split densely: the Schmidt values of the whole state
        # across the cut between modes 2 and 3 after the gate
        dense = np.moveaxis(
            np.tensordot(gate_tensor(gate.params, 4), psi.to_dense(), axes=([2, 3], [2, 3])),
            (0, 1), (2, 3),
        )
        s = np.linalg.svd(dense.reshape(5**3, 5**3), compute_uv=False)
        assert np.sum(s > 1e-12) > 4  # the cut spans several photon-number sectors
        stats = EvolutionStats()
        out = apply_gate_mps(psi, gate, TruncationPolicy(max_bond=4), stats)
        assert out.tensors[2].shape[2] == 4
        assert stats.truncation_weight == pytest.approx(float(np.sum(s[4:] ** 2)), abs=1e-13)
        assert stats.truncation_weight > 0.01

    def test_flop_estimate_counts_the_blocks_by_hand(self):
        # |1, 1, 0> at n_c = 2 through the gates on (0, 1), (1, 2), (0, 1).
        # Rows (alpha, n1) have charge q_alpha + n1, columns (n2, beta) q_beta - n2:
        #   (0, 1): labels 0 left, 2 right; rows have charges 0, 1, 2 and
        #           columns 2, 1, 0, so three 1 x 1 blocks (3 flops); all three
        #           values are kept, and the new bond has labels 0, 1, 2
        #   (1, 2): rows of charge 0, 1, 2 number 1, 2, 3 (those of charge 3
        #           and 4 match no column), one column each: 1 + 2 + 3 = 6 flops
        #   (0, 1): a QR of site 2 moves the centre back (labels stay 0, 1, 2);
        #           one row each, columns of charge 0, 1, 2 number 3, 2, 1
        #           (negative charges match no row): 3 + 2 + 1 = 6 flops
        c = build_brickwork(3, 3, seed=4)
        assert [[g.modes for g in layer] for layer in c.layers] == [[(0, 1)], [(1, 2)], [(0, 1)]]
        stats = EvolutionStats()
        _evolve_mps(fock_mps((1, 1, 0), 2), c, TruncationPolicy(), stats, reverse=False)
        assert stats.per_layer_bonds == [3, 3, 3]
        assert stats.flop_estimate == 3 + 6 + 6

    def test_flop_estimate_is_below_the_dense_split_cost(self, monkeypatch):
        shapes = []
        apply_two_site = tnet._apply_two_site

        def recorded(train, i, *args):
            out = apply_two_site(train, i, *args)
            (chi_l, p, _), chi_r = out.tensors[i].shape, out.tensors[i + 1].shape[2]
            shapes.append((chi_l, p, chi_r))
            return out

        monkeypatch.setattr(tnet, "_apply_two_site", recorded)
        c = build_brickwork(12, 12, seed=1)
        _, stats = heisenberg_probability_lossless(c, (1,) * 6 + (0,) * 6, 0.4, 6)
        dense = sum(
            float(chi_l * p) * (p * chi_r) * min(chi_l * p, p * chi_r) for chi_l, p, chi_r in shapes
        )
        assert len(shapes) == c.num_gates - 6  # the six gates outside the light cone
        assert stats.flop_estimate < dense / 100

    def test_threads_share_the_layout_cache(self):
        # more threads than cores, switching often, from an empty cache: every
        # thread must see whole layouts, so each probability equals the serial one
        c = build_brickwork(8, 8, seed=5)
        outcomes = [(1, 1, 0, 0, 0, 0, 1, 0), (0, 2, 0, 1, 0, 0, 0, 0), (0, 0, 0, 1, 1, 1, 0, 0)]
        serial = [heisenberg_probability_lossless(c, n, 0.4, 3)[0] for n in outcomes]
        tnet._sectors_of.cache_clear()
        tnet._totals_of.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [
                    pool.submit(heisenberg_probability_lossless, c, n, 0.4, 3) for n in outcomes * 4
                ]
                results = [f.result(timeout=120)[0] for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert results == pytest.approx(serial * 4, rel=1e-12)

    def test_size_guard_raises_before_the_pair_tensor(self, monkeypatch):
        psi = fock_mps((1, 1), 2)  # the pair tensor holds 1 x 3 x 3 x 1 = 9 entries
        monkeypatch.setattr(tnet, "DENSE_GUARD", 9)
        apply_gate_mps(psi, _gate())
        monkeypatch.setattr(tnet, "DENSE_GUARD", 8)
        with pytest.raises(ResourceLimitError, match="size guard"):
            apply_gate_mps(psi, _gate())


def _blocks():
    """Complex blocks of every shape the factorizations take apart, and zeros."""
    rng = np.random.default_rng(11)
    shapes = [(1, 1), (1, 6), (6, 1), (9, 4), (4, 9), (5, 5)]
    for shape in shapes:
        yield rng.normal(size=shape) + 1j * rng.normal(size=shape)
        yield np.zeros(shape, dtype=np.complex128)


def _assert_orthonormal_columns(q):
    assert np.allclose(q.conj().T @ q, np.eye(q.shape[1]), rtol=0.0, atol=1e-14)


class TestFactorizations:
    @pytest.mark.parametrize("block", list(_blocks()), ids=lambda b: f"{b.shape}-{np.any(b)}")
    def test_qr_rebuilds_the_block_with_orthonormal_q(self, block):
        q, r = tnet._qr(block)
        k = min(block.shape)
        assert q.shape == (block.shape[0], k) and r.shape == (k, block.shape[1])
        assert np.max(np.abs(q @ r - block)) <= 1e-14 * max(1.0, np.max(np.abs(block)))
        _assert_orthonormal_columns(q)
        assert np.all(np.tril(r, -1) == 0.0)

    @pytest.mark.parametrize("block", list(_blocks()), ids=lambda b: f"{b.shape}-{np.any(b)}")
    def test_svd_rebuilds_the_block_with_orthonormal_factors(self, block):
        u, s, vh = tnet._svd(block)
        k = min(block.shape)
        assert u.shape == (block.shape[0], k) and s.shape == (k,) and vh.shape == (k, block.shape[1])
        assert np.max(np.abs((u * s) @ vh - block)) <= 1e-14 * max(1.0, np.max(np.abs(block)))
        _assert_orthonormal_columns(u)
        _assert_orthonormal_columns(vh.conj().T)
        assert np.all(s >= 0.0) and np.all(np.diff(s) <= 0.0)

    def test_a_zero_vector_gives_a_unit_vector_and_zero(self):
        u, s, vh = tnet._svd(np.zeros((4, 1), dtype=np.complex128))
        assert s.tolist() == [0.0] and u[:, 0].tolist() == [1, 0, 0, 0] and vh.tolist() == [[1]]
        q, r = tnet._qr(np.zeros((1, 3), dtype=np.complex128))
        assert q.tolist() == [[1]] and r.tolist() == [[0, 0, 0]]

    def test_no_vector_block_reaches_numpy(self, monkeypatch):
        shapes = {"svd": [], "qr": []}
        for name in shapes:
            wrapped = getattr(np.linalg, name)

            def counted(matrix, *args, _name=name, _wrapped=wrapped, **kwargs):
                shapes[_name].append(matrix.shape)
                return _wrapped(matrix, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        c = build_brickwork(12, 12, seed=1)
        p, _ = heisenberg_probability_lossless(c, (1,) * 6 + (0,) * 6, 0.4, 6)
        assert p > 0.0
        assert shapes["svd"]  # the larger blocks do go through numpy
        assert [shape for calls in shapes.values() for shape in calls if min(shape) == 1] == []


def _captured_pair(monkeypatch, train, gate, reverse=False):
    """The local map apply_gate_mps hands the two-site kernel, and the packed
    layout of the gate's pair in ``train``."""
    captured = []
    monkeypatch.setattr(tnet, "_apply_two_site", lambda train, i, local_map, *_: captured.append(local_map))
    apply_gate_mps(train, gate, reverse=reverse)
    monkeypatch.undo()
    i, bonds, phys = gate.modes[0], train.bond_charges, train.phys_charges
    chi_l, p, chi_r = train.tensors[i].shape[0], train.local_dim, train.tensors[i + 1].shape[2]
    sectors = tnet._sectors(
        tnet._row_charges(bonds[i], phys), tnet._col_charges(phys, bonds[i + 2]), bonds[i + 1]
    )
    pair = tnet._Pair((chi_l, p, p, chi_r), bonds[i], bonds[i + 2], phys, sectors)
    return captured[0], pair


class TestGateByTotal:
    @pytest.mark.parametrize("d", [3, 4, 5, 6, 7])
    @pytest.mark.parametrize("charged", [True, False])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_equals_the_dense_gate_on_the_pair(self, monkeypatch, d, charged, reverse):
        c = build_brickwork(4, 2, seed=d)
        if charged:  # the outcome state, bonds labelled by the photons to their left
            train = _evolve_mps(
                fock_mps((1, 2, 0, 1), d - 1), c, TruncationPolicy(), EvolutionStats(), reverse=True
            )
        else:  # the squeezed input: every pair holds every total
            train = _evolve_mps(
                squeezed_mps(0.5, 4, d - 1), c, TruncationPolicy(), EvolutionStats(), reverse=False
            )
        assert len(set(train.bond_charges[2].tolist())) == (3 if charged else 1)
        gate = _gate(0.7, 0.3, 1.9, modes=(1, 2))
        local_map, pair = _captured_pair(monkeypatch, train, gate, reverse)
        rng = np.random.default_rng(d)
        size = pair.sectors[-1][5].stop
        packed = rng.normal(size=size) + 1j * rng.normal(size=size)
        g = gate_tensor(gate.params, d - 1).reshape(d * d, d * d)
        if reverse:
            g = g.conj().T
        chi_l, _, _, chi_r = pair.shape
        theta = tnet._unpacked(packed, pair).reshape(chi_l, d * d, chi_r)
        dense = (g @ theta).reshape(pair.shape)
        # G keeps the charges: nothing lands outside the blocks
        assert np.array_equal(tnet._unpacked(tnet._packed(dense, pair), pair), dense)
        mapped = local_map(packed.copy(), pair)
        assert np.max(np.abs(mapped - tnet._packed(dense, pair))) <= 1e-14 * np.max(np.abs(packed))

    def test_layout_lists_each_packed_entry_once(self):
        train = _evolve_mps(
            fock_mps((1, 2, 0, 1), 3), build_brickwork(4, 2, seed=3), TruncationPolicy(),
            EvolutionStats(), reverse=True,
        )
        bonds, phys = train.bond_charges, train.phys_charges
        order, totals = tnet._totals(bonds[1], bonds[3], phys)
        sectors = tnet._sectors(tnet._row_charges(bonds[1], phys), tnet._col_charges(phys, bonds[3]))
        assert sorted(order.tolist()) == list(range(sectors[-1][5].stop))
        assert [t for t, *_ in totals] == sorted({t for t, *_ in totals})
        assert all((stop - start) % width == 0 for _, start, stop, width in totals)

    def test_physical_charges_a_gate_does_not_keep_are_rejected(self):
        # charges 0, 2, 1 on occupations 0, 1, 2: the splits (0, 2) and (1, 1)
        # of two photons carry different charges, so no per-total map exists
        basis = np.eye(3, dtype=np.complex128)
        train = tnet._product_train([basis[1], basis[1]], 3, 0, [0, 2, 1], [2, 2])
        with pytest.raises(ValueError, match="does not keep these physical charges"):
            apply_gate_mps(train, _gate())

    def test_layouts_above_the_size_limit_are_not_stored(self, monkeypatch):
        # a pair of two 2-index bonds at d = 3: 6 rows plus 6 columns
        left, right, phys = np.array([0, 1]), np.array([1, 2]), np.arange(3)
        rows, cols = tnet._row_charges(left, phys), tnet._col_charges(phys, right)
        for limit, stored in ((11, False), (12, True)):
            monkeypatch.setattr(tnet, "SECTOR_SIZE", limit)
            tnet._totals_of.cache_clear()
            tnet._sectors_of.cache_clear()
            tnet._totals(left, right, phys)
            tnet._sectors(rows, cols)
            assert tnet._totals_of.cache_info().currsize == int(stored)
            assert tnet._sectors_of.cache_info().currsize == int(stored)


class TestTruncation:
    def test_threshold_monotonicity(self):
        c = build_brickwork(4, 4, seed=19)
        exact = TruncationPolicy(svd_threshold=0.0)
        default = TruncationPolicy(svd_threshold=1e-12)
        for n in [(1, 1, 0, 0), (2, 0, 2, 0)]:
            p0, _ = heisenberg_probability_lossless(c, n, 0.5, 6, exact)
            p1, _ = heisenberg_probability_lossless(c, n, 0.5, 6, default)
            assert abs(p0 - p1) <= 1e-9

    def test_truncation_weight_accumulates(self):
        c = build_brickwork(4, 4, seed=19)
        tight = TruncationPolicy(max_bond=2)
        _, stats = schrodinger_probability(c, (0, 0, 0, 0), 0.5, 6, tight)
        assert stats.truncation_weight > 0.0
        assert stats.max_bond_seen <= 2


class TestMpoAdjoint:
    def test_lossless_identity_angles_leave_operator(self):
        op = fock_projector_mpo((1, 0), 3)
        out = apply_gate_mpo_adjoint(op, _gate(0.0, 0.0, 0.0))
        assert np.allclose(out.to_matrix(), op.to_matrix(), atol=1e-12)

    def test_pure_loss_on_vacuum_projector_gives_geometric_diagonal(self):
        gamma, cutoff = 0.3, 3
        op = fock_projector_mpo((0, 0), cutoff)
        out = apply_gate_mpo_adjoint(op, _gate(0.0, 0.0, 0.0, gamma=gamma, lossy=1))
        matrix = out.to_matrix()
        d = cutoff + 1
        expected = np.kron(np.diag([gamma**n for n in range(d)]), np.eye(d)[:, :1] @ np.eye(d)[:1, :])
        # little-endian: mode 0 is the fast index; loss acted on mode 1
        assert np.allclose(matrix, expected, atol=1e-12)

    def test_hermiticity_preserved(self):
        op = fock_projector_mpo((1, 1), 3)
        out = apply_gate_mpo_adjoint(op, _gate(0.7, 0.2, 1.1, gamma=0.2))
        matrix = out.to_matrix()
        assert np.linalg.norm(matrix - matrix.conj().T) < 1e-10

    def test_duality_against_dense_channel(self):
        # Tr{E(rho) P_n} == Tr{rho E*(P_n)} with E from the dense oracle
        cutoff = 3
        gate = _gate(0.6, 1.9, 0.4, gamma=0.15, lossy=0)
        circuit = Circuit(num_modes=2, layers=((gate,),))
        rng = np.random.default_rng(7)
        d = cutoff + 1
        vec = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        vec /= np.linalg.norm(vec)
        from gbstn.fockdense import DenseState

        rho = DenseState(amplitudes=vec, num_modes=2, local_cutoff=cutoff).to_density()
        evolved = dense_evolve_density(rho, circuit)
        for n in [(0, 0), (1, 0), (2, 1), (3, 3)]:
            lhs = dense_probability(evolved, n)
            op = apply_gate_mpo_adjoint(fock_projector_mpo(n, cutoff), gate)
            rhs = float(np.real(np.trace(rho.matrix @ op.to_matrix())))
            assert abs(lhs - rhs) < 1e-10


class TestHeisenbergLossy:
    def test_zero_loss_matches_lossless_path(self):
        c = build_brickwork(3, 3, seed=5)
        for n in [(0, 0, 0), (1, 0, 1), (2, 1, 0)]:
            p_mpo, _ = heisenberg_probability_lossy(c, n, 0.4, 4)
            p_mps, _ = heisenberg_probability_lossless(c, n, 0.4, 4)
            assert abs(p_mpo - p_mps) < 1e-8

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_dense_density_evolution(self, seed):
        c = with_uniform_loss(build_brickwork(3, 3, seed=seed), 0.05)
        rho = dense_evolve_density(dense_squeezed_vacuum(0.4, 3, 4).to_density(), c)
        for total in range(4):
            for n in itertools.product(range(total + 1), repeat=3):
                if sum(n) != total:
                    continue
                p, stats = heisenberg_probability_lossy(c, n, 0.4, 4)
                assert abs(p - dense_probability(rho, n)) < 1e-8
                assert 0.0 <= p <= 1.0
                assert stats.raw_probability >= -1e-9

    def test_probability_clamped_to_unit_interval(self):
        c = build_brickwork(2, 2, seed=1)
        p, stats = heisenberg_probability_lossy(c, (0, 0), 0.0, 2)
        assert 0.0 <= p <= 1.0
        assert abs(stats.raw_probability - p) < 1e-9


class TestBatch:
    def test_stats_serializable(self):
        import json

        c = build_brickwork(2, 2, seed=2)
        _, stats = heisenberg_probability_lossless(c, (1, 1), 0.4, 4)
        payload = json.loads(json.dumps(stats.to_dict()))
        assert payload["max_bond_seen"] == stats.max_bond_seen
        assert len(payload["per_layer_bonds"]) == 2


class TestClamping:
    def test_deeply_negative_value_raises(self):
        from gbstn.tnet import _clamp_probability

        with pytest.raises(NumericalFailureError):
            _clamp_probability(-1e-6)
        assert _clamp_probability(-1e-10) == 0.0
        assert _clamp_probability(1.0 + 1e-12) == 1.0


class TestOutcomeLength:
    @pytest.mark.parametrize("outcome", [(1, 1, 0), (1, 1, 0, 0, 0)])
    @pytest.mark.parametrize(
        "route, gamma",
        [
            (schrodinger_probability, 0.0),
            (heisenberg_probability_lossless, 0.0),
            (heisenberg_probability_lossy, 0.05),
        ],
    )
    def test_checked_before_any_gate(self, monkeypatch, route, gamma, outcome):
        calls = []
        apply_two_site = tnet._apply_two_site

        def counted(*args, **kwargs):
            calls.append(args)
            return apply_two_site(*args, **kwargs)

        monkeypatch.setattr(tnet, "_apply_two_site", counted)
        c = with_uniform_loss(build_brickwork(4, 4, seed=1), gamma)
        with pytest.raises(ValueError, match="outcome length does not match the mode count"):
            route(c, outcome, 0.4, 3)
        assert calls == []
