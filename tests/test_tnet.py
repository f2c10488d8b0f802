import itertools
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from gbstn.analysis import dmax_bipartite, dmax_closed_form, dmax_fbs
from gbstn.circuit import (
    Circuit,
    Gate,
    GateParams,
    _gate_unitary_cached,
    build_brickwork,
    circuit_to_mode_unitary,
    gate_tensor,
    kraus_set,
    transfer_matrix,
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
from gbstn.gauss import gbs_probability, propagate, propagate_circuit, squeezed_vacuum_cov
from gbstn import tnet
from gbstn.tnet import (
    EvolutionStats,
    TruncationPolicy,
    apply_gate_mpo_adjoint,
    apply_gate_mps,
    evolve_input,
    fock_mps,
    fock_projector_mpo,
    heisenberg_probability_lossless,
    heisenberg_probability_lossy,
    mps_overlap,
    project_outcome,
    projected_squeezed_mps,
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

    def test_integral_max_bond_becomes_an_int(self):
        assert type(TruncationPolicy(max_bond=4.0).max_bond) is int
        assert TruncationPolicy(max_bond=np.int64(4)) == TruncationPolicy(max_bond=4)


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

    def test_state_trains_carry_schmidt_values_and_no_centre(self):
        # the whole squeezed input, and its parts Pi_N psi with N = 0, 2, 4
        r = [0.2, 0.5, 0.3]
        psi = squeezed_mps(r, 3, 6)
        norm = pytest.approx(psi.norm())
        assert [s.tolist() for s in psi.schmidt] == [[1.0], [norm], [norm], [1.0]]
        for psi in [psi] + [projected_squeezed_mps(r, 3, total) for total in (0, 2, 4)]:
            norm = psi.norm()
            assert psi.center is None
            assert psi.schmidt[0].tolist() == psi.schmidt[-1].tolist() == [1.0]
            for s in psi.schmidt[1:-1]:
                assert np.sum(s**2) == pytest.approx(norm**2, rel=1e-14)
            for t in psi.tensors[1:]:
                rows = t.reshape(t.shape[0], -1)
                assert np.max(np.abs(rows @ rows.conj().T - np.eye(len(rows)))) <= 1e-14
            with pytest.raises(ValueError, match="no centre"):
                tnet.TensorTrain(psi.tensors, psi.local_dim, 0, psi.phys_charges, psi.bond_charges, psi.schmidt)
            with pytest.raises(ValueError, match="Schmidt values do not match"):
                tnet.TensorTrain(psi.tensors, psi.local_dim, None, psi.phys_charges, psi.bond_charges, psi.schmidt[:-1])

    @pytest.mark.parametrize("given", [{}, {"phys_charges": [0, 1]}, {"bond_charges": [[0], [0]]}])
    def test_a_train_is_built_with_its_charges(self, given):
        with pytest.raises(TypeError):
            tnet.TensorTrain([np.zeros((1, 2, 1))], 2, None, **given)

    def test_squeezed_mps_matches_dense(self):
        psi = squeezed_mps([0.2, 0.5], 2, 8)
        dense = dense_squeezed_vacuum([0.2, 0.5], local_cutoff=8)
        assert np.allclose(psi.to_dense(), dense.amplitudes, atol=1e-14)


class TestApplyGateMps:
    def test_identity_gate_preserves_state(self):
        psi = projected_squeezed_mps(0.4, 2, 4)
        out = apply_gate_mps(psi, _gate(0.0, 0.0, 0.0))
        assert abs(mps_overlap(psi, out) / mps_overlap(psi, psi) - 1.0) < 1e-12

    def test_single_photon_swap(self):
        psi = fock_mps((1, 0), 2)
        out = apply_gate_mps(psi, _gate(np.pi / 2, 0.0, 0.0))
        assert abs(abs(mps_overlap(fock_mps((0, 1), 2), out)) - 1.0) < 1e-12

    def test_bond_growth_capped_by_svd_rank(self):
        policy = TruncationPolicy(max_bond=3)
        psi = projected_squeezed_mps(0.5, 2, 6)
        stats = EvolutionStats()
        out = apply_gate_mps(psi, _gate(), policy, stats)
        assert out.max_bond() <= 3
        out2 = apply_gate_mps(projected_squeezed_mps(0.5, 2, 6), _gate())
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
        schmidt = None if operator else [s.copy() for s in train.schmidt]
        center = train.center
        out = apply(train, gate)
        assert out.tensors[1] is not train.tensors[1]
        assert train.center == center
        assert all(np.array_equal(a, b) for a, b in zip(train.tensors, tensors))
        assert all(np.array_equal(a, b) for a, b in zip(train.bond_charges, bonds))
        if operator:
            assert train.schmidt is None
        else:
            assert len(train.schmidt) == len(schmidt)
            assert all(np.array_equal(a, b) for a, b in zip(train.schmidt, schmidt))

    def test_matches_dense_evolution(self):
        # the gates keep photon number, so the evolved input's part with N
        # photons is the count-N part of the dense evolution at a cutoff >= N
        c = build_brickwork(3, 3, seed=21)
        dense = dense_evolve_state(dense_squeezed_vacuum(0.4, 3, 5), c).amplitudes
        for total in range(6):
            psi = projected_squeezed_mps(0.4, 3, total)
            evolved = _evolve_mps(psi, c, TruncationPolicy(), EvolutionStats(), reverse=False)
            d = psi.local_dim
            pair = np.add.outer(np.arange(d), np.arange(d))
            counts = np.add.outer(pair, np.arange(d))
            expected = np.where(counts == total, dense[:d, :d, :d], 0.0)
            assert np.allclose(evolved.to_dense(), expected, atol=1e-12)


class TestPictureEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lossless_pictures_agree(self, seed):
        c = build_brickwork(4, 4, seed=seed)
        for n in [(0, 0, 0, 0), (1, 1, 0, 0), (2, 0, 1, 1), (0, 2, 2, 0)]:
            ph, _ = heisenberg_probability_lossless(c, n, 0.5, 6)
            ps, _ = schrodinger_probability(c, n, 0.5)
            assert abs(ph - ps) < 1e-8

    def test_heisenberg_matches_gaussian(self):
        c = build_brickwork(4, 4, seed=33)
        g = propagate(squeezed_vacuum_cov(0.4, 4), circuit_to_mode_unitary(c))
        p, _ = heisenberg_probability_lossless(c, (1, 1, 0, 0), 0.4, 8)
        assert abs(p - gbs_probability(g, (1, 1, 0, 0))) < 1e-8

    @pytest.mark.parametrize("r", [1.0, 1.2])
    def test_lossless_routes_are_exact_at_strong_squeezing(self, r):
        # n_c = N holds every photon of the outcome, so both routes are exact
        c = build_brickwork(6, 6, seed=1)
        g = propagate_circuit(squeezed_vacuum_cov(r, 6), c)
        for n in [(1, 1, 0, 2, 0, 0), (0, 2, 0, 0, 0, 0), (3, 1, 0, 0, 2, 0)]:
            reference = gbs_probability(g, n)
            ph, _ = heisenberg_probability_lossless(c, n, r, sum(n))
            ps, _ = schrodinger_probability(c, n, r)
            assert abs(ph - reference) <= 1e-12 * reference
            assert abs(ps - reference) <= 1e-12 * reference

    def test_identity_circuit_factorizes(self):
        c = build_brickwork(3, 2, angles=[(0.0, 0.0, 0.0)] * 2)
        p, _ = schrodinger_probability(c, (2, 0, 2), 0.5)
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
            schrodinger_probability(c, (0, 0), 0.4)


class TestProjectedInput:
    def test_is_the_part_of_the_input_with_that_total(self):
        for total in range(5):
            psi = projected_squeezed_mps(0.5, 4, total)
            d = max(total, 1) + 1
            pair = np.add.outer(np.arange(d), np.arange(d))
            counts = np.add.outer(pair, pair)
            expected = np.where(counts == total, squeezed_mps(0.5, 4, d - 1).to_dense(), 0.0)
            assert psi.local_dim == d and psi.schmidt is not None and psi.center is None
            assert np.allclose(psi.to_dense(), expected, rtol=0.0, atol=1e-15)
            _assert_charges_hold(psi)

    def test_bond_stays_below_the_fixed_photon_number_count(self):
        # the paper's count of a fixed-photon-number state across each cut
        m, photons = 16, 6
        c = build_brickwork(m, m, seed=1)
        psi, stats = evolve_input(c, 0.4, photons)
        assert stats.max_bond_seen == dmax_closed_form(m, photons)
        for k in range(1, m):
            assert psi.tensors[k].shape[0] <= dmax_bipartite(k, m - k, photons)
        outcome = (1,) * photons + (0,) * (m - photons)
        p, _ = project_outcome(psi, stats, outcome)
        reference = gbs_probability(propagate_circuit(squeezed_vacuum_cov(0.4, m), c), outcome)
        assert abs(p - reference) <= 1e-10 * reference

    @pytest.mark.parametrize("outcome", [(1, 0, 0, 0), (1, 1, 1, 0), (3, 0, 2, 0)])
    def test_odd_total_gives_zero(self, outcome):
        c = build_brickwork(4, 4, seed=2)
        p, stats = schrodinger_probability(c, outcome, 0.4)
        assert p == 0.0 and stats.raw_probability == 0.0

    def test_vacuum_outcome(self):
        c = build_brickwork(4, 4, seed=2)
        p, stats = schrodinger_probability(c, (0, 0, 0, 0), 0.4)
        reference = gbs_probability(propagate_circuit(squeezed_vacuum_cov(0.4, 4), c), (0, 0, 0, 0))
        assert abs(p - reference) <= 1e-12 * reference
        assert stats.max_bond_seen == 1

    def test_outcome_of_another_total_is_rejected(self):
        c = build_brickwork(4, 4, seed=2)
        psi, stats = evolve_input(c, 0.4, 2)
        with pytest.raises(ValueError, match="does not hold the evolved input's 2 photons"):
            project_outcome(psi, stats, (1, 1, 1, 1))
        p, _ = project_outcome(psi, stats, (1, 1, 0, 0))
        assert p == schrodinger_probability(c, (1, 1, 0, 0), 0.4)[0]


def _closed_form_overlap(circuit, outcome, train) -> complex:
    """<phi|train> for phi = U^dag|n> in closed form.  U^dag a_k^dag U =
    sum_j conj(u[k, j]) a_j^dag for the transfer matrix u, so phi is a train
    whose bond left of site j is labelled by the photons m <= n of each
    occupied mode k already placed on the sites before j: site j takes m to
    m + t on physical index |t|, with weight sqrt(|t|!) prod_k conj(u[k,
    j])^t_k / t_k!, and the whole carries prod_k sqrt(n_k!)."""
    u = transfer_matrix(circuit)
    occupied = [k for k, n in enumerate(outcome) if n]
    counts = [outcome[k] for k in occupied]
    labels = list(itertools.product(*(range(n + 1) for n in counts)))
    index = {m: i for i, m in enumerate(labels)}
    pairs = [
        (m, t) for m in labels for t in itertools.product(*(range(n - x + 1) for n, x in zip(counts, m)))
    ]
    t = np.array([t for _, t in pairs])
    rows = [index[m] for m, _ in pairs]
    cols = [index[tuple(np.add(m, step).tolist())] for m, step in pairs]
    phys = t.sum(axis=1)
    scale = np.sqrt([math.factorial(x) for x in phys]) / np.prod(
        [[math.factorial(x) for x in step] for step in t], axis=1
    )
    weights = scale[:, None] * np.prod(u[occupied].conj()[None] ** t[:, :, None], axis=1)
    env = np.zeros((len(labels), 1), dtype=np.complex128)  # (label of phi, bond of train)
    env[0, 0] = 1.0
    for j, site in enumerate(train.tensors):
        a = np.zeros((len(labels), site.shape[1], len(labels)), dtype=np.complex128)
        a[rows, phys, cols] = weights[:, j]
        env = np.tensordot(np.tensordot(env, a.conj(), axes=([0], [0])), site, axes=([0, 1], [0, 1]))
    return complex(env[index[tuple(counts)], 0]) * math.prod(math.sqrt(math.factorial(n)) for n in counts)


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

    @pytest.mark.parametrize("modes, photons", [(32, 6), (48, 6), (24, 8)], ids=["32", "48", "24-N8"])
    def test_evolved_outcome_matches_the_closed_form(self, modes, photons):
        # N single photons: 2^N labels, the dmax_fbs ceiling (64 and 256), on
        # every bond of the closed form
        c = build_brickwork(modes, modes, seed=1)
        outcome = (1,) * photons + (0,) * (modes - photons)
        phi = _evolve_mps(fock_mps(outcome, photons), c, TruncationPolicy(), EvolutionStats(), reverse=True)
        assert abs(1.0 - _closed_form_overlap(c, outcome, phi)) <= 1e-12

    def test_schrodinger_bound(self):
        c = build_brickwork(4, 4, seed=16)
        _, stats = schrodinger_probability(c, (0, 0, 0, 0), 0.4)
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

    def test_truncation_weight_is_the_lost_norm_of_the_squeezed_input(self):
        # the input's part with 4 photons: its norm is below 1 and sits in
        # site 0 and the Schmidt values
        c = build_brickwork(6, 6, seed=2)
        psi = projected_squeezed_mps(0.5, 6, 4)
        stats = EvolutionStats()
        out = _evolve_mps(psi, c, TruncationPolicy(max_bond=4), stats, reverse=False)
        assert stats.truncation_weight > 0.01
        assert abs((psi.norm() ** 2 - out.norm() ** 2) - stats.truncation_weight) < 1e-12
        # the first split that dropped weight left Schmidt form for a centre
        assert out.schmidt is None and out.center is not None

    @pytest.mark.parametrize("state", ["outcome", "input", 0, 2, 4])
    def test_schmidt_values_are_those_of_the_state(self, state):
        # as built and after an untruncated evolution; an integer state is
        # the input's part Pi_N psi with that many photons, and "input" the
        # part with 6 photons of an input squeezed unequally
        c = build_brickwork(6, 6, seed=3)
        if state == "outcome":
            train, reverse = fock_mps((1, 0, 2, 0, 1, 1), 5), True
        elif state == "input":
            train, reverse = projected_squeezed_mps([0.5, 0.2, 0.6, 0.3, 0.4, 0.5], 6, 6), False
        else:
            train, reverse = projected_squeezed_mps(0.5, 6, state), False
        out = _evolve_mps(train, c, TruncationPolicy(svd_threshold=0.0), EvolutionStats(), reverse)
        # Pi_0 psi is the vacuum's part, a product that every gate keeps one
        assert out.center is None and out.max_bond() > (0 if state == 0 else 4)
        for psi in (train, out):
            dense = psi.to_dense()
            d = dense.shape[0]
            for k in range(1, 6):
                s = np.linalg.svd(dense.reshape(d**k, -1), compute_uv=False)
                assert len(psi.schmidt[k]) == psi.tensors[k].shape[0]
                kept = np.sort(psi.schmidt[k])[::-1]
                assert np.max(np.abs(kept - s[: len(kept)])) <= 1e-12 * s[0]
                assert np.all(s[len(kept):] <= 1e-12 * s[0])
            for t in psi.tensors[1:]:
                rows = t.reshape(t.shape[0], -1)
                assert np.max(np.abs(rows @ rows.conj().T - np.eye(len(rows)))) <= 1e-12

    def test_lossless_route_takes_no_qr(self, monkeypatch):
        m, photons = 36, 4
        c = build_brickwork(m, m, seed=1)
        qr_calls, qr = [], np.linalg.qr

        def counted_qr(*args, **kwargs):
            qr_calls.append(args[0].shape)
            return qr(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counted_qr)
        trains = _captured(monkeypatch, "_evolve_mps")
        p, _ = heisenberg_probability_lossless(c, (1,) * photons + (0,) * (m - photons), 0.4, photons)
        assert p > 0.0
        assert qr_calls == []
        (phi,) = trains
        assert phi.schmidt is not None and phi.max_bond() > 1

    def test_schrodinger_route_takes_no_qr(self, monkeypatch):
        # the projected input is built in Schmidt form, so no split moves a centre
        m, photons = 16, 6
        c = build_brickwork(m, m, seed=1)
        qr_calls = []
        qr = np.linalg.qr

        def counted_qr(*args, **kwargs):
            qr_calls.append(args[0].shape)
            return qr(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counted_qr)
        psi, stats = evolve_input(c, 0.4, photons)
        assert qr_calls == []
        assert psi.schmidt is not None and stats.max_bond_seen > 1

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
        #   (0, 1): bond 2 keeps labels 0, 1, 2 from the split before;
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
        tnet._layouts.clear()
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
        # the packed pair holds three 1 x 1 blocks, so the new bond is at most
        # 3 and each new site at most 1 x 3 x 3 = 9 entries
        psi = fock_mps((1, 1), 2)
        monkeypatch.setattr(errors, "SIZE_LIMIT", 9)
        apply_gate_mps(psi, _gate())
        monkeypatch.setattr(errors, "SIZE_LIMIT", 8)
        with pytest.raises(ResourceLimitError, match="size guard"):
            apply_gate_mps(psi, _gate())

    def test_a_refused_update_stores_no_layout(self, monkeypatch):
        monkeypatch.setattr(tnet, "_layouts", {})
        monkeypatch.setattr(errors, "SIZE_LIMIT", 8)
        with pytest.raises(ResourceLimitError, match=r"update of modes \(0, 1\)"):
            apply_gate_mps(fock_mps((1, 1), 2), _gate())
        assert tnet._layouts == {}


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

    def test_svd_falls_back_to_gesvd_when_gesdd_fails(self, monkeypatch):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        block = next(b for b in _blocks() if b.shape == (9, 4))
        monkeypatch.setattr(np.linalg, "svd", failing)
        u, s, vh = tnet._svd(block)
        assert np.max(np.abs((u * s) @ vh - block)) <= 1e-14 * np.max(np.abs(block))
        _assert_orthonormal_columns(u)

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


def _captured_map(monkeypatch, apply, train, gate, **kwargs):
    """The train ``apply`` returns, and the map it hands the two-site kernel
    assembled into a dense matrix over the pair indices n1 * p + n2."""
    captured = []
    apply_two_site = tnet._apply_two_site

    def recorded(train, i, blocks, *args):
        captured.append(blocks)
        return apply_two_site(train, i, blocks, *args)

    monkeypatch.setattr(tnet, "_apply_two_site", recorded)
    out = apply(train, gate, TruncationPolicy(svd_threshold=0.0), **kwargs)
    monkeypatch.undo()
    (blocks,) = captured
    keys = np.add.outer(train.phys_charges, train.phys_charges).ravel()
    dense = np.zeros((len(keys), len(keys)), dtype=np.complex128)
    for k in np.unique(keys):
        index = np.flatnonzero(keys == k)
        dense[np.ix_(index, index)] = blocks[k]
    return out, dense


def _random_fill(train, seed):
    """A train with ``train``'s labels and random entries wherever they allow
    one, so that every charge block of a pair matrix is generic."""
    rng = np.random.default_rng(seed)
    tensors = []
    for k, t in enumerate(train.tensors):
        allowed = np.add.outer(train.bond_charges[k], train.phys_charges)[:, :, None] == (
            train.bond_charges[k + 1][None, None, :]
        )
        tensors.append(np.where(allowed, rng.normal(size=t.shape) + 1j * rng.normal(size=t.shape), 0.0))
    return tnet.TensorTrain(tensors, train.local_dim, None, train.phys_charges, train.bond_charges)


def _embedded(tensor, first, num_modes):
    """An operator on the modes from ``first`` on, as a tensor with axes
    (out, ..., in, ...) like ``gate_tensor``, in the little-endian basis of
    ``to_matrix``."""
    k, d = tensor.ndim // 2, tensor.shape[0]
    axes = list(range(k))[::-1] + list(range(k, 2 * k))[::-1]
    little = tensor.transpose(axes).reshape(d**k, d**k)
    return np.kron(np.kron(np.eye(d ** (num_modes - first - k)), little), np.eye(d**first))


def _superoperator(b: np.ndarray) -> np.ndarray:
    """The map O -> b^dag O b of a two-mode operator, as a matrix on the pair
    indices ((m1 d + n1) d^2 + m2 d + n2) of an operator train's pair; O's
    row is m1 d + m2 and its column n1 d + n2, as in ``gate_tensor``."""
    d = math.isqrt(b.shape[0])
    (m1, n1), (m2, n2) = (np.divmod(leg, d) for leg in np.divmod(np.arange(d**4), d * d))
    rows, cols = m1 * d + m2, n1 * d + n2
    columns = []
    for r, c in zip(rows, cols):
        unit = np.zeros((d * d, d * d))
        unit[r, c] = 1.0
        columns.append((b.conj().T @ unit @ b)[rows, cols])
    return np.array(columns).T


def _layout_trains() -> dict:
    """A state train, an operator train and an evolved Schrodinger input,
    each with more than one label on its bond 2."""
    c = build_brickwork(4, 2, seed=3)
    state = _evolve_mps(
        fock_mps((1, 2, 0, 1), 3), c, TruncationPolicy(), EvolutionStats(), reverse=True
    )
    operator = fock_projector_mpo((1, 2, 0, 1), 3)
    for gate in [g for layer in reversed(c.layers) for g in layer]:
        operator = apply_gate_mpo_adjoint(operator, gate)
    return {"state": state, "operator": operator, "schrodinger": evolve_input(c, 0.4, 4)[0]}


class TestGateByTotal:
    @pytest.mark.parametrize("d", [3, 4, 5, 6, 7])
    @pytest.mark.parametrize("charged", [True, False])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_equals_the_dense_gate_on_the_pair(self, monkeypatch, d, charged, reverse):
        gate = _gate(0.7, 0.3, 1.9, modes=(1, 2))
        if not charged:  # the whole squeezed input carries the trivial charge, which no gate keeps
            with pytest.raises(ValueError, match="does not keep these physical charges"):
                apply_gate_mps(squeezed_mps(0.5, 4, d - 1), gate, reverse=reverse)
            return
        # the outcome state, bonds labelled by the photons to their left
        c = build_brickwork(4, 2, seed=d)
        train = _evolve_mps(
            fock_mps((1, 2, 0, 1), d - 1), c, TruncationPolicy(), EvolutionStats(), reverse=True
        )
        assert len(set(train.bond_charges[2].tolist())) == 3
        train = _random_fill(train, d)
        out, local_map = _captured_map(monkeypatch, apply_gate_mps, train, gate, reverse=reverse)
        g = gate_tensor(gate.params, d - 1)
        if reverse:
            g = g.conj().transpose(2, 3, 0, 1)
        # the blocks by total are G (or G^dag) on the pair indices, exactly
        assert np.array_equal(local_map, g.reshape(d * d, d * d))
        # and the kernel applies them wherever the pair's charge blocks lie
        dense = np.moveaxis(np.tensordot(g, train.to_dense(), axes=([2, 3], [1, 2])), (0, 1), (1, 2))
        assert np.max(np.abs(out.to_dense() - dense)) <= 1e-13 * np.max(np.abs(dense))

    def test_layout_lists_each_packed_entry_once(self):
        # a state gate keeps the occupation totals n1 + n2, the adjoint
        # channel the charge sums (m1 - n1) + (m2 - n2)
        trains = _layout_trains()
        for train in (trains["state"], trains["operator"]):
            bonds, phys = train.bond_charges, train.phys_charges
            keys = np.add.outer(phys, phys).ravel()
            assert len(set(bonds[2].tolist())) > 1
            sectors, order, groups, _, _ = tnet._pair_layout(bonds[1], bonds[2], bonds[3], phys)
            assert sorted(order.tolist()) == list(range(sectors[-1][4].stop))
            assert [k for k, *_ in groups] == sorted({k for k, *_ in groups})
            assert {k for k, *_ in groups} <= set(keys.tolist())
            assert all((stop - start) % width == 0 for _, start, stop, width in groups)

    @pytest.mark.parametrize("kind", ["state", "operator", "schrodinger"])
    def test_layout_gathers_each_key_as_a_matrix(self, kind):
        # the per-key matmul needs row r of key k's group to be the r-th pair
        # index of key k, ascending, and each column one (alpha, beta) with
        # label(beta) - label(alpha) = k, the same in every row
        train = _layout_trains()[kind]
        left, mid, right = train.bond_charges[1:4]
        phys, p = train.phys_charges, len(train.phys_charges)
        assert len(set(mid.tolist())) > 1
        sectors, order, groups, *_ = tnet._pair_layout(left, mid, right, phys)
        entries = np.zeros((sectors[-1][4].stop, 4), dtype=np.int64)  # (alpha, n1, n2, beta)
        for _, rows, cols, _, span in sectors:
            r, c = np.divmod(np.arange(span.stop - span.start), len(cols))
            entries[span] = np.column_stack([*np.divmod(rows[r], p), *np.divmod(cols[c], len(right))])
        keys = np.add.outer(phys, phys).ravel()
        assert groups
        for k, start, stop, width in groups:
            alpha, n1, n2, beta = np.moveaxis(entries[order[start:stop]].reshape(width, -1, 4), 2, 0)
            assert np.array_equal(n1[:, 0] * p + n2[:, 0], np.flatnonzero(keys == k))
            assert (n1 == n1[:, :1]).all() and (n2 == n2[:, :1]).all()
            assert (alpha == alpha[0]).all() and (beta == beta[0]).all()
            assert (right[beta] - left[alpha] == k).all()

    def test_physical_charges_a_gate_does_not_keep_are_rejected(self):
        # charges 0, 2, 1 on occupations 0, 1, 2: the splits (0, 2) and (1, 1)
        # of two photons carry different charges, so no per-total map exists
        basis = np.eye(3, dtype=np.complex128)
        bonds = [np.array([0]), np.array([2]), np.array([4])]
        train = tnet.TensorTrain([basis[1].reshape(1, -1, 1)] * 2, 3, 0, [0, 2, 1], bonds)
        with pytest.raises(ValueError, match="does not keep these physical charges"):
            apply_gate_mps(train, _gate())
        # charge m + n on the (out m, in n) leg: pair indices of one charge
        # sum (m1 - n1) + (m2 - n2) carry different charges m + n
        basis = np.eye(9, dtype=np.complex128)
        charges = np.add.outer(np.arange(3), np.arange(3)).ravel()
        train = tnet.TensorTrain([basis[4].reshape(1, -1, 1)] * 2, 3, 0, charges, bonds)
        with pytest.raises(ValueError, match="does not keep these physical charges"):
            apply_gate_mpo_adjoint(train, _gate())

    def test_layouts_above_the_size_limit_are_not_stored(self, monkeypatch):
        # a pair of two 2-index bonds at d = 3: 6 rows plus 6 columns, a
        # 1-index middle bond, and 8 packed entries, one per (alpha, n1, n2,
        # beta) with n1 + n2 = label(beta) - label(alpha): 2 + 3 + 1 + 2, in
        # the charge blocks 0, 1 and 2 of 1 x 2, 2 x 2 and 2 x 1 entries
        left, mid, right, phys = np.array([0, 1]), np.array([1]), np.array([1, 2]), np.arange(3)
        monkeypatch.setattr(tnet, "_layouts", {})
        sectors, order, *_ = tnet._pair_layout(left, mid, right, phys)
        assert len(order) == 8 and len(sectors) == 3
        cost = 16 * (8 + 6 + 6 + 1) + 2048 * 3
        for limit, stored in ((cost - 1, False), (cost, True)):
            monkeypatch.setattr(tnet, "LAYOUT_BUDGET", limit)
            monkeypatch.setattr(tnet, "_layouts", {})
            tnet._pair_layout(left, mid, right, phys)
            assert len(tnet._layouts) == int(stored)

    def test_the_oldest_layouts_make_way_within_the_budget(self, monkeypatch):
        phys = np.arange(3)
        pairs = [(np.array([0, 1]), np.array([1]), np.array([1, 2]) + k) for k in range(3)]
        monkeypatch.setattr(tnet, "_layouts", {})
        for pair in pairs:
            tnet._pair_layout(*pair, phys)
        costs = [charged for _, charged in tnet._layouts.values()]
        monkeypatch.setattr(tnet, "LAYOUT_BUDGET", sum(costs[1:]))
        monkeypatch.setattr(tnet, "_layouts", {})
        for pair in pairs:
            tnet._pair_layout(*pair, phys)
        assert list(tnet._layouts) == [
            tuple(x.tobytes() for x in (*pair, phys)) for pair in pairs[1:]
        ]


def _center_move_trains():
    """An operator train with generic entries in every charge block, and a
    state train whose splits truncated, so that it carries no Schmidt values."""
    c = with_uniform_loss(build_brickwork(5, 5, seed=2), 0.1)
    op = fock_projector_mpo((1, 0, 2, 0, 1), 2)
    for gate in [g for layer in reversed(c.layers) for g in layer]:
        op = apply_gate_mpo_adjoint(op, gate)
    psi = _evolve_mps(
        fock_mps((1, 2, 0, 1, 1), 5), build_brickwork(5, 5, seed=3),
        TruncationPolicy(max_bond=3), EvolutionStats(), reverse=True,
    )
    assert psi.schmidt is None
    return {"operator": _random_fill(op, 4), "truncated state": psi}


class TestCenterMove:
    @pytest.mark.parametrize("name", ["operator", "truncated state"])
    def test_moves_keep_the_train_and_leave_isometries_either_side(self, name):
        train = _center_move_trains()[name]
        dense = train.to_dense()

        def moved(tensors, bonds, center, target):
            tensors, bonds = list(tensors), list(bonds)
            tnet._move_center(tensors, bonds, train.phys_charges, center, target)
            out = tnet.TensorTrain(tensors, train.local_dim, target, train.phys_charges, bonds)
            assert np.max(np.abs(out.to_dense() - dense)) <= 1e-13 * np.max(np.abs(dense))
            _assert_charges_hold(out)
            for k, t in enumerate(tensors):
                if k < target:  # a left isometry
                    a = t.reshape(-1, t.shape[2])
                    assert np.max(np.abs(a.conj().T @ a - np.eye(a.shape[1]))) <= 1e-12
                elif k > target:  # a right isometry
                    b = t.reshape(t.shape[0], -1)
                    assert np.max(np.abs(b @ b.conj().T - np.eye(b.shape[0]))) <= 1e-12
            return tensors, bonds

        # from no known centre to every site, then from each of those to every site
        sites = range(train.num_modes)
        canonical = [moved(train.tensors, train.bond_charges, None, target) for target in sites]
        for center in sites:
            for target in sites:
                moved(*canonical[center], center, target)

    def test_move_steps_read_the_pair_layout(self, monkeypatch):
        asked = []
        pair_layout = tnet._pair_layout

        def spy(*args):
            asked.append(args[4])
            return pair_layout(*args)

        monkeypatch.setattr(tnet, "_pair_layout", spy)
        c = with_uniform_loss(build_brickwork(4, 4, seed=1), 0.05)
        heisenberg_probability_lossy(c, (1, 1, 0, 0), 0.4, 3)
        moves = [what for what in asked if "centre move" in what]
        assert moves and len(moves) + c.num_gates == len(asked)
        assert all(what.startswith("an array of the centre move across modes (") for what in moves)

    def test_a_move_step_passes_the_size_guard_before_the_update(self, monkeypatch):
        # the projector's centre is site 0, so a gate on (2, 3) first moves it
        # across (0, 1) and (1, 2); every bond is 1, so each of these pairs has
        # the figure of the update
        op = fock_projector_mpo((1, 0, 0, 1), 2)
        bonds, phys = op.bond_charges, op.phys_charges
        figure = tnet._pair_layout(bonds[2], bonds[3], bonds[4], phys)[4]
        assert figure == tnet._pair_layout(bonds[0], bonds[1], bonds[2], phys)[4]
        monkeypatch.setattr(errors, "SIZE_LIMIT", figure - 1)
        with pytest.raises(ResourceLimitError, match=r"centre move across modes \(0, 1\) would hold"):
            apply_gate_mpo_adjoint(op, _gate(modes=(2, 3)))
        monkeypatch.setattr(errors, "SIZE_LIMIT", figure)
        apply_gate_mpo_adjoint(op, _gate(modes=(2, 3)))


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
        # four photons: the vacuum's part of the input is a product state,
        # which no cap truncates
        c = build_brickwork(4, 4, seed=19)
        tight = TruncationPolicy(max_bond=2)
        _, stats = schrodinger_probability(c, (1, 1, 1, 1), 0.5, tight)
        assert stats.truncation_weight > 0.0
        assert stats.max_bond_seen <= 2


class TestMpoAdjoint:
    def test_lossless_identity_angles_leave_operator(self):
        op = fock_projector_mpo((1, 0), 3)
        out = apply_gate_mpo_adjoint(op, _gate(0.0, 0.0, 0.0))
        assert np.allclose(out.to_matrix(), op.to_matrix(), atol=1e-12)

    @pytest.mark.parametrize("lossy", [0, 1])
    def test_pure_loss_on_vacuum_projector_gives_geometric_diagonal(self, lossy):
        gamma, cutoff = 0.3, 3
        op = fock_projector_mpo((0, 0), cutoff)
        out = apply_gate_mpo_adjoint(op, _gate(0.0, 0.0, 0.0, gamma=gamma, lossy=lossy))
        matrix = out.to_matrix()
        d = cutoff + 1
        lossed, vacuum = np.diag([gamma**n for n in range(d)]), np.eye(d)[:, :1] @ np.eye(d)[:1, :]
        # little-endian: mode 0 is the fast index, the right factor
        expected = np.kron(lossed, vacuum) if lossy else np.kron(vacuum, lossed)
        assert np.allclose(matrix, expected, atol=1e-12)

    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("gamma", [0.0, 0.2, 0.7])
    @pytest.mark.parametrize("lossy", [0, 1])
    def test_each_key_block_is_the_kraus_sum(self, d, gamma, lossy, monkeypatch):
        # the kernel receives conjugation blocks by A = (sum_mu K_mu) G; on a
        # block of one key they equal the channel's, since the terms of
        # A^dag O A that the channel lacks, mu != nu, change the key
        received, kernel = [], tnet._apply_two_site

        def spy(train, i, blocks, *rest):
            received.append(blocks)
            return kernel(train, i, blocks, *rest)

        monkeypatch.setattr(tnet, "_apply_two_site", spy)
        gate = _gate(0.7, 0.3, 1.9, gamma=gamma, lossy=lossy)
        apply_gate_mpo_adjoint(fock_projector_mpo((1, 0), d - 1), gate)
        (blocks,) = received
        g = gate_tensor(gate.params, d - 1).reshape(d * d, d * d)  # row m1 * d + m2
        kraus = [np.kron(k, np.eye(d)) if lossy == 0 else np.kron(np.eye(d), k) for k in kraus_set(gamma, d - 1)]
        channel = sum(_superoperator(k @ g) for k in kraus)
        folded = _superoperator(sum(kraus) @ g)
        charge = np.subtract.outer(np.arange(d), np.arange(d)).ravel()
        keys = np.add.outer(charge, charge).ravel()  # of pair index ((m1, n1), (m2, n2))
        assert sorted(blocks) == sorted(set(keys.tolist()))
        for q, block in blocks.items():
            index = np.flatnonzero(keys == q)
            assert np.max(np.abs(block - channel[np.ix_(index, index)])) <= 1e-13
        between = np.not_equal.outer(keys, keys)
        assert np.max(np.abs(channel[between])) <= 1e-13
        # without the restriction to one key the fold would be wrong
        assert (np.max(np.abs(folded[between])) > 1e-3) == (gamma > 0.0)

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

    @pytest.mark.parametrize("d", [3, 4, 5])
    @pytest.mark.parametrize("gamma", [0.0, 0.2, 0.7])
    @pytest.mark.parametrize("lossy", [0, 1])
    def test_one_step_equals_the_dense_channel_on_an_evolved_train(self, d, gamma, lossy):
        exact = TruncationPolicy(svd_threshold=0.0)
        c = with_uniform_loss(build_brickwork(4, 4, seed=d), 0.1)
        op = fock_projector_mpo((1, 0, 1, 1), d - 1)
        for gate in [g for layer in reversed(c.layers[-2:]) for g in layer]:
            op = apply_gate_mpo_adjoint(op, gate, exact)
        assert all(len(set(op.bond_charges[k].tolist())) > 1 for k in (1, 2, 3))
        gate = _gate(0.7, 0.3, 1.9, modes=(1, 2), gamma=gamma, lossy=lossy)
        out = apply_gate_mpo_adjoint(op, gate, exact)
        # O -> U^dag (sum_mu K_mu^dag O K_mu) U on the whole space
        u = _embedded(gate_tensor(gate.params, d - 1), 1, 4)
        matrix = op.to_matrix()
        lossed = sum(
            k.conj().T @ matrix @ k for k in (_embedded(k, 1 + lossy, 4) for k in kraus_set(gamma, d - 1))
        )
        expected = u.conj().T @ lossed @ u
        assert np.max(np.abs(out.to_matrix() - expected)) <= 1e-12 * np.max(np.abs(expected))


def _with_per_gate_loss(circuit: Circuit, seed: int) -> Circuit:
    rng = np.random.default_rng(seed)
    return Circuit(circuit.num_modes, tuple(
        tuple(Gate(g.modes, g.params, float(rng.uniform(0.02, 0.2)), int(rng.integers(2))) for g in layer)
        for layer in circuit.layers
    ))


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

    def test_gate_cache_holds_one_entry_of_blocks_per_gate(self):
        # each gate's own loss adds no entry: the Kraus set is built in closed
        # form, and the dense gate tensor is laid out from the cached blocks
        c = _with_per_gate_loss(build_brickwork(4, 4, seed=6), 6)
        assert c.num_gates == c.num_lossy_gates == 6
        _gate_unitary_cached.cache_clear()
        heisenberg_probability_lossy(c, (1, 0, 1, 0), 0.4, 3)
        assert _gate_unitary_cached.cache_info().currsize == 6
        for gate in c.gates():
            entry = _gate_unitary_cached(gate.params.theta, gate.params.varphi, gate.params.phi, 3)
            assert max(a.size for arrays in entry for a in arrays) <= 4**2
        assert _gate_unitary_cached.cache_info().currsize == 6


def _captured(monkeypatch, name) -> list:
    """Installs a wrapper on ``tnet.<name>`` and returns the list that
    collects the trains it returns."""
    trains, original = [], getattr(tnet, name)

    def captured(*args, **kwargs):
        trains.append(original(*args, **kwargs))
        return trains[-1]

    monkeypatch.setattr(tnet, name, captured)
    return trains


class TestClosing:
    """Every route closes its evolved train mode by mode on the input's
    amplitudes; the whole-train contractions, which no route calls, agree."""

    @pytest.mark.parametrize("modes", [(0, 1, 2, 3), (16, 17, 18, 19)])
    def test_lossless_closing_is_the_overlap_with_the_squeezed_train(self, monkeypatch, modes):
        # the M = 36, N = 4 instance of the lossless-heisenberg benchmark
        m = 36
        trains = _captured(monkeypatch, "_evolve_mps")
        outcome = tuple(int(k in modes) for k in range(m))
        _, stats = heisenberg_probability_lossless(build_brickwork(m, m, seed=1), outcome, 0.4, 4)
        (phi,) = trains
        expected = abs(mps_overlap(squeezed_mps(0.4, m, 4), phi)) ** 2
        assert stats.raw_probability == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_lossy_closing_is_the_expectation_in_the_squeezed_train(self, monkeypatch, seed):
        c = _with_per_gate_loss(build_brickwork(4, 4, seed=seed), seed)
        assert c.num_lossy_gates == c.num_gates
        trains = _captured(monkeypatch, "_evolve")
        psi = squeezed_mps(0.4, 4, 4)
        for outcome in [(0, 0, 0, 0), (1, 1, 0, 0), (2, 0, 1, 1), (1, 2, 1, 0)]:
            trains.clear()
            _, stats = heisenberg_probability_lossy(c, outcome, 0.4, 4)
            (op,) = trains
            expected = tnet.mpo_expectation(psi, op, psi).real
            assert stats.raw_probability == pytest.approx(expected, rel=1e-12, abs=1e-16)

    def test_expectation_is_the_dense_one_and_builds_no_train(self, monkeypatch):
        # complex entries everywhere the labels allow, so that a conjugation
        # on the wrong side or a swapped (out, in) leg shows
        trains = _captured(monkeypatch, "_evolve")
        heisenberg_probability_lossy(with_uniform_loss(build_brickwork(3, 3, seed=2), 0.1), (1, 0, 1), 0.4, 2)
        monkeypatch.undo()
        (op,) = trains
        op = _random_fill(op, 1)
        bra, ket = (_random_fill(projected_squeezed_mps(0.5, 3, 2), seed) for seed in (2, 3))
        built, init = [], tnet.TensorTrain.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(tnet.TensorTrain, "__init__", counted)
        value = tnet.mpo_expectation(bra, op, ket)
        monkeypatch.undo()
        assert built == []
        bra_vector, ket_vector = (t.to_dense().reshape(-1, order="F") for t in (bra, ket))
        assert value == pytest.approx(bra_vector.conj() @ op.to_matrix() @ ket_vector, rel=1e-13)

    def test_no_route_calls_a_whole_train_contraction(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("a route built or contracted a whole closing train")

        for name in ("squeezed_mps", "mps_overlap", "mpo_expectation"):
            monkeypatch.setattr(tnet, name, refused)
        c = build_brickwork(4, 4, seed=3)
        assert heisenberg_probability_lossless(c, (1, 1, 0, 0), 0.4, 2)[0] > 0.0
        assert heisenberg_probability_lossy(with_uniform_loss(c, 0.1), (1, 1, 0, 0), 0.4, 2)[0] > 0.0
        assert schrodinger_probability(c, (1, 1, 0, 0), 0.4)[0] > 0.0


class TestHermitianCut:
    """A cut of an operator split keeps as many values in its charge blocks q
    and -q, which hold equal values, so the cut operator stays Hermitian."""

    def test_a_cut_keeps_as_many_values_in_blocks_q_and_minus_q(self):
        exact = TruncationPolicy(svd_threshold=0.0)
        c = with_uniform_loss(build_brickwork(4, 4, seed=2), 0.1)
        op = fock_projector_mpo((1, 0, 1, 1), 2)
        for gate in [g for layer in reversed(c.layers[-2:]) for g in layer]:
            op = apply_gate_mpo_adjoint(op, gate, exact)
        gate = _gate(0.7, 0.3, 1.9, modes=(1, 2), gamma=0.2)
        full = apply_gate_mpo_adjoint(op, gate, exact)
        trimmed = []
        for cap in range(1, len(full.bond_charges[2])):
            stats = EvolutionStats()
            out = apply_gate_mpo_adjoint(op, gate, TruncationPolicy(max_bond=cap, svd_threshold=0.0), stats)
            labels = np.sort(out.bond_charges[2])
            assert np.array_equal(labels, np.sort(-labels))
            matrix = out.to_matrix()
            assert np.max(np.abs(matrix - matrix.conj().T)) <= 1e-12 * np.max(np.abs(matrix))
            # the weight the pairing drops is counted: it is the squared norm lost
            lost = mps_overlap(full, full).real - mps_overlap(out, out).real
            assert stats.truncation_weight == pytest.approx(lost, rel=1e-9, abs=1e-15)
            trimmed.append(len(labels) < cap)
        # the cap alone keeps exactly ``cap`` values; where that splits a pair
        # q, -q, the pairing keeps fewer
        assert any(trimmed) and not all(trimmed)

    @pytest.mark.parametrize("modes", [4, 5, 6])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_a_capped_operator_gives_no_non_real_value(self, modes, seed):
        # at max_bond = 6 the splits drop 0.4 to 0.8 of the projector's unit
        # squared norm; a cut Hermitian operator need not be positive, so a
        # value may be refused as negative, but never as non-real
        c = with_uniform_loss(build_brickwork(modes, modes, seed=seed), 0.05)
        outcome = (1,) * 4 + (0,) * (modes - 4)
        try:
            heisenberg_probability_lossy(c, outcome, 0.4, 4, TruncationPolicy(max_bond=6))
        except NumericalFailureError as exc:
            assert "below the roundoff window" in str(exc)

    def test_a_six_mode_lossy_value_under_a_cap(self):
        # the splits drop 5.5e-3 of the weight and nothing certifies the value
        # yet, so the tolerance is its observed error, 1.8e-4, with margin
        c = with_uniform_loss(build_brickwork(6, 6, seed=1), 0.05)
        outcome = (1, 1, 1, 1, 0, 0)
        p, _ = heisenberg_probability_lossy(c, outcome, 0.4, 4, TruncationPolicy(max_bond=100))
        exact = gbs_probability(propagate_circuit(squeezed_vacuum_cov(0.4, 6), c), outcome)
        assert p == pytest.approx(exact, rel=1e-3)


class TestClamping:
    def test_deeply_negative_value_raises(self):
        # the one probability check of every route, the Gaussian engine's too
        with pytest.raises(NumericalFailureError, match="below the roundoff window"):
            errors.check_probability(-1e-6)
        with pytest.raises(NumericalFailureError, match="non-real probability"):
            errors.check_probability(0.5 + 1e-7j)
        assert errors.check_probability(-1e-10) == 0.0
        assert errors.check_probability(1.0 + 1e-12) == 1.0
        assert errors.check_probability(0.25 + 1e-9j) == 0.25


_ROUTES = [
    (schrodinger_probability, 0.0),
    (heisenberg_probability_lossless, 0.0),
    (heisenberg_probability_lossy, 0.05),
]


def _counted_two_site_updates(monkeypatch) -> list:
    calls = []
    apply_two_site = tnet._apply_two_site

    def counted(*args, **kwargs):
        calls.append(args)
        return apply_two_site(*args, **kwargs)

    monkeypatch.setattr(tnet, "_apply_two_site", counted)
    return calls


class TestOutcomeLength:
    @pytest.mark.parametrize("outcome", [(1, 1, 0), (1, 1, 0, 0, 0)])
    @pytest.mark.parametrize("route, gamma", _ROUTES)
    def test_checked_before_any_gate(self, monkeypatch, route, gamma, outcome):
        calls = _counted_two_site_updates(monkeypatch)
        c = with_uniform_loss(build_brickwork(4, 4, seed=1), gamma)
        cutoff = () if route is schrodinger_probability else (3,)
        with pytest.raises(ValueError, match="outcome length does not match the mode count"):
            route(c, outcome, 0.4, *cutoff)
        assert calls == []

    # the Schrodinger route takes no cutoff
    @pytest.mark.parametrize("route, gamma", _ROUTES[1:])
    def test_cutoff_checked_before_any_gate(self, monkeypatch, route, gamma):
        calls = _counted_two_site_updates(monkeypatch)
        c = with_uniform_loss(build_brickwork(4, 4, seed=1), gamma)
        with pytest.raises(ValueError, match="outside the cutoff 3"):
            route(c, (4, 0, 0, 0), 0.4, 3)
        assert calls == []

    @pytest.mark.parametrize("outcome, cutoff", [((2, 2, 0, 0), 3), ((1, 1, 0, 0), 1)])
    def test_lossless_cutoff_below_the_photon_total_is_refused(self, monkeypatch, outcome, cutoff):
        # each count fits the cutoff, but the circuit can gather all of them in
        # one mode, where the truncated gates would lose them
        calls = _counted_two_site_updates(monkeypatch)
        c = build_brickwork(4, 4, seed=1)
        with pytest.raises(ValueError, match=f"lies outside the cutoff {cutoff}: {sum(outcome)} photons in all"):
            heisenberg_probability_lossless(c, outcome, 0.4, cutoff)
        assert calls == []
        monkeypatch.undo()
        p, _ = heisenberg_probability_lossless(c, outcome, 0.4, sum(outcome))
        gaussian = gbs_probability(propagate_circuit(squeezed_vacuum_cov(0.4, 4), c), outcome)
        assert p == pytest.approx(gaussian, rel=1e-9)


class TestRefusals:
    """Each bad input raises ValueError, with a message naming what is wrong."""

    CASES = {
        "train-no-sites": (lambda: tnet.TensorTrain([], 2, None, [0, 1], [[0]]), "at least one site"),
        "train-open-boundary": (
            lambda: tnet.TensorTrain([np.zeros((2, 2, 1))], 2, None, [0, 1], [[0, 0], [0]]), "boundary bonds",
        ),
        "train-bond-mismatch": (
            lambda: tnet.TensorTrain([np.zeros((1, 2, 2)), np.zeros((3, 2, 1))], 2, None, [0, 1], [[0], [0, 0], [0]]),
            "bond mismatch between sites 0 and 1",
        ),
        "train-physical-charges": (
            lambda: tnet.TensorTrain([np.zeros((1, 2, 1))], 2, None, phys_charges=[0, 1, 2], bond_charges=[[0], [0]]),
            "physical charges",
        ),
        "train-bond-charges": (
            lambda: tnet.TensorTrain([np.zeros((1, 2, 1))], 2, None, phys_charges=[0, 1], bond_charges=[[0, 0], [0]]),
            "bond charges",
        ),
        "train-schmidt-and-centre": (
            lambda: tnet.TensorTrain([np.zeros((1, 2, 1))], 2, 0, [0, 1], [[0], [0]], schmidt=[[1.0], [1.0]]),
            "no centre",
        ),
        "train-schmidt-values": (
            lambda: tnet.TensorTrain([np.zeros((1, 2, 1))], 2, None, [0, 1], [[0], [0]], schmidt=[[1.0], [1.0, 0.0]]),
            "Schmidt values",
        ),
        "train-centre-past-the-last-site": (
            lambda: tnet.TensorTrain([np.zeros((1, 2, 1))] * 3, 2, 7, [0, 1], [[0]] * 4),
            "centre 7 lies outside the 3 sites",
        ),
        "train-negative-centre": (
            lambda: tnet.TensorTrain([np.zeros((1, 2, 1))] * 3, 2, -1, [0, 1], [[0]] * 4),
            "centre -1 lies outside the 3 sites",
        ),
        "policy-fractional-max-bond": (lambda: TruncationPolicy(max_bond=2.5), "max_bond must be an integer, got 2.5"),
        "projected-negative-total": (lambda: projected_squeezed_mps(0.4, 3, -2), "photon total must be >= 0"),
        "overlap-mode-mismatch": (lambda: mps_overlap(fock_mps((1, 0), 2), fock_mps((1, 0, 0), 2)),
                                  "mode count mismatch"),
        "expectation-mode-mismatch": (
            lambda: tnet.mpo_expectation(fock_mps((1, 0), 2), fock_projector_mpo((1, 0, 0), 2), fock_mps((1, 0), 2)),
            "mode count mismatch",
        ),
        "gate-past-the-last-mode": (lambda: apply_gate_mps(fock_mps((1, 0), 2), _gate(modes=(1, 2))),
                                    r"gate on modes \(1, 2\) does not fit in 2 modes"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_raises(self, case):
        call, message = self.CASES[case]
        with pytest.raises(ValueError, match=message):
            call()
