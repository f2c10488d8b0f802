import json

import numpy as np
import pytest
import scipy.linalg
import scipy.special

from gbstn.circuit import (
    Circuit,
    Gate,
    GateParams,
    build_brickwork,
    circuit_to_mode_unitary,
    gate_tensor,
    kraus_set,
    load_circuit,
    save_circuit,
    single_photon_block,
    transfer_matrix,
    with_uniform_loss,
)
from gbstn.errors import UnsupportedConfigurationError


def _record(**changes) -> dict:
    record = {"modes": [0, 1], "theta": 0.1, "varphi": 0.2, "phi": 0.3, "loss_gamma": 0.05, "lossy_mode": 1}
    record.update(changes)
    return record


def _second_gate_data(**changes) -> dict:
    """A 5-mode circuit of two layers; the second gate of the second layer
    is on modes (3, 4) unless ``changes`` say otherwise."""
    return {"num_modes": 5, "layers": [[_record()], [_record(modes=[1, 2]), _record(**{"modes": [3, 4], **changes})]]}


class TestTypes:
    def test_gate_modes_must_be_adjacent(self):
        with pytest.raises(ValueError):
            Gate(modes=(0, 2), params=GateParams(0.1, 0.2, 0.3))

    def test_gate_loss_range(self):
        with pytest.raises(ValueError):
            Gate(modes=(0, 1), params=GateParams(0.1, 0.2, 0.3), loss_gamma=1.0)
        with pytest.raises(ValueError):
            Gate(modes=(0, 1), params=GateParams(0.1, 0.2, 0.3), loss_gamma=-0.1)

    def test_angles_must_be_finite(self):
        with pytest.raises(ValueError):
            GateParams(np.inf, 0.0, 0.0)

    def test_layer_overlap_rejected(self):
        g1 = Gate(modes=(0, 1), params=GateParams(0.1, 0.0, 0.0))
        g2 = Gate(modes=(1, 2), params=GateParams(0.1, 0.0, 0.0))
        with pytest.raises(ValueError):
            Circuit(num_modes=3, layers=((g1, g2),))
        with pytest.raises(ValueError, match=r"layer 1, gate 1: modes \(1, 2\) overlap"):
            Circuit(num_modes=3, layers=((g1,), (g1, g2)))
        with pytest.raises(ValueError, match=r"layer 1, gate 1: modes \(2, 3\) overlap"):
            Circuit.from_dict(_second_gate_data(modes=[2, 3]))

    def test_gate_past_num_modes_rejected(self):
        gate = Gate(modes=(3, 4), params=GateParams(0.1, 0.0, 0.0))
        with pytest.raises(ValueError, match=r"layer 0, gate 0: modes \(3, 4\) exceed num_modes=4"):
            Circuit(num_modes=4, layers=((gate,),))
        with pytest.raises(ValueError, match=r"layer 1, gate 1: modes \(5, 6\) exceed num_modes=5"):
            Circuit.from_dict(_second_gate_data(modes=[5, 6]))

    @pytest.mark.parametrize("lossy_mode", [2, -1])
    def test_lossy_mode_outside_the_pair_rejected(self, lossy_mode):
        with pytest.raises(ValueError, match=f"lossy_mode must be 0 or 1, got {lossy_mode}"):
            Gate(modes=(0, 1), params=GateParams(0.1, 0.2, 0.3), loss_gamma=0.1, lossy_mode=lossy_mode)

    def test_min_modes(self):
        with pytest.raises(ValueError):
            Circuit(num_modes=1, layers=())

    def test_numpy_scalars_and_bools_are_coerced(self):
        params = GateParams(np.float64(0.1), np.int64(2), True)
        assert [type(x) for x in (params.theta, params.varphi, params.phi)] == [float] * 3
        assert (params.varphi, params.phi) == (2.0, 1.0)
        for modes in ((np.int64(3), np.int64(4)), [3, 4], (np.int32(3), 4)):
            gate = Gate(modes=modes, params=params)
            assert gate.modes == (3, 4)
            assert type(gate.modes) is tuple and [type(i) for i in gate.modes] == [int, int]
        gate = Gate(modes=(False, True), params=params)
        assert gate.modes == (0, 1) and [type(i) for i in gate.modes] == [int, int]


class TestMalformedRecords:
    """A gate record of a circuit file is refused, not cut or truncated, and
    the refusal names its layer and gate."""

    def test_three_modes_are_refused(self):
        with pytest.raises(ValueError, match=r"layer 1, gate 1: a gate acts on two modes"):
            Circuit.from_dict(_second_gate_data(modes=[2, 3, 4]))

    def test_fractional_lossy_mode_is_refused(self):
        with pytest.raises(ValueError, match=r"layer 1, gate 1: lossy_mode must be an integer, got 1.7"):
            Circuit.from_dict(_second_gate_data(lossy_mode=1.7))

    def test_non_integral_mode_is_refused(self):
        with pytest.raises(ValueError, match=r"layer 1, gate 1: a mode must be an integer, got 2.5"):
            Circuit.from_dict(_second_gate_data(modes=[2.5, 3.5]))

    def test_missing_angle_is_refused(self):
        data = _second_gate_data()
        del data["layers"][1][1]["varphi"]
        with pytest.raises(ValueError, match=r"layer 1, gate 1: no 'varphi' entry"):
            Circuit.from_dict(data)

    def test_integral_floats_become_ints(self):
        c = Circuit.from_dict({"num_modes": 4.0, "layers": [[_record(modes=[1.0, 2.0], lossy_mode=0.0, loss_gamma=0)]]})
        assert type(c.num_modes) is int
        gate = c.layers[0][0]
        assert gate.modes == (1, 2) and [type(i) for i in gate.modes] == [int, int]
        assert type(gate.lossy_mode) is int and gate.lossy_mode == 0
        assert type(gate.loss_gamma) is float and gate.loss_gamma == 0.0
        assert c == Circuit.from_dict({"num_modes": 4, "layers": [[_record(modes=[1, 2], lossy_mode=0, loss_gamma=0.0)]]})


class TestBrickwork:
    def test_smallest_layout(self):
        c = build_brickwork(2, 1, angles=[(np.pi / 4, 0.0, 0.0)])
        assert c.num_gates == 1
        (gate,) = c.layers[0]
        assert gate.modes == (0, 1)
        assert gate.params.theta == np.pi / 4

    def test_even_mode_gate_counts(self):
        c = build_brickwork(4, 4, seed=7)
        assert [len(layer) for layer in c.layers] == [2, 1, 2, 1]

    def test_odd_mode_gate_counts(self):
        # (M-1)/2 gates in every layer for odd M
        c = build_brickwork(5, 5, seed=7)
        assert [len(layer) for layer in c.layers] == [2, 2, 2, 2, 2]

    def test_offsets(self):
        c = build_brickwork(6, 2, seed=0)
        assert [g.modes for g in c.layers[0]] == [(0, 1), (2, 3), (4, 5)]
        assert [g.modes for g in c.layers[1]] == [(1, 2), (3, 4)]

    def test_seed_determinism(self):
        a = build_brickwork(5, 5, seed=123)
        b = build_brickwork(5, 5, seed=123)
        assert a == b
        assert a != build_brickwork(5, 5, seed=124)

    def test_angle_ranges(self):
        c = build_brickwork(6, 10, seed=3)
        for g in c.gates():
            assert 0.0 <= g.params.theta < np.pi / 2
            assert 0.0 <= g.params.varphi < 2 * np.pi
            assert 0.0 <= g.params.phi < 2 * np.pi
            assert g.loss_gamma == 0.0

    def test_explicit_angle_count_checked(self):
        with pytest.raises(ValueError):
            build_brickwork(4, 4, angles=[(0.1, 0.2, 0.3)] * 5)

    @pytest.mark.parametrize("seed", [0, np.random.default_rng(0)], ids=["int", "generator"])
    def test_angles_and_a_seed_are_refused_together(self, seed):
        # the seed would draw nothing: explicit angles are taken verbatim
        with pytest.raises(ValueError, match="not both"):
            build_brickwork(2, 1, angles=[(0.1, 0.2, 0.3)], seed=seed)

    def test_too_few_modes(self):
        with pytest.raises(ValueError):
            build_brickwork(1, 1, seed=0)

    @pytest.mark.parametrize("m, depth", [(2, 1), (5, 5), (48, 48)])
    def test_draw_stream_is_three_scalar_draws_per_gate(self, m, depth):
        # inputs that keep drawing from a passed Generator after the circuit
        # (per-gate loss, outcomes) rely on this exact stream and end state
        for seed in (1, 12345):
            recipe = np.random.default_rng(seed)
            total = sum(len(range(layer % 2, m - 1, 2)) for layer in range(depth))
            expected = [
                (recipe.uniform(0.0, np.pi / 2), recipe.uniform(0.0, 2 * np.pi), recipe.uniform(0.0, 2 * np.pi))
                for _ in range(total)
            ]
            passed = np.random.default_rng(seed)
            for source in (seed, passed):
                c = build_brickwork(m, depth, seed=source)
                assert [(g.params.theta, g.params.varphi, g.params.phi) for g in c.gates()] == expected
            assert passed.random() == recipe.random()

    def test_one_draw_per_brickwork(self):
        class Counting(np.random.Generator):
            calls = 0

            def uniform(self, *args, **kwargs):
                Counting.calls += 1
                return super().uniform(*args, **kwargs)

        c = build_brickwork(48, 48, seed=Counting(np.random.PCG64(1)))
        assert Counting.calls == 1
        assert c == build_brickwork(48, 48, seed=1)


class TestUniformLoss:
    def test_zero_is_identity(self):
        c = build_brickwork(4, 4, seed=7)
        assert with_uniform_loss(c, 0.0) == c

    def test_every_gate_carries_gamma(self):
        c = with_uniform_loss(build_brickwork(4, 4, seed=7), 0.05)
        assert all(g.loss_gamma == 0.05 and g.lossy_mode == 1 for g in c.gates())

    def test_lossy_gate_count(self):
        # (2,1,2,1) layout -> 6 gates
        c = with_uniform_loss(build_brickwork(4, 4, seed=7), 0.1)
        assert c.num_lossy_gates == 6

    def test_gamma_range(self):
        c = build_brickwork(2, 1, seed=0)
        with pytest.raises(ValueError):
            with_uniform_loss(c, 1.0)


class TestGateUnitary:
    def test_identity_at_zero_angles(self):
        g = gate_tensor(GateParams(0.0, 0.0, 0.0), 3).reshape(16, 16)
        assert np.allclose(g, np.eye(16), atol=1e-14)

    def test_full_swap_of_single_photon(self):
        t = gate_tensor(GateParams(np.pi / 2, 0.0, 0.0), 2)
        assert abs(abs(t[0, 1, 1, 0]) - 1.0) < 1e-12   # |<0,1|G|1,0>| = 1
        assert abs(t[1, 0, 1, 0]) < 1e-12

    def test_hong_ou_mandel_null(self):
        t = gate_tensor(GateParams(np.pi / 4, 0.0, 0.0), 3)
        assert abs(t[1, 1, 1, 1]) < 1e-12

    @pytest.mark.parametrize("params", [
        GateParams(0.3, 1.1, 0.7),
        GateParams(1.2, 5.9, 2.4),
        GateParams(np.pi / 4, 0.0, np.pi),
    ])
    def test_block_unitarity(self, params):
        cutoff = 4
        t = gate_tensor(params, cutoff)
        for total in range(cutoff + 1):
            basis = [(m, total - m) for m in range(total + 1)]
            block = np.array(
                [[t[a[0], a[1], b[0], b[1]] for b in basis] for a in basis]
            )
            assert np.linalg.norm(block.conj().T @ block - np.eye(len(basis))) < 1e-12

    def test_photon_number_conservation(self):
        t = gate_tensor(GateParams(0.7, 0.3, 1.9), 3)
        for m1 in range(4):
            for m2 in range(4):
                for n1 in range(4):
                    for n2 in range(4):
                        if m1 + m2 != n1 + n2:
                            assert t[m1, m2, n1, n2] == 0.0

    def test_matches_single_photon_closed_form(self):
        params = GateParams(0.9, 2.2, 4.1)
        t = gate_tensor(params, 2)
        block = np.array([[t[1, 0, 1, 0], t[1, 0, 0, 1]], [t[0, 1, 1, 0], t[0, 1, 0, 1]]])
        assert np.allclose(block, single_photon_block(params), atol=1e-13)

    def test_cutoff_validated(self):
        with pytest.raises(ValueError):
            gate_tensor(GateParams(0.1, 0.1, 0.1), 0)

    @pytest.mark.parametrize("cutoff", [1, 3, 6])
    def test_blocks_match_the_matrix_exponential(self, cutoff):
        # each photon-number block is exp(i theta H) times the phase on the
        # lower input mode, with H the block of a_i a*_{i+1} e^{-i varphi} + h.c.
        rng = np.random.default_rng(cutoff)
        d = cutoff + 1
        for _ in range(10):
            theta, varphi, phi = rng.uniform(0.0, 2 * np.pi, size=3)
            t = gate_tensor(GateParams(theta, varphi, phi), cutoff)
            matrix = t.reshape(d * d, d * d)
            assert np.linalg.norm(matrix.conj().T @ matrix - np.eye(d * d)) < 1e-13
            for total in range(2 * cutoff + 1):
                occ = np.arange(max(0, total - cutoff), min(total, cutoff) + 1)
                ham = np.zeros((len(occ), len(occ)), dtype=complex)
                for k in range(1, len(occ)):
                    amp = np.sqrt(occ[k] * (total - occ[k] + 1))
                    ham[k - 1, k] = amp * np.exp(-1j * varphi)
                    ham[k, k - 1] = amp * np.exp(1j * varphi)
                expected = scipy.linalg.expm(1j * theta * ham) * np.exp(1j * phi * occ)[None, :]
                block = t[occ[:, None], total - occ[:, None], occ[None, :], total - occ[None, :]]
                assert np.max(np.abs(block - expected)) < 1e-13


class TestModeUnitary:
    def test_identity_gate(self):
        c = build_brickwork(3, 1, angles=[(0.0, 0.0, 0.0)])
        assert np.allclose(circuit_to_mode_unitary(c), np.eye(3), atol=1e-14)

    def test_full_swap_moduli(self):
        c = build_brickwork(2, 1, angles=[(np.pi / 2, 0.0, 0.0)])
        u = circuit_to_mode_unitary(c)
        assert abs(abs(u[0, 1]) - 1) < 1e-12 and abs(abs(u[1, 0]) - 1) < 1e-12
        assert abs(u[0, 0]) < 1e-12 and abs(u[1, 1]) < 1e-12

    def test_column_norms(self):
        u = circuit_to_mode_unitary(build_brickwork(7, 7, seed=9))
        assert np.allclose(np.linalg.norm(u, axis=0), 1.0, atol=1e-12)

    def test_unitarity(self):
        u = circuit_to_mode_unitary(build_brickwork(6, 6, seed=42))
        assert np.linalg.norm(u.conj().T @ u - np.eye(6)) < 1e-12

    def test_composition_law(self):
        a = build_brickwork(4, 2, seed=1)
        b = build_brickwork(4, 3, seed=2)
        combined = Circuit(num_modes=4, layers=a.layers + b.layers)
        ua, ub = circuit_to_mode_unitary(a), circuit_to_mode_unitary(b)
        assert np.linalg.norm(circuit_to_mode_unitary(combined) - ub @ ua) < 1e-12

    def test_reversed_circuit_gives_adjoint(self):
        # reverse the layer order and conjugate-transpose every gate block
        c = build_brickwork(5, 4, seed=8)
        u = circuit_to_mode_unitary(c)
        ur = np.eye(5, dtype=np.complex128)
        for layer in reversed(c.layers):
            layer_u = np.eye(5, dtype=np.complex128)
            for g in layer:
                i = g.modes[0]
                layer_u[i : i + 2, i : i + 2] = single_photon_block(g.params).conj().T
            ur = layer_u @ ur
        assert np.linalg.norm(ur - u.conj().T) < 1e-12

    def test_lossy_circuit_rejected(self):
        c = with_uniform_loss(build_brickwork(4, 4, seed=7), 0.1)
        with pytest.raises(UnsupportedConfigurationError):
            circuit_to_mode_unitary(c)


def _dense_layer_product(circuit: Circuit) -> np.ndarray:
    """The transfer matrix as a product of dense M x M layer matrices, each
    gate's block placed on its pair and its loss site's row scaled by
    sqrt(1 - gamma)."""
    m = circuit.num_modes
    u = np.eye(m, dtype=np.complex128)
    for layer in circuit.layers:
        layer_u = np.eye(m, dtype=np.complex128)
        for g in layer:
            i = g.modes[0]
            layer_u[i : i + 2, i : i + 2] = single_photon_block(g.params)
            layer_u[g.loss_site] *= np.sqrt(1.0 - g.loss_gamma)
        u = layer_u @ u
    return u


def _with_seeded_loss(circuit: Circuit, seed: int) -> Circuit:
    rng = np.random.default_rng(seed)
    layers = tuple(
        tuple(
            Gate(g.modes, g.params, float(rng.uniform(0.0, 0.3)), int(rng.integers(2)))
            for g in layer
        )
        for layer in circuit.layers
    )
    return Circuit(num_modes=circuit.num_modes, layers=layers)


class TestTransferMatrix:
    @pytest.mark.parametrize("m, seed", [(2, 1), (5, 2), (8, 3), (17, 4), (48, 5)])
    def test_lossless_brickwork_is_unitary_and_the_dense_product(self, m, seed):
        c = build_brickwork(m, m, seed=seed)
        u = transfer_matrix(c)
        assert np.abs(u.conj().T @ u - np.eye(m)).max() < 1e-13
        assert np.abs(u - _dense_layer_product(c)).max() < 1e-13
        assert np.array_equal(circuit_to_mode_unitary(c), u)

    @pytest.mark.parametrize("m, seed", [(7, 7), (16, 8)])
    def test_lossy_circuit_is_a_contraction_and_the_dense_product(self, m, seed):
        c = _with_seeded_loss(build_brickwork(m, m, seed=seed), seed)
        assert {g.lossy_mode for g in c.gates()} == {0, 1}
        u = transfer_matrix(c)
        singular = np.linalg.svd(u, compute_uv=False)
        assert singular.max() <= 1.0 + 1e-13
        assert singular.min() < 1.0 - 1e-3
        assert np.abs(u - _dense_layer_product(c)).max() < 1e-13
        with pytest.raises(UnsupportedConfigurationError):
            circuit_to_mode_unitary(c)

    def test_layer_order_and_empty_layers(self):
        c = _with_seeded_loss(build_brickwork(6, 6, seed=9), 9)
        shuffled = Circuit(6, ((),) + tuple(l[::-1] for l in c.layers) + ((),))
        assert np.abs(transfer_matrix(shuffled) - transfer_matrix(c)).max() < 1e-15
        for layers in ((), ((),)):
            assert np.array_equal(transfer_matrix(Circuit(3, layers)), np.eye(3))


class TestKraus:
    def test_zero_loss(self):
        ks = kraus_set(0.0, 3)
        assert np.allclose(ks[0], np.eye(4), atol=1e-14)
        for k in ks[1:]:
            assert np.allclose(k, 0.0, atol=1e-14)

    def test_single_photon_element(self):
        ks = kraus_set(0.5, 3)
        assert abs(abs(ks[1][0, 1]) - np.sqrt(0.5)) < 1e-12

    @pytest.mark.parametrize("gamma", [0.0, 0.05, 0.3, 0.9])
    def test_completeness(self, gamma):
        cutoff = 4
        ks = kraus_set(gamma, cutoff)
        acc = sum(k.conj().T @ k for k in ks)
        assert np.linalg.norm(acc - np.eye(cutoff + 1)) < 1e-12

    def test_lowering_structure(self):
        ks = kraus_set(0.2, 4)
        for mu, k in enumerate(ks):
            for m in range(5):
                for n in range(5):
                    if m != n - mu:
                        assert k[m, n] == 0.0

    def test_gamma_range(self):
        with pytest.raises(ValueError):
            kraus_set(1.0, 3)

    @pytest.mark.parametrize("gamma", [0.05, 0.7])
    def test_binomial_amplitudes(self, gamma):
        # K_mu |n> = sqrt(C(n, mu) gamma^mu (1 - gamma)^(n - mu)) |n - mu>, and zero elsewhere
        cutoff = 6
        ks = kraus_set(gamma, cutoff)
        assert len(ks) == cutoff + 1
        for mu, k in enumerate(ks):
            expected = np.zeros((cutoff + 1, cutoff + 1))
            for n in range(mu, cutoff + 1):
                expected[n - mu, n] = np.sqrt(scipy.special.binom(n, mu) * gamma**mu * (1 - gamma) ** (n - mu))
            assert np.max(np.abs(k - expected)) < 1e-15


class TestSerialization:
    def test_round_trip_exact(self, tmp_path):
        c = with_uniform_loss(build_brickwork(5, 5, seed=31), 0.07)
        path = tmp_path / "c.json"
        save_circuit(c, path, seed=31)
        assert load_circuit(path) == c

    def test_header_records_seed(self, tmp_path):
        path = tmp_path / "c.json"
        save_circuit(build_brickwork(2, 1, seed=5), path, seed=5)
        data = json.loads(path.read_text())
        assert data["seed"] == 5
        assert "num_modes" in data and "layers" in data

    def test_file_is_one_line_with_the_same_keys(self, tmp_path):
        c = with_uniform_loss(build_brickwork(6, 3, seed=2), 0.05)
        path = tmp_path / "c.json"
        save_circuit(c, path, seed=2)
        text = path.read_text()
        assert text.endswith("\n") and text.count("\n") == 1
        assert json.loads(text) == {"seed": 2, **c.to_dict()}

    def test_indented_file_of_the_earlier_layout_loads_the_same(self, tmp_path):
        c = with_uniform_loss(build_brickwork(5, 5, seed=31), 0.07)
        one_line, indented = tmp_path / "one_line.json", tmp_path / "indented.json"
        save_circuit(c, one_line, seed=31)
        with open(indented, "w") as fh:
            json.dump({"seed": 31, **c.to_dict()}, fh, indent=2)
            fh.write("\n")
        assert indented.read_text().count("\n") > 1
        assert load_circuit(indented) == load_circuit(one_line) == c

    def test_angles_survive_byte_exactly(self, tmp_path):
        c = build_brickwork(4, 4, seed=1)
        path = tmp_path / "c.json"
        save_circuit(c, path)
        loaded = load_circuit(path)
        for a, b in zip(c.gates(), loaded.gates()):
            assert a.params.theta == b.params.theta
            assert a.params.varphi == b.params.varphi
            assert a.params.phi == b.params.phi
