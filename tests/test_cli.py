import json
import threading
import time
import warnings

import numpy as np
import pytest

from gbstn.circuit import (
    Circuit,
    Gate,
    build_brickwork,
    load_circuit,
    save_circuit,
    with_uniform_loss,
)
from gbstn.cli import main


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def _records(text):
    return [json.loads(line) for line in text.strip().splitlines()]


class TestGen:
    def test_layout_and_gate_count(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        code, _, _ = run(["gen", "--modes", "4", "--depth", "4", "--seed", "7",
                          "--output", str(path)], capsys)
        assert code == 0
        circuit = load_circuit(path)
        assert circuit.num_gates == 6  # (2, 1, 2, 1) layout

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["gen", "--modes", "5", "--depth", "3", "--seed", "11", "--output", str(a)], capsys)
        run(["gen", "--modes", "5", "--depth", "3", "--seed", "11", "--output", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_gamma_flag(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        run(["gen", "--modes", "4", "--depth", "2", "--seed", "1", "--gamma", "0.08",
             "--output", str(path)], capsys)
        circuit = load_circuit(path)
        assert all(g.loss_gamma == 0.08 for g in circuit.gates())

    def test_unwritable_path(self, tmp_path, capsys):
        code, _, err = run(["gen", "--modes", "2", "--depth", "1", "--seed", "0",
                            "--output", str(tmp_path / "no" / "dir" / "c.json")], capsys)
        assert code == 1
        assert "c.json" in err


class TestProb:
    def test_vacuum_unit_probability_on_every_backend(self, tmp_path, capsys):
        path = tmp_path / "identity.json"
        save_circuit(build_brickwork(2, 1, angles=[(0.0, 0.0, 0.0)]), path)
        for backend in ("tn", "dense", "gaussian"):
            code, out, _ = run(["prob", "--circuit", str(path), "--outcome", "0,0",
                                "--squeezing", "0", "--backend", backend], capsys)
            assert code == 0
            (record,) = _records(out)
            assert record["probability"] == pytest.approx(1.0, abs=1e-12)
            assert record["backend"] == backend

    def test_lossless_backends_agree(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        run(["gen", "--modes", "4", "--depth", "4", "--seed", "3", "--output", str(path)], capsys)
        values = {}
        for backend, flags in [("tn", ["--picture", "heisenberg"]),
                               ("tn", ["--picture", "schrodinger"]),
                               ("dense", []), ("gaussian", [])]:
            code, out, _ = run(["prob", "--circuit", str(path), "--outcome", "1,1,0,0",
                                "--squeezing", "0.4", "--backend", backend, *flags], capsys)
            assert code == 0
            values[(backend, *flags)] = _records(out)[0]["probability"]
        spread = max(values.values()) - min(values.values())
        assert spread < 1e-8

    def test_lossy_tn_matches_dense(self, tmp_path, capsys):
        path = tmp_path / "lossy.json"
        save_circuit(with_uniform_loss(build_brickwork(3, 3, seed=5), 0.05), path)
        results = {}
        for backend in ("tn", "dense"):
            code, out, _ = run(["prob", "--circuit", str(path), "--outcome", "1,0,1",
                                "--squeezing", "0.4", "--backend", backend,
                                "--cutoff", "4"], capsys)
            assert code == 0
            results[backend] = _records(out)[0]["probability"]
        assert abs(results["tn"] - results["dense"]) < 1e-8

    def test_record_schema_and_stats(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        run(["gen", "--modes", "4", "--depth", "4", "--seed", "9", "--output", str(path)], capsys)
        code, out, _ = run(["prob", "--circuit", str(path), "--outcome", "1,1,0,0",
                            "--squeezing", "0.4"], capsys)
        (record,) = _records(out)
        for key in ("outcome", "probability", "picture", "backend", "n_c", "recommended_n_c",
                    "max_bond", "truncation_weight", "flop_estimate", "wall_time"):
            assert key in record
        assert record["n_c"] == 2  # auto cutoff: photon total of the outcome
        assert record["recommended_n_c"] == 2
        assert record["max_bond"] >= 1

    def test_deterministic_modulo_wall_time(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        run(["gen", "--modes", "4", "--depth", "4", "--seed", "2", "--output", str(path)], capsys)
        outputs = []
        for _ in range(2):
            _, out, _ = run(["prob", "--circuit", str(path), "--outcome", "1,1,0,0",
                             "--outcome", "2,0,0,0", "--squeezing", "0.4"], capsys)
            records = _records(out)
            for r in records:
                r.pop("wall_time")
            outputs.append(records)
        assert outputs[0] == outputs[1]

    def test_worker_override_keeps_order(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        run(["gen", "--modes", "4", "--depth", "4", "--seed", "2", "--output", str(path)], capsys)
        argv = ["prob", "--circuit", str(path), "--outcome", "0,0,0,0",
                "--outcome", "1,1,0,0", "--outcome", "2,0,0,0", "--squeezing", "0.4"]
        _, serial, _ = run(argv, capsys)
        with pytest.warns(FutureWarning, match="--workers"):
            _, threaded, _ = run(argv + ["--workers", "4"], capsys)
        a, b = _records(serial), _records(threaded)
        for r in a + b:
            r.pop("wall_time")
        assert [r["outcome"] for r in a] == [[0, 0, 0, 0], [1, 1, 0, 0], [2, 0, 0, 0]]
        assert a == b

    def test_workers_run_on_the_calling_thread(self, tmp_path, capsys, monkeypatch):
        from gbstn import tnet

        path = tmp_path / "c.json"
        run(["gen", "--modes", "4", "--depth", "4", "--seed", "2", "--output", str(path)], capsys)
        route, threads = tnet.heisenberg_probability_lossless, []

        def recording(*args, **kwargs):
            threads.append(threading.get_ident())
            return route(*args, **kwargs)

        monkeypatch.setattr(tnet, "heisenberg_probability_lossless", recording)
        with pytest.warns(FutureWarning, match="--workers"):
            code, out, _ = run(["prob", "--circuit", str(path), "--outcome", "0,0,0,0",
                                "--outcome", "1,1,0,0", "--outcome", "2,0,0,0",
                                "--outcome", "0,1,1,0", "--workers", "4"], capsys)
        assert code == 0 and len(_records(out)) == 4
        assert threads == [threading.get_ident()] * 4

    def test_no_warning_without_workers(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        run(["gen", "--modes", "4", "--depth", "4", "--seed", "2", "--output", str(path)], capsys)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, _ = run(["prob", "--circuit", str(path), "--outcome", "1,1,0,0"], capsys)
        assert code == 0

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exits_1(self, tmp_path, capsys, workers):
        path = tmp_path / "c.json"
        run(["gen", "--modes", "4", "--depth", "4", "--seed", "2", "--output", str(path)], capsys)
        code, out, err = run(["prob", "--circuit", str(path), "--outcome", "1,1,0,0",
                              "--workers", workers], capsys)
        assert code == 1
        assert out == ""
        assert f"--workers must be at least 1, got {workers}" in err

    @pytest.mark.parametrize("backend", ["tn", "dense"])
    def test_cutoff_below_one_exits_1_before_any_outcome(self, tmp_path, capsys, backend):
        path = tmp_path / "lossy.json"
        save_circuit(with_uniform_loss(build_brickwork(4, 4, seed=1), 0.05), path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no tail warning from an outcome either
            code, out, err = run(["prob", "--circuit", str(path), "--outcome", "1,1,0,0",
                                  "--outcome", "2,0,0,0", "--backend", backend,
                                  "--cutoff", "0"], capsys)
        assert code == 1
        assert out == ""
        assert err == "error: --cutoff must be at least 1, got 0\n"

    # each count fits the cutoff, but the circuit can gather all of them in one
    # mode: on this circuit a cutoff of 3 and 1 gave 4.8e-4 for 5.4e-4 and 0.0
    # for 1.8e-3, and one at or above the total gives the automatic value
    @pytest.mark.parametrize("outcome, cutoff", [("2,2,0,0", "3"), ("1,1,0,0", "1"), ("1,1,0,0", "6")])
    @pytest.mark.parametrize("backend", ["tn", "dense"])
    def test_cutoff_on_a_lossless_circuit_exits_1(self, tmp_path, capsys, backend, outcome, cutoff):
        path = tmp_path / "c.json"
        run(["gen", "--modes", "4", "--depth", "4", "--seed", "3", "--output", str(path)], capsys)
        code, out, err = run(["prob", "--circuit", str(path), "--outcome", outcome,
                              "--backend", backend, "--cutoff", cutoff], capsys)
        assert code == 1
        assert out == ""
        assert f"--backend {backend} does not use --cutoff on a lossless circuit" in err

    def test_partial_failure_writes_good_records_and_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        run(["gen", "--modes", "2", "--depth", "2", "--seed", "4", "--gamma", "0.05",
             "--output", str(path)], capsys)
        out_path = tmp_path / "records.jsonl"
        code, _, _ = run(["prob", "--circuit", str(path), "--outcome", "1,1",
                          "--outcome", "9,0", "--squeezing", "0.4", "--cutoff", "3",
                          "--output", str(out_path)], capsys)
        assert code == 1
        records = _records(out_path.read_text())
        assert "probability" in records[0]
        assert "error" in records[1]

    def test_gaussian_backend_accepts_uniform_loss(self, tmp_path, capsys):
        path = tmp_path / "lossy.json"
        save_circuit(with_uniform_loss(build_brickwork(3, 3, seed=5), 0.05), path)
        code, out, _ = run(["prob", "--circuit", str(path), "--outcome", "1,0,1",
                            "--backend", "gaussian", "--squeezing", "0.4"], capsys)
        assert code == 0
        (record,) = _records(out)
        assert 0.0 <= record["probability"] <= 1.0
        # the covariance route is exact; dense at cutoff 8 agrees because the
        # truncated tail would have to shed eight photons to reach this outcome
        from gbstn.fockdense import dense_evolve_density, dense_probability, dense_squeezed_vacuum

        rho = dense_evolve_density(
            dense_squeezed_vacuum(0.4, 3, 8).to_density(), load_circuit(path)
        )
        assert abs(record["probability"] - dense_probability(rho, (1, 0, 1))) < 1e-10

    def test_gaussian_backend_accepts_nonuniform_loss(self, tmp_path, capsys):
        from gbstn.fockdense import dense_evolve_density, dense_probability, dense_squeezed_vacuum

        # only the first gate is lossy
        base = build_brickwork(3, 2, seed=1)
        first = base.layers[0][0]
        layers = ((Gate(first.modes, first.params, 0.1),) + base.layers[0][1:],) + base.layers[1:]
        circuit = Circuit(num_modes=3, layers=layers)
        path = tmp_path / "mixed.json"
        save_circuit(circuit, path)
        code, out, _ = run(["prob", "--circuit", str(path), "--outcome", "1,0,1",
                            "--backend", "gaussian", "--squeezing", "0.4"], capsys)
        assert code == 0
        (record,) = _records(out)
        rho = dense_evolve_density(dense_squeezed_vacuum(0.4, 3, 8).to_density(), circuit)
        assert abs(record["probability"] - dense_probability(rho, (1, 0, 1))) < 1e-10

    def test_epsilon_sets_the_automatic_cutoff(self, tmp_path, capsys):
        path = tmp_path / "lossy.json"
        run(["gen", "--modes", "4", "--depth", "4", "--seed", "1", "--gamma", "0.05",
             "--output", str(path)], capsys)
        chosen = {}
        # at 1e-8 the rule asks for n_c = 16, far too large to run: --cutoff 2
        # keeps the request small, and the record still carries the rule's value
        for epsilon, key, extra in (("1e-2", "n_c", []),
                                    ("1e-8", "recommended_n_c", ["--cutoff", "2"])):
            code, out, _ = run(["prob", "--circuit", str(path), "--outcome", "1,1,0,0",
                                "--backend", "tn", "--squeezing", "0.4",
                                "--epsilon", epsilon, *extra], capsys)
            assert code == 0
            (record,) = _records(out)
            _, out, _ = run(["cutoff", "--modes", "4", "--squeezing", "0.4", "--gamma", "0.05",
                             "--photons", "2", "--circuit", str(path),
                             "--epsilon", epsilon], capsys)
            assert record[key] == json.loads(out)["n_c"]
            chosen[epsilon] = record[key]
        assert chosen == {"1e-2": 2, "1e-8": 16}

    def test_automatic_cutoff_raises_no_warning(self, tmp_path, capsys):
        path = tmp_path / "lossy.json"
        run(["gen", "--modes", "4", "--depth", "4", "--seed", "1", "--gamma", "0.05",
             "--output", str(path)], capsys)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run(["prob", "--circuit", str(path), "--outcome", "1,1,0,0",
                                "--backend", "tn", "--squeezing", "0.4",
                                "--epsilon", "1e-2"], capsys)
        assert code == 0
        (record,) = _records(out)
        assert record["n_c"] == 2

    def test_gaussian_backend_needs_no_cutoff(self, tmp_path, capsys):
        # odd M: the spillover bound does not apply, and the exact backend needs none
        path = tmp_path / "lossy3.json"
        save_circuit(with_uniform_loss(build_brickwork(3, 3, seed=5), 0.05), path)
        code, out, _ = run(["prob", "--circuit", str(path), "--outcome", "1,0,1",
                            "--backend", "gaussian", "--squeezing", "0.4"], capsys)
        assert code == 0
        (record,) = _records(out)
        assert record["n_c"] is None
        assert record["recommended_n_c"] is None
        assert 0.0 < record["probability"] < 1.0

    def test_dense_backend_evolves_once_per_request(self, tmp_path, capsys, monkeypatch):
        from gbstn import fockdense

        path = tmp_path / "lossy3.json"
        save_circuit(with_uniform_loss(build_brickwork(3, 3, seed=5), 0.05), path)
        calls = []
        dense_evolve_density = fockdense.dense_evolve_density

        def counted(*args, **kwargs):
            calls.append(args)
            return dense_evolve_density(*args, **kwargs)

        monkeypatch.setattr(fockdense, "dense_evolve_density", counted)
        code, out, _ = run(["prob", "--circuit", str(path), "--outcome", "0,0,0",
                            "--outcome", "1,0,1", "--outcome", "2,0,0",
                            "--backend", "dense", "--squeezing", "0.4", "--cutoff", "3"], capsys)
        assert code == 0
        assert len(_records(out)) == 3
        assert len(calls) == 1

    def test_schrodinger_picture_evolves_once_per_request(self, tmp_path, capsys, monkeypatch):
        from gbstn import tnet

        path = tmp_path / "c.json"
        run(["gen", "--modes", "4", "--depth", "4", "--seed", "2", "--output", str(path)], capsys)
        inputs, gates = [], []
        projected_squeezed_mps, apply_gate_mps = tnet.projected_squeezed_mps, tnet.apply_gate_mps

        def counted_input(*args, **kwargs):
            inputs.append(args)
            return projected_squeezed_mps(*args, **kwargs)

        def counted_gate(*args, **kwargs):
            gates.append(args)
            return apply_gate_mps(*args, **kwargs)

        monkeypatch.setattr(tnet, "projected_squeezed_mps", counted_input)
        monkeypatch.setattr(tnet, "apply_gate_mps", counted_gate)
        code, out, _ = run(["prob", "--circuit", str(path), "--outcome", "1,1,0,0",
                            "--outcome", "0,0,1,1", "--outcome", "1,0,0,1",
                            "--picture", "schrodinger", "--squeezing", "0.4"], capsys)
        assert code == 0
        records = _records(out)
        assert len(records) == 3
        assert len(inputs) == 1
        assert len(gates) == load_circuit(path).num_gates
        for record in records:
            assert record["n_c"] is None and record["recommended_n_c"] is None
            p, _ = tnet.schrodinger_probability(load_circuit(path), record["outcome"], 0.4)
            assert record["probability"] == p

    def test_schrodinger_picture_evolves_once_per_total(self, tmp_path, capsys, monkeypatch):
        from gbstn import tnet

        path = tmp_path / "c.json"
        run(["gen", "--modes", "4", "--depth", "4", "--seed", "2", "--output", str(path)], capsys)
        totals = []
        evolve_input = tnet.evolve_input

        def counted(circuit, r, total, *args):
            totals.append(total)
            return evolve_input(circuit, r, total, *args)

        monkeypatch.setattr(tnet, "evolve_input", counted)
        code, out, _ = run(["prob", "--circuit", str(path), "--outcome", "1,1,0,0",
                            "--outcome", "0,0,0,0", "--outcome", "2,0,0,0", "--outcome", "1,0,0,0",
                            "--picture", "schrodinger", "--squeezing", "0.4"], capsys)
        assert code == 0
        assert sorted(totals) == [0, 1, 2]
        records = _records(out)
        assert [r["outcome"] for r in records] == [[1, 1, 0, 0], [0, 0, 0, 0], [2, 0, 0, 0], [1, 0, 0, 0]]
        assert records[3]["probability"] == 0.0
        assert records[1]["probability"] > records[0]["probability"] > 0.0

    def test_gaussian_backend_propagates_once_per_request(self, tmp_path, capsys, monkeypatch):
        from gbstn import gauss

        path = tmp_path / "c.json"
        run(["gen", "--modes", "4", "--depth", "4", "--seed", "2", "--output", str(path)], capsys)
        calls = []
        propagate_circuit = gauss.propagate_circuit

        def counted(*args, **kwargs):
            calls.append(args)
            return propagate_circuit(*args, **kwargs)

        monkeypatch.setattr(gauss, "propagate_circuit", counted)
        code, out, _ = run(["prob", "--circuit", str(path), "--outcome", "0,0,0,0",
                            "--outcome", "1,1,0,0", "--outcome", "2,0,0,0",
                            "--backend", "gaussian", "--squeezing", "0.4"], capsys)
        assert code == 0
        assert len(_records(out)) == 3
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "backend, flag, value",
        [
            ("gaussian", "--cutoff", "4"),
            ("gaussian", "--max-bond", "8"),
            ("gaussian", "--svd-threshold", "1e-10"),
            ("gaussian", "--epsilon", "1e-4"),
            ("dense", "--max-bond", "1"),
            ("dense", "--svd-threshold", "1e-10"),
            ("dense", "--picture", "schrodinger"),
            ("gaussian", "--picture", "heisenberg"),
            # the cutoff rule reads the spillover bound only on a lossy circuit
            ("tn", "--epsilon", "1e-2"),
            ("tn", "--epsilon", "1e-12"),
            ("dense", "--epsilon", "1e-2"),
        ],
    )
    def test_flag_the_backend_does_not_read_exits_1(self, tmp_path, capsys, backend, flag, value):
        path = tmp_path / "c.json"
        run(["gen", "--modes", "4", "--depth", "4", "--seed", "2", "--output", str(path)], capsys)
        code, out, err = run(["prob", "--circuit", str(path), "--outcome", "1,1,0,0",
                              "--backend", backend, flag, value], capsys)
        assert code == 1
        assert out == ""
        assert f"--backend {backend} does not use {flag}" in err

    @pytest.mark.parametrize("flag, value", [("--cutoff", "4"), ("--epsilon", "1e-3")])
    def test_schrodinger_picture_takes_no_cutoff(self, tmp_path, capsys, flag, value):
        path = tmp_path / "c.json"
        run(["gen", "--modes", "4", "--depth", "4", "--seed", "2", "--output", str(path)], capsys)
        code, out, err = run(["prob", "--circuit", str(path), "--outcome", "1,1,0,0",
                              "--picture", "schrodinger", flag, value], capsys)
        assert code == 1
        assert out == ""
        assert f"--backend tn --picture schrodinger does not use {flag}" in err

    def test_only_the_tn_backend_records_a_picture(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        run(["gen", "--modes", "4", "--depth", "4", "--seed", "2", "--output", str(path)], capsys)
        pictures = {}
        for backend in ("tn", "dense", "gaussian"):
            code, out, _ = run(["prob", "--circuit", str(path), "--outcome", "1,1,0,0",
                                "--backend", backend], capsys)
            assert code == 0
            pictures[backend] = _records(out)[0]["picture"]
        assert pictures == {"tn": "heisenberg", "dense": None, "gaussian": None}

    @pytest.mark.parametrize(
        "route, limit",
        [
            # the vacuum's light cone holds no gate, so no update runs; the
            # two-photon outcome's updates (n_c = 2) make sites of 6 to 36 entries
            pytest.param([], 8, id="heisenberg"),
            # the evolved vacuum's updates hold at most 2 entries, total 2's more than 8
            pytest.param(["--picture", "schrodinger"], 8, id="schrodinger"),
            # the vacuum's dense state (n_c = 1) holds 2^4 = 16 entries, total 2's (n_c = 2) 3^4
            pytest.param(["--backend", "dense"], 16, id="dense"),
        ],
    )
    def test_size_guard_fails_one_outcome_and_the_batch_goes_on(
        self, tmp_path, capsys, monkeypatch, route, limit
    ):
        from gbstn import errors

        monkeypatch.setattr(errors, "SIZE_LIMIT", limit)
        path = tmp_path / "c.json"
        run(["gen", "--modes", "4", "--depth", "4", "--seed", "2", "--output", str(path)], capsys)
        code, out, _ = run(["prob", "--circuit", str(path), "--outcome", "0,0,0,0",
                            "--outcome", "1,1,0,0", "--outcome", "0,0,0,0", *route], capsys)
        assert code == 1
        first, failed, last = _records(out)
        assert first["probability"] == last["probability"] > 0.0
        assert "size guard" in failed["error"]
        assert "probability" not in failed

    def test_cutoff_past_the_operator_guard_fails_its_outcome(self, tmp_path, capsys):
        # the projector's d^4 = 201^4 basis is refused before it is allocated
        path = tmp_path / "lossy.json"
        run(["gen", "--modes", "4", "--depth", "4", "--seed", "1", "--gamma", "0.05",
             "--output", str(path)], capsys)
        code, out, _ = run(["prob", "--circuit", str(path), "--outcome", "1,1,0,0",
                            "--cutoff", "200"], capsys)
        assert code == 1
        (record,) = _records(out)
        assert "above the size guard" in record["error"]

    def test_gaussian_backend_inverts_sigma_q_once_per_request(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "c.json"
        run(["gen", "--modes", "4", "--depth", "4", "--seed", "2", "--output", str(path)], capsys)
        calls = []
        inv = np.linalg.inv

        def counted(*args, **kwargs):
            calls.append(args)
            return inv(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "inv", counted)
        code, out, _ = run(["prob", "--circuit", str(path), "--outcome", "1,1,0,0",
                            "--outcome", "2,0,0,0", "--outcome", "0,1,0,1",
                            "--backend", "gaussian", "--squeezing", "0.4"], capsys)
        assert code == 0
        assert all(r["probability"] > 0.0 for r in _records(out))
        assert len(calls) == 1

    @pytest.mark.parametrize("outcome", ["1,1,0", "1,1,0,0,0"])
    def test_tn_outcome_length_mismatch_is_reported(self, tmp_path, capsys, outcome):
        path = tmp_path / "c.json"
        run(["gen", "--modes", "4", "--depth", "4", "--seed", "2", "--output", str(path)], capsys)
        code, out, _ = run(["prob", "--circuit", str(path), "--outcome", outcome,
                            "--squeezing", "0.4"], capsys)
        assert code == 1
        assert _records(out)[0]["error"] == "outcome length does not match the mode count"

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--max-bond", "0", "max_bond must be positive"),
         ("--svd-threshold", "2", "svd_threshold must lie in [0, 1)")],
    )
    def test_bad_truncation_policy_exits_1(self, tmp_path, capsys, flag, value, message):
        path = tmp_path / "c.json"
        run(["gen", "--modes", "4", "--depth", "4", "--seed", "2", "--output", str(path)], capsys)
        code, out, err = run(["prob", "--circuit", str(path), "--outcome", "1,1,0,0",
                              flag, value], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("squeezing", ["0.4,0.3", "nan"])
    @pytest.mark.parametrize(
        "route", [["--backend", "tn"], ["--backend", "tn", "--picture", "schrodinger"],
                  ["--backend", "dense"], ["--backend", "gaussian"]],
    )
    def test_bad_squeezing_exits_1_before_any_outcome(self, tmp_path, capsys, route, squeezing):
        path = tmp_path / "c.json"
        run(["gen", "--modes", "4", "--depth", "4", "--seed", "2", "--output", str(path)], capsys)
        code, out, err = run(["prob", "--circuit", str(path), "--outcome", "1,1,0,0",
                              "--outcome", "2,0,0,0", "--squeezing", squeezing, *route], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1

    def test_auto_cutoff_needs_even_modes_for_lossy(self, tmp_path, capsys):
        path = tmp_path / "lossy3.json"
        save_circuit(with_uniform_loss(build_brickwork(3, 3, seed=5), 0.05), path)
        code, _, err = run(["prob", "--circuit", str(path), "--outcome", "1,0,1",
                            "--squeezing", "0.4"], capsys)
        assert code == 1
        assert "--cutoff" in err


class TestUnreadableCircuit:
    """prob, validate and cutoff report a circuit file they cannot read and exit 1."""

    COMMANDS = {
        "prob": ["prob", "--outcome", "1,1", "--circuit"],
        "validate": ["validate", "--circuit"],
        "cutoff": ["cutoff", "--modes", "4", "--squeezing", "0.5", "--gamma", "0.05",
                   "--photons", "4", "--circuit"],
    }

    @pytest.mark.parametrize(
        "content",
        [None, "{not json", '{"num_modes": 2}', '{"num_modes": 2, "layers": [[{"modes": [0, 2]}]]}'],
        ids=["missing", "not-json", "no-layers", "bad-gate"],
    )
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_exits_1_with_a_message(self, tmp_path, capsys, command, content):
        path = tmp_path / "c.json"
        if content is not None:
            path.write_text(content)
        code, out, err = run(self.COMMANDS[command] + [str(path)], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot read circuit {str(path)!r}")


class TestCutoff:
    def test_zero_loss_returns_target(self, capsys):
        code, out, _ = run(["cutoff", "--modes", "4", "--squeezing", "0.5", "--gamma", "0",
                            "--photons", "4", "--sources", "6"], capsys)
        assert code == 0
        record = json.loads(out)
        assert record["n_c"] == 4

    def test_monotone_in_epsilon(self, capsys):
        values = []
        for epsilon in ("1e-4", "1e-6", "1e-8"):
            _, out, _ = run(["cutoff", "--modes", "4", "--squeezing", "0.5", "--gamma", "0.05",
                             "--photons", "4", "--sources", "6", "--epsilon", epsilon], capsys)
            values.append(json.loads(out)["n_c"])
        assert values == sorted(values)

    def test_matches_independent_search(self, capsys):
        import scipy.special
        import scipy.stats

        _, out, _ = run(["cutoff", "--modes", "4", "--squeezing", "0.5", "--gamma", "0.05",
                         "--photons", "4", "--sources", "6", "--epsilon", "1e-6"], capsys)
        record = json.loads(out)

        def delta(n):
            total = 0.0
            for x in range(1, 7):
                if (n + x) % 2 == 0:
                    nu = (n + x) // 2
                    total += scipy.stats.binom.pmf(x, 6, 0.05) * (
                        scipy.special.comb(nu + 1, nu, exact=True)
                        * np.cosh(0.5) ** -4.0
                        * np.tanh(0.5) ** (2 * nu)
                    )
            return total

        n = 4
        while delta(n) >= 1e-6:
            n += 1
        assert record["n_c"] == n
        assert record["delta"] < 1e-6

    def test_sources_from_circuit(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        run(["gen", "--modes", "4", "--depth", "4", "--seed", "1", "--gamma", "0.05",
             "--output", str(path)], capsys)
        code, out, _ = run(["cutoff", "--modes", "4", "--squeezing", "0.5", "--gamma", "0.05",
                            "--photons", "4", "--circuit", str(path)], capsys)
        assert code == 0
        assert json.loads(out)["sources"] == 6

    def test_a_thousand_sources_do_not_overflow(self, capsys):
        code, out, _ = run(["cutoff", "--modes", "48", "--squeezing", "0.4", "--gamma", "0.05",
                            "--photons", "6", "--sources", "1128"], capsys)
        assert code == 0
        (record,) = _records(out)
        assert record["n_c"] == 6 and record["sources"] == 1128

    def test_odd_modes_reported(self, capsys):
        code, _, err = run(["cutoff", "--modes", "3", "--squeezing", "0.5", "--gamma", "0.05",
                            "--photons", "2", "--sources", "4"], capsys)
        assert code == 1
        assert "even" in err


class TestScaling:
    def test_csv_grid(self, tmp_path, capsys):
        path = tmp_path / "grid.csv"
        code, _, _ = run(["scaling", "--modes", "6:30:2", "--squeezing", "0.3:0.7:0.1",
                          "--output", str(path)], capsys)
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + 13 * 5
        assert lines[0].startswith("M,r,")

    def test_stdout_and_flags(self, capsys):
        code, out, _ = run(["scaling", "--modes", "6,10", "--squeezing", "0.3,0.5"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert any("True" in line for line in lines[1:])   # out-of-regime rows marked
        assert any("False" in line for line in lines[1:])

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["scaling", "--output", str(a)], capsys)
        run(["scaling", "--output", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "flag, grid, reason",
        [
            ("--modes", "6:30:0", "positive step"),
            ("--modes", "6:30:-2", "positive step"),
            ("--modes", "30:6:2", "empty"),
            ("--modes", "6:8:0.5", "even and at least 4"),
            ("--modes", "2,6", "even and at least 4"),
            ("--modes", "6,7", "even and at least 4"),
            ("--squeezing", "0.3:0.7:0", "positive step"),
            ("--squeezing", "0.7:0.3:0.1", "empty"),
        ],
    )
    def test_bad_grid_exits_1(self, tmp_path, capsys, flag, grid, reason):
        path = tmp_path / "grid.csv"
        code, out, err = run(["scaling", flag, grid, "--output", str(path)], capsys)
        assert code == 1
        assert err.startswith("error: ") and reason in err
        assert not path.exists()

    def test_bound_past_the_digit_limit_is_refused_before_it_is_computed(self, capsys):
        # 20^9999999 took 11.4 s to compute exactly, and only then failed to print
        start = time.perf_counter()
        code, out, err = run(["scaling", "--modes", "19999998", "--squeezing", "0.001"], capsys)
        assert time.perf_counter() - start < 0.5
        assert code == 1 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "digit" in err


class TestValidate:
    def test_lossless_instance_passes(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        run(["gen", "--modes", "4", "--depth", "4", "--seed", "13", "--output", str(path)], capsys)
        code, out, _ = run(["validate", "--circuit", str(path), "--squeezing", "0.4",
                            "--totals", "0,2"], capsys)
        assert code == 0
        record = json.loads(out)
        assert record["ok"] is True
        assert set(record["backends"]) == {"tn_heisenberg", "tn_schrodinger", "dense", "gaussian"}

    def test_lossy_instance_passes(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        run(["gen", "--modes", "3", "--depth", "3", "--seed", "13", "--gamma", "0.05",
             "--output", str(path)], capsys)
        code, out, _ = run(["validate", "--circuit", str(path), "--squeezing", "0.4",
                            "--totals", "0,1,2", "--cutoff", "6"], capsys)
        assert code == 0
        record = json.loads(out)
        assert record["ok"] is True
        assert record["backends"] == ["tn_heisenberg", "dense", "gaussian"]

    def test_lossy_validate_catches_cutoff_bias(self, tmp_path, capsys):
        # tn and dense share the cutoff and agree with each other; only the
        # exact gaussian column shows the probability the cutoff drops
        path = tmp_path / "c.json"
        run(["gen", "--modes", "3", "--depth", "3", "--seed", "13", "--gamma", "0.05",
             "--output", str(path)], capsys)
        code, out, _ = run(["validate", "--circuit", str(path), "--squeezing", "0.4",
                            "--totals", "0,1,2", "--cutoff", "2"], capsys)
        assert code == 1
        record = json.loads(out)
        assert record["ok"] is False
        assert 1e-5 < record["max_pairwise_difference"] < 1e-3

    def test_record_holds_python_types_for_numpy_scalars(self, tmp_path, capsys, monkeypatch):
        from gbstn import gauss

        gbs_probability = gauss.gbs_probability
        monkeypatch.setattr(
            gauss, "gbs_probability", lambda *args: np.float64(gbs_probability(*args))
        )
        path = tmp_path / "c.json"
        run(["gen", "--modes", "3", "--depth", "3", "--seed", "13", "--output", str(path)], capsys)
        code, out, _ = run(["validate", "--circuit", str(path), "--squeezing", "0.4",
                            "--totals", "0,2"], capsys)
        assert code == 0
        record = json.loads(out)
        assert record["ok"] is True
        assert isinstance(record["max_pairwise_difference"], float)

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--totals", "a,2"], "must be comma-separated integers"),
            (["--totals", "-2"], "must not be negative"),
            (["--totals", "0,-1"], "must not be negative"),
            (["--totals", "4", "--cutoff", "2"], "lies outside the cutoff 2"),
        ],
    )
    def test_bad_totals_exit_1(self, tmp_path, capsys, flags, message):
        # a cutoff is read on a lossy file only
        loss = ["--gamma", "0.05"] if "--cutoff" in flags else []
        path = tmp_path / "c.json"
        run(["gen", "--modes", "3", "--depth", "3", "--seed", "13", *loss, "--output", str(path)],
            capsys)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the dense column's tail-mass warning at n_c = 2
            code, out, err = run(["validate", "--circuit", str(path), "--squeezing", "0.4",
                                  *flags], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and message in err

    def test_lossy_file_needs_a_cutoff(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        run(["gen", "--modes", "4", "--depth", "4", "--seed", "1", "--gamma", "0.05",
             "--output", str(path)], capsys)
        code, out, err = run(["validate", "--circuit", str(path), "--squeezing", "0.4",
                              "--totals", "0,2"], capsys)
        assert code == 1
        assert "--cutoff" in err
        assert out == ""

    def test_lossless_file_takes_no_cutoff(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        run(["gen", "--modes", "4", "--depth", "4", "--seed", "1", "--output", str(path)], capsys)
        code, out, err = run(["validate", "--circuit", str(path), "--squeezing", "0.4",
                              "--totals", "0,2", "--cutoff", "1"], capsys)
        assert code == 1
        assert out == ""
        assert "validate does not use --cutoff on a lossless circuit" in err

    def test_cutoff_below_one_exits_1(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        run(["gen", "--modes", "4", "--depth", "4", "--seed", "1", "--gamma", "0.05",
             "--output", str(path)], capsys)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(["validate", "--circuit", str(path), "--squeezing", "0.4",
                                  "--totals", "0,2", "--cutoff", "0"], capsys)
        assert code == 1
        assert out == ""
        assert err == "error: --cutoff must be at least 1, got 0\n"


class TestRefusals:
    """Every refusal is one ``error:`` line on stderr and exit code 1, and a
    refused request writes nothing and lists no outcome."""

    CASES = {
        "gen-one-mode": ["gen", "--modes", "1", "--depth", "2", "--seed", "1", "--output", "{out}"],
        "gen-no-depth": ["gen", "--modes", "4", "--depth", "0", "--seed", "1", "--output", "{out}"],
        "gen-negative-seed": ["gen", "--modes", "4", "--depth", "2", "--seed", "-1", "--output", "{out}"],
        "gen-gamma-above-one": ["gen", "--modes", "4", "--depth", "2", "--seed", "1",
                                "--gamma", "1.5", "--output", "{out}"],
        "gen-negative-gamma": ["gen", "--modes", "4", "--depth", "2", "--seed", "1",
                               "--gamma", "-0.5", "--output", "{out}"],
        "cutoff-gamma-above-one": ["cutoff", "--modes", "4", "--squeezing", "0.5", "--gamma", "1.5",
                                   "--photons", "4", "--sources", "6"],
        "cutoff-zero-epsilon": ["cutoff", "--modes", "4", "--squeezing", "0.5", "--gamma", "0.05",
                                "--photons", "4", "--sources", "6", "--epsilon", "0"],
        "cutoff-negative-photons": ["cutoff", "--modes", "4", "--squeezing", "0.5", "--gamma", "0.05",
                                    "--photons", "-2", "--sources", "6"],
        "cutoff-infinite-squeezing": ["cutoff", "--modes", "4", "--squeezing", "inf", "--gamma", "0.05",
                                      "--photons", "4", "--sources", "6"],
        "cutoff-nan-squeezing": ["cutoff", "--modes", "4", "--squeezing", "nan", "--gamma", "0.05",
                                 "--photons", "4", "--sources", "6"],
        "cutoff-infinite-epsilon": ["cutoff", "--modes", "4", "--squeezing", "0.5", "--gamma", "0.05",
                                    "--photons", "4", "--sources", "6", "--epsilon", "inf"],
        "cutoff-no-modes": ["cutoff", "--modes", "0", "--squeezing", "0.5", "--gamma", "0.05",
                            "--photons", "4", "--sources", "6"],
        "cutoff-no-source-count": ["cutoff", "--modes", "4", "--squeezing", "0.5", "--gamma", "0.05",
                                   "--photons", "4"],
        # refused before the file is read, so a missing one does not decide
        "cutoff-sources-and-circuit": ["cutoff", "--modes", "4", "--squeezing", "0.5", "--gamma", "0.05",
                                       "--photons", "4", "--sources", "6", "--circuit", "{out}"],
        "cutoff-modes-not-the-circuits": ["cutoff", "--modes", "6", "--squeezing", "0.5", "--gamma", "0.05",
                                          "--photons", "4", "--circuit", "{lossy}"],
        # D_schrodinger = 1720^1500 here, 4853 digits, past Python's 4300-digit limit for str()
        "scaling-bound-past-the-digit-limit": ["scaling", "--modes", "3000", "--squeezing", "0.7",
                                               "--output", "{out}"],
        "scaling-grid-above-the-size-guard": ["scaling", "--modes", "4:2e9:2", "--output", "{out}"],
        "scaling-unbounded-grid": ["scaling", "--modes", "4:inf:2", "--output", "{out}"],
        # 352,716 outcomes, refused by the dense guard at n_c = 10
        "validate-dense-guard": ["validate", "--circuit", "{wide}", "--totals", "10"],
        # 84,672,315 outcomes
        "validate-many-outcomes": ["validate", "--circuit", "{wide}", "--totals", "20"],
        # 167,668,501 outcomes at a dense output of 3^4 entries
        "validate-many-lossy-outcomes": ["validate", "--circuit", "{lossy}", "--cutoff", "2",
                                         "--totals", "1000"],
        "validate-nan-tolerance": ["validate", "--circuit", "{lossy}", "--cutoff", "2", "--tolerance", "nan"],
        "validate-infinite-tolerance": ["validate", "--circuit", "{lossy}", "--cutoff", "2",
                                        "--tolerance", "inf"],
        "validate-negative-tolerance": ["validate", "--circuit", "{lossy}", "--cutoff", "2",
                                        "--tolerance", "-0.5"],
        # a gate record on three modes
        "prob-malformed-gate-record": ["prob", "--circuit", "{malformed}", "--outcome", "1,1,0,0",
                                       "--squeezing", "0.4", "--output", "{out}"],
    }
    # what the error line names, where a case's message is checked
    NAMED = {
        "cutoff-no-modes": "num_modes must be >= 1, got 0",
        "cutoff-sources-and-circuit": "pass --sources or --circuit, not both",
        "cutoff-modes-not-the-circuits": "--modes 6 differs from the circuit's 4 modes",
    }

    @pytest.mark.parametrize("outcome", ["1,x,0,0", "1,,0,0", "1.5,1,0,0"])
    def test_malformed_outcome_is_refused_by_the_parser(self, tmp_path, capsys, outcome):
        path = tmp_path / "c.json"
        run(["gen", "--modes", "4", "--depth", "2", "--seed", "1", "--output", str(path)], capsys)
        with pytest.raises(SystemExit) as exc:
            main(["prob", "--circuit", str(path), "--outcome", outcome])
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert out == ""
        assert f"bad outcome {outcome!r}" in err

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exits_1_with_one_error_line(self, tmp_path, capsys, monkeypatch, case):
        from gbstn import analysis

        files = {"wide": tmp_path / "wide.json", "lossy": tmp_path / "lossy.json",
                 "malformed": tmp_path / "malformed.json"}
        run(["gen", "--modes", "12", "--depth", "12", "--seed", "1", "--output", str(files["wide"])],
            capsys)
        run(["gen", "--modes", "4", "--depth", "4", "--seed", "1", "--gamma", "0.05",
             "--output", str(files["lossy"])], capsys)
        data = json.loads(files["lossy"].read_text())
        data["layers"][1][0]["modes"].append(3)
        files["malformed"].write_text(json.dumps(data))

        def listed(*args):
            raise AssertionError("outcomes were listed before the request was refused")
            yield

        monkeypatch.setattr(analysis, "outcomes_with_total", listed)
        out_path = tmp_path / "out"
        argv = [a.format(out=out_path, **files) for a in self.CASES[case]]
        code, out, err = run(argv, capsys)
        assert code == 1
        assert out == ""
        assert not out_path.exists()
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert self.NAMED.get(case, "") in err
