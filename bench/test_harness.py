"""Tests of the benchmark harness on short inputs.

    python3 -m pytest bench/test_harness.py -q
"""

import os
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from gbstn.circuit import build_brickwork  # noqa: E402

import reference  # noqa: E402
from inputs import Case, with_seeded_loss  # noqa: E402
from spans import Tracer, layer_metrics, self_times  # noqa: E402
from worker import library_steps, run_rounds  # noqa: E402


def _lossy_with_bad_outcome():
    import numpy as np

    circuit = with_seeded_loss(build_brickwork(3, 3, seed=5), np.random.default_rng(5), (0.02, 0.08))
    # (3, 0, 0) lies outside the cutoff 2, so the route raises on it
    return [Case("lossy-small", "lossy", circuit, ((3, 0, 0), (1, 0, 1)), 2)]


def test_raising_operation_is_counted_as_failed_and_the_run_goes_on():
    cases = _lossy_with_bad_outcome()
    log = run_rounds(library_steps(cases), seconds=0.0)
    assert (log.attempted, log.failed) == (2, 1)
    assert "outside the cutoff" in log.errors[0]
    assert log.results["lossy-small/1"][0][0] > 0.0
    verdict = reference.check(0, cases, log.results)
    assert verdict["correct"], verdict["failures"]


def test_perturbed_probability_fails_the_reference_check():
    cases = [Case("lossless-small", "lossless", build_brickwork(4, 4, seed=3), ((1, 1, 0, 0), (0, 1, 0, 1)), 2)]
    log = run_rounds(library_steps(cases), seconds=0.0)
    assert reference.check(0, cases, log.results)["correct"]
    log.results["lossless-small/1"][0][0] *= 1.0 + 1e-6
    verdict = reference.check(0, cases, log.results)
    assert not verdict["correct"]
    assert verdict["failures"][0].startswith("lossless-small/1")


def test_self_time_excludes_the_union_of_child_spans():
    spans = [
        {"id": 1, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 2, "parent": 1, "start": 1.0, "end": 3.0},
        {"id": 3, "parent": 1, "start": 2.0, "end": 5.0},
        {"id": 4, "parent": 3, "start": 2.5, "end": 3.5},
    ]
    assert self_times(spans) == {1: 6.0, 2: 2.0, 3: 2.0, 4: 1.0}


def test_missing_target_is_reported_absent_and_others_still_traced():
    module = types.SimpleNamespace(__name__="fake", present=lambda x: x + 1)
    tracer = Tracer()
    tracer.install([(module, "gone", "fake.gone", None, None), (module, "present", "fake.present", None, None)])
    tracer.op = 7
    assert module.present(1) == 2
    tracer.uninstall()
    assert tracer.absent == ["fake.gone"]
    assert [(s["name"], s["op"]) for s in tracer.spans] == [("fake.present", 7)]
    assert module.present(1) == 2 and len(tracer.spans) == 1


def test_traced_run_tags_spans_with_operation_ids_and_survives_a_failed_call():
    tracer = Tracer()
    log = run_rounds(library_steps(_lossy_with_bad_outcome()), seconds=0.0, tracer=tracer)
    assert (log.rounds, log.attempted, log.failed) == (2, 4, 2)
    assert tracer.absent == []
    ops = {s["op"] for s in tracer.spans if s["name"] == "bench.op"}
    assert ops == {s["op"] for s in tracer.spans}
    assert any(s["name"] == "tnet.svd" and s["bytes_in"] > 0 for s in tracer.spans)
    metrics = layer_metrics(tracer.spans, 1, sum(log.traced_rounds), 1.0)
    assert metrics["tnet.gate_updates"]["value"] == 3  # one good outcome through 3 gates
    assert metrics["analysis.choose_cutoff_s"]["value"] == 0.0  # odd M: no recommendation
