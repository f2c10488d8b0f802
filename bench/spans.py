"""Spans around the public functions of gbstn, installed from outside the package.

A :class:`Tracer` replaces module attributes with timing wrappers, so calls
made through those attributes, by the benchmark or by gbstn itself, leave a
span (name, start, end, parent, operation id).  Spans stay in memory until
:func:`write_jsonl`; :func:`layer_metrics` derives the per-layer metrics.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
import threading
import time


def _route_lossless(args, kwargs, result):
    info = _route(args, kwargs, result)
    info["ceiling"] = math.prod(int(n) + 1 for n in args[1])
    return info


def _route(args, kwargs, result):
    stats = result[1]
    return {
        "max_bond": stats.max_bond_seen,
        "truncation_weight": stats.truncation_weight,
        "flop_estimate": stats.flop_estimate,
    }


def _svd_bytes(args, kwargs, result):
    matrix = args[0]
    return {"bytes_in": math.prod(matrix.shape) * matrix.dtype.itemsize}


def _hafnian_dim(args, kwargs, result):
    return {"dim": len(args[0])}


def targets():
    """The wrapped calls as (module, attribute, span name, describe, only_from).

    ``describe`` adds fields to the span from the call's arguments and result;
    ``only_from`` limits a wrapper to calls made from that module.  tnet holds
    its own references to gate_tensor and kraus_set, so both bindings are
    wrapped; kraus_set reaches circuit.gate_tensor only on a cache miss.
    """
    import numpy.linalg
    import scipy.linalg

    import gbstn.analysis
    import gbstn.circuit
    import gbstn.cli
    import gbstn.gauss
    import gbstn.tnet

    tnet, gauss = gbstn.tnet, gbstn.gauss
    return [
        (tnet, "heisenberg_probability_lossless", "tnet.heisenberg_probability_lossless", _route_lossless, None),
        (tnet, "heisenberg_probability_lossy", "tnet.heisenberg_probability_lossy", _route, None),
        (tnet, "schrodinger_probability", "tnet.schrodinger_probability", _route, None),
        (tnet, "apply_gate_mps", "tnet.apply_gate_mps", None, None),
        (tnet, "apply_gate_mpo_adjoint", "tnet.apply_gate_mpo_adjoint", None, None),
        (tnet, "mps_overlap", "tnet.mps_overlap", None, None),
        (tnet, "mpo_expectation", "tnet.mpo_expectation", None, None),
        (tnet, "fock_mps", "tnet.fock_mps", None, None),
        (tnet, "fock_projector_mpo", "tnet.fock_projector_mpo", None, None),
        (tnet, "squeezed_mps", "tnet.squeezed_mps", None, None),
        (tnet, "gate_tensor", "circuit.gate_tensor", None, None),
        (tnet, "kraus_set", "circuit.kraus_set", None, None),
        (gbstn.circuit, "gate_tensor", "circuit.gate_tensor", None, None),
        (gbstn.circuit, "load_circuit", "circuit.load_circuit", None, None),
        (numpy.linalg, "svd", "tnet.svd", _svd_bytes, "gbstn.tnet"),
        (scipy.linalg, "svd", "tnet.svd", _svd_bytes, "gbstn.tnet"),
        (gauss, "squeezed_vacuum_cov", "gauss.squeezed_vacuum_cov", None, None),
        (gauss, "propagate_circuit", "gauss.propagate_circuit", None, None),
        (gauss, "gbs_probability", "gauss.gbs_probability", None, None),
        (gauss, "hafnian", "gauss.hafnian", _hafnian_dim, None),
        (gbstn.analysis, "choose_cutoff", "analysis.choose_cutoff", None, None),
        (gbstn.cli, "main", "cli.main", None, None),
    ]


class Tracer:
    """Keeps spans in memory; spans opened in worker threads hang under the
    span open on the main thread, so a CLI request's pool work is its child."""

    def __init__(self):
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self.op: int | None = None
        self._ids = itertools.count(1)
        self._main = threading.main_thread()
        self._main_stack: list[dict] = []
        self._local = threading.local()
        self._installed: list[tuple] = []

    def _stack(self) -> list[dict]:
        if threading.current_thread() is self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str) -> dict:
        stack = self._stack()
        parents = stack or self._main_stack
        span = {
            "id": next(self._ids),
            "op": self.op,
            "name": name,
            "parent": parents[-1]["id"] if parents else None,
            "thread": threading.get_ident(),
            "start": time.perf_counter(),
            "end": None,
        }
        stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def install(self, wanted=None) -> None:
        """Wrap every target; a target the package no longer has is listed in ``absent``."""
        for module, attr, name, describe, only_from in wanted or targets():
            original = getattr(module, attr, None)
            if original is None:
                missing = f"{module.__name__}.{attr}"
                if missing not in self.absent:
                    self.absent.append(missing)
                continue
            setattr(module, attr, self._wrap(original, name, describe, only_from))
            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _wrap(self, original, name, describe, only_from):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if only_from is not None and sys._getframe(1).f_globals.get("__name__") != only_from:
                return original(*args, **kwargs)
            span = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            if describe is not None:
                span.update(describe(args, kwargs, result))
            return result

        return wrapper


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"]) - _covered(children.get(s["id"], []))
        for s in spans
    }


def self_time_table(spans: list[dict]) -> dict[str, float]:
    """Span name -> summed self time."""
    own = self_times(spans)
    table: dict[str, float] = {}
    for s in spans:
        table[s["name"]] = table.get(s["name"], 0.0) + own[s["id"]]
    return table


def _named(spans, *names):
    return [s for s in spans if s["name"] in names]


def _total(spans, *names) -> float:
    return sum(s["end"] - s["start"] for s in _named(spans, *names))


def _largest(spans, key, *names) -> float:
    return max((float(s[key]) for s in _named(spans, *names) if key in s), default=0.0)


ROUTES = (
    "tnet.heisenberg_probability_lossless",
    "tnet.heisenberg_probability_lossy",
    "tnet.schrodinger_probability",
)
LAYER_UNITS = {
    "tnet.gate_updates": "count",
    "tnet.gate_update_s": "s",
    "tnet.svd_calls": "count",
    "tnet.svd_s": "s",
    "tnet.svd_bytes_in": "B",
    "tnet.max_bond": "count",
    "tnet.bond_over_ceiling": "ratio",
    "tnet.contract_s": "s",
    "tnet.truncation_weight": "1",
    "tnet.flop_estimate": "flop",
    "circuit.gate_tensor_calls": "count",
    "circuit.gate_tensor_s": "s",
    "circuit.kraus_set_s": "s",
    "gauss.propagate_s": "s",
    "gauss.hafnian_calls": "count",
    "gauss.hafnian_s": "s",
    "gauss.hafnian_max_dim": "count",
    "gauss.gbs_probability_self_s": "s",
    "analysis.choose_cutoff_s": "s",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "trace.unspanned_s": "s",
    "trace.overhead_ratio": "ratio",
}


def layer_metrics(spans: list[dict], rounds: int, timed_s: float, overhead_ratio: float) -> dict:
    """Per-layer metrics per traced round.  Counts and times are sums over the
    round; bonds, ratios, weights and dimensions are maxima."""
    gate_updates = ("tnet.apply_gate_mps", "tnet.apply_gate_mpo_adjoint")
    own = self_times(spans)
    lossless = _named(spans, "tnet.heisenberg_probability_lossless")
    values = {
        "tnet.gate_updates": len(_named(spans, *gate_updates)) / rounds,
        "tnet.gate_update_s": _total(spans, *gate_updates) / rounds,
        "tnet.svd_calls": len(_named(spans, "tnet.svd")) / rounds,
        "tnet.svd_s": _total(spans, "tnet.svd") / rounds,
        "tnet.svd_bytes_in": sum(s.get("bytes_in", 0) for s in _named(spans, "tnet.svd")) / rounds,
        "tnet.max_bond": _largest(spans, "max_bond", *ROUTES),
        "tnet.bond_over_ceiling": max(
            (s["max_bond"] / s["ceiling"] for s in lossless if "ceiling" in s), default=0.0
        ),
        "tnet.contract_s": _total(spans, "tnet.mps_overlap", "tnet.mpo_expectation") / rounds,
        "tnet.truncation_weight": _largest(spans, "truncation_weight", *ROUTES),
        "tnet.flop_estimate": sum(s.get("flop_estimate", 0.0) for s in _named(spans, *ROUTES)) / rounds,
        "circuit.gate_tensor_calls": len(_named(spans, "circuit.gate_tensor")) / rounds,
        "circuit.gate_tensor_s": _total(spans, "circuit.gate_tensor") / rounds,
        "circuit.kraus_set_s": _total(spans, "circuit.kraus_set") / rounds,
        "gauss.propagate_s": _total(spans, "gauss.propagate_circuit") / rounds,
        "gauss.hafnian_calls": len(_named(spans, "gauss.hafnian")) / rounds,
        "gauss.hafnian_s": _total(spans, "gauss.hafnian") / rounds,
        "gauss.hafnian_max_dim": _largest(spans, "dim", "gauss.hafnian"),
        "gauss.gbs_probability_self_s": sum(
            own[s["id"]] for s in _named(spans, "gauss.gbs_probability")
        ) / rounds,
        "analysis.choose_cutoff_s": _total(spans, "analysis.choose_cutoff") / rounds,
        "cli.main_s": _total(spans, "cli.main") / rounds,
        "cli.self_s": sum(own[s["id"]] for s in _named(spans, "cli.main")) / rounds,
        "trace.unspanned_s": (timed_s - _total(spans, "bench.op")) / rounds,
        "trace.overhead_ratio": overhead_ratio,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_UNITS.items()}


def write_jsonl(path, spans: list[dict], metrics: dict, table: dict, absent: list[str]) -> None:
    """Spans first, then the self-time table, the absent wrappers and the metrics."""
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
        fh.write(json.dumps({"self_time_s_per_round": table}) + "\n")
        fh.write(json.dumps({"absent": absent}) + "\n")
        fh.write(json.dumps({"metrics": metrics}) + "\n")
