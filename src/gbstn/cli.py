"""Command-line front end.

Subcommands:

* ``gen``      write a seeded brickwork circuit file
* ``prob``     single-outcome probabilities in any picture/backend
* ``cutoff``   local-dimension recommendation from the spillover bound
* ``scaling``  Heisenberg-vs-Schrodinger bond-bound grid as CSV
* ``validate`` cross-backend agreement check on one circuit file

``prob`` and ``validate`` emit one JSON record per line; ``--output -``
streams to stdout.  ``prob --workers`` evaluates the outcomes on that many
threads, which helps when BLAS is pinned to one thread.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor

from . import analysis, circuit as circuit_mod, fockdense, gauss, tnet
from .errors import ResourceLimitError, UnsupportedConfigurationError

DEFAULT_EPSILON = 1e-6
DEFAULT_TOLERANCE = 1e-8


def _parse_outcome(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.replace(" ", "").split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad outcome {text!r}: {exc}") from None


def _parse_squeezing(text: str):
    parts = text.replace(" ", "").split(",")
    values = [float(x) for x in parts]
    return values[0] if len(values) == 1 else values


def _parse_grid(text: str, cast) -> list:
    """Accept 'start:stop:step' (stop inclusive) or a comma list; raises
    ValueError on a step <= 0 or an empty range."""
    if ":" in text:
        start, stop, step = (float(x) for x in text.split(":"))
        if step <= 0.0:
            raise ValueError(f"grid {text!r} needs a positive step")
        if stop < start:
            raise ValueError(f"grid {text!r} is empty")
        count = int(round((stop - start) / step)) + 1
        return [cast(start + k * step) for k in range(count)]
    return [cast(x) for x in text.split(",")]


def _load_circuit(path: str):
    """The circuit in ``path``, or None after printing why it cannot be read."""
    try:
        return circuit_mod.load_circuit(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: cannot read circuit {path!r}: {exc}", file=sys.stderr)
        return None


def _open_output(path: str):
    if path == "-":
        return sys.stdout, False
    return open(path, "w"), True


def cmd_gen(args) -> int:
    circ = circuit_mod.build_brickwork(args.modes, args.depth, seed=args.seed)
    if args.gamma > 0.0:
        circ = circuit_mod.with_uniform_loss(circ, args.gamma)
    try:
        circuit_mod.save_circuit(circ, args.output, seed=args.seed)
    except OSError as exc:
        print(f"error: cannot write {args.output!r}: {exc}", file=sys.stderr)
        return 1
    return 0


def _dense_output(circ, squeezing, n_c):
    """Dense output of the circuit: a state vector if lossless, else a density matrix."""
    state = fockdense.dense_squeezed_vacuum(squeezing, circ.num_modes, n_c)
    if circ.is_lossless:
        return fockdense.dense_evolve_state(state, circ)
    return fockdense.dense_evolve_density(state.to_density(), circ)


def _evaluator(circ, squeezing, backend, picture, policy, cutoffs):
    """``evaluate(outcome, n_c) -> (probability, stats or None)`` on one
    backend.  The work no outcome changes is done here, once per request:
    the Gaussian covariance, or the dense output or the Schrodinger picture's
    evolved input for each n_c in ``cutoffs``."""
    if backend == "tn" and picture == "schrodinger":
        states = {n_c: tnet.evolve_input(circ, squeezing, n_c, policy) for n_c in set(cutoffs)}
        return lambda outcome, n_c: tnet.project_outcome(*states[n_c], outcome, n_c)
    if backend == "tn":
        return lambda outcome, n_c: tnet.probability(circ, outcome, squeezing, n_c, policy, picture)
    if backend == "dense":
        outputs = {n_c: _dense_output(circ, squeezing, n_c) for n_c in set(cutoffs)}
        return lambda outcome, n_c: (fockdense.dense_probability(outputs[n_c], outcome), None)
    state = gauss.propagate_circuit(gauss.squeezed_vacuum_cov(squeezing, circ.num_modes), circ)
    return lambda outcome, n_c: (gauss.gbs_probability(state, outcome), None)


def _prob_record(evaluate, outcome, backend, picture, n_c, recommended) -> dict:
    start = time.perf_counter()
    p, stats = evaluate(outcome, n_c)
    return {
        "outcome": list(outcome),
        "picture": picture,
        "backend": backend,
        "n_c": n_c,
        "recommended_n_c": recommended,
        "max_bond": None if stats is None else stats.max_bond_seen,
        "truncation_weight": None if stats is None else stats.truncation_weight,
        "flop_estimate": None if stats is None else stats.flop_estimate,
        "probability": p,
        "wall_time": time.perf_counter() - start,
    }


def _unread_flags(args) -> list[str]:
    """The flags given explicitly that the chosen backend never reads."""
    unread = []
    if args.backend == "gaussian":  # exact: no cutoff, no truncation
        given = (("--cutoff", args.cutoff), ("--max-bond", args.max_bond),
                 ("--svd-threshold", args.svd_threshold), ("--epsilon", args.epsilon))
        unread += [flag for flag, value in given if value is not None]
    if args.backend != "tn" and args.picture is not None:
        unread.append("--picture")
    return unread


def cmd_prob(args) -> int:
    unread = _unread_flags(args)
    if unread:
        print(f"error: --backend {args.backend} does not use {', '.join(unread)}", file=sys.stderr)
        return 1
    if args.workers is not None and args.workers < 1:
        print(f"error: --workers must be at least 1, got {args.workers}", file=sys.stderr)
        return 1
    circ = _load_circuit(args.circuit)
    if circ is None:
        return 1
    epsilon = DEFAULT_EPSILON if args.epsilon is None else args.epsilon
    picture = (args.picture or "heisenberg") if args.backend == "tn" else None
    try:
        truncation = {"max_bond": args.max_bond, "svd_threshold": args.svd_threshold}
        policy = tnet.TruncationPolicy(**{k: v for k, v in truncation.items() if v is not None})
        recommended = n_cs = [None] * len(args.outcome)
        if args.backend != "gaussian":  # the exact Gaussian backend takes no cutoff
            recommended = [
                analysis.recommended_cutoff(circ, args.squeezing, sum(n), epsilon)
                for n in args.outcome
            ]
            n_cs = recommended if args.cutoff is None else [args.cutoff] * len(args.outcome)
            if None in n_cs:
                raise UnsupportedConfigurationError(
                    "automatic cutoff selection needs an even mode count and uniform "
                    "squeezing for lossy circuits; pass --cutoff explicitly"
                )
        evaluate = _evaluator(circ, args.squeezing, args.backend, picture, policy, n_cs)
    except (ValueError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    def record(outcome, n_c, recommended_n_c) -> dict:
        # one failed outcome becomes an error record; the rest of the batch runs
        try:
            return _prob_record(evaluate, outcome, args.backend, picture, n_c, recommended_n_c)
        except Exception as exc:
            return {"outcome": list(outcome), "error": str(exc)}

    fh, close = _open_output(args.output)
    try:
        if (args.workers or 1) > 1:
            with ThreadPoolExecutor(max_workers=args.workers) as pool:
                records = list(pool.map(record, args.outcome, n_cs, recommended))
        else:
            records = list(map(record, args.outcome, n_cs, recommended))
        for entry in records:
            fh.write(json.dumps(entry) + "\n")
    finally:
        if close:
            fh.close()
    return 1 if any("error" in entry for entry in records) else 0


def cmd_cutoff(args) -> int:
    if args.sources is not None:
        sources = args.sources
    elif args.circuit:
        circ = _load_circuit(args.circuit)
        if circ is None:
            return 1
        sources = circ.num_lossy_gates
    else:
        print("error: pass --sources or --circuit to fix the source count", file=sys.stderr)
        return 1
    try:
        policy = analysis.CutoffPolicy(
            gamma=args.gamma,
            num_sources=sources,
            num_modes=args.modes,
            r=args.squeezing,
            n_tilde=args.photons,
            epsilon=args.epsilon,
        )
        n_c, achieved = analysis.choose_cutoff(policy)
    except UnsupportedConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(
        json.dumps(
            {"n_c": n_c, "delta": achieved, "epsilon": args.epsilon, "sources": sources}
        )
    )
    return 0


def cmd_scaling(args) -> int:
    try:
        modes = _parse_grid(args.modes, int)
        squeezings = [round(v, 12) for v in _parse_grid(args.squeezing, float)]
        bad = [m for m in modes if m < 4 or m % 2 != 0]
        if bad:
            raise ValueError(f"mode counts must be even and at least 4, got {bad}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    fh, close = _open_output(args.output)
    try:
        analysis.write_scaling_report(fh, modes, squeezings)
    finally:
        if close:
            fh.close()
    return 0


def _parse_totals(text: str) -> list[int]:
    """Comma-separated photon totals; raises ValueError on a non-integer or a
    negative one, so every total has at least one outcome."""
    try:
        totals = [int(x) for x in text.split(",")]
    except ValueError:
        raise ValueError(f"--totals {text!r} must be comma-separated integers") from None
    if any(total < 0 for total in totals):
        raise ValueError(f"--totals {text!r} must not be negative")
    return totals


def cmd_validate(args) -> int:
    circ = _load_circuit(args.circuit)
    if circ is None:
        return 1
    if args.cutoff is None and not circ.is_lossless:
        msg = "the spillover bound's choice (gbstn cutoff) is usually too large to run"
        print(f"error: a lossy circuit needs --cutoff; {msg}", file=sys.stderr)
        return 1
    policy = tnet.TruncationPolicy()
    # the gaussian column is exact for any per-gate loss, so on a lossy file it
    # exposes the cutoff bias; the Schrodinger picture has no lossy route
    routes = [
        ("tn_heisenberg", "tn", "heisenberg"),
        ("tn_schrodinger", "tn", "schrodinger"),
        ("dense", "dense", None),
        ("gaussian", "gaussian", None),
    ]
    try:
        totals = _parse_totals(args.totals)
        outcomes = [
            n for total in totals for n in analysis.outcomes_with_total(circ.num_modes, total)
        ]
        n_c = args.cutoff
        if n_c is None:
            n_c = analysis.recommended_cutoff(circ, args.squeezing, max(totals))
        evaluators = {
            name: _evaluator(circ, args.squeezing, backend, picture, policy, [n_c])
            for name, backend, picture in routes
            if circ.is_lossless or picture != "schrodinger"
        }
        columns = {
            name: [evaluate(n, n_c)[0] for n in outcomes] for name, evaluate in evaluators.items()
        }
    except (ValueError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    names = list(columns)
    worst = 0.0
    for a, b in itertools.combinations(names, 2):
        for x, y in zip(columns[a], columns[b]):
            worst = max(worst, abs(x - y))
    # an evaluator may return numpy scalars, which json cannot write
    worst = float(worst)
    ok = bool(worst <= args.tolerance)
    print(
        json.dumps(
            {
                "circuit": args.circuit,
                "backends": names,
                "outcomes": len(outcomes),
                "n_c": n_c,
                "max_pairwise_difference": worst,
                "tolerance": args.tolerance,
                "ok": ok,
            }
        )
    )
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gbstn",
        description="Boson-sampling outcome probabilities via tensor networks, "
        "dense Fock evolution, and the Gaussian hafnian formula.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a seeded brickwork circuit file")
    p.add_argument("--modes", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--gamma", type=float, default=0.0, help="uniform per-gate loss")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("prob", help="compute outcome probabilities")
    p.add_argument("--circuit", required=True)
    p.add_argument(
        "--outcome",
        type=_parse_outcome,
        action="append",
        required=True,
        help="comma-separated photon counts; repeatable",
    )
    p.add_argument("--squeezing", type=_parse_squeezing, default=0.4)
    # flags a backend does not read default to None, so that cmd_prob can
    # reject them when given
    p.add_argument(
        "--picture", choices=("heisenberg", "schrodinger"), default=None,
        help="tn backend only (default: heisenberg)",
    )
    p.add_argument("--backend", choices=("tn", "dense", "gaussian"), default="tn")
    p.add_argument("--cutoff", type=int, default=None, help="local cutoff n_c (default: auto)")
    p.add_argument(
        "--epsilon", type=float, default=None, help=f"spillover bound (default: {DEFAULT_EPSILON})"
    )
    p.add_argument("--max-bond", type=int, default=None)
    p.add_argument("--svd-threshold", type=float, default=None, help="default: 1e-12")
    p.add_argument(
        "--workers", type=int, default=None, help="evaluate the outcomes on this many threads"
    )
    p.add_argument("--output", default="-")
    p.set_defaults(func=cmd_prob)

    p = sub.add_parser("cutoff", help="recommend a local-dimension cutoff")
    p.add_argument("--modes", type=int, required=True)
    p.add_argument("--squeezing", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--photons", type=int, required=True, help="target photon total")
    p.add_argument("--sources", type=int, default=None)
    p.add_argument("--circuit", default=None, help="count lossy gates from this file")
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p.set_defaults(func=cmd_cutoff)

    p = sub.add_parser("scaling", help="bond-bound comparison grid as CSV")
    p.add_argument("--modes", default="6:30:2", help="start:stop:step or comma list")
    p.add_argument("--squeezing", default="0.3:0.7:0.1")
    p.add_argument("--output", default="-")
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser("validate", help="cross-backend agreement on a circuit file")
    p.add_argument("--circuit", required=True)
    p.add_argument("--squeezing", type=_parse_squeezing, default=0.4)
    p.add_argument("--totals", default="0,2", help="photon totals to enumerate")
    p.add_argument("--cutoff", type=int, default=None)
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
