"""Command-line front end.

Subcommands:

* ``gen``      write a seeded brickwork circuit file
* ``prob``     single-outcome probabilities in any picture/backend
* ``cutoff``   local-dimension recommendation from the spillover bound
* ``scaling``  Heisenberg-vs-Schrodinger bond-bound grid as CSV
* ``validate`` cross-backend agreement check on one circuit file

``prob`` and ``validate`` emit one JSON record per line; ``--output -``
streams to stdout.  ``prob`` runs its outcomes on the calling thread and
ignores ``--workers`` (FutureWarning): two threads ran bond-16 batches 1.7x
slower than one, as numpy's SVD, QR and indexing hand the GIL back and forth.

:func:`main` is the one place that reports a refusal: whatever the package
raises for a bad request becomes one ``error:`` line on stderr and exit code
1.  Only ``prob`` catches more, per outcome, to write an error record and
go on with the batch.
"""

from __future__ import annotations

import argparse
import functools
import io
import itertools
import json
import math
import sys
import time
import warnings

from . import analysis, circuit as circuit_mod, fockdense, gauss, tnet
from .errors import (
    NumericalFailureError,
    ResourceLimitError,
    UnsupportedConfigurationError,
    check_size,
)

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
    ValueError on a step <= 0, an empty or unbounded range, and
    ResourceLimitError on a range longer than the size guard."""
    if ":" in text:
        start, stop, step = (float(x) for x in text.split(":"))
        if not step > 0.0:
            raise ValueError(f"grid {text!r} needs a positive step")
        if not start <= stop:
            raise ValueError(f"grid {text!r} is empty")
        if not math.isfinite(stop - start):
            raise ValueError(f"grid {text!r} needs finite bounds")
        count = int(round((stop - start) / step)) + 1
        check_size(count, f"grid {text!r}")
        return [cast(start + k * step) for k in range(count)]
    return [cast(x) for x in text.split(",")]


def _load_circuit(path: str):
    """The circuit in ``path``; ValueError says why it cannot be read."""
    try:
        return circuit_mod.load_circuit(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"cannot read circuit {path!r}: {exc}") from None


def _open_output(path: str):
    if path == "-":
        return sys.stdout, False
    return open(path, "w"), True


def cmd_gen(args) -> int:
    circ = circuit_mod.build_brickwork(args.modes, args.depth, seed=args.seed)
    if args.gamma != 0.0:  # with_uniform_loss refuses one outside [0, 1)
        circ = circuit_mod.with_uniform_loss(circ, args.gamma)
    circuit_mod.save_circuit(circ, args.output, seed=args.seed)
    return 0


def _dense_output(circ, squeezing, n_c):
    """Dense output of the circuit: a state vector if lossless, else a density matrix."""
    state = fockdense.dense_squeezed_vacuum(squeezing, circ.num_modes, n_c)
    if circ.is_lossless:
        return fockdense.dense_evolve_state(state, circ)
    return fockdense.dense_evolve_density(state.to_density(), circ)


# each route of prob and validate: (backend, picture, the flags it reads).
# The dense backend truncates nothing and has no picture; the exact Gaussian
# backend and the Schrodinger picture take no cutoff
_ROUTES = {
    "tn_heisenberg": ("tn", "heisenberg", {"--cutoff", "--max-bond", "--svd-threshold", "--epsilon", "--picture"}),
    "tn_schrodinger": ("tn", "schrodinger", {"--max-bond", "--svd-threshold", "--picture"}),
    "dense": ("dense", None, {"--cutoff", "--epsilon"}),
    "gaussian": ("gaussian", None, set()),
}


def _evaluator(circ, squeezing, route, policy, totals, cutoffs):
    """``evaluate(outcome, n_c) -> (probability, stats or None)`` on the
    ``_ROUTES`` entry ``route``.  The work no outcome changes is done here,
    once per request: the Gaussian covariance, the dense output for each n_c
    in ``cutoffs``, or the Schrodinger picture's evolved input for each
    photon total in ``totals``."""
    if route == "tn_schrodinger":
        states = {t: tnet.evolve_input(circ, squeezing, t, policy) for t in set(totals)}
        return lambda outcome, n_c: tnet.project_outcome(*states[sum(outcome)], outcome)
    if route == "tn_heisenberg":
        step = tnet.heisenberg_probability_lossless if circ.is_lossless else tnet.heisenberg_probability_lossy
        return lambda outcome, n_c: step(circ, outcome, squeezing, n_c, policy)
    if route == "dense":
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


def _check_at_least_one(args, *names) -> None:
    """Raise ValueError if one of the integer flags ``names`` is given below
    1; checked before the circuit is read."""
    for name in names:
        value = getattr(args, name)
        if value is not None and value < 1:
            raise ValueError(f"--{name} must be at least 1, got {value}")


def _check_read(route: str, reads: set, given: dict, lossless: bool) -> None:
    """Raise ValueError naming the flags in ``given`` (flag: value, None when
    not given) that ``route`` never reads.  On a lossless circuit ``n_c`` is
    the outcome's photon total, exact because the gates keep photon number,
    so neither ``--cutoff`` nor the cutoff rule's ``--epsilon`` is read
    there: a cutoff below the total would truncate photons the circuit can
    gather in one mode."""
    given = [flag for flag, value in given.items() if value is not None]
    unread = [flag for flag in given if flag not in reads]
    if unread:
        raise ValueError(f"{route} does not use {', '.join(unread)}")
    unread = [flag for flag in given if flag in ("--cutoff", "--epsilon")]
    if unread and lossless:
        raise ValueError(f"{route} does not use {', '.join(unread)} on a lossless circuit")


def cmd_prob(args) -> int:
    _check_at_least_one(args, "workers", "cutoff")
    if args.workers is not None:
        warnings.warn("--workers is ignored: outcomes run on one thread", FutureWarning)
    circ = _load_circuit(args.circuit)
    route = f"tn_{args.picture or 'heisenberg'}" if args.backend == "tn" else args.backend
    backend, picture, reads = _ROUTES[route]
    named = f"--backend {backend}" + (" --picture schrodinger" if picture == "schrodinger" else "")
    given = {"--cutoff": args.cutoff, "--max-bond": args.max_bond,
             "--svd-threshold": args.svd_threshold, "--epsilon": args.epsilon,
             "--picture": args.picture}
    _check_read(named, reads, given, circ.is_lossless)
    epsilon = analysis.CutoffPolicy.epsilon if args.epsilon is None else args.epsilon
    # once here, not once per outcome on the routes that read it per outcome
    fockdense.squeeze_values(args.squeezing, circ.num_modes)
    truncation = {"max_bond": args.max_bond, "svd_threshold": args.svd_threshold}
    policy = tnet.TruncationPolicy(**{k: v for k, v in truncation.items() if v is not None})
    recommended = n_cs = [None] * len(args.outcome)
    if "--cutoff" in reads:
        recommended = [
            analysis.recommended_cutoff(circ, args.squeezing, sum(n), epsilon) for n in args.outcome
        ]
        n_cs = recommended if args.cutoff is None else [args.cutoff] * len(args.outcome)
        if None in n_cs:
            raise UnsupportedConfigurationError(
                "automatic cutoff selection needs an even mode count and uniform "
                "squeezing for lossy circuits; pass --cutoff explicitly"
            )
    totals = [sum(n) for n in args.outcome]
    evaluate = _evaluator(circ, args.squeezing, route, policy, totals, n_cs)

    def record(outcome, n_c, recommended_n_c) -> dict:
        # one failed outcome becomes an error record; the rest of the batch runs
        try:
            return _prob_record(evaluate, outcome, backend, picture, n_c, recommended_n_c)
        except Exception as exc:
            return {"outcome": list(outcome), "error": str(exc)}

    fh, close = _open_output(args.output)
    try:
        records = list(map(record, args.outcome, n_cs, recommended))
        for entry in records:
            fh.write(json.dumps(entry) + "\n")
    finally:
        if close:
            fh.close()
    return 1 if any("error" in entry for entry in records) else 0


def cmd_cutoff(args) -> int:
    if args.sources is not None and args.circuit is not None:
        raise ValueError("pass --sources or --circuit, not both")
    sources = args.sources
    if args.circuit:
        circ = _load_circuit(args.circuit)
        if circ.num_modes != args.modes:
            raise ValueError(f"--modes {args.modes} differs from the circuit's {circ.num_modes} modes")
        sources = circ.num_lossy_gates
    elif sources is None:
        raise ValueError("pass --sources or --circuit to fix the source count")
    policy = analysis.CutoffPolicy(
        gamma=args.gamma,
        num_sources=sources,
        num_modes=args.modes,
        r=args.squeezing,
        n_tilde=args.photons,
        epsilon=args.epsilon,
    )
    n_c, achieved = analysis.choose_cutoff(policy)
    print(
        json.dumps(
            {"n_c": n_c, "delta": achieved, "epsilon": args.epsilon, "sources": sources}
        )
    )
    return 0


def cmd_scaling(args) -> int:
    modes = _parse_grid(args.modes, int)
    squeezings = [round(v, 12) for v in _parse_grid(args.squeezing, float)]
    bad = [m for m in modes if m < 4 or m % 2 != 0]
    if bad:
        raise ValueError(f"mode counts must be even and at least 4, got {bad}")
    check_size(len(modes) * len(squeezings), "the scaling grid")
    # every row is formatted before the output is opened, so a row that
    # cannot be (a bound past Python's 4300-digit limit) writes nothing
    report = io.StringIO()
    analysis.write_scaling_report(report, modes, squeezings)
    fh, close = _open_output(args.output)
    try:
        fh.write(report.getvalue())
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
    _check_at_least_one(args, "cutoff")
    if not 0.0 <= args.tolerance < math.inf:
        raise ValueError(f"--tolerance must be finite and >= 0, got {args.tolerance}")
    circ = _load_circuit(args.circuit)
    _check_read("validate", {"--cutoff"}, {"--cutoff": args.cutoff}, circ.is_lossless)
    if args.cutoff is None and not circ.is_lossless:
        raise ValueError(
            "a lossy circuit needs --cutoff; the spillover bound's choice "
            "(gbstn cutoff) is usually too large to run"
        )
    totals = _parse_totals(args.totals)
    n_c = args.cutoff or analysis.recommended_cutoff(circ, args.squeezing, max(totals))
    # the gaussian column is exact for any per-gate loss, so on a lossy file it
    # exposes the cutoff bias; the Schrodinger picture has no lossy route
    routes = [name for name in _ROUTES if circ.is_lossless or name != "tn_schrodinger"]
    # the cheapest refusals first: the outcomes are counted before they are
    # listed, and the dense output, whose size guard refuses what it cannot
    # hold, is built before the Schrodinger input is evolved
    m = circ.num_modes
    count = sum(math.comb(total + m - 1, m - 1) for total in totals)
    check_size(count, f"the outcomes of --totals {args.totals!r}")
    evaluators = {
        name: _evaluator(circ, args.squeezing, name, tnet.TruncationPolicy(), totals, [n_c])
        for name in sorted(routes, key="dense".__ne__)
    }
    outcomes = [n for total in totals for n in analysis.outcomes_with_total(m, total)]
    columns = {name: [evaluators[name](n, n_c)[0] for n in outcomes] for name in routes}

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


@functools.cache  # once per process: parse_args leaves the parser as it is
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
        help="tn backend only (default: heisenberg); schrodinger is exact, with no --cutoff or --epsilon",
    )
    p.add_argument("--backend", choices=("tn", "dense", "gaussian"), default="tn")
    p.add_argument(
        "--cutoff", type=int, default=None,
        help="local cutoff n_c, lossy circuits only (default: the spillover bound's choice at "
        "--epsilon); on a lossless circuit n_c is the outcome's photon total, which is exact",
    )
    p.add_argument(
        "--epsilon", type=float, default=None,
        help=f"spillover bound (default: {analysis.CutoffPolicy.epsilon})",
    )
    p.add_argument("--max-bond", type=int, default=None)
    p.add_argument("--svd-threshold", type=float, default=None, help=(
        "each split drops the singular values below this fraction of its largest, pooled over its charge blocks "
        "(default: 1e-12); a small p's relative error can far exceed the discarded weight (9.7e-12 at p = 4.8e-6, "
        "M = 36, N = 4, with about 1e-24 discarded)"))
    p.add_argument("--workers", type=int, default=None,
                   help="ignored (FutureWarning): two threads ran bond-16 batches 1.7x slower than one")
    p.add_argument("--output", default="-")
    p.set_defaults(func=cmd_prob)

    p = sub.add_parser("cutoff", help="recommend a local-dimension cutoff")
    p.add_argument("--modes", type=int, required=True)
    p.add_argument("--squeezing", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--photons", type=int, required=True, help="target photon total")
    p.add_argument("--sources", type=int, default=None)
    p.add_argument("--circuit", default=None, help="count lossy gates from this file")
    p.add_argument("--epsilon", type=float, default=analysis.CutoffPolicy.epsilon)
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
    p.add_argument("--cutoff", type=int, default=None, help="local cutoff n_c, lossy circuits only")
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    """Run one subcommand.  A refusal the package raises (ValueError, which
    includes UnsupportedConfigurationError, ResourceLimitError,
    NumericalFailureError or OSError) becomes one ``error:`` line on stderr
    and exit code 1."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ResourceLimitError, NumericalFailureError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
