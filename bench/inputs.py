"""Seeded inputs of the four benchmark workloads.

Every workload is a list of :class:`Case` objects: one circuit, the outcomes
evaluated on it, and the local cutoff.  The same ``(workload, seed)`` always
yields the same cases; the timed process and the reference process both
build them here, so the program under test receives only generated inputs.

Sizes are chosen so that no route call fails on any seed and the cost of a
round does not hinge on a single draw (see README.md, "Workloads").
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from gbstn.circuit import Circuit, build_brickwork

R = 0.4
WORKLOADS = ("lossless-heisenberg", "lossy-adjoint", "gauss-exact", "cli-batch")

# Lossless instances are fixed, whatever the seed.  On seeded draws the
# route's bond grows erratically past the dmax_fbs ceiling: at M = 12, N = 4,
# two draws in 66 took 12 s and 23 s (bond 718 and 1223) against 0.06 s, and
# larger draws ran out of memory.  A fixed set keeps that blow-up in the
# measurement on every run without making a run's cost a lottery.
# Each instance: seed-1 brickwork of depth M, N photons on the listed modes.
# Bonds: 787 at M = 12, N = 6 (ceiling 64); 322 and 16 at M = 36, N = 4
# (ceiling 16), whose 630 gates overflow the gate cache on every evaluation.
# A round takes about 7 s, so that a 55 s run times every operation seven or
# eight times.
LOSSLESS = (
    (12, 6, ((0, 1, 2, 3, 4, 5),)),
    (36, 4, ((0, 1, 2, 3), (16, 17, 18, 19))),
)
# Seeded lossy instances: (M, n_c, circuits, outcomes per circuit).
LOSSY = ((4, 4, 2, 3), (5, 3, 2, 2))
LOSSY_GAMMA = (0.1, 0.2)
# Seeded Gaussian instances: (M, detected photons, outcomes).
GAUSS = ((48, 6, 4), (56, 7, 4), (64, 7, 4))
GAUSS_GAMMA = (0.005, 0.02)
# CLI requests: (kind, M, photons per outcome, outcomes).  The tn requests
# are fixed for the same reason as the lossless instances: four M = 12, N = 4
# patterns (bond 16) on the files of gbstn gen --seed 1 and --seed 2.  The
# lossy request runs at n_c = LOSSY_CLI_CUTOFF on a file with per-gate seeded
# loss in LOSSY_GAMMA (gbstn gen writes only uniform loss).  Five short
# requests, six Gaussian-backend ones at M = 48 and one longer lossy one, so
# that the median request is always a Gaussian M = 48 one; a round takes
# about 7 s.
TN_GEN_SEEDS = (1, 2)
TN_PATTERNS = ((0, 1, 2, 3), (8, 9, 10, 11), (0, 2, 4, 6), (5, 7, 9, 11))
LOSSY_CLI_CUTOFF = 4
CLI = (
    ("tn", 12, 4, 4),
    ("tn", 12, 4, 4),
    ("schrodinger", 6, 4, 3),
    ("schrodinger", 7, 4, 2),
    ("gaussian", 32, 4, 1),
    *(("gaussian", 48, 6, 2),) * 6,
    ("lossy", 4, 3, 3),
)


@dataclass(frozen=True)
class Case:
    """One circuit and the outcomes evaluated on it.

    ``kind`` names the route: ``lossless``, ``lossy``, ``gauss`` or, for the
    CLI, ``tn``, ``schrodinger``, ``gaussian`` and ``lossy``.  ``cutoff`` is
    the local cutoff n_c (on ``gauss`` cases, which have none, the photon
    count).  ``gen_seed`` is the seed a CLI case passes to ``gbstn gen``; the
    circuit is the one that command writes, plus seeded per-gate loss on the
    lossy case.
    """

    key: str
    kind: str
    circuit: Circuit
    outcomes: tuple[tuple[int, ...], ...]
    cutoff: int
    gen_seed: int | None = None


def _rng(seed: int, *salt: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *salt])


def _spread_outcome(rng, num_modes: int, photons: int) -> tuple[int, ...]:
    """``photons`` single photons on distinct seeded modes."""
    counts = [0] * num_modes
    for k in rng.choice(num_modes, size=photons, replace=False):
        counts[int(k)] = 1
    return tuple(counts)


def _bunched_outcome(rng, num_modes: int, photons: int, cap: int) -> tuple[int, ...]:
    """``photons`` photons on seeded modes, at most ``cap`` on any one mode."""
    counts = [0] * num_modes
    while sum(counts) < photons:
        k = int(rng.integers(num_modes))
        if counts[k] < cap:
            counts[k] += 1
    return tuple(counts)


def with_seeded_loss(circuit: Circuit, rng, gamma_range) -> Circuit:
    """Give every gate a seeded loss in ``gamma_range`` on a seeded output mode."""
    low, high = gamma_range
    layers = tuple(
        tuple(
            replace(g, loss_gamma=float(rng.uniform(low, high)), lossy_mode=int(rng.integers(2)))
            for g in layer
        )
        for layer in circuit.layers
    )
    return Circuit(num_modes=circuit.num_modes, layers=layers)


def _occupied(num_modes: int, modes) -> tuple[int, ...]:
    return tuple(int(k in modes) for k in range(num_modes))


def lossless_cases(seed: int) -> list[Case]:
    """Fixed instances; ``seed`` is accepted for a uniform interface."""
    return [
        Case(
            f"lossless-M{m}-N{n}",
            "lossless",
            build_brickwork(m, m, seed=1),
            tuple(_occupied(m, modes) for modes in patterns),
            n,
        )
        for m, n, patterns in LOSSLESS
    ]


def lossy_cases(seed: int) -> list[Case]:
    cases = []
    for index, (m, cutoff, circuits, count) in enumerate(LOSSY):
        for c in range(circuits):
            rng = _rng(seed, 2, index, c)
            circuit = with_seeded_loss(build_brickwork(m, m, seed=rng), rng, LOSSY_GAMMA)
            outcomes = tuple(
                _bunched_outcome(rng, m, 2 + (k % 3), cutoff) for k in range(count)
            )
            cases.append(Case(f"lossy-M{m}-c{c}", "lossy", circuit, outcomes, cutoff))
    return cases


def gauss_cases(seed: int) -> list[Case]:
    cases = []
    for index, (m, photons, count) in enumerate(GAUSS):
        rng = _rng(seed, 3, index)
        circuit = with_seeded_loss(build_brickwork(m, m, seed=rng), rng, GAUSS_GAMMA)
        outcomes = tuple(_bunched_outcome(rng, m, photons, 2) for _ in range(count))
        cases.append(Case(f"gauss-M{m}", "gauss", circuit, outcomes, photons))
    return cases


def cli_cases(seed: int) -> list[Case]:
    cases = []
    tn_seeds = iter(TN_GEN_SEEDS)
    for index, (kind, m, photons, count) in enumerate(CLI):
        rng = _rng(seed, 4, index)
        cutoff = photons
        if kind == "tn":
            gen_seed = next(tn_seeds)
            outcomes = tuple(_occupied(m, modes) for modes in TN_PATTERNS)
        else:
            gen_seed = int(rng.integers(2**31))
            outcomes = tuple(_spread_outcome(rng, m, photons) for _ in range(count))
        circuit = build_brickwork(m, m, seed=gen_seed)
        if kind == "lossy":
            circuit = with_seeded_loss(circuit, rng, LOSSY_GAMMA)
            outcomes = tuple(
                _bunched_outcome(rng, m, photons, LOSSY_CLI_CUTOFF) for _ in range(count)
            )
            cutoff = LOSSY_CLI_CUTOFF
        cases.append(Case(f"cli{index}-{kind}-M{m}", kind, circuit, outcomes, cutoff, gen_seed))
    return cases


def build_cases(workload: str, seed: int) -> list[Case]:
    builders = {
        "lossless-heisenberg": lossless_cases,
        "lossy-adjoint": lossy_cases,
        "gauss-exact": gauss_cases,
        "cli-batch": cli_cases,
    }
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return builders[workload](seed)
