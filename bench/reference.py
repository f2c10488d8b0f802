"""References computed apart from the engines under test, and the checks.

Run in its own process after the timed one (so it counts in neither the
timings nor the timed process's peak memory):

    python3 bench/reference.py --workload lossy-adjoint --seed 1 --results result.json

It rebuilds the seeded cases, computes a reference for every probability the
timed run returned and prints one JSON verdict.  Nothing is cached.

* lossless outcomes (library and CLI): |Haf(B_S)|^2 / (prod n_k! cosh(r)^M)
  with B = U diag(tanh r) U^T, U and the hafnian computed here;
* lossy outcomes: the dense density-matrix oracle at the same cutoff, and on
  even M the Gaussian probability within ``delta_gamma`` at that cutoff;
* gauss-exact: the Gaussian probability from moments propagated here by M x M
  updates and a hafnian computed here; the per-mode mean photon numbers;
  Haf([[0, C], [C^T, 0]]) = perm(C) for the engine's hafnian, with a Ryser
  permanent; the lossless version of each circuit against the pure-state formula.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from functools import lru_cache

import numpy as np

from inputs import R, Case, build_cases

REL_TOL = 1e-8
MEAN_PHOTON_TOL = 1e-10


def gate_block(params) -> np.ndarray:
    """2x2 single-photon action of a gate (phase on the lower mode, then the splitter)."""
    c, s = math.cos(params.theta), math.sin(params.theta)
    e = np.exp(1j * params.varphi)
    return np.array(
        [[c * np.exp(1j * params.phi), 1j * s * e], [1j * s * np.conj(e) * np.exp(1j * params.phi), c]]
    )


def mode_unitary(circuit) -> np.ndarray:
    u = np.eye(circuit.num_modes, dtype=np.complex128)
    for gate in circuit.gates():
        i = gate.modes[0]
        u[i : i + 2] = gate_block(gate.params) @ u[i : i + 2]
    return u


def hafnian(matrix) -> complex:
    """Sum over perfect matchings, memoised on the set of unmatched indices."""
    a = [[complex(x) for x in row] for row in np.asarray(matrix)]
    n = len(a)
    if n % 2:
        return 0j

    @lru_cache(maxsize=None)
    def rest(mask: int) -> complex:
        if mask == 0:
            return 1 + 0j
        i = (mask & -mask).bit_length() - 1
        others = mask & ~(1 << i)
        total, todo = 0j, others
        while todo:
            j = (todo & -todo).bit_length() - 1
            todo &= todo - 1
            total += a[i][j] * rest(others & ~(1 << j))
        return total

    return rest((1 << n) - 1)


def permanent(matrix) -> complex:
    """Ryser's formula."""
    c = np.asarray(matrix, dtype=np.complex128)
    n = c.shape[0]
    total = 0j
    for subset in range(1, 1 << n):
        cols = [j for j in range(n) if subset >> j & 1]
        total += (-1) ** len(cols) * np.prod(c[:, cols].sum(axis=1))
    return (-1) ** n * total


def _repeat(outcome) -> list[int]:
    return [k for k, n in enumerate(outcome) for _ in range(n)]


def pure_state_probability(circuit, outcome, r=R) -> float:
    m = circuit.num_modes
    u = mode_unitary(circuit)
    b = math.tanh(r) * (u @ u.T)
    idx = _repeat(outcome)
    haf = hafnian(b[np.ix_(idx, idx)])
    return abs(haf) ** 2 / (math.prod(math.factorial(n) for n in outcome) * math.cosh(r) ** m)


def moments(circuit, r=R):
    """N_ij = <a*_i a_j> and A_ij = <a_i a_j> after the circuit, each gate's loss applied."""
    m = circuit.num_modes
    n_mat = np.diag(np.full(m, math.sinh(r) ** 2)).astype(np.complex128)
    a_mat = np.diag(np.full(m, -math.sinh(r) * math.cosh(r))).astype(np.complex128)
    for gate in circuit.gates():
        rows = slice(gate.modes[0], gate.modes[0] + 2)
        b = gate_block(gate.params)
        a_mat[rows] = b @ a_mat[rows]
        a_mat[:, rows] = a_mat[:, rows] @ b.T
        n_mat[rows] = b.conj() @ n_mat[rows]
        n_mat[:, rows] = n_mat[:, rows] @ b.T
        if gate.loss_gamma > 0.0:
            s, keep = gate.loss_site, math.sqrt(1.0 - gate.loss_gamma)
            for mat in (n_mat, a_mat):
                mat[s] *= keep
                mat[:, s] *= keep
    return n_mat, a_mat


def gaussian_probability(n_mat, a_mat, outcome) -> float:
    m = n_mat.shape[0]
    eye = np.eye(m)
    sigma_q = np.block([[n_mat.T + eye, a_mat], [a_mat.conj(), n_mat + eye]])
    swap = np.block([[np.zeros((m, m)), eye], [eye, np.zeros((m, m))]])
    kernel = swap @ (np.eye(2 * m) - np.linalg.inv(sigma_q))
    idx = _repeat(outcome)
    idx += [m + k for k in idx]
    haf = hafnian(kernel[np.ix_(idx, idx)])
    norm = math.prod(math.factorial(n) for n in outcome) * math.sqrt(abs(np.linalg.det(sigma_q)))
    return (haf / norm).real


def _lossless(circuit):
    from dataclasses import replace

    from gbstn.circuit import Circuit

    layers = tuple(tuple(replace(g, loss_gamma=0.0) for g in layer) for layer in circuit.layers)
    return Circuit(num_modes=circuit.num_modes, layers=layers)


class Checker:
    def __init__(self):
        self.checked = 0
        self.failures: list[str] = []
        self.worst_rel = 0.0

    def close(self, what: str, value: float, reference: float) -> None:
        self.checked += 1
        err = abs(value - reference) / max(abs(reference), 1e-300)
        self.worst_rel = max(self.worst_rel, err)
        if not err <= REL_TOL:
            self.failures.append(f"{what}: {value!r} vs reference {reference!r} (rel {err:.2e})")

    def within(self, what: str, value: float, reference: float, bound: float) -> None:
        self.checked += 1
        if not abs(value - reference) <= bound:
            self.failures.append(f"{what}: |{value!r} - {reference!r}| > {bound:.3e}")


def returned(case: Case, results: dict) -> list[list]:
    """Per outcome, what the timed run returned over all rounds; None where
    the operation failed (it is counted as failed, not checked)."""
    if case.gen_seed is not None:  # one CLI request per round, one record per outcome
        rounds = results.get(case.key, [])
        return [[r[i] if i < len(r) else None for r in rounds] for i in range(len(case.outcomes))]
    return [[r[0] for r in results.get(f"{case.key}/{i}", [])] for i in range(len(case.outcomes))]


def check_case(case: Case, results: dict, checker: Checker, rng) -> None:
    """Compare every probability the timed run returned for ``case`` with its references."""
    if case.kind in ("lossy", "gauss"):
        n_mat, a_mat = moments(case.circuit)
    if case.kind == "gauss":
        check_gauss_properties(case, n_mat, results, checker, rng)
    if case.kind == "lossy":
        from gbstn import analysis, fockdense

        rho = fockdense.dense_evolve_density(
            fockdense.dense_squeezed_vacuum(R, case.circuit.num_modes, case.cutoff).to_density(),
            case.circuit,
        )
    for i, (outcome, values) in enumerate(zip(case.outcomes, returned(case, results))):
        what = f"{case.key}/{i}"
        if not values:
            checker.failures.append(f"{what}: no result")
        values = [v for v in values if v is not None]
        if not values:
            continue
        if case.kind == "lossy":
            ref = fockdense.dense_probability(rho, outcome)
            if case.circuit.num_modes % 2 == 0:
                policy = analysis.CutoffPolicy(
                    gamma=case.circuit.max_loss_gamma,
                    num_sources=case.circuit.num_lossy_gates,
                    num_modes=case.circuit.num_modes,
                    r=R,
                    n_tilde=sum(outcome),
                )
                bound = analysis.delta_gamma(policy, case.cutoff)
                gaussian = gaussian_probability(n_mat, a_mat, outcome)
                for value in values:
                    checker.within(f"{what} vs Gaussian", value, gaussian, bound)
        elif case.kind == "gauss":
            ref = gaussian_probability(n_mat, a_mat, outcome)
        else:
            ref = pure_state_probability(case.circuit, outcome)
        for value in values:
            checker.close(what, value, ref)


def check_gauss_properties(case: Case, n_mat, results: dict, checker: Checker, rng) -> None:
    """Mean photon numbers, the hafnian identity and the lossless version of the circuit."""
    from gbstn import gauss

    for photons in results.get(f"{case.key}/mean_photons", []):
        if photons[0] is None:
            continue
        checker.checked += 1
        err = float(np.max(np.abs(np.asarray(photons) - n_mat.diagonal().real)))
        if not err <= MEAN_PHOTON_TOL:
            checker.failures.append(f"{case.key}: mean photon numbers off by {err:.2e}")
    size = sum(case.outcomes[0])
    c = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    zero = np.zeros((size, size))
    block = np.block([[zero, c], [c.T, zero]])
    checker.close(f"{case.key}: Haf([[0,C],[C^T,0]]) = perm(C)", gauss.hafnian(block), permanent(c))
    lossless = _lossless(case.circuit)
    state = gauss.propagate_circuit(gauss.squeezed_vacuum_cov(R, lossless.num_modes), lossless)
    outcome = list(case.outcomes[0])
    if sum(outcome) % 2:  # a pure squeezed state has no odd photon totals
        outcome[next(k for k, n in enumerate(outcome) if n)] -= 1
    checker.close(
        f"{case.key}: lossless version vs pure-state formula",
        gauss.gbs_probability(state, outcome),
        pure_state_probability(lossless, outcome),
    )


def check(seed: int, cases: list[Case], results: dict) -> dict:
    checker = Checker()
    rng = np.random.default_rng([seed, 99])
    known = {c.key for c in cases}
    for key in results:
        if key.split("/")[0] not in known:
            checker.failures.append(f"result {key!r} has no case")
    for case in cases:
        check_case(case, results, checker, rng)
    return {
        "correct": not checker.failures,
        "checked": checker.checked,
        "worst_rel": checker.worst_rel,
        "failures": checker.failures[:20],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="check a timed run against references")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--results", required=True)
    args = parser.parse_args(argv)
    warnings.simplefilter("ignore")
    with open(args.results) as fh:
        results = json.load(fh)["results"]
    verdict = check(args.seed, build_cases(args.workload, args.seed), results)
    print(json.dumps(verdict))
    return 0


if __name__ == "__main__":
    sys.exit(main())
