"""Exact Gaussian reference engine.

Covariance matrices are 2M x 2M in the operator ordering
(a_1 .. a_M, a*_1 .. a*_M) with entries

    sigma_ij = <{zeta_i, zeta_j^dag}>/2 - <zeta_i><zeta_j^dag>.

The squeezed-vacuum entries below were obtained numerically from the dense
Fock oracle (expm of the squeeze generator at high cutoff) and then frozen as
hyperbolic closed forms; a regression test keeps them honest.  Outcome
probabilities follow from the hafnian of a submatrix of the kernel
A = X (1 - sigma_Q^{-1}), the closed-form result for zero-displacement
Gaussian states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailureError, UnsupportedConfigurationError
from .fockdense import squeeze_values

__all__ = [
    "GaussianState",
    "squeezed_vacuum_cov",
    "propagate",
    "propagate_circuit",
    "uniform_loss",
    "hafnian",
    "gbs_probability",
    "photon_pair_distribution",
]


@dataclass
class GaussianState:
    """Zero-displacement Gaussian state described by its covariance matrix."""

    cov: np.ndarray
    num_modes: int

    def mean_photons(self) -> np.ndarray:
        """Per-mode mean photon numbers <a*_k a_k>."""
        m = self.num_modes
        return np.real(np.diag(self.cov)[:m]) - 0.5

    def total_mean_photons(self) -> float:
        return float(np.sum(self.mean_photons()))


def squeezed_vacuum_cov(r, num_modes: int | None = None) -> GaussianState:
    """Covariance of a product of single-mode squeezed vacua.

    Per mode: sigma_kk = sigma_{M+k,M+k} = cosh(2r)/2 and the cross entries
    sigma_{k,M+k} = sigma_{M+k,k} = -sinh(2r)/2 (derived from the dense
    oracle for S(r) = exp{r(a^2 - a*^2)/2}).
    """
    values = squeeze_values(r, num_modes)
    m = values.size
    cov = np.zeros((2 * m, 2 * m), dtype=np.complex128)
    for k, rk in enumerate(values):
        cov[k, k] = cov[m + k, m + k] = 0.5 * math.cosh(2 * rk)
        cov[k, m + k] = cov[m + k, k] = -0.5 * math.sinh(2 * rk)
    return GaussianState(cov=cov, num_modes=m)


def propagate(state: GaussianState, mode_unitary: np.ndarray) -> GaussianState:
    """Propagate through a mode unitary u: sigma -> T sigma T^dag, T = u (+) u*."""
    m = state.num_modes
    u = np.asarray(mode_unitary, dtype=np.complex128)
    if u.shape != (m, m):
        raise ValueError(f"mode unitary must be {m}x{m}, got {u.shape}")
    t = np.zeros((2 * m, 2 * m), dtype=np.complex128)
    t[:m, :m] = u
    t[m:, m:] = u.conj()
    return GaussianState(cov=t @ state.cov @ t.conj().T, num_modes=m)


def _single_mode_loss(cov: np.ndarray, num_modes: int, site: int, eta: float) -> None:
    """Pure loss of transmission ``eta`` on one mode, in place."""
    root = math.sqrt(eta)
    for k in (site, num_modes + site):
        cov[k] *= root
        cov[:, k] *= root
        cov[k, k] += (1.0 - eta) / 2.0


def propagate_circuit(state: GaussianState, circuit) -> GaussianState:
    """Propagate gate by gate, applying each gate's loss channel exactly.

    Works for arbitrary per-gate losses since both the beamsplitter and the
    pure-loss channel are Gaussian.  A gate on modes (i, i+1) with 2x2 block
    b is T = u (+) u* with u equal to b on that pair and to the identity
    elsewhere, so T sigma T^dag only touches the rows and columns i, i+1
    (block b) and M+i, M+i+1 (block b*).
    """
    from .circuit import single_photon_block

    m = state.num_modes
    if circuit.num_modes != m:
        raise ValueError("mode count mismatch between state and circuit")
    cov = state.cov.copy()
    for gate in circuit.gates():
        i = gate.modes[0]
        b = single_photon_block(gate.params)
        for rows, block in ((slice(i, i + 2), b), (slice(m + i, m + i + 2), b.conj())):
            cov[rows] = block @ cov[rows]
            cov[:, rows] = cov[:, rows] @ block.conj().T
        if gate.loss_gamma > 0.0:
            _single_mode_loss(cov, m, gate.loss_site, 1.0 - gate.loss_gamma)
    return GaussianState(cov=cov, num_modes=m)


def uniform_loss(state: GaussianState, eta: float) -> GaussianState:
    """Pure-loss channel of transmission ``eta`` on every mode."""
    if not (0.0 < eta <= 1.0):
        raise ValueError(f"transmission eta must lie in (0, 1], got {eta}")
    m = state.num_modes
    cov = eta * state.cov + (1.0 - eta) / 2.0 * np.eye(2 * m)
    return GaussianState(cov=cov, num_modes=m)


def hafnian(matrix: np.ndarray) -> complex:
    """Hafnian by exhaustive recursion over all (2N-1)!! perfect matchings.

    The first free index is paired with every later free index; symmetry of
    the input is not required (only the upper pairing entries are read).
    Exact but exponential: meant for 2N <= 16.
    """
    b = np.asarray(matrix)
    n = b.shape[0]
    if b.ndim != 2 or b.shape[1] != n:
        raise ValueError(f"hafnian needs a square matrix, got shape {b.shape}")
    if n % 2 != 0:
        raise ValueError(f"hafnian needs an even dimension, got {n}")
    if n == 0:
        return 1.0 + 0.0j
    rows = [[complex(x) for x in row] for row in b]

    def match(free: tuple[int, ...]) -> complex:
        if len(free) == 2:
            return rows[free[0]][free[1]]
        first, rest = free[0], free[1:]
        row = rows[first]
        total = 0.0 + 0.0j
        for pos, j in enumerate(rest):
            total += row[j] * match(rest[:pos] + rest[pos + 1 :])
        return total

    return match(tuple(range(n)))


def gbs_probability(state: GaussianState, outcome) -> float:
    """Probability of a photon-count outcome from a zero-displacement Gaussian state.

    P(n) = Haf(A_S) / (prod_k n_k! * sqrt(|det sigma_Q|)) with
    sigma_Q = sigma + 1/2 and A = [[0,1],[1,0]] (1 - sigma_Q^{-1});
    A_S repeats the rows/columns of mode k (in both operator blocks) n_k times.
    """
    outcome = tuple(int(n) for n in outcome)
    m = state.num_modes
    if len(outcome) != m:
        raise ValueError("outcome length does not match the mode count")
    if any(n < 0 for n in outcome):
        raise ValueError(f"negative photon count in outcome {outcome}")

    sigma_q = state.cov + 0.5 * np.eye(2 * m)
    det = np.linalg.det(sigma_q)
    if not np.isfinite(det) or abs(det) < 1e-300:
        raise NumericalFailureError(f"ill-conditioned sigma_Q (det = {det!r})")
    norm = 1.0 / math.sqrt(abs(det))

    total = sum(outcome)
    if total == 0:
        return norm

    swap = np.zeros((2 * m, 2 * m))
    swap[:m, m:] = np.eye(m)
    swap[m:, :m] = np.eye(m)
    kernel = swap @ (np.eye(2 * m) - np.linalg.inv(sigma_q))

    idx = [k for k, n in enumerate(outcome) for _ in range(n)]
    idx += [m + k for k, n in enumerate(outcome) for _ in range(n)]
    haf = hafnian(kernel[np.ix_(idx, idx)])

    value = haf * norm / math.prod(math.factorial(n) for n in outcome)
    if abs(value.imag) > 1e-8 * max(1.0, abs(value.real)):
        raise NumericalFailureError(f"non-real probability {value!r}")
    p = value.real
    if p < 0.0:
        if p < -1e-9:
            raise NumericalFailureError(f"probability {p} below the roundoff window")
        p = 0.0
    return p


def photon_pair_distribution(num_modes: int, r: float, pairs: int) -> float:
    """Probability of exactly ``pairs`` photon pairs from M equally squeezed modes.

    P(2*nu) = C(nu + M/2 - 1, nu) sech^M(r) tanh^{2 nu}(r); odd photon totals
    have probability zero.  Restricted to even mode counts, where the binomial
    coefficient is an ordinary one.
    """
    if num_modes < 1 or num_modes % 2 != 0:
        raise UnsupportedConfigurationError(
            f"photon pair distribution needs an even mode count, got {num_modes}"
        )
    if pairs < 0:
        raise ValueError(f"pair count must be nonnegative, got {pairs}")
    nu = int(pairs)
    coeff = math.comb(nu + num_modes // 2 - 1, nu)
    sech = 1.0 / math.cosh(r)
    return coeff * sech**num_modes * math.tanh(r) ** (2 * nu)
