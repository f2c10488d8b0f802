"""Exact Gaussian reference engine.

Covariance matrices are 2M x 2M in the operator ordering
(a_1 .. a_M, a*_1 .. a*_M) with entries

    sigma_ij = <{zeta_i, zeta_j^dag}>/2 - <zeta_i><zeta_j^dag>.

The squeezed-vacuum entries below are hyperbolic closed forms; a regression
test checks them against the moments of the dense Fock oracle's closed-form
amplitudes <n|S(r)|0>.  A circuit with any per-gate loss acts on the
covariance through its M x M transfer matrix u alone, as
sigma -> 1/2 + T (sigma - 1/2) T^dag with T = u (+) u*: the circuit is
compiled to u once and the 2M x 2M covariance is touched once.
Outcome probabilities follow from the hafnian of a submatrix of the kernel
A = X (1 - sigma_Q^{-1}), the closed-form result for zero-displacement
Gaussian states; each state computes A and the normalization once.  The
hafnian is the power-trace formula (arXiv:1805.12498) over the outcome's
repetition counts, O(N^3 prod(n_k + 1)) for N detected photons.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .circuit import transfer_matrix
from .errors import (
    ROUNDOFF,
    NumericalFailureError,
    UnsupportedConfigurationError,
    _integral,
    check_outcome,
    check_probability,
    check_size,
)
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


@dataclass(frozen=True)
class GaussianState:
    """Zero-displacement Gaussian state described by its covariance matrix.

    The covariance is copied and made read-only, so that :attr:`normalization`
    and :attr:`kernel`, computed on first use, stay valid.
    """

    cov: np.ndarray
    num_modes: int

    def __post_init__(self):
        cov = np.array(self.cov, dtype=np.complex128)
        cov.flags.writeable = False
        object.__setattr__(self, "cov", cov)

    def mean_photons(self) -> np.ndarray:
        """Per-mode mean photon numbers <a*_k a_k>."""
        m = self.num_modes
        return np.real(np.diag(self.cov)[:m]) - 0.5

    def total_mean_photons(self) -> float:
        return float(np.sum(self.mean_photons()))

    @cached_property
    def normalization(self) -> float:
        """1/sqrt|det sigma_Q| with sigma_Q = sigma + 1/2: the vacuum probability."""
        det = np.linalg.det(self.cov + 0.5 * np.eye(2 * self.num_modes))
        if not np.isfinite(det) or abs(det) < 1e-300:
            raise NumericalFailureError(f"ill-conditioned sigma_Q (det = {det!r})")
        return 1.0 / math.sqrt(abs(det))

    @cached_property
    def kernel(self) -> np.ndarray:
        """A = [[0,1],[1,0]] (1 - sigma_Q^{-1}), whose submatrices give every outcome."""
        m = self.num_modes
        kernel = np.eye(2 * m) - np.linalg.inv(self.cov + 0.5 * np.eye(2 * m))
        kernel = np.concatenate([kernel[m:], kernel[:m]])  # the swap, on rows
        kernel.flags.writeable = False
        return kernel


def squeezed_vacuum_cov(r, num_modes: int | None = None) -> GaussianState:
    """Covariance of a product of single-mode squeezed vacua.

    Per mode: sigma_kk = sigma_{M+k,M+k} = cosh(2r)/2 and the cross entries
    sigma_{k,M+k} = sigma_{M+k,k} = -sinh(2r)/2, for S(r) = exp{r(a^2 - a*^2)/2}.
    """
    values = squeeze_values(r, num_modes)
    m = values.size
    cov = np.zeros((2 * m, 2 * m), dtype=np.complex128)
    for k, rk in enumerate(values):
        cov[k, k] = cov[m + k, m + k] = 0.5 * math.cosh(2 * rk)
        cov[k, m + k] = cov[m + k, k] = -0.5 * math.sinh(2 * rk)
    return GaussianState(cov=cov, num_modes=m)


def propagate(state: GaussianState, transfer: np.ndarray) -> GaussianState:
    """Propagate through a passive network with pure loss, given its M x M
    transfer matrix u: sigma -> 1/2 + T (sigma - 1/2) T^dag, T = u (+) u*
    (Weedbrook et al., arXiv:1110.3234).  On a unitary u this is
    T sigma T^dag; on u = sqrt(eta) it is the loss channel of transmission
    eta.  Two networks compose to the product of their matrices, so one
    matrix carries a circuit with its loss interleaved.  Nothing checks that
    u is a contraction, as a physical network's is."""
    m = state.num_modes
    u = np.asarray(transfer, dtype=np.complex128)
    if u.shape != (m, m):
        raise ValueError(f"transfer matrix must be {m}x{m}, got {u.shape}")
    t = np.zeros((2 * m, 2 * m), dtype=np.complex128)
    t[:m, :m] = u
    t[m:, m:] = u.conj()
    half = 0.5 * np.eye(2 * m)
    return GaussianState(cov=half + t @ (state.cov - half) @ t.conj().T, num_modes=m)


def propagate_circuit(state: GaussianState, circuit) -> GaussianState:
    """Propagate through a circuit with any per-gate loss, exactly, by one
    :func:`propagate` with its :func:`~gbstn.circuit.transfer_matrix`.  At
    M = 48 (depth-48 brickwork, BLAS on one thread, 2-CPU host) this took
    2.4-2.9 ms, 1.8-2.3 ms of it to compile u, against 8.2-9.0 ms for two
    row passes over the covariance per layer; the covariance moved by at
    most 9e-16, also with per-gate loss."""
    return propagate(state, transfer_matrix(circuit))


def uniform_loss(state: GaussianState, eta: float) -> GaussianState:
    """Pure-loss channel of transmission ``eta`` on every mode."""
    if not (0.0 < eta <= 1.0):
        raise ValueError(f"transmission eta must lie in (0, 1], got {eta}")
    return propagate(state, math.sqrt(eta) * np.eye(state.num_modes))


# count vectors per batch of power traces: bounds the (batch, 2s, 2s) arrays
# that a large hafnian would otherwise build all at once
_HAFNIAN_BATCH = 4096
# estimated relative rounding error of the hafnian's signed sum above which
# the sum is taken again in np.clongdouble
_HAFNIAN_RTOL = 1e-9


def hafnian(matrix: np.ndarray, repeats=None, tolerance: float = math.inf) -> complex:
    """Hafnian by the power-trace formula, with repeated pairs of rows.

    ``matrix`` is 2K x 2K and ``repeats`` holds K counts n_k (default all 1):
    the hafnian is that of the 2N x 2N matrix, N = sum n_k, in which rows and
    columns k and K + k each appear n_k times.  Only the symmetric part
    (A + A^T)/2 is read.  With X swapping k and K + k (Bjorklund, Gupt and
    Quesada, arXiv:1805.12498; repeated rows as in Kan, J. Multivariate Anal.
    99, 2008),

        haf = sum_{m <= n} (-1)^(N - |m|) prod_k C(n_k, m_k) f_N(A X D_m),

    where D_m repeats m_k on rows k and K + k, and f_N(B) is the coefficient
    of t^N in exp(sum_p tr(B^p) t^p / 2p).  The traces come from repeated
    matrix products, batched over count vectors with the same number of
    nonzero entries s, which share the 2s x 2s shape.  The cost is
    O(N s^3 prod(n_k + 1)): 2^K terms for single photons.

    The signed sum can cancel far below its terms, so its rounding error is
    estimated as eps times the sum of their sizes.  Where that passes 1e-9
    of the sum, the sum is taken again in ``np.clongdouble`` (80-bit on
    x86-64; where that is double precision, the second pass gains nothing).
    Where it still passes ``tolerance``, NumericalFailureError is raised.
    """
    a = np.asarray(matrix, dtype=np.complex128)
    n = a.shape[0]
    if a.ndim != 2 or a.shape[1] != n:
        raise ValueError(f"hafnian needs a square matrix, got shape {a.shape}")
    if n % 2 != 0:
        raise ValueError(f"hafnian needs an even dimension, got {n}")
    k = n // 2
    reps = np.asarray([1] * k if repeats is None else repeats, dtype=object)
    if reps.shape == (k,):
        reps = np.array([_integral(r, "a repeat count") for r in reps], dtype=np.int64)
    if reps.shape != (k,) or np.any(reps < 0):
        raise ValueError(f"repeats must be {k} nonnegative counts, got {repeats!r}")
    keep = np.flatnonzero(reps)
    reps, k, total = reps[keep], keep.size, int(reps.sum())
    if total == 0:
        return 1.0 + 0.0j
    idx = np.concatenate([keep, n // 2 + keep])
    a = a[np.ix_(idx, idx)]
    ax = 0.5 * (a + a.T)
    ax = np.concatenate([ax[:, k:], ax[:, :k]], axis=1)  # A X

    check_size(math.prod(int(r) + 1 for r in reps) * k, "the hafnian's count-vector table")
    counts = np.indices(reps + 1).reshape(k, -1).T  # every m <= n
    coeffs = np.where((total - counts.sum(axis=1)) % 2, -1.0, 1.0)
    for j, r in enumerate(reps):
        coeffs *= np.array([math.comb(int(r), q) for q in range(r + 1)], dtype=float)[counts[:, j]]
    result, magnitude = _signed_sum(ax, counts, coeffs, total, np.complex128)
    eps = np.finfo(float).eps
    # one pass in double precision was 1e-8 off on six photons at M = 48
    if eps * magnitude > _HAFNIAN_RTOL * abs(result):
        result, magnitude = _signed_sum(ax, counts, coeffs, total, np.clongdouble)
        eps = np.finfo(np.longdouble).eps
    if eps * magnitude > tolerance:
        raise NumericalFailureError(
            f"the hafnian's signed sum cancels: rounding error up to {float(eps * magnitude):.1e}, "
            f"above {tolerance:.1e}"
        )
    return complex(result)


def _signed_sum(ax, counts, coeffs, total: int, dtype):
    """sum_m coeffs_m f_N(A X D_m) over the count vectors ``counts``, in
    ``dtype``, and sum_m |coeffs_m f_N(A X D_m)|."""
    k = counts.shape[1]
    ax = ax.astype(dtype)
    sizes = np.count_nonzero(counts, axis=1)
    result, magnitude = 0.0 + 0.0j, 0.0
    for s in range(1, k + 1):  # s = 0 gives B = 0, whose f_N vanishes
        rows = np.flatnonzero(sizes == s)
        for start in range(0, rows.size, _HAFNIAN_BATCH):
            chunk = counts[rows[start : start + _HAFNIAN_BATCH]]
            which, col = np.nonzero(chunk)
            support = col.reshape(-1, s)
            scale = np.tile(chunk[which, col].reshape(-1, s), 2)
            sel = np.concatenate([support, support + k], axis=1)
            b = ax[sel[:, :, None], sel[:, None, :]] * scale[:, None, :]
            traces = np.empty((len(chunk), total), dtype=dtype)
            power = b
            traces[:, 0] = np.trace(b, axis1=1, axis2=2)
            for p in range(1, total):
                power = power @ b
                traces[:, p] = np.trace(power, axis1=1, axis2=2)
            # f_j = sum_{p=1}^{j} tr(B^p) f_{j-p} / 2j, from f' = f (log f)'
            f = np.zeros((len(chunk), total + 1), dtype=dtype)
            f[:, 0] = 1.0
            for j in range(1, total + 1):
                f[:, j] = np.einsum("bp,bp->b", traces[:, :j], f[:, j - 1 :: -1]) / (2 * j)
            c = coeffs[rows[start : start + _HAFNIAN_BATCH]]
            result += c @ f[:, total]
            magnitude += float(np.abs(c) @ np.abs(f[:, total]))
    return result, magnitude


def gbs_probability(state: GaussianState, outcome) -> float:
    """Probability of a photon-count outcome from a zero-displacement Gaussian state.

    P(n) = Haf(A_S) / (prod_k n_k! * sqrt(|det sigma_Q|)) with
    sigma_Q = sigma + 1/2 and A = [[0,1],[1,0]] (1 - sigma_Q^{-1});
    A_S repeats the rows/columns of mode k (in both operator blocks) n_k times,
    which :func:`hafnian` takes as repetition counts.  A and the normalization
    depend on the state only: :class:`GaussianState` computes them once.
    """
    m = state.num_modes
    outcome = check_outcome(outcome, m)
    norm = state.normalization
    if sum(outcome) == 0:
        return norm
    factorials = math.prod(math.factorial(n) for n in outcome)
    if factorials > sys.float_info.max:
        raise NumericalFailureError(
            f"outcome {outcome}: the product of its counts' factorials exceeds the float range"
        )
    modes = [k for k, n in enumerate(outcome) if n > 0]
    idx = modes + [m + k for k in modes]
    # an error in the hafnian above this is one past the probability's roundoff window
    tolerance = ROUNDOFF * factorials / norm
    haf = hafnian(state.kernel[np.ix_(idx, idx)], [outcome[k] for k in modes], tolerance)

    return check_probability(haf * norm / factorials)


def photon_pair_distribution(num_modes: int, r: float, pairs: int) -> float:
    """Probability of exactly ``pairs`` photon pairs from M equally squeezed modes.

    P(2*nu) = C(nu + M/2 - 1, nu) sech^M(r) tanh^{2 nu}(r), taken in log
    space (at M = 1000 the binomial passes the float range and tanh^{2 nu}
    underflows); odd photon totals have probability zero.  Restricted to even
    mode counts, where the binomial coefficient is an ordinary one.
    """
    if num_modes < 1 or num_modes % 2 != 0:
        raise UnsupportedConfigurationError(
            f"photon pair distribution needs an even mode count, got {num_modes}"
        )
    nu, half, x = _integral(pairs, "pairs", 0), num_modes // 2, abs(r)
    if x == 0.0:
        return float(nu == 0)
    log_p = math.lgamma(nu + half) - math.lgamma(nu + 1) - math.lgamma(half) + 2 * nu * math.log(math.tanh(x))
    # log cosh x in a form that stays finite: cosh itself overflows past x = 710
    return math.exp(log_p - num_modes * (x + math.log1p(math.exp(-2 * x)) - math.log(2)))
