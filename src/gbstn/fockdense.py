"""Brute-force dense Fock-space oracle.

Deliberately naive reference engine: state vectors as (d, ..., d) arrays with
axis k = mode k, density matrices as (D, D) matrices over the little-endian
flat basis index  n_0 + n_1 d + n_2 d^2 + ...  (mode 0 varies fastest), with
d = local_cutoff + 1 and D = d**num_modes.  Everything here exists to validate
the tensor-network and Gaussian engines on small instances.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .circuit import Circuit, gate_tensor, kraus_set
from .errors import check_outcome, check_size

__all__ = [
    "DenseState",
    "DenseDensity",
    "single_mode_squeezed_vector",
    "squeezed_vectors",
    "dense_squeezed_vacuum",
    "dense_fock_state",
    "dense_evolve_state",
    "dense_evolve_density",
    "dense_probability",
    "flat_index",
]

def flat_index(outcome, local_cutoff: int) -> int:
    """Little-endian flat basis index of a photon-count configuration."""
    outcome = check_outcome(outcome, cutoff=local_cutoff)
    return sum(n * (local_cutoff + 1) ** k for k, n in enumerate(outcome))


@dataclass
class DenseState:
    """Pure state as an array of shape (d,)*M with axis k = mode k."""

    amplitudes: np.ndarray
    num_modes: int
    local_cutoff: int

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def vector(self) -> np.ndarray:
        """Flat state vector in the little-endian basis."""
        return self.amplitudes.reshape(-1, order="F")

    def to_density(self) -> "DenseDensity":
        v = self.vector()
        check_size(v.size**2, "the dense density matrix")
        return DenseDensity(
            matrix=np.outer(v, v.conj()),
            num_modes=self.num_modes,
            local_cutoff=self.local_cutoff,
        )


@dataclass
class DenseDensity:
    """Density matrix over the little-endian flat basis."""

    matrix: np.ndarray
    num_modes: int
    local_cutoff: int

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def _tensor(self) -> np.ndarray:
        d = self.local_cutoff + 1
        return self.matrix.reshape((d,) * (2 * self.num_modes), order="F")

    @staticmethod
    def _from_tensor(tensor: np.ndarray, num_modes: int, local_cutoff: int) -> "DenseDensity":
        size = (local_cutoff + 1) ** num_modes
        return DenseDensity(
            matrix=tensor.reshape((size, size), order="F"),
            num_modes=num_modes,
            local_cutoff=local_cutoff,
        )


@lru_cache(maxsize=512)
def _squeezed_vector_cached(r: float, local_cutoff: int) -> np.ndarray:
    # c_0 = 1 / sqrt(cosh r), c_{n+2} = -tanh(r) sqrt((n + 1) / (n + 2)) c_n
    n = np.arange(0, local_cutoff - 1, 2)
    ratios = -np.tanh(r) * np.sqrt((n + 1) / (n + 2))
    vector = np.zeros(local_cutoff + 1, dtype=np.complex128)
    vector[::2] = np.cumprod(np.r_[1.0 / np.sqrt(np.cosh(r)), ratios])
    vector.flags.writeable = False
    return vector


def single_mode_squeezed_vector(r: float, local_cutoff: int) -> np.ndarray:
    """Truncated squeezed-vacuum amplitudes <n|S(r)|0>, n = 0..local_cutoff,
    of S(r) = exp{ r (a^2 - a*^2) / 2 }, in closed form:

        <2k|S(r)|0> = (-tanh r)^k sqrt((2k)!) / (2^k k!) / sqrt(cosh r),

    and 0 at odd n.  The result is NOT renormalized: the missing tail mass is
    the honest cutoff error of every engine built on top of this vector.  The
    returned array is cached and read-only.
    """
    return _squeezed_vector_cached(float(r), int(local_cutoff))


def squeeze_values(r, num_modes: int | None = None) -> np.ndarray:
    """Normalize a scalar-or-sequence squeezing argument to a per-mode array."""
    values = np.atleast_1d(np.asarray(r, dtype=float))
    if values.ndim != 1:
        raise ValueError("squeezing must be a scalar or a 1-d sequence")
    if not np.all(np.isfinite(values)):
        raise ValueError("squeezing parameters must be finite")
    if num_modes is not None:
        if values.size == 1:
            values = np.full(num_modes, values[0])
        elif values.size != num_modes:
            raise ValueError(f"expected {num_modes} squeezing values, got {values.size}")
    return values


def squeezed_vectors(r, num_modes: int | None, local_cutoff: int) -> list[np.ndarray]:
    """The input's per-mode amplitudes <n|S(r_k)|0>, n = 0..local_cutoff, one
    cached, read-only vector per mode: every engine builds its squeezed input
    from this list."""
    return [single_mode_squeezed_vector(rk, local_cutoff) for rk in squeeze_values(r, num_modes)]


def dense_squeezed_vacuum(r, num_modes: int | None = None, local_cutoff: int = 10) -> DenseState:
    """Product of single-mode squeezed vacua as a dense state.

    Warns when the per-mode truncation tail exceeds 1e-12; callers that need
    tail-free states should raise the cutoff.
    """
    vectors = squeezed_vectors(r, num_modes, local_cutoff)
    m = len(vectors)
    if m < 1:
        raise ValueError("need at least one mode")
    check_size((local_cutoff + 1) ** m, "the dense Fock space")
    worst_tail = max(1.0 - float(np.vdot(v, v).real) for v in vectors)
    if worst_tail > 1e-12:
        warnings.warn(
            f"squeezed-vacuum tail mass up to {worst_tail:.2e} beyond cutoff "
            f"{local_cutoff}; amplitudes with per-mode occupation <= {local_cutoff} "
            "are still exact",
            stacklevel=2,
        )
    amplitudes = reduce(np.multiply.outer, vectors)
    return DenseState(amplitudes=amplitudes, num_modes=m, local_cutoff=local_cutoff)


def dense_fock_state(outcome, local_cutoff: int) -> DenseState:
    outcome = check_outcome(outcome, cutoff=local_cutoff)
    m = len(outcome)
    check_size((local_cutoff + 1) ** m, "the dense Fock space")
    d = local_cutoff + 1
    amplitudes = np.zeros((d,) * m, dtype=np.complex128)
    amplitudes[outcome] = 1.0
    return DenseState(amplitudes=amplitudes, num_modes=m, local_cutoff=local_cutoff)


def _apply_gate_state(amps: np.ndarray, tensor: np.ndarray, site: int) -> np.ndarray:
    moved = np.tensordot(tensor, amps, axes=([2, 3], [site, site + 1]))
    return np.moveaxis(moved, [0, 1], [site, site + 1])


def _apply_site(amps: np.ndarray, op: np.ndarray, site: int) -> np.ndarray:
    return np.moveaxis(np.tensordot(op, amps, axes=([1], [site])), 0, site)


def dense_evolve_state(psi: DenseState, circuit: Circuit) -> DenseState:
    """Apply a lossless circuit gate by gate to a pure state."""
    if circuit.num_modes != psi.num_modes:
        raise ValueError("mode count mismatch between state and circuit")
    circuit.require_lossless("dense_evolve_state (use dense_evolve_density)")
    amps = psi.amplitudes
    for gate in circuit.gates():
        tensor = gate_tensor(gate.params, psi.local_cutoff)
        amps = _apply_gate_state(amps, tensor, gate.modes[0])
    return DenseState(amplitudes=amps, num_modes=psi.num_modes, local_cutoff=psi.local_cutoff)


def dense_evolve_density(rho: DenseDensity, circuit: Circuit) -> DenseDensity:
    """Apply a (possibly lossy) circuit to a density matrix.

    Per gate: unitary conjugation, then the Kraus sum of the loss channel on
    the gate's designated output mode.
    """
    if circuit.num_modes != rho.num_modes:
        raise ValueError("mode count mismatch between density and circuit")
    m, cutoff = rho.num_modes, rho.local_cutoff
    tensor = rho._tensor()
    for gate in circuit.gates():
        site = gate.modes[0]
        g = gate_tensor(gate.params, cutoff)
        # rows: rho -> U rho, columns: -> (U rho) U^dag
        tensor = _apply_gate_state(_apply_gate_state(tensor, g, site), g.conj(), m + site)
        if gate.loss_gamma > 0.0:
            s, ks = gate.loss_site, kraus_set(gate.loss_gamma, cutoff)
            tensor = sum(_apply_site(_apply_site(tensor, k, s), k.conj(), m + s) for k in ks)
    return DenseDensity._from_tensor(tensor, m, cutoff)


def dense_probability(state, outcome) -> float:
    """Probability of a photon-count outcome from a DenseState or DenseDensity."""
    outcome = check_outcome(outcome, state.num_modes, state.local_cutoff)
    if isinstance(state, DenseState):
        return float(np.abs(state.amplitudes[outcome]) ** 2)
    if isinstance(state, DenseDensity):
        idx = flat_index(outcome, state.local_cutoff)
        return float(state.matrix[idx, idx].real)
    raise TypeError(f"expected DenseState or DenseDensity, got {type(state)!r}")
