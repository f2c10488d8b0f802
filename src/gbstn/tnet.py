"""Tensor-train engine: one train type in canonical form, one two-site update.

A :class:`TensorTrain` has a leg of dimension d = n_c + 1 per mode for a
state and d^2 for an operator, its (out, in) pair vectorised.  The train
keeps an orthogonality centre, and every gate is one ``_apply_two_site``:
QR moves the centre onto the pair, the gate's local map acts, an SVD splits
the pair and drops Schmidt values, so truncation removes exactly their weight.

Probabilities are computed three ways:

* ``schrodinger_probability``: evolve the squeezed input forward, project on
  the outcome.
* ``heisenberg_probability_lossless``: evolve the outcome state through the
  time-reversed circuit (reverse layer order, conjugate-transposed gates) and
  overlap with the unevolved input.  Valid because for unitary circuits the
  evolved projector stays a rank-one dyad.
* ``heisenberg_probability_lossy``: evolve the outcome projector as an
  operator train through the adjoint channel O -> U^dag (sum_mu K_mu^dag O
  K_mu) U per gate, then close with the squeezed input on both sides.

Nothing is renormalized after truncation: probabilities carry the cutoff and
truncation error honestly.  Every evolution reports bond-dimension and
truncation statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .circuit import Circuit, Gate, gate_tensor, kraus_set
from .errors import NumericalFailureError, ResourceLimitError, UnsupportedConfigurationError
from .fockdense import squeeze_values, single_mode_squeezed_vector

__all__ = [
    "TruncationPolicy",
    "EvolutionStats",
    "TensorTrain",
    "fock_mps",
    "squeezed_mps",
    "fock_projector_mpo",
    "apply_gate_mps",
    "apply_gate_mpo_adjoint",
    "mps_overlap",
    "mpo_expectation",
    "schrodinger_probability",
    "heisenberg_probability_lossless",
    "heisenberg_probability_lossy",
    "probability",
]

DENSE_GUARD = 10**7


@dataclass(frozen=True)
class TruncationPolicy:
    """SVD compression policy: drop singular values with s/s_max < threshold,
    then cap the bond at ``max_bond`` (None = unlimited).  The squares of the
    dropped values are the squared norm the truncation removes."""

    max_bond: int | None = None
    svd_threshold: float = 1e-12

    def __post_init__(self):
        if not (0.0 <= self.svd_threshold < 1.0):
            raise ValueError(f"svd_threshold must lie in [0, 1), got {self.svd_threshold}")
        if self.max_bond is not None and self.max_bond < 1:
            raise ValueError(f"max_bond must be positive, got {self.max_bond}")


@dataclass
class EvolutionStats:
    """Instrumentation collected along one evolution.

    ``truncation_weight`` is the squared norm (Frobenius for an operator)
    lost to truncation: the squared Schmidt values dropped by every split.

    ``flop_estimate`` accumulates a chi^3 * chi_o^2 * n_c^2 cost model per
    two-site update, with operator bond chi_o = n_c + 1 for state updates and
    (n_c + 1)^2 for operator updates.  Reported, never asserted.
    """

    max_bond_seen: int = 1
    per_layer_bonds: list[int] = field(default_factory=list)
    truncation_weight: float = 0.0
    flop_estimate: float = 0.0
    raw_probability: float | None = None

    def observe_bond(self, chi: int) -> None:
        if chi > self.max_bond_seen:
            self.max_bond_seen = chi

    def to_dict(self) -> dict:
        return {
            "max_bond_seen": self.max_bond_seen,
            "per_layer_bonds": list(self.per_layer_bonds),
            "truncation_weight": self.truncation_weight,
            "flop_estimate": self.flop_estimate,
            "raw_probability": self.raw_probability,
        }


def _svd(matrix: np.ndarray):
    try:
        return np.linalg.svd(matrix, full_matrices=False)
    except np.linalg.LinAlgError:
        # gesdd occasionally fails to converge; gesvd is slower but sturdier
        return scipy.linalg.svd(matrix, full_matrices=False, lapack_driver="gesvd")


class TensorTrain:
    """Rank-3 site tensors (left bond, physical, right bond) over the modes.

    ``local_dim`` is the Fock dimension d of one mode; the physical leg is d
    for a state and d^2 for an operator.  Sites left of ``center`` are left
    isometries and sites right of it right isometries; ``center`` is None
    when the train is not known to be in canonical form.
    """

    def __init__(self, tensors: list[np.ndarray], local_dim: int, center: int | None = None):
        if not tensors:
            raise ValueError("a tensor train needs at least one site")
        if tensors[0].shape[0] != 1 or tensors[-1].shape[2] != 1:
            raise ValueError("boundary bonds must have dimension 1")
        for k in range(len(tensors) - 1):
            if tensors[k].shape[2] != tensors[k + 1].shape[0]:
                raise ValueError(f"bond mismatch between sites {k} and {k + 1}")
        self.tensors = tensors
        self.local_dim = local_dim
        self.center = center

    @property
    def num_modes(self) -> int:
        return len(self.tensors)

    def max_bond(self) -> int:
        return max(t.shape[2] for t in self.tensors)

    def norm(self) -> float:
        return float(np.sqrt(max(mps_overlap(self, self).real, 0.0)))

    def to_dense(self) -> np.ndarray:
        """Full array, axis k = leg of mode k; guarded against large spaces."""
        if math.prod(t.shape[1] for t in self.tensors) > DENSE_GUARD:
            raise ResourceLimitError("dense contraction would exceed the size guard")
        acc = self.tensors[0][0]  # (p, chi)
        for t in self.tensors[1:]:
            acc = np.tensordot(acc, t, axes=([-1], [0]))
        return acc[..., 0]

    def to_matrix(self) -> np.ndarray:
        """Dense matrix of an operator over the little-endian flat basis (mode 0 fastest)."""
        d, m = self.local_dim, self.num_modes
        size = d**m
        acc = self.to_dense().reshape((d, d) * m)  # (out_0, in_0, out_1, in_1, ...)
        acc = np.transpose(acc, list(range(0, 2 * m, 2)) + list(range(1, 2 * m, 2)))
        return acc.reshape((size, size), order="F")


def _product_train(vectors, local_dim: int, center: int | None) -> TensorTrain:
    return TensorTrain([v.reshape(1, -1, 1) for v in vectors], local_dim, center)


def _check_outcome(outcome, local_cutoff: int) -> tuple[int, ...]:
    outcome = tuple(int(n) for n in outcome)
    if any(n < 0 or n > local_cutoff for n in outcome):
        raise ValueError(f"outcome {outcome} lies outside the cutoff {local_cutoff}")
    return outcome


def fock_mps(outcome, local_cutoff: int) -> TensorTrain:
    """Product state |n_1, ..., n_M> (all bonds 1, unit sites, so canonical)."""
    d = local_cutoff + 1
    basis = np.eye(d, dtype=np.complex128)
    return _product_train([basis[n] for n in _check_outcome(outcome, local_cutoff)], d, 0)


def squeezed_mps(r, num_modes: int, local_cutoff: int) -> TensorTrain:
    """Product state of truncated squeezed vacua; norm < 1 is kept, not fixed."""
    vectors = [single_mode_squeezed_vector(rk, local_cutoff) for rk in squeeze_values(r, num_modes)]
    return _product_train(vectors, local_cutoff + 1, None)


def fock_projector_mpo(outcome, local_cutoff: int) -> TensorTrain:
    """|n><n| as a bond-1 operator train."""
    d = local_cutoff + 1
    basis = np.eye(d * d, dtype=np.complex128)  # row n * d + n is vec(|n><n|)
    return _product_train([basis[n * d + n] for n in _check_outcome(outcome, local_cutoff)], d, 0)


def mps_overlap(bra: TensorTrain, ket: TensorTrain) -> complex:
    """<bra|ket> (bra tensors enter conjugated)."""
    if bra.num_modes != ket.num_modes:
        raise ValueError("mode count mismatch")
    env = np.ones((1, 1), dtype=np.complex128)
    for a, b in zip(bra.tensors, ket.tensors):
        # env (alpha, beta) . conj(a) (alpha, p, alpha') . b (beta, p, beta')
        tmp = np.tensordot(env, a.conj(), axes=([0], [0]))  # (beta, p, alpha')
        env = np.tensordot(tmp, b, axes=([0, 1], [0, 1]))   # (alpha', beta')
    return complex(env[0, 0])


def mpo_expectation(bra: TensorTrain, operator: TensorTrain, ket: TensorTrain) -> complex:
    """<bra| O |ket>: the overlap of O with the train bra (x) ket*, whose
    sites pair bra's leg with conj(ket)'s as O's (out, in) leg."""
    if not (bra.num_modes == operator.num_modes == ket.num_modes):
        raise ValueError("mode count mismatch")
    sites = [
        np.einsum("apb,cqd->acpqbd", a, b.conj()).reshape(
            a.shape[0] * b.shape[0], -1, a.shape[2] * b.shape[2]
        )
        for a, b in zip(bra.tensors, ket.tensors)
    ]
    return mps_overlap(TensorTrain(sites, operator.local_dim), operator)


def _move_center(tensors: list[np.ndarray], center: int | None, target: int) -> None:
    """QR-sweep ``tensors`` in place to make ``target`` the centre; from an
    unknown centre, every site on either side of it is swept."""
    start, stop = (0, len(tensors) - 1) if center is None else (center, center)
    for k in range(start, target):
        chi_l, p, chi_r = tensors[k].shape
        q, rest = np.linalg.qr(tensors[k].reshape(chi_l * p, chi_r))
        tensors[k] = q.reshape(chi_l, p, -1)
        tensors[k + 1] = np.tensordot(rest, tensors[k + 1], axes=([1], [0]))
    for k in range(stop, target, -1):
        chi_l, p, chi_r = tensors[k].shape
        # A = R^T Q^T, from the QR of A^T
        q, rest = np.linalg.qr(tensors[k].reshape(chi_l, p * chi_r).T)
        tensors[k] = q.T.reshape(-1, p, chi_r)
        tensors[k - 1] = np.tensordot(tensors[k - 1], rest.T, axes=([2], [0]))


def _apply_two_site(train: TensorTrain, i: int, local_map, policy, stats) -> TensorTrain:
    """Map the pair tensor (chi_l, p, p, chi_r) of sites (i, i+1) with
    ``local_map`` and split it back at the centre; returns a new train.

    The centre keeps moving the way it came: from the left (or from nowhere)
    the split is u | s.vh and leaves it on i+1, from the right u.s | vh on i.
    """
    policy = policy or TruncationPolicy()
    stats = stats if stats is not None else EvolutionStats()
    if i + 1 >= train.num_modes:
        raise ValueError(f"gate on modes {(i, i + 1)} does not fit in {train.num_modes} modes")
    rightward = train.center is None or train.center <= i
    tensors = list(train.tensors)
    _move_center(tensors, train.center, i if rightward else i + 1)
    a, b = tensors[i], tensors[i + 1]
    chi_l, p, chi_r = a.shape[0], a.shape[1], b.shape[2]
    theta = local_map(np.tensordot(a, b, axes=([2], [0])))
    u, s, vh = _svd(theta.reshape(chi_l * p, p * chi_r))

    keep = len(s)
    if keep > 1 and s[0] > 0.0:
        keep = max(int(np.sum(s > policy.svd_threshold * s[0])), 1)
    if policy.max_bond is not None:
        keep = min(keep, policy.max_bond)
    stats.truncation_weight += float(np.sum(s[keep:] ** 2))
    stats.observe_bond(keep)
    stats.flop_estimate += float(keep) ** 3 * float(p) ** 2 * float(train.local_dim - 1) ** 2

    u, s, vh = u[:, :keep], s[:keep], vh[:keep]
    if rightward:
        vh = s[:, None] * vh
    else:
        u = u * s[None, :]
    tensors[i] = u.reshape(chi_l, p, keep)
    tensors[i + 1] = vh.reshape(keep, p, chi_r)
    return TensorTrain(tensors, train.local_dim, i + 1 if rightward else i)


def _sweep(layer, train: TensorTrain) -> list:
    """The gates of a layer ordered to carry the centre across it from the
    end it is nearest to.  Gates of one layer act on disjoint pairs and commute."""
    gates = sorted(layer, key=lambda g: g.modes[0])
    if gates and train.center is not None:
        if 2 * train.center > gates[0].modes[0] + gates[-1].modes[1]:
            gates.reverse()
    return gates


def apply_gate_mps(
    psi: TensorTrain,
    gate: Gate,
    policy: TruncationPolicy | None = None,
    stats: EvolutionStats | None = None,
    reverse: bool = False,
) -> TensorTrain:
    """Apply a two-site gate G to a state train.

    ``reverse=True`` applies the conjugate-transposed gate (the time-reversed
    circuit element).  Loss channels cannot act on a pure state; lossy gates
    are rejected here.
    """
    if gate.loss_gamma != 0.0:
        raise UnsupportedConfigurationError(
            "lossy gates cannot be applied to a state; use the operator path"
        )
    g = gate_tensor(gate.params, psi.local_dim - 1)
    if reverse:
        g = g.conj().transpose(2, 3, 0, 1)

    def local_map(theta):  # (chi_l, p1, p2, chi_r)
        return np.tensordot(g, theta, axes=([2, 3], [1, 2])).transpose(2, 0, 1, 3)

    return _apply_two_site(psi, gate.modes[0], local_map, policy, stats)


def _evolve_mps(
    psi: TensorTrain,
    circuit: Circuit,
    policy: TruncationPolicy,
    stats: EvolutionStats,
    reverse: bool,
) -> TensorTrain:
    layers = reversed(circuit.layers) if reverse else circuit.layers
    for layer in layers:
        for gate in _sweep(layer, psi):
            psi = apply_gate_mps(psi, gate, policy, stats, reverse=reverse)
        stats.per_layer_bonds.append(psi.max_bond())
    return psi


def apply_gate_mpo_adjoint(
    operator: TensorTrain,
    gate: Gate,
    policy: TruncationPolicy | None = None,
    stats: EvolutionStats | None = None,
) -> TensorTrain:
    """One step of the adjoint channel: O -> U^dag (sum_mu K_mu^dag O K_mu) U.

    The Kraus sum acts on the gate's lossy site first (it creates photons in
    this direction), then the two sites are conjugated by the gate unitary.
    """
    d = operator.local_dim
    g = gate_tensor(gate.params, d - 1)
    kraus = None
    if gate.loss_gamma > 0.0:
        ops = np.stack(kraus_set(gate.loss_gamma, d - 1))
        # (K^dag W K)[m, n] = conj(K)[a, m] W[a, b] K[b, n], as a map on vec(W)
        kraus = np.einsum("kam,kbn->mnab", ops.conj(), ops).reshape(d * d, d * d)

    def local_map(theta):  # (chi_l, (m1, n1), (m2, n2), chi_r)
        chi_l, chi_r = theta.shape[0], theta.shape[3]
        if kraus is not None:
            axis = 1 + gate.lossy_mode  # the lossy site's leg of the pair
            theta = np.moveaxis(np.tensordot(kraus, theta, axes=([1], [axis])), 0, axis)
        theta = theta.reshape(chi_l, d, d, d, d, chi_r)
        # G^dag O: the gate's out legs meet O's out legs
        theta = np.tensordot(g.conj(), theta, axes=([0, 1], [1, 3]))  # (m1', m2', l, n1, n2, r)
        # (.) G: O's in legs meet the gate's out legs
        theta = np.tensordot(theta, g, axes=([3, 4], [0, 1]))  # (m1', m2', l, r, n1', n2')
        return theta.transpose(2, 0, 4, 1, 5, 3).reshape(chi_l, d * d, d * d, chi_r)

    return _apply_two_site(operator, gate.modes[0], local_map, policy, stats)


def _clamp_probability(raw: float) -> float:
    if raw < -1e-9:
        raise NumericalFailureError(f"probability {raw} below the roundoff window")
    return min(max(raw, 0.0), 1.0)


def _require_lossless(circuit: Circuit, path: str) -> None:
    for index, gate in enumerate(circuit.gates()):
        if gate.loss_gamma != 0.0:
            raise UnsupportedConfigurationError(
                f"{path} handles lossless circuits only; gate {index} "
                f"(modes {gate.modes}) has loss {gate.loss_gamma}"
            )


def schrodinger_probability(
    circuit: Circuit,
    outcome,
    r,
    local_cutoff: int,
    policy: TruncationPolicy | None = None,
) -> tuple[float, EvolutionStats]:
    """|<n| U |psi>|^2 by forward evolution of the squeezed input."""
    _require_lossless(circuit, "the Schrodinger state path")
    policy = policy or TruncationPolicy()
    stats = EvolutionStats()
    psi = squeezed_mps(r, circuit.num_modes, local_cutoff)
    psi = _evolve_mps(psi, circuit, policy, stats, reverse=False)
    amp = mps_overlap(fock_mps(outcome, local_cutoff), psi)
    stats.raw_probability = abs(amp) ** 2
    return _clamp_probability(stats.raw_probability), stats


def heisenberg_probability_lossless(
    circuit: Circuit,
    outcome,
    r,
    local_cutoff: int,
    policy: TruncationPolicy | None = None,
) -> tuple[float, EvolutionStats]:
    """|<psi| U^dag |n>|^2 by evolving the outcome state through the reversed circuit."""
    _require_lossless(circuit, "the lossless Heisenberg path (use heisenberg_probability_lossy)")
    outcome = tuple(int(n) for n in outcome)
    if sum(outcome) > circuit.num_modes * local_cutoff:
        raise ValueError("outcome carries more photons than the truncated space holds")
    policy = policy or TruncationPolicy()
    stats = EvolutionStats()
    phi = fock_mps(outcome, local_cutoff)
    phi = _evolve_mps(phi, circuit, policy, stats, reverse=True)
    amp = mps_overlap(squeezed_mps(r, circuit.num_modes, local_cutoff), phi)
    stats.raw_probability = abs(amp) ** 2
    return _clamp_probability(stats.raw_probability), stats


def heisenberg_probability_lossy(
    circuit: Circuit,
    outcome,
    r,
    local_cutoff: int,
    policy: TruncationPolicy | None = None,
) -> tuple[float, EvolutionStats]:
    """Tr{|psi><psi| E*(P_n)}: the outcome projector evolved through the adjoint channel.

    Works for lossless circuits too (the channel degenerates to conjugation).
    """
    policy = policy or TruncationPolicy()
    stats = EvolutionStats()
    op = fock_projector_mpo(outcome, local_cutoff)
    for layer in reversed(circuit.layers):
        for gate in _sweep(layer, op):
            op = apply_gate_mpo_adjoint(op, gate, policy, stats)
        stats.per_layer_bonds.append(op.max_bond())
    psi = squeezed_mps(r, circuit.num_modes, local_cutoff)
    value = mpo_expectation(psi, op, psi)
    if abs(value.imag) > 1e-8 * max(1.0, abs(value.real)):
        raise NumericalFailureError(f"non-real probability {value!r}")
    stats.raw_probability = value.real
    return _clamp_probability(value.real), stats


def probability(
    circuit: Circuit,
    outcome,
    r,
    local_cutoff: int,
    policy: TruncationPolicy | None = None,
    picture: str = "heisenberg",
) -> tuple[float, EvolutionStats]:
    """One outcome by the route its picture and circuit call for: the
    Schrodinger state path, the lossless Heisenberg state path, or the
    adjoint channel when any gate is lossy."""
    if picture == "schrodinger":
        return schrodinger_probability(circuit, outcome, r, local_cutoff, policy)
    if picture == "heisenberg":
        if circuit.is_lossless:
            return heisenberg_probability_lossless(circuit, outcome, r, local_cutoff, policy)
        return heisenberg_probability_lossy(circuit, outcome, r, local_cutoff, policy)
    raise ValueError(f"unknown picture {picture!r}")

