"""Tensor-train engine: one train type in canonical form, one two-site update.

A :class:`TensorTrain` has a leg of dimension d = n_c + 1 per mode for a
state and d^2 for an operator, its (out, in) pair vectorised.  The train
keeps an orthogonality centre, and every gate is one ``_apply_two_site``:
QR moves the centre onto the pair, the gate's local map acts, an SVD splits
the pair and drops Schmidt values, so truncation removes exactly their weight.

Every train carries photon-number (U(1)) charge labels (Singh, Pfeifer &
Vidal, arXiv:0907.2994): one integer per physical index and one integer
vector per bond, the charge summed over the sites to the bond's left.  A
site entry whose left label plus physical charge differs from its right
label is zero.  The gates conserve photon number, so every QR and SVD
splits into one small factorization per charge the rows and the columns
share; the blocks that do not match are zero and never factorized, and
rows whose count exceeds the train's total drop out.  Which trains carry which
charges:

* the outcome state |n> (``fock_mps``): charge n on a leg of occupation n,
  total sum(n), kept by every gate and its adjoint;
* the outcome projector (``fock_projector_mpo``): charge m - n on the
  (out m, in n) leg, total 0, kept by G^dag O G and by the Kraus sum, since
  each K_mu lowers out and in counts alike;
* the squeezed input (``squeezed_mps``): not a photon-number eigenstate, so
  it carries the trivial charge (all zeros) and each split is one block, as
  without labels.

Site arrays stay dense, with zeros outside the sectors.

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

    ``flop_estimate`` is the cost of the SVDs actually taken: the sum of
    m * n * min(m, n) over the m x n charge blocks every split factorizes.
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

    ``phys_charges`` holds the charge of each physical index and
    ``bond_charges[k]`` the label of each index of the bond left of site k
    (k = M is the right boundary).  Entry ``tensors[k][a, n, b]`` is zero
    unless ``bond_charges[k][a] + phys_charges[n] == bond_charges[k + 1][b]``.
    Both default to zeros, the trivial charge every train satisfies.
    """

    def __init__(
        self,
        tensors: list[np.ndarray],
        local_dim: int,
        center: int | None = None,
        phys_charges=None,
        bond_charges=None,
    ):
        if not tensors:
            raise ValueError("a tensor train needs at least one site")
        if tensors[0].shape[0] != 1 or tensors[-1].shape[2] != 1:
            raise ValueError("boundary bonds must have dimension 1")
        for k in range(len(tensors) - 1):
            if tensors[k].shape[2] != tensors[k + 1].shape[0]:
                raise ValueError(f"bond mismatch between sites {k} and {k + 1}")
        dims = [t.shape[0] for t in tensors] + [1]
        if phys_charges is None:
            phys_charges = np.zeros(tensors[0].shape[1], dtype=np.int64)
        if bond_charges is None:
            bond_charges = [np.zeros(chi, dtype=np.int64) for chi in dims]
        if any(t.shape[1] != len(phys_charges) for t in tensors):
            raise ValueError("physical charges do not match the physical legs")
        if [len(q) for q in bond_charges] != dims:
            raise ValueError("bond charges do not match the bond dimensions")
        self.tensors = tensors
        self.local_dim = local_dim
        self.center = center
        self.phys_charges = np.asarray(phys_charges, dtype=np.int64)
        self.bond_charges = [np.asarray(q, dtype=np.int64) for q in bond_charges]

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


def _product_train(
    vectors, local_dim: int, center: int | None, phys_charges=None, site_charges=None
) -> TensorTrain:
    """Bond-1 train of ``vectors``; site k carries charge ``site_charges[k]``."""
    bonds = None
    if site_charges is not None:
        bonds = [np.array([q]) for q in np.concatenate([[0], np.cumsum(site_charges)])]
    tensors = [v.reshape(1, -1, 1) for v in vectors]
    return TensorTrain(tensors, local_dim, center, phys_charges, bonds)


def _check_outcome(outcome, local_cutoff: int) -> tuple[int, ...]:
    outcome = tuple(int(n) for n in outcome)
    if any(n < 0 or n > local_cutoff for n in outcome):
        raise ValueError(f"outcome {outcome} lies outside the cutoff {local_cutoff}")
    return outcome


def fock_mps(outcome, local_cutoff: int) -> TensorTrain:
    """Product state |n_1, ..., n_M> (all bonds 1, unit sites, so canonical),
    charge n on the leg of occupation n."""
    d = local_cutoff + 1
    outcome = _check_outcome(outcome, local_cutoff)
    basis = np.eye(d, dtype=np.complex128)
    return _product_train([basis[n] for n in outcome], d, 0, np.arange(d), outcome)


def squeezed_mps(r, num_modes: int, local_cutoff: int) -> TensorTrain:
    """Product state of truncated squeezed vacua; norm < 1 is kept, not fixed.
    Not a photon-number eigenstate, so it carries the trivial charge."""
    vectors = [single_mode_squeezed_vector(rk, local_cutoff) for rk in squeeze_values(r, num_modes)]
    return _product_train(vectors, local_cutoff + 1, None)


def fock_projector_mpo(outcome, local_cutoff: int) -> TensorTrain:
    """|n><n| as a bond-1 operator train, charge m - n on the (out m, in n) leg."""
    d = local_cutoff + 1
    outcome = _check_outcome(outcome, local_cutoff)
    basis = np.eye(d * d, dtype=np.complex128)  # row n * d + n is vec(|n><n|)
    charges = np.subtract.outer(np.arange(d), np.arange(d)).ravel()
    return _product_train([basis[n * d + n] for n in outcome], d, 0, charges, [0] * len(outcome))


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


def _sectors(row_charges: np.ndarray, col_charges: np.ndarray):
    """(charge, rows, columns) of each charge that the rows and the columns share."""
    for q in sorted(set(row_charges.tolist()) & set(col_charges.tolist())):
        yield q, np.flatnonzero(row_charges == q), np.flatnonzero(col_charges == q)


def _grid(rows: np.ndarray, cols: np.ndarray):
    """Index of the block ``rows`` x ``cols`` (both non-empty); an index that
    runs without a gap becomes a slice, so a whole-matrix block is a view."""
    r = slice(rows[0], rows[-1] + 1) if rows[-1] - rows[0] + 1 == len(rows) else rows
    c = slice(cols[0], cols[-1] + 1) if cols[-1] - cols[0] + 1 == len(cols) else cols
    return (rows[:, None], cols) if r is rows and c is cols else (r, c)


def _assemble(shape, pieces):
    """The factors (left, right) of a charge-blocked matrix from its pieces
    ``(charge, rows, columns, left block, right block)``, and the charges of
    the new bond between them.  With no piece the bond is one zero index."""
    width = max(sum(a.shape[1] for _, _, _, a, _ in pieces), 1)
    left = np.zeros((shape[0], width), dtype=np.complex128)
    right = np.zeros((width, shape[1]), dtype=np.complex128)
    charges = np.zeros(width, dtype=np.int64)
    start = 0
    for q, rows, cols, a, b in pieces:
        stop = start + a.shape[1]
        left[rows, start:stop] = a
        right[start:stop, cols] = b
        charges[start:stop] = q
        start = stop
    return left, right, charges


def _row_charges(bond: np.ndarray, phys: np.ndarray) -> np.ndarray:
    """Charges of the rows (alpha, n) of a site matrix: left label + physical charge."""
    return np.add.outer(bond, phys).ravel()


def _col_charges(phys: np.ndarray, bond: np.ndarray) -> np.ndarray:
    """Charges of the columns (n, beta) of a site matrix: right label - physical charge."""
    return np.subtract.outer(bond, phys).T.ravel()


def _move_center(
    tensors: list[np.ndarray],
    bonds: list[np.ndarray],
    phys: np.ndarray,
    center: int | None,
    target: int,
) -> None:
    """QR-sweep ``tensors`` in place, one QR per charge block, to make
    ``target`` the centre; ``bonds`` takes the new bonds' charges.  From an
    unknown centre, every site on either side of it is swept."""
    start, stop = (0, len(tensors) - 1) if center is None else (center, center)
    for k in range(start, target):
        chi_l, p, chi_r = tensors[k].shape
        matrix = tensors[k].reshape(chi_l * p, chi_r)
        pieces = [
            (q, rows, cols, *np.linalg.qr(matrix[_grid(rows, cols)]))
            for q, rows, cols in _sectors(_row_charges(bonds[k], phys), bonds[k + 1])
        ]
        q_mat, rest, bonds[k + 1] = _assemble(matrix.shape, pieces)
        tensors[k] = q_mat.reshape(chi_l, p, -1)
        tensors[k + 1] = np.tensordot(rest, tensors[k + 1], axes=([1], [0]))
    for k in range(stop, target, -1):
        chi_l, p, chi_r = tensors[k].shape
        matrix = tensors[k].reshape(chi_l, p * chi_r)
        pieces = []
        for q, rows, cols in _sectors(bonds[k], _col_charges(phys, bonds[k + 1])):
            # A = R^T Q^T, from the QR of A^T
            q_mat, rest = np.linalg.qr(matrix[_grid(rows, cols)].T)
            pieces.append((q, rows, cols, rest.T, q_mat.T))
        rest, q_mat, bonds[k] = _assemble(matrix.shape, pieces)
        tensors[k] = q_mat.reshape(-1, p, chi_r)
        tensors[k - 1] = np.tensordot(tensors[k - 1], rest, axes=([2], [0]))


def _apply_two_site(train: TensorTrain, i: int, local_map, policy, stats) -> TensorTrain:
    """Map the pair tensor (chi_l, p, p, chi_r) of sites (i, i+1) with
    ``local_map`` and split it back at the centre; returns a new train.

    ``local_map`` must keep the train's charges.  The split takes one SVD
    per charge block of the pair matrix; the truncation rule acts on all
    blocks' singular values together, as on the whole matrix.  The centre
    keeps moving the way it came: from the left (or from nowhere) the split
    is u | s.vh and leaves it on i+1, from the right u.s | vh on i.
    """
    policy = policy or TruncationPolicy()
    stats = stats if stats is not None else EvolutionStats()
    if i + 1 >= train.num_modes:
        raise ValueError(f"gate on modes {(i, i + 1)} does not fit in {train.num_modes} modes")
    rightward = train.center is None or train.center <= i
    tensors, bonds, phys = list(train.tensors), list(train.bond_charges), train.phys_charges
    _move_center(tensors, bonds, phys, train.center, i if rightward else i + 1)
    a, b = tensors[i], tensors[i + 1]
    chi_l, p, chi_r = a.shape[0], a.shape[1], b.shape[2]
    if chi_l * p * p * chi_r > DENSE_GUARD:
        raise ResourceLimitError(
            f"the pair tensor of modes {(i, i + 1)} would hold {chi_l} x {p} x {p} x {chi_r} "
            f"entries, above the size guard {DENSE_GUARD}"
        )
    # the pair matrix, rows (alpha, n1) and columns (n2, beta), has the same
    # charge blocks before and after the local map: build it block by block
    sectors = list(_sectors(_row_charges(bonds[i], phys), _col_charges(phys, bonds[i + 2])))
    left, right = a.reshape(chi_l * p, -1), b.reshape(-1, p * chi_r)
    theta = np.zeros((chi_l * p, p * chi_r), dtype=np.complex128)
    for q, rows, cols in sectors:
        mid = np.flatnonzero(bonds[i + 1] == q)
        if len(mid):  # else no middle index has charge q: zero until the local map acts
            theta[_grid(rows, cols)] = left[_grid(rows, mid)] @ right[_grid(mid, cols)]
    matrix = local_map(theta.reshape(chi_l, p, p, chi_r)).reshape(chi_l * p, p * chi_r)
    blocks = [(q, rows, cols, *_svd(matrix[_grid(rows, cols)])) for q, rows, cols in sectors]

    s_all = np.concatenate([s for *_, s, _ in blocks]) if blocks else np.zeros(0)
    order = np.argsort(-s_all, kind="stable")  # within a block s falls, so each keeps a prefix
    keep = len(s_all)
    if keep > 1 and s_all[order[0]] > 0.0:
        keep = max(int(np.sum(s_all > policy.svd_threshold * s_all[order[0]])), 1)
    if policy.max_bond is not None:
        keep = min(keep, policy.max_bond)
    kept = np.zeros(len(s_all), dtype=bool)
    kept[order[:keep]] = True
    stats.truncation_weight += float(np.sum(s_all[~kept] ** 2))
    stats.flop_estimate += sum(
        float(len(rows)) * len(cols) * min(len(rows), len(cols)) for _, rows, cols, *_ in blocks
    )

    pieces, start = [], 0
    for q, rows, cols, u, s, vh in blocks:
        k = int(np.sum(kept[start : start + len(s)]))
        start += len(s)
        if k:
            u, s, vh = u[:, :k], s[:k], vh[:k]
            u, vh = (u, s[:, None] * vh) if rightward else (u * s, vh)
            pieces.append((q, rows, cols, u, vh))
    u, vh, bonds[i + 1] = _assemble(matrix.shape, pieces)
    stats.observe_bond(len(bonds[i + 1]))
    tensors[i] = u.reshape(chi_l, p, -1)
    tensors[i + 1] = vh.reshape(-1, p, chi_r)
    return TensorTrain(tensors, train.local_dim, i + 1 if rightward else i, phys, bonds)


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
    d = psi.local_dim
    g = gate_tensor(gate.params, d - 1).reshape(d * d, d * d)
    if reverse:
        g = g.conj().T

    def local_map(theta):  # (chi_l, p1, p2, chi_r)
        chi_l, chi_r = theta.shape[0], theta.shape[3]
        return (g @ theta.reshape(chi_l, d * d, chi_r)).reshape(theta.shape)

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

