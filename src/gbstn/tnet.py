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

Site arrays stay dense, with zeros outside the sectors.  The pair matrix
of an update is stored packed, its charge blocks one after another, and is
never built whole: a state gate acts one photon-number total T = n1 + n2 at
a time, as its small block of fixed total (``circuit.gate_blocks``), on the
bond pairs whose labels admit T; on the trivially charged squeezed input
every pair admits every total.  A centre move absorbs R one charge block at
a time.  Blocks of one row or one column are factorized in closed form (a
norm and a unit vector), larger ones by ``numpy.linalg.qr`` and
``numpy.linalg.svd``, which release the GIL, so threads evaluating outcomes
factorize in parallel (scipy's gesdd wrapper would not).  The block
layouts depend only on the labels, so they are
grouped once and reused from bounded caches; an update touches the two
sites and three bonds of its pair and nothing else of the train.

Probabilities are computed three ways:

* ``schrodinger_probability``: evolve the squeezed input forward
  (``evolve_input``), project on the outcome (``project_outcome``); the two
  steps are public so that one evolution serves many outcomes.
* ``heisenberg_probability_lossless``: evolve the outcome state through the
  time-reversed circuit (reverse layer order, conjugate-transposed gates) and
  overlap with the unevolved input.  Valid because for unitary circuits the
  evolved projector stays a rank-one dyad.  Photons spread from the occupied
  modes inside a light cone; a gate on two modes still in vacuum acts as the
  identity and is skipped.
* ``heisenberg_probability_lossy``: evolve the outcome projector as an
  operator train through the adjoint channel O -> U^dag (sum_mu K_mu^dag O
  K_mu) U per gate, then close with the squeezed input on both sides.

Nothing is renormalized after truncation: probabilities carry the cutoff and
truncation error honestly.  Every evolution reports bond-dimension and
truncation statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .circuit import Circuit, Gate, gate_blocks, gate_tensor, kraus_set
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
    "evolve_input",
    "project_outcome",
    "schrodinger_probability",
    "heisenberg_probability_lossless",
    "heisenberg_probability_lossy",
    "probability",
]

DENSE_GUARD = 10**7
# charge-block layouts kept for reuse: at most SECTOR_CACHE of them, each of
# at most SECTOR_SIZE rows plus columns (under 40 kB), so the cache stays
# below 40 MB.  Larger layouts are grouped afresh; their SVDs outweigh that.
SECTOR_CACHE = 1024
SECTOR_SIZE = 1024


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


_ONE = np.ones((1, 1), dtype=np.complex128)
_ONE.flags.writeable = False


def _unit(vector: np.ndarray) -> tuple[np.ndarray, float]:
    """A block of one row or one column as a unit vector of its shape and its
    norm; an all-zero block gives the first unit vector and 0."""
    norm = math.sqrt(np.vdot(vector, vector).real)
    if norm > 0.0:
        return vector / norm, norm
    unit = np.zeros(vector.shape, dtype=np.complex128)
    unit.flat[0] = 1.0
    return unit, 0.0


def _svd(matrix: np.ndarray):
    """Thin SVD of a charge block: in closed form for one row or one column,
    by numpy otherwise."""
    rows, cols = matrix.shape
    if rows == 1:
        vh, norm = _unit(matrix)
        return _ONE, np.array([norm]), vh
    if cols == 1:
        u, norm = _unit(matrix)
        return u, np.array([norm]), _ONE
    try:
        return np.linalg.svd(matrix, full_matrices=False)
    except np.linalg.LinAlgError:
        # gesdd occasionally fails to converge; gesvd is slower but sturdier
        return scipy.linalg.svd(matrix, full_matrices=False, lapack_driver="gesvd")


def _qr(matrix: np.ndarray):
    """Thin QR of a charge block: in closed form for one row or one column,
    by numpy otherwise.  Not scipy's LAPACK wrappers: scipy links its own
    OpenBLAS, and with more than one BLAS thread its spinning threads and
    numpy's fight over the cores (a Schrodinger evolution at n_c = 8 ran 6x
    slower on two threads)."""
    rows, cols = matrix.shape
    if cols == 1:
        q, norm = _unit(matrix)
        return q, np.full((1, 1), norm, dtype=np.complex128)
    if rows == 1:
        return _ONE, matrix
    return np.linalg.qr(matrix)


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

    def _evolved(self, tensors, bond_charges, center) -> "TensorTrain":
        """A train over the same legs with new sites, bond labels and centre,
        not checked again: the two-site kernel keeps them consistent."""
        train = object.__new__(TensorTrain)
        train.tensors, train.bond_charges, train.center = tensors, bond_charges, center
        train.local_dim, train.phys_charges = self.local_dim, self.phys_charges
        return train

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


def _check_length(num_modes: int, outcome) -> tuple[int, ...]:
    """The outcome as ints, checked against the mode count before any evolution."""
    outcome = tuple(int(n) for n in outcome)
    if len(outcome) != num_modes:
        raise ValueError("outcome length does not match the mode count")
    return outcome


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


def _groups(charges: np.ndarray) -> dict[int, np.ndarray]:
    """Ascending indices of each charge, from one stable sort."""
    order = np.argsort(charges, kind="stable")
    ordered = charges[order]
    cuts = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
    return dict(zip(ordered[np.r_[0, cuts]].tolist(), np.split(order, cuts)))


def _shared(rows: np.ndarray, cols: np.ndarray) -> list:
    """``(charge, rows, columns)`` for each charge that rows and columns both
    carry, ascending: the charge blocks of a matrix and their order."""
    col_groups = _groups(cols)
    return [(q, r, col_groups[q]) for q, r in _groups(rows).items() if q in col_groups]


def _run(index: np.ndarray):
    """A non-empty ascending index, as a slice if it runs without a gap."""
    return slice(index[0], index[-1] + 1) if index[-1] - index[0] + 1 == len(index) else index


def _grid(rows: np.ndarray, cols: np.ndarray):
    """Index of the block ``rows`` x ``cols`` (both non-empty); an index that
    runs without a gap becomes a slice, so a whole-matrix block is a view."""
    r, c = _run(rows), _run(cols)
    return (rows[:, None], cols) if r is rows and c is cols else (r, c)


@lru_cache(maxsize=SECTOR_CACHE)
def _sectors_of(rows: bytes, cols: bytes, mids: bytes | None) -> tuple:
    """Charge blocks of a matrix whose rows and columns carry the charges in
    ``rows`` and ``cols`` (int64 bytes): ``(charge, rows, columns, block
    index, middle, span)`` per charge both share, ascending.  ``span`` is the
    block's slice of the packed matrix, which holds the blocks one after
    another, each row-major.  With ``mids``, the labels of a bond the matrix
    is a product over, ``middle`` indexes the charge's (rows x middle,
    middle x columns) blocks of the two factors, and is None where no middle
    index carries the charge.  Read-only, so threads share the result."""
    mid_groups = {} if mids is None else _groups(np.frombuffer(mids, dtype=np.int64))
    sectors, start = [], 0
    for q, r, c in _shared(np.frombuffer(rows, dtype=np.int64), np.frombuffer(cols, dtype=np.int64)):
        r.flags.writeable = c.flags.writeable = False
        m = mid_groups.get(q)
        middle = None if m is None else (_grid(r, m), _grid(m, c))
        stop = start + len(r) * len(c)
        sectors.append((q, r, c, _grid(r, c), middle, slice(start, stop)))
        start = stop
    return tuple(sectors)


def _sectors(row_charges: np.ndarray, col_charges: np.ndarray, mid_charges=None) -> tuple:
    """The charge blocks of :func:`_sectors_of` for charge vectors."""
    mids = None if mid_charges is None else mid_charges.tobytes()
    key = (row_charges.tobytes(), col_charges.tobytes(), mids)
    if len(row_charges) + len(col_charges) > SECTOR_SIZE:
        return _sectors_of.__wrapped__(*key)
    return _sectors_of(*key)


@lru_cache(maxsize=SECTOR_CACHE)
def _totals_of(left: bytes, right: bytes, phys: bytes) -> tuple:
    """Where a two-mode gate acts in the packed pair matrix of a state train
    (see :func:`_sectors_of`) whose pair lies between bonds labelled ``left``
    and ``right``, with physical charges ``phys`` (int64 bytes); a physical
    index is an occupation.  Returns ``(order, totals)``: ``order`` lists the
    packed entries total by total, and ``(T, start, stop, width)`` says that
    ``order[start:stop]``, as a (width, pairs) matrix, holds photon-number
    total T = n1 + n2: one row per lower-mode occupation n1, ascending as in
    :func:`gate_blocks`, and one column per bond pair (alpha, beta) whose
    labels admit every split of T.  Each packed entry appears once.
    Read-only, so threads share the result."""
    ql, qr, c = (np.frombuffer(x, dtype=np.int64) for x in (left, right, phys))
    p = len(c)
    # packed offset of row (alpha, n1) and place of column (n2, beta) in its block
    row_at = np.zeros(len(ql) * p, dtype=np.int64)
    col_at = np.zeros(p * len(qr), dtype=np.int64)
    size = 0
    for _, r, cc in _shared(_row_charges(ql, c), _col_charges(c, qr)):
        row_at[r] = size + np.arange(len(r)) * len(cc)
        col_at[cc] = np.arange(len(cc))
        size += len(r) * len(cc)
    row_at, col_at = row_at.reshape(len(ql), p), col_at.reshape(p, len(qr))
    left_groups, right_groups = _groups(ql), _groups(qr)
    a, b = np.array(list(left_groups)), np.array(list(right_groups))
    pieces, totals, start = [], [], 0
    for t in range(2 * p - 1):
        n1 = np.arange(max(0, t - p + 1), min(t, p - 1) + 1)
        n2 = t - n1
        # left label a reaches right label b through every split (n1, n2)
        admits = np.all((a + c[n1][:, None])[:, :, None] == (b - c[n2][:, None])[:, None, :], axis=0)
        columns = []
        for i, j in zip(*np.nonzero(admits)):
            rows_at = row_at[left_groups[a[i]]][:, n1].T  # (splits, alpha)
            cols_at = col_at[n2][:, right_groups[b[j]]]  # (splits, beta)
            columns.append((rows_at[:, :, None] + cols_at[:, None, :]).reshape(len(n1), -1))
        if columns:
            piece = np.concatenate(columns, axis=1).ravel()
            totals.append((t, start, start + len(piece), len(n1)))
            pieces.append(piece)
            start += len(piece)
    if start != size:
        raise ValueError("a two-mode gate does not keep these physical charges")
    order = np.concatenate(pieces) if pieces else np.zeros(0, dtype=np.int64)
    order.flags.writeable = False
    return order, tuple(totals)


def _totals(left: np.ndarray, right: np.ndarray, phys: np.ndarray) -> tuple:
    """The layout of :func:`_totals_of` for label vectors; cached under the
    rule of :func:`_sectors`, on the pair matrix's rows plus columns."""
    key = (left.tobytes(), right.tobytes(), phys.tobytes())
    if len(phys) * (len(left) + len(right)) > SECTOR_SIZE:
        return _totals_of.__wrapped__(*key)
    return _totals_of(*key)


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
            (q, rows, cols, *_qr(matrix[grid]))
            for q, rows, cols, grid, *_ in _sectors(_row_charges(bonds[k], phys), bonds[k + 1])
        ]
        # R is block diagonal: block q meets the rows of the next site whose
        # left label is q, and of those only the columns of charge q
        following = tensors[k + 1].reshape(chi_r, -1)
        blocks = {q: grid for q, _, _, grid, *_ in _sectors(bonds[k + 1], _col_charges(phys, bonds[k + 2]))}
        q_mat, _, bonds[k + 1] = _assemble(matrix.shape, pieces)
        tensors[k] = q_mat.reshape(chi_l, p, -1)
        absorbed = np.zeros((len(bonds[k + 1]), following.shape[1]), dtype=np.complex128)
        row = 0
        for q, _, _, _, rest in pieces:
            if q in blocks:
                absorbed[row : row + len(rest), blocks[q][1]] = rest @ following[blocks[q]]
            row += len(rest)
        tensors[k + 1] = absorbed.reshape(-1, *tensors[k + 1].shape[1:])
    for k in range(stop, target, -1):
        chi_l, p, chi_r = tensors[k].shape
        matrix = tensors[k].reshape(chi_l, p * chi_r)
        pieces = []
        for q, rows, cols, grid, *_ in _sectors(bonds[k], _col_charges(phys, bonds[k + 1])):
            # A = R^T Q^T, from the QR of A^T
            q_mat, rest = _qr(matrix[grid].T)
            pieces.append((q, rows, cols, rest.T, q_mat.T))
        # as above: block q meets the rows of charge q of the previous site
        preceding = tensors[k - 1].reshape(-1, chi_l)
        blocks = {q: (rows, grid) for q, rows, _, grid, *_ in _sectors(_row_charges(bonds[k - 1], phys), bonds[k])}
        _, q_mat, bonds[k] = _assemble(matrix.shape, pieces)
        tensors[k] = q_mat.reshape(-1, p, chi_r)
        absorbed = np.zeros((preceding.shape[0], len(bonds[k])), dtype=np.complex128)
        col = 0
        for q, _, _, rest, _ in pieces:
            if q in blocks:
                rows, grid = blocks[q]
                absorbed[_run(rows), col : col + rest.shape[1]] = preceding[grid] @ rest
            col += rest.shape[1]
        tensors[k - 1] = absorbed.reshape(*tensors[k - 1].shape[:2], -1)


def _kept(s_all: np.ndarray, policy: TruncationPolicy) -> np.ndarray:
    """Which of the pooled singular values a split keeps: those above
    ``svd_threshold`` times the largest (all of them if every one is zero),
    then, past ``max_bond``, the largest ``max_bond``, ties to the earlier."""
    kept = np.ones(len(s_all), dtype=bool)
    if len(s_all) > 1:
        s_max = s_all.max()
        if s_max > 0.0:
            kept = s_all > policy.svd_threshold * s_max
    if policy.max_bond is not None and np.count_nonzero(kept) > policy.max_bond:
        kept = np.zeros(len(s_all), dtype=bool)
        kept[np.argsort(-s_all, kind="stable")[: policy.max_bond]] = True
    return kept


class _Pair(NamedTuple):
    """Where a packed pair matrix comes from: the pair tensor's shape (chi_l,
    p, p, chi_r), the labels of the bonds left and right of the pair, the
    physical charges, and the charge blocks (:func:`_sectors_of`)."""

    shape: tuple[int, int, int, int]
    left: np.ndarray
    right: np.ndarray
    phys: np.ndarray
    sectors: tuple


def _unpacked(packed: np.ndarray, pair: _Pair) -> np.ndarray:
    """The pair tensor of a packed pair matrix, zero outside its blocks."""
    chi_l, p, _, chi_r = pair.shape
    matrix = np.zeros((chi_l * p, p * chi_r), dtype=np.complex128)
    for _, rows, cols, grid, _, span in pair.sectors:
        matrix[grid] = packed[span].reshape(len(rows), len(cols))
    return matrix.reshape(pair.shape)


def _packed(theta: np.ndarray, pair: _Pair) -> np.ndarray:
    """The charge blocks of a pair tensor that keeps the pair's charges, packed."""
    chi_l, p, _, chi_r = pair.shape
    matrix = theta.reshape(chi_l * p, p * chi_r)
    packed = np.empty(pair.sectors[-1][5].stop if pair.sectors else 0, dtype=np.complex128)
    for _, rows, cols, grid, _, span in pair.sectors:
        packed[span].reshape(len(rows), len(cols))[...] = matrix[grid]
    return packed


def _apply_two_site(train: TensorTrain, i: int, local_map, policy, stats) -> TensorTrain:
    """Map the pair of sites (i, i+1) with ``local_map`` and split it back at
    the centre; returns a new train and leaves ``train`` as it was.

    The pair matrix, rows (alpha, n1) and columns (n2, beta), is built only
    where its charge blocks lie, packed (:func:`_sectors_of`), and
    ``local_map(packed, pair)`` returns the packed image under the map given
    the layout ``pair`` (:class:`_Pair`); the map must keep the train's
    charges.  The split takes one SVD per charge block; the truncation rule
    acts on all blocks' singular values together, as on the whole matrix.
    The centre keeps moving the way it came: from the left (or from nowhere)
    the split is u | s.vh and leaves it on i+1, from the right u.s | vh on i.
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
    # the pair matrix has the same charge blocks before and after the map
    sectors = _sectors(
        _row_charges(bonds[i], phys), _col_charges(phys, bonds[i + 2]), bonds[i + 1]
    )
    left, right = a.reshape(chi_l * p, -1), b.reshape(-1, p * chi_r)
    packed = np.empty(sectors[-1][5].stop if sectors else 0, dtype=np.complex128)
    for _, rows, cols, _, middle, span in sectors:
        block = packed[span].reshape(len(rows), len(cols))
        if middle is None:  # zero until the local map acts
            block.fill(0.0)
        else:
            np.matmul(left[middle[0]], right[middle[1]], out=block)
    packed = local_map(packed, _Pair((chi_l, p, p, chi_r), bonds[i], bonds[i + 2], phys, sectors))
    blocks = [_svd(packed[span].reshape(len(rows), len(cols))) for _, rows, cols, *_, span in sectors]

    s_all = np.concatenate([s for _, s, _ in blocks]) if blocks else np.zeros(0)
    kept = _kept(s_all, policy)
    stats.truncation_weight += float(np.sum(s_all[~kept] ** 2))
    stats.flop_estimate += sum(
        float(len(rows)) * len(cols) * min(len(rows), len(cols)) for _, rows, cols, *_ in sectors
    )

    pieces, start = [], 0
    for (q, rows, cols, *_), (u, s, vh) in zip(sectors, blocks):
        k = int(np.count_nonzero(kept[start : start + len(s)]))  # a prefix: s falls
        start += len(s)
        if k:
            u, s, vh = u[:, :k], s[:k], vh[:k]
            u, vh = (u, s[:, None] * vh) if rightward else (u * s, vh)
            pieces.append((q, rows, cols, u, vh))
    u, vh, bonds[i + 1] = _assemble((chi_l * p, p * chi_r), pieces)
    stats.observe_bond(len(bonds[i + 1]))
    tensors[i] = u.reshape(chi_l, p, -1)
    tensors[i + 1] = vh.reshape(-1, p, chi_r)
    return train._evolved(tensors, bonds, i + 1 if rightward else i)


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
    # G keeps the pair's photon number T = n1 + n2, so it acts as one small
    # block per T, on the bond pairs (alpha, beta) that hold T
    blocks = gate_blocks(gate.params, psi.local_dim - 1, adjoint=reverse)

    def local_map(packed, pair):
        order, totals = _totals(pair.left, pair.right, pair.phys)
        entries = packed[order]
        mapped = np.empty_like(entries)
        for t, start, stop, width in totals:
            np.matmul(
                blocks[t], entries[start:stop].reshape(width, -1),
                out=mapped[start:stop].reshape(width, -1),
            )
        packed[order] = mapped
        return packed

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

    def local_map(packed, pair):
        theta = _unpacked(packed, pair)  # (chi_l, (m1, n1), (m2, n2), chi_r)
        chi_l, chi_r = theta.shape[0], theta.shape[3]
        if kraus is not None:
            axis = 1 + gate.lossy_mode  # the lossy site's leg of the pair
            theta = np.moveaxis(np.tensordot(kraus, theta, axes=([1], [axis])), 0, axis)
        theta = theta.reshape(chi_l, d, d, d, d, chi_r)
        # G^dag O: the gate's out legs meet O's out legs
        theta = np.tensordot(g.conj(), theta, axes=([0, 1], [1, 3]))  # (m1', m2', l, n1, n2, r)
        # (.) G: O's in legs meet the gate's out legs
        theta = np.tensordot(theta, g, axes=([3, 4], [0, 1]))  # (m1', m2', l, r, n1', n2')
        return _packed(theta.transpose(2, 0, 4, 1, 5, 3), pair)

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


def evolve_input(
    circuit: Circuit,
    r,
    local_cutoff: int,
    policy: TruncationPolicy | None = None,
) -> tuple[TensorTrain, EvolutionStats]:
    """The squeezed input evolved forward through a lossless circuit: the
    part of the Schrodinger route that no outcome changes."""
    _require_lossless(circuit, "the Schrodinger state path")
    stats = EvolutionStats()
    psi = squeezed_mps(r, circuit.num_modes, local_cutoff)
    return _evolve_mps(psi, circuit, policy or TruncationPolicy(), stats, reverse=False), stats


def project_outcome(
    psi: TensorTrain, stats: EvolutionStats, outcome, local_cutoff: int
) -> tuple[float, EvolutionStats]:
    """|<n|psi>|^2 for the evolved input of :func:`evolve_input`; the stats
    come back as a copy that carries this outcome's raw probability."""
    outcome = _check_length(psi.num_modes, outcome)
    amp = mps_overlap(fock_mps(outcome, local_cutoff), psi)
    stats = replace(stats, per_layer_bonds=list(stats.per_layer_bonds), raw_probability=abs(amp) ** 2)
    return _clamp_probability(stats.raw_probability), stats


def schrodinger_probability(
    circuit: Circuit,
    outcome,
    r,
    local_cutoff: int,
    policy: TruncationPolicy | None = None,
) -> tuple[float, EvolutionStats]:
    """|<n| U |psi>|^2 by forward evolution of the squeezed input."""
    outcome = _check_length(circuit.num_modes, outcome)
    psi, stats = evolve_input(circuit, r, local_cutoff, policy)
    return project_outcome(psi, stats, outcome, local_cutoff)


def _light_cone(circuit: Circuit, outcome: tuple[int, ...]) -> Circuit:
    """The gates that act on |outcome> evolved backward from the last layer.
    A gate on two modes the outcome leaves empty and no later gate touches
    meets the vacuum there, and G^dag|0, 0> = |0, 0>: it is dropped."""
    lit = [n > 0 for n in outcome]
    layers = []
    for layer in reversed(circuit.layers):
        kept = tuple(g for g in layer if lit[g.modes[0]] or lit[g.modes[1]])
        for g in kept:
            lit[g.modes[0]] = lit[g.modes[1]] = True
        layers.append(kept)
    return Circuit(circuit.num_modes, tuple(reversed(layers)))


def heisenberg_probability_lossless(
    circuit: Circuit,
    outcome,
    r,
    local_cutoff: int,
    policy: TruncationPolicy | None = None,
) -> tuple[float, EvolutionStats]:
    """|<psi| U^dag |n>|^2 by evolving the outcome state through the reversed
    circuit, skipping the gates outside the outcome's light cone."""
    outcome = _check_length(circuit.num_modes, outcome)
    _require_lossless(circuit, "the lossless Heisenberg path (use heisenberg_probability_lossy)")
    if sum(outcome) > circuit.num_modes * local_cutoff:
        raise ValueError("outcome carries more photons than the truncated space holds")
    policy = policy or TruncationPolicy()
    stats = EvolutionStats()
    phi = fock_mps(outcome, local_cutoff)
    phi = _evolve_mps(phi, _light_cone(circuit, outcome), policy, stats, reverse=True)
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
    outcome = _check_length(circuit.num_modes, outcome)
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

