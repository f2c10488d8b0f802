"""Tensor-train engine: one train type in canonical form, one two-site update.

A :class:`TensorTrain` has a leg of dimension d per mode for a state and
d^2 for an operator, its (out, in) pair vectorised.  Every gate is one
``_apply_two_site``: the gate's local map acts on the pair, an SVD splits it
and drops Schmidt values, so truncation removes exactly their weight.  The
split needs the pair's Schmidt matrix, which a train supplies in one of two
forms:

* a state train is built with the Schmidt values of every bond, in closed
  form, and keeps all its sites right isometries; the split scales the
  pair's rows by the left bond's values and moves no centre (Vidal,
  arXiv:quant-ph/0310089; Hastings, arXiv:0903.3253).  Gates are unitary,
  so the new sites stay isometries as long as a split drops no more than
  machine epsilon of the weight; a split that drops more (under
  ``max_bond`` or a large ``svd_threshold``) returns the train without
  Schmidt values, and it takes the centre form from the next gate on;
* any other train keeps an orthogonality centre, and QR moves it onto the
  pair first: an operator, since the adjoint channel is not unitary, and a
  state after a split that truncated.

Every train carries photon-number (U(1)) charge labels (Singh, Pfeifer &
Vidal, arXiv:0907.2994): one integer per physical index and one integer
vector per bond, the charge summed over the sites to the bond's left.  A
site entry whose left label plus physical charge differs from its right
label is zero.  The gates conserve photon number, so every SVD and QR
splits into one small factorization per charge the rows and the columns
share; the blocks that do not match are zero and never factorized, and
rows whose count exceeds the train's total drop out.  The charges:

* the outcome state |n> (``fock_mps``): charge n on a leg of occupation n,
  total sum(n), kept by every gate and its adjoint; the projected input
  Pi_N psi (``projected_squeezed_mps``) likewise, with total N;
* the outcome projector (``fock_projector_mpo``): charge m - n on the
  (out m, in n) leg, total 0, kept by the adjoint channel.

The whole squeezed input (``squeezed_mps``) is no photon-number eigenstate
and carries the trivial charge, zero everywhere; no route builds it.

Site arrays stay dense, with zeros outside the sectors.  The pair matrix
of an update is stored packed, its charge blocks one after another, and is
never built whole.  Every local map reaches the one kernel as its block for
each key of the pair indices, a sum of one key per leg that fixes the
pair's charge: a state gate's blocks of fixed total n1 + n2
(``circuit.gate_blocks``); the adjoint step's G^dag O G, G_Tout^dag (x)
G_Tin^T of the same blocks, for each (T_out, T_in) = (m1 + m2, n1 + n2).  A
packed entry (alpha, n1, n2, beta) lies in a charge block exactly when
label(beta) - label(alpha) is its charge, so the labels alone lay out where
each block acts, by one stable sort; a pair's layout, with its update's
size-guard figure and SVD cost, is built once and reused from a bounded
cache.  A step of a centre move is the pair's split with QR in place of the
SVD, read from the same cached layout as an update.
Blocks of one row or one column are factorized in closed form (a norm and
a unit vector), larger ones by ``numpy.linalg.qr`` and ``numpy.linalg.svd``
(see ``_qr`` for why not scipy).  Both release the GIL, yet two threads
evaluating bond-16 outcomes ran 1.7x slower than one: these small calls
hand the GIL back and forth, so the CLI runs outcomes on one thread.  An
update touches the two sites and three bonds of its pair and nothing else
of the train.

Probabilities are computed three ways, each closing its evolved train the
same way: a product of one (left, right) matrix per site, the site
contracted on its physical leg with one vector of its mode.  The input
psi = (x)_k S(r_k)|0> is a product state, so closing on it needs no second
train, only its per-mode amplitudes v_k (``fockdense.squeezed_vectors``):

* ``schrodinger_probability``: evolve Pi_N psi, the input's part with the
  outcome's photon total, forward (``evolve_input``), and project on the
  outcome (``project_outcome``), the site slices at the outcome's counts;
  one evolution serves every outcome of N.
* ``heisenberg_probability_lossless``: evolve the outcome state through the
  time-reversed circuit (reverse layer order, conjugate-transposed gates) and
  close each site on conj(v_k).  Valid because for unitary circuits the
  evolved projector stays a rank-one dyad.  Photons spread from the occupied
  modes inside a light cone; a gate on two modes still in vacuum acts as the
  identity and is skipped.
* ``heisenberg_probability_lossy``: evolve the outcome projector as an
  operator train through the adjoint channel O -> U^dag (sum_mu K_mu^dag O
  K_mu) U per gate, then close each site's (out, in) leg on conj(v_k) (x)
  v_k.

``mps_overlap`` and ``mpo_expectation`` contract whole trains; no route calls
them, and they are the reference the closings are checked against.

Nothing is renormalized after truncation: probabilities carry the cutoff and
truncation error honestly.  Every evolution reports bond-dimension and
truncation statistics.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field, replace
from functools import reduce

import numpy as np

# gate_tensor is not called here: bench/spans.py wraps tnet.gate_tensor, and
# bench/test_harness.py expects every name it wraps to be found
from .circuit import Circuit, Gate, gate_blocks, gate_tensor, kraus_set
from .errors import UnsupportedConfigurationError, _integral, check_outcome, check_probability, check_size
from .fockdense import squeezed_vectors

__all__ = [
    "TruncationPolicy",
    "EvolutionStats",
    "TensorTrain",
    "fock_mps",
    "squeezed_mps",
    "projected_squeezed_mps",
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
]

# pair layouts kept for reuse, oldest out first, within LAYOUT_BUDGET bytes
# in all.  An entry is charged 16 bytes per index it is built on (packed
# entries, rows, columns and middle indices; its key and its middle groups
# hold fewer again, and 8 bytes each) and 2 kB per charge block for its
# Python objects (1.4 kB at most measured), so the charge bounds what it
# holds: the 201 layouts of an M = 32, N = 8 evaluation hold 38 MB and are
# charged 71 MiB.  A layout charged more than the budget is grouped afresh.
LAYOUT_BUDGET = 128 * 2**20


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
        if self.max_bond is not None:
            object.__setattr__(self, "max_bond", _integral(self.max_bond, "max_bond"))
            if self.max_bond < 1:
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
        # gesdd occasionally fails to converge; gesvd is slower but sturdier.
        # Imported here, so that importing the package loads no scipy
        import scipy.linalg

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
    isometries and sites right of it right isometries.

    ``schmidt``, when not None, holds one vector per bond (k = 0 and M, the
    boundaries, hold a single 1): the Schmidt values of the state across
    that cut, in the bond's index order; every state train is built with
    them.  A train that carries them has every site after site 0
    right-isometric and its norm in site 0 (and so in the interior Schmidt
    values); its ``center`` is None, because its updates never move one.
    Without them (an operator, or a state after a split that truncated),
    ``center`` None means the train is not known to be in canonical form.

    ``phys_charges`` holds the charge of each physical index and
    ``bond_charges[k]`` the label of each index of the bond left of site k
    (k = M is the right boundary).  Entry ``tensors[k][a, n, b]`` is zero
    unless ``bond_charges[k][a] + phys_charges[n] == bond_charges[k + 1][b]``.
    Every train is built with both; all zeros is the trivial charge.
    """

    def __init__(
        self,
        tensors: list[np.ndarray],
        local_dim: int,
        center: int | None,
        phys_charges,
        bond_charges,
        schmidt=None,
    ):
        if not tensors:
            raise ValueError("a tensor train needs at least one site")
        if tensors[0].shape[0] != 1 or tensors[-1].shape[2] != 1:
            raise ValueError("boundary bonds must have dimension 1")
        for k in range(len(tensors) - 1):
            if tensors[k].shape[2] != tensors[k + 1].shape[0]:
                raise ValueError(f"bond mismatch between sites {k} and {k + 1}")
        if center is not None and not 0 <= center < len(tensors):
            raise ValueError(f"centre {center} lies outside the {len(tensors)} sites")
        dims = [t.shape[0] for t in tensors] + [1]
        if any(t.shape[1] != len(phys_charges) for t in tensors):
            raise ValueError("physical charges do not match the physical legs")
        if [len(q) for q in bond_charges] != dims:
            raise ValueError("bond charges do not match the bond dimensions")
        if schmidt is not None:
            if center is not None:
                raise ValueError("a train that carries Schmidt values has no centre")
            schmidt = [np.asarray(s, dtype=float) for s in schmidt]
            if [len(s) for s in schmidt] != dims:
                raise ValueError("Schmidt values do not match the bond dimensions")
        self.tensors = tensors
        self.local_dim = local_dim
        self.center = center
        self.phys_charges = np.asarray(phys_charges, dtype=np.int64)
        self.bond_charges = [np.asarray(q, dtype=np.int64) for q in bond_charges]
        self.schmidt = schmidt

    def _evolved(self, tensors, bond_charges, center, schmidt) -> "TensorTrain":
        """A train over the same legs with new sites, bond labels, centre and
        Schmidt values, not checked again: the two-site kernel keeps them
        consistent."""
        train = object.__new__(TensorTrain)
        train.tensors, train.bond_charges, train.center = tensors, bond_charges, center
        train.schmidt = schmidt
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
        check_size(math.prod(t.shape[1] for t in self.tensors), "the dense contraction")
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


def _schmidt_train(vectors, local_dim: int, phys_charges, total: int) -> TensorTrain:
    """The part of charge ``total`` of the product state of ``vectors``, in
    Schmidt form; site k's vector holds amplitudes on physical indices of
    charges ``phys_charges``, none negative.

    Parts of different charge on one side of a cut are orthogonal, so bond
    label j carries the Schmidt value |Pi_j left| |Pi_{total - j} right|.
    The squared norms are convolutions of the sites' charge weights
    |v[n]|^2, and a bond keeps the labels whose value is not 0.  Each site
    k > 0 is divided by its right side's norm, which leaves it a right
    isometry and the norm in site 0.  A part that is 0 gives the zero
    train, bond 1 throughout.
    """
    phys, m = np.asarray(phys_charges, dtype=np.int64), len(vectors)
    weights = [np.bincount(phys, np.abs(v) ** 2, total + 1)[: total + 1] for v in vectors]
    # left[k][j]: squared norm of the charge-j part of the sites left of k;
    # right[k][j]: of the charge-(total - j) part of site k and those after
    left, right = [np.eye(1, total + 1)[0]], [np.eye(1, total + 1, total)[0]]
    for w in weights:
        left.append(np.convolve(left[-1], w)[: total + 1])
    for w in reversed(weights):
        right.insert(0, np.convolve(w[::-1], right[0])[total:])
    if right[0][0] == 0.0:
        bonds = [np.zeros(1, dtype=np.int64)] * m + [np.array([total])]
        zeros = [np.zeros((1, len(phys), 1), dtype=np.complex128) for _ in vectors]
        schmidt = [np.ones(1)] + [np.zeros(1)] * (m - 1) + [np.ones(1)]
        return TensorTrain(zeros, local_dim, None, phys, bonds, schmidt)
    bonds = [np.flatnonzero(l * r) for l, r in zip(left, right)]
    tensors = []
    for k, v in enumerate(vectors):
        a, b = bonds[k], bonds[k + 1]
        scale = np.sqrt(right[k + 1][b] / (right[k][a] if k else np.ones(1))[:, None])
        tensors.append(v[None, :, None] * (np.add.outer(a, phys)[:, :, None] == b) * scale[:, None])
    schmidt = [np.sqrt(l[b] * r[b]) for l, r, b in zip(left, right, bonds)]
    schmidt[0] = schmidt[-1] = np.ones(1)
    return TensorTrain(tensors, local_dim, None, phys, bonds, schmidt)


def fock_mps(outcome, local_cutoff: int) -> TensorTrain:
    """Product state |n_1, ..., n_M> (all bonds 1, unit sites, Schmidt
    values 1), charge n on the leg of occupation n."""
    d = local_cutoff + 1
    outcome = check_outcome(outcome, cutoff=local_cutoff)
    basis = np.eye(d, dtype=np.complex128)
    return _schmidt_train([basis[n] for n in outcome], d, np.arange(d), sum(outcome))


def squeezed_mps(r, num_modes: int, local_cutoff: int) -> TensorTrain:
    """Product state of truncated squeezed vacua; norm < 1 is kept, not fixed,
    in site 0 and the Schmidt values.  Not a photon-number eigenstate, so it
    carries the trivial charge, which :func:`apply_gate_mps` refuses.  No
    route builds it: the Heisenberg routes close on its per-mode amplitudes,
    and it is the train the tests compare those closings with."""
    d = local_cutoff + 1
    return _schmidt_train(squeezed_vectors(r, num_modes, local_cutoff), d, np.zeros(d), 0)


def projected_squeezed_mps(r, num_modes: int, total: int) -> TensorTrain:
    """Pi_N psi: the squeezed input's part with N = ``total`` photons, all
    that a photon-number-keeping circuit carries to an outcome of N, in
    Schmidt form.  Bond labels count the photons to the left (the even
    counts up to N inside), and legs of dimension max(N, 1) + 1 make it
    exact.  An odd N, which no squeezed input reaches, gives the zero train."""
    total = _integral(total, "photon total", 0)
    cutoff = max(total, 1)
    return _schmidt_train(squeezed_vectors(r, num_modes, cutoff), cutoff + 1, np.arange(cutoff + 1), total)


def fock_projector_mpo(outcome, local_cutoff: int) -> TensorTrain:
    """|n><n| as a bond-1 operator train at centre 0, charge m - n on leg (m,
    n) and bond label 0 throughout."""
    d = local_cutoff + 1
    outcome = check_outcome(outcome, cutoff=local_cutoff)
    check_size(d**4, "the projector's basis")
    basis = np.eye(d * d, dtype=np.complex128)  # row n * d + n is vec(|n><n|)
    charges = np.subtract.outer(np.arange(d), np.arange(d)).ravel()
    bonds = [np.zeros(1, dtype=np.int64)] * (len(outcome) + 1)
    return TensorTrain([basis[n * d + n].reshape(1, -1, 1) for n in outcome], d, 0, charges, bonds)


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
    """<bra| O |ket>, site by site: O's (out, in) leg meets conj(bra)'s leg
    and ket's."""
    if not (bra.num_modes == operator.num_modes == ket.num_modes):
        raise ValueError("mode count mismatch")
    env = np.ones((1, 1, 1), dtype=np.complex128)  # (bra, operator, ket) bonds
    for a, o, b in zip(bra.tensors, operator.tensors, ket.tensors):
        o = o.reshape(len(o), a.shape[1], b.shape[1], -1)  # leg (out m, in n) is m * d + n
        env = np.einsum("xyz,xma,ymnb,znc->abc", env, a.conj(), o, b, optimize=True)
    return complex(env[0, 0, 0])


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two matrices at a fifth of its cost on small ones."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(len(a) * len(b), -1)


def _groups(charges: np.ndarray) -> dict[int, np.ndarray]:
    """Ascending indices of each charge, from one stable sort."""
    order = np.argsort(charges, kind="stable")
    ordered = charges[order]
    cuts = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
    return dict(zip(ordered[np.r_[0, cuts]].tolist(), np.split(order, cuts)))


def _run(index: np.ndarray):
    """A non-empty ascending index, as a slice if it runs without a gap."""
    return slice(index[0], index[-1] + 1) if index[-1] - index[0] + 1 == len(index) else index


def _grid(rows: np.ndarray, cols: np.ndarray):
    """Index of the block ``rows`` x ``cols`` (both non-empty); an index that
    runs without a gap becomes a slice, so a whole-matrix block is a view."""
    r, c = _run(rows), _run(cols)
    return (rows[:, None], cols) if r is rows and c is cols else (r, c)


_layouts: dict = {}  # key -> (layout, bytes charged)
_layouts_lock = threading.Lock()


def _pair_layout(left, mid, right, phys, legs, what: str = "an array of a pair update") -> tuple:
    """The layout of a pair between bonds labelled ``left``, ``mid`` and
    ``right`` on physical charges ``phys`` and leg keys ``legs``: ``(sectors,
    order, groups, flops, guarded)``.  ``sectors`` holds ``(charge, rows,
    columns, middle, span)``, ascending, for each charge its rows (alpha, n1),
    of charge label(alpha) + phys[n1], and its columns (n2, beta), of
    label(beta) - phys[n2], share: ``middle`` indexes its (rows x mid, mid x
    columns) blocks of the two sites (None where no mid index has it),
    ``span`` its slice of the packed matrix, blocks one after another,
    row-major.  For ``(k, start, stop, width)`` in ``groups``,
    ``order[start:stop]`` is the (width, pairs) matrix of the packed offsets
    of key k: a row per pair index n1 * p + n2 with legs[n1] + legs[n2] = k,
    ascending, a column per (alpha, beta) with label(beta) - label(alpha) =
    phys[n1] + phys[n2], which k fixes.  A pair index meets each such (alpha,
    beta) in one packed entry, listed by (label(alpha), alpha, beta) whatever
    the pair index, so one stable sort of the packed offsets by the rank of
    their pair index in key order builds ``order``.  ``flops`` is the split's
    SVD cost (see :class:`EvolutionStats`), ``guarded`` the entry count of the
    update's largest array: the packed pair or a new site, whose bond holds at
    most min(rows, columns) per charge block.

    From the cache when it is there; a new layout is stored if its charge
    fits in ``LAYOUT_BUDGET``, the oldest entries making way.  A pair whose
    update would pass the size guard raises, as ``what``, before ``order``
    is built, and leaves the cache as it was.  Read-only, so threads share
    it."""
    key = (left.tobytes(), mid.tobytes(), right.tobytes(), phys.tobytes(), legs.tobytes())
    entry = _layouts.get(key)
    if entry is not None:
        check_size(entry[0][4], what)
        return entry[0]
    p = len(phys)
    col_groups, mid_groups = _groups(np.subtract.outer(right, phys).T.ravel()), _groups(mid)
    sectors, size = [], 0
    for q, rows in _groups(np.add.outer(left, phys).ravel()).items():
        cols, m = col_groups.get(q), mid_groups.get(q)
        if cols is not None:
            rows.flags.writeable = cols.flags.writeable = False
            middle = None if m is None else (_grid(rows, m), _grid(m, cols))
            sectors.append((q, rows, cols, middle, slice(size, size + len(rows) * len(cols))))
            size += len(rows) * len(cols)
    bond = sum(min(len(rows), len(cols)) for _, rows, cols, *_ in sectors)
    guarded = max(size, p * bond * max(len(left), len(right)))
    check_size(guarded, what)
    flops = sum(float(len(rows)) * len(cols) * min(len(rows), len(cols)) for _, rows, cols, *_ in sectors)
    sums = np.add.outer(legs, legs).ravel()
    # the rank of pair index n1 * p + n2 in key order; small, so the sort is a radix sort
    rank = np.empty(p * p, dtype=np.min_scalar_type(p * p - 1))
    rank[np.argsort(sums, kind="stable")] = np.arange(p * p)
    ranks = np.empty(size, dtype=rank.dtype)  # of each packed entry's pair index
    for _, rows, cols, _, span in sectors:
        ranks[span] = rank[(rows[:, None] % p) * p + cols // len(right)].ravel()
    order = np.argsort(ranks, kind="stable")
    order.flags.writeable = False
    keys, widths = np.unique(sums, return_counts=True)
    stops = np.cumsum(np.bincount(ranks, minlength=p * p))[np.cumsum(widths) - 1].tolist()
    # (key, start, stop, width); a key no (alpha, beta) meets has no entry
    groups = tuple(g for g in zip(keys.tolist(), [0, *stops[:-1]], stops, widths.tolist()) if g[2] > g[1])
    layout = tuple(sectors), order, groups, flops, guarded
    cost = 16 * (size + p * (len(left) + len(right)) + len(mid)) + 2048 * len(sectors)
    with _layouts_lock:
        held = sum(charged for _, charged in _layouts.values())
        while _layouts and held + cost > LAYOUT_BUDGET >= cost:
            held -= _layouts.pop(next(iter(_layouts)))[1]
        if held + cost <= LAYOUT_BUDGET:
            _layouts[key] = (layout, cost)
    return layout


def _assemble(shape, pieces):
    """The factors (left, right) of a charge-blocked matrix from its pieces
    ``(charge, rows, columns, left block, right block)``, and the charges of
    the new bond between them.  With no piece the bond is one zero index.
    The one writer of new sites: every split and every centre move's step."""
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


def _move_center(tensors: list, bonds: list, phys, legs, center: int | None, target: int) -> None:
    """Make ``target`` the centre of ``tensors`` in place, ``bonds`` taking
    the new labels.  Each step is the split of a pair (k, k+1) with QR in
    place of the SVD, on the cached layout an update of the pair with leg keys
    ``legs`` reads (:func:`_pair_layout`), written by :func:`_assemble`:
    moving right, a block of site k is Q R and R goes into site k+1; moving
    left, a block of site k+1 is R^T Q^T (the QR of its transpose) and R^T
    goes into site k.  A bond index whose block on the other site is empty
    holds zeros only and is dropped, as a split drops it.  From an unknown
    centre both sides of the target are swept."""
    start, stop = (0, len(tensors) - 1) if center is None else (center, center)
    for k in [*range(start, target), *range(stop - 1, target - 1, -1)]:
        chi_l, p, chi_r = tensors[k].shape[0], len(phys), tensors[k + 1].shape[2]
        left, right = tensors[k].reshape(chi_l * p, -1), tensors[k + 1].reshape(-1, p * chi_r)
        what, pieces = f"an array of the centre move across modes {(k, k + 1)}", []
        for q, rows, cols, middle, _ in _pair_layout(bonds[k], bonds[k + 1], bonds[k + 2], phys, legs, what)[0]:
            if middle is None:  # both sites are zero on this block
                continue
            if k < target:  # moving right
                q_mat, rest = _qr(left[middle[0]])
                pieces.append((q, rows, cols, q_mat, rest @ right[middle[1]]))
            else:  # moving left, the block is R^T Q^T
                q_mat, rest = _qr(right[middle[1]].T)
                pieces.append((q, rows, cols, left[middle[0]] @ rest.T, q_mat.T))
        u, vh, bonds[k + 1] = _assemble((chi_l * p, p * chi_r), pieces)
        tensors[k], tensors[k + 1] = u.reshape(chi_l, p, -1), vh.reshape(-1, p, chi_r)


def _kept(s_all: np.ndarray, policy: TruncationPolicy, sectors: list) -> np.ndarray:
    """Which of the pooled singular values of ``sectors`` a split keeps:
    those above ``svd_threshold`` times the largest (all of them if every
    one is zero), then, past ``max_bond``, the largest ``max_bond``, ties to
    the earlier.  A cut keeps as many in blocks q and -q as the fewer of the
    two: an operator's blocks q and -q hold equal values, so keeping one of
    such a pair alone breaks Hermiticity.  A state has no negative block."""
    kept = np.ones(len(s_all), dtype=bool)
    if len(s_all) > 1:
        s_max = s_all.max()
        if s_max > 0.0:
            kept = s_all > policy.svd_threshold * s_max
    if policy.max_bond is not None and np.count_nonzero(kept) > policy.max_bond:
        kept = np.zeros(len(s_all), dtype=bool)
        kept[np.argsort(-s_all, kind="stable")[: policy.max_bond]] = True
    if sectors and sectors[0][0] < 0 and not kept.all():  # blocks ascend; each keeps a prefix
        sizes = np.array([min(len(rows), len(cols)) for _, rows, cols, *_ in sectors])
        starts = np.cumsum(sizes) - sizes
        counts = np.add.reduceat(kept, starts, dtype=int)
        partner = {sector[0]: count for sector, count in zip(sectors, counts)}
        for (q, *_), start, size, count in zip(sectors, starts, sizes, counts):
            kept[start + min(count, partner.get(-q, count)) : start + size] = False
    return kept


def _centred(train: TensorTrain, i: int, legs) -> TensorTrain:
    """``train`` ready for an update of the pair (i, i+1) with leg keys
    ``legs``: ValueError if the pair does not fit, and a train without
    Schmidt values has its centre moved onto the pair from the side it is
    on, to site i from the left or from nowhere, to i+1 from the right."""
    if i + 1 >= train.num_modes:
        raise ValueError(f"gate on modes {(i, i + 1)} does not fit in {train.num_modes} modes")
    if train.schmidt is not None or train.center in (i, i + 1):
        return train
    tensors, bonds = list(train.tensors), list(train.bond_charges)
    target = i if train.center is None or train.center <= i else i + 1
    _move_center(tensors, bonds, train.phys_charges, legs, train.center, target)
    return train._evolved(tensors, bonds, target, None)


def _apply_two_site(train: TensorTrain, i: int, legs, blocks, policy, stats) -> TensorTrain:
    """Map the pair of sites (i, i+1) and split it back; returns a new train
    and leaves ``train`` as it was.

    The map is given by its blocks: ``blocks(k)`` is the map on the pair
    indices n1 * p + n2 of key k = legs[n1] + legs[n2], ascending; k fixes
    phys_charges[n1] + phys_charges[n2], so the map keeps the train's
    charges.  The pair matrix, rows (alpha, n1) and columns (n2, beta), is
    built only where its charge blocks lie, packed; the map is one gather of
    the packed entries key by key, one matmul per key and one scatter, all
    laid out by :func:`_pair_layout` from the labels alone; the layout also
    carries the figure the size guard reads and the split's SVD cost.  This
    is the only code that reads or writes a packed pair matrix.  The split
    takes one SVD per charge block; the truncation rule acts on all blocks'
    singular values together, as on the whole matrix (see :func:`_kept`).

    A train that carries Schmidt values (a state) is split without a centre
    (Vidal, arXiv:quant-ph/0310089; Hastings, arXiv:0903.3253): its sites
    after site 0 are right isometries, so the mapped pair Theta' with its
    rows (alpha, n1) scaled by the left bond's Schmidt values (1 on the
    boundary, where site 0 holds the norm) is the state's Schmidt matrix
    across the pair's cut.  Its SVD X.S.Y gives the new right site Y, the
    new bond's Schmidt values S, and the new left site Theta'.Y^dag, again
    a right isometry for i > 0, since a unitary gate keeps Theta' one.  A split
    that drops more than machine epsilon times the pair's squared weight
    leaves Theta'.Y^dag short of an isometry: the train comes back without
    Schmidt values and with centre None, so the next update sweeps it into
    canonical form.  Any other train (an operator, whose adjoint channel is
    not unitary) keeps a centre, which moves onto the pair first and keeps
    moving the way it came: from the left (or from nowhere) the split is
    u | s.vh and leaves it on i+1, from the right u.s | vh on i.
    """
    policy = policy or TruncationPolicy()
    stats = stats if stats is not None else EvolutionStats()
    train = _centred(train, i, legs)
    schmidt, rightward = train.schmidt, train.center == i
    tensors, bonds, phys = list(train.tensors), list(train.bond_charges), train.phys_charges
    a, b = tensors[i], tensors[i + 1]
    chi_l, p, chi_r = a.shape[0], a.shape[1], b.shape[2]
    # the pair matrix has the same charge blocks before and after the map
    what = f"an array of the update of modes {(i, i + 1)}"
    sectors, order, groups, flops, _ = _pair_layout(bonds[i], bonds[i + 1], bonds[i + 2], phys, legs, what)
    left, right = a.reshape(chi_l * p, -1), b.reshape(-1, p * chi_r)
    packed = np.empty(len(order), dtype=np.complex128)
    for _, rows, cols, middle, span in sectors:
        block = packed[span].reshape(len(rows), len(cols))
        if middle is None:  # zero until the map acts
            block.fill(0.0)
        else:
            np.matmul(left[middle[0]], right[middle[1]], out=block)
    entries = packed[order]
    mapped = np.empty_like(entries)
    for k, start, stop, width in groups:
        np.matmul(
            blocks(k), entries[start:stop].reshape(width, -1),
            out=mapped[start:stop].reshape(width, -1),
        )
    packed[order] = mapped
    theta = [packed[span].reshape(len(rows), len(cols)) for _, rows, cols, *_, span in sectors]
    if schmidt is None:
        factors = [_svd(block) for block in theta]
    else:
        weights = np.repeat(schmidt[i], p)  # of row (alpha, n1)
        factors = [_svd(weights[rows, None] * block) for (_, rows, *_), block in zip(sectors, theta)]

    s_all = np.concatenate([s for _, s, _ in factors]) if factors else np.zeros(0)
    kept = _kept(s_all, policy, sectors)
    dropped = float(np.sum(s_all[~kept] ** 2))
    stats.truncation_weight += dropped
    stats.flop_estimate += flops

    pieces, values, start = [], [], 0
    for (q, rows, cols, *_), block, (u, s, vh) in zip(sectors, theta, factors):
        k = int(np.count_nonzero(kept[start : start + len(s)]))  # a prefix: s falls
        start += len(s)
        if k:
            u, s, vh = u[:, :k], s[:k], vh[:k]
            if schmidt is not None:
                u = block @ vh.conj().T
            elif rightward:
                vh = s[:, None] * vh
            else:
                u = u * s
            pieces.append((q, rows, cols, u, vh))
            values.append(s)
    u, vh, bonds[i + 1] = _assemble((chi_l * p, p * chi_r), pieces)
    stats.observe_bond(len(bonds[i + 1]))
    tensors[i] = u.reshape(chi_l, p, -1)
    tensors[i + 1] = vh.reshape(-1, p, chi_r)
    if schmidt is None:
        return train._evolved(tensors, bonds, i + 1 if rightward else i, None)
    if dropped > np.finfo(float).eps * float(np.sum(s_all**2)):
        return train._evolved(tensors, bonds, None, None)
    schmidt = list(schmidt)
    schmidt[i + 1] = np.concatenate(values) if values else np.zeros(1)
    return train._evolved(tensors, bonds, None, schmidt)


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
    # G keeps the pair's photon number T = n1 + n2, so on occupation charges
    # it acts as one small block per T
    d = psi.local_dim
    if not np.array_equal(psi.phys_charges, np.arange(d)):
        raise ValueError("a two-site map does not keep these physical charges")
    blocks = gate_blocks(gate.params, d - 1, adjoint=reverse)
    return _apply_two_site(psi, gate.modes[0], psi.phys_charges, blocks.__getitem__, policy, stats)


def _evolve(train: TensorTrain, layers, step, stats: EvolutionStats) -> TensorTrain:
    """``train`` through ``layers`` in the order given, one ``step(train,
    gate)`` per gate; the largest bond after each layer goes to ``stats``.
    The gates of a layer act on disjoint pairs and commute, so each layer is
    taken from the end nearer the centre, carrying it across; a train with
    centre None (in Schmidt form, whose updates move no centre, or not known
    to be canonical) takes them in ascending order."""
    for layer in layers:
        gates = sorted(layer, key=lambda g: g.modes[0])
        if gates and train.center is not None:
            if 2 * train.center > gates[0].modes[0] + gates[-1].modes[1]:
                gates.reverse()
        for gate in gates:
            train = step(train, gate)
        stats.per_layer_bonds.append(train.max_bond())
    return train


def _evolve_mps(psi: TensorTrain, circuit: Circuit, policy, stats, reverse: bool) -> TensorTrain:
    """A state through ``circuit``, or through its time reverse."""
    layers = reversed(circuit.layers) if reverse else circuit.layers
    # the step looks the gate function up when it runs, so that a wrapper
    # installed on the module sees every gate
    return _evolve(psi, layers, lambda t, g: apply_gate_mps(t, g, policy, stats, reverse=reverse), stats)


def apply_gate_mpo_adjoint(
    operator: TensorTrain,
    gate: Gate,
    policy: TruncationPolicy | None = None,
    stats: EvolutionStats | None = None,
) -> TensorTrain:
    """One step of the adjoint channel of the gate G and its loss's Kraus
    operators K_mu, O -> sum_mu (K_mu G)^dag O (K_mu G) = G^dag (sum_mu
    K_mu^dag O K_mu) G (Zwolak & Vidal, arXiv:cond-mat/0406440): the loss as
    the map sum_mu K_mu^T (x) K_mu^T on the lossy mode's (out m, in n) leg,
    which keeps m - n (K_mu lowers both alike) and every bond, then one update
    by G_Tout^dag (x) G_Tin^T (``circuit.gate_blocks``) on the pair indices of
    each (T_out, T_in) = (m1 + m2, n1 + n2) the pair reaches, totals that G
    keeps.  No array it builds holds more than d^4 entries."""
    d = operator.local_dim
    m, n = np.divmod(np.arange(d * d), d)  # of leg (out m, in n)
    if not np.array_equal(operator.phys_charges, m - n):
        raise ValueError("a two-site map does not keep these physical charges")
    # key (T_out, T_in) of a pair index as T_out (2d - 1) + T_in, a sum of leg keys
    width = 2 * d - 1
    legs = m * width + n
    # the centre moves first, so that its steps meet the size guard before the map
    operator = _centred(operator, gate.modes[0], legs)
    check_size(d**4, "the loss map")
    loss, tensors = sum(_kron(k.T, k.T) for k in kraus_set(gate.loss_gamma, d - 1)), list(operator.tensors)
    # the real map on the interleaved real and imaginary parts: half a complex product's work
    site = np.ascontiguousarray(tensors[gate.loss_site], dtype=np.complex128).view(np.float64)
    tensors[gate.loss_site] = (loss @ site).view(np.complex128)
    operator = operator._evolved(tensors, operator.bond_charges, operator.center, None)
    outs, ins = gate_blocks(gate.params, d - 1, adjoint=True), gate_blocks(gate.params, d - 1)
    blocks = lambda k: _kron(outs[k // width], ins[k % width].T)
    return _apply_two_site(operator, gate.modes[0], legs, blocks, policy, stats)


def evolve_input(
    circuit: Circuit,
    r,
    total: int,
    policy: TruncationPolicy | None = None,
) -> tuple[TensorTrain, EvolutionStats]:
    """The squeezed input's part with ``total`` photons evolved forward
    through a lossless circuit: the part of the Schrodinger route that no
    outcome of that total changes."""
    circuit.require_lossless("the Schrodinger state path")
    stats = EvolutionStats()
    psi = projected_squeezed_mps(r, circuit.num_modes, total)
    return _evolve_mps(psi, circuit, policy or TruncationPolicy(), stats, reverse=False), stats


def _closed(matrices) -> complex:
    """The one closing of an evolved train: the product of one (left, right)
    matrix per site, each the site contracted on its physical leg."""
    return complex(reduce(np.matmul, matrices, _ONE)[0, 0])


def project_outcome(psi: TensorTrain, stats: EvolutionStats, outcome) -> tuple[float, EvolutionStats]:
    """|<n|psi>|^2 for the evolved input of :func:`evolve_input`, whose photon
    total the outcome must hold; the stats come back as a copy that carries
    this outcome's raw probability."""
    outcome = check_outcome(outcome, psi.num_modes)
    total = int(psi.bond_charges[-1][0])
    if sum(outcome) != total:
        raise ValueError(f"outcome {outcome} does not hold the evolved input's {total} photons")
    # <n|psi>: the product of the outcome's slices
    probability = abs(_closed(site[:, n, :] for site, n in zip(psi.tensors, outcome))) ** 2
    stats = replace(stats, per_layer_bonds=list(stats.per_layer_bonds), raw_probability=probability)
    return check_probability(stats.raw_probability), stats


def schrodinger_probability(
    circuit: Circuit,
    outcome,
    r,
    policy: TruncationPolicy | None = None,
) -> tuple[float, EvolutionStats]:
    """|<n| U |psi>|^2 = |<n| U Pi_N |psi>|^2 by forward evolution of the
    squeezed input's part with the outcome's photon total N; exact, with no
    cutoff."""
    outcome = check_outcome(outcome, circuit.num_modes)
    psi, stats = evolve_input(circuit, r, sum(outcome), policy)
    return project_outcome(psi, stats, outcome)


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
    circuit, skipping the gates outside the outcome's light cone, and closing
    each site on its mode's conjugated squeezed amplitudes.  The circuit can
    gather all N photons of the outcome in one mode, so a ``local_cutoff``
    below N, which would truncate them, raises ValueError."""
    outcome = check_outcome(outcome, circuit.num_modes, local_cutoff, total=True)
    circuit.require_lossless("the lossless Heisenberg path (use heisenberg_probability_lossy)")
    policy = policy or TruncationPolicy()
    stats = EvolutionStats()
    phi = fock_mps(outcome, local_cutoff)
    phi = _evolve_mps(phi, _light_cone(circuit, outcome), policy, stats, reverse=True)
    vectors = squeezed_vectors(r, circuit.num_modes, local_cutoff)
    stats.raw_probability = abs(_closed(v.conj() @ site for v, site in zip(vectors, phi.tensors))) ** 2
    return check_probability(stats.raw_probability), stats


def heisenberg_probability_lossy(
    circuit: Circuit,
    outcome,
    r,
    local_cutoff: int,
    policy: TruncationPolicy | None = None,
) -> tuple[float, EvolutionStats]:
    """<psi| E*(P_n) |psi>: the outcome projector evolved through the adjoint
    channel, each site's (out, in) leg closed on conj(v) (x) v for its mode's
    squeezed amplitudes v.

    Works for lossless circuits too (the channel degenerates to conjugation).
    """
    outcome = check_outcome(outcome, circuit.num_modes, local_cutoff)
    policy = policy or TruncationPolicy()
    stats = EvolutionStats()
    op = _evolve(
        fock_projector_mpo(outcome, local_cutoff), reversed(circuit.layers),
        lambda t, g: apply_gate_mpo_adjoint(t, g, policy, stats), stats,
    )
    pairs = [np.outer(v.conj(), v).ravel() for v in squeezed_vectors(r, circuit.num_modes, local_cutoff)]
    value = _closed(w @ site for w, site in zip(pairs, op.tensors))
    stats.raw_probability = value.real
    return check_probability(value), stats

