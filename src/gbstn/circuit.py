"""Interferometer circuits made of two-mode beamsplitter/phase gates.

A gate on adjacent modes (i, i+1) is G = U_{theta,varphi} . P_phi with

    U_{theta,varphi} = exp{ i theta (a_i a*_{i+1} e^{-i varphi} + h.c.) }
    P_phi            = exp{ i phi a*_i a_i }          (phase on the lower mode)

i.e. the phase shift acts first, on mode i.  Each gate may carry a loss
channel of strength ``loss_gamma`` (probability that a single photon in the
designated output mode is absorbed) attached to one of its two output modes.

Circuits are brickwork-layered: within a layer no mode is touched twice, so
gates of one layer commute and can be applied in any order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .errors import UnsupportedConfigurationError, _integral

__all__ = [
    "GateParams",
    "Gate",
    "Circuit",
    "build_brickwork",
    "with_uniform_loss",
    "gate_tensor",
    "gate_blocks",
    "single_photon_block",
    "transfer_matrix",
    "circuit_to_mode_unitary",
    "kraus_set",
    "save_circuit",
    "load_circuit",
]


@dataclass(frozen=True)
class GateParams:
    """Angles of a composite two-mode gate (all in radians).

    theta:  beamsplitter mixing angle
    varphi: beamsplitter phase
    phi:    phase-shift angle applied to the lower mode before the splitter
    """

    theta: float
    varphi: float
    phi: float

    def __post_init__(self):
        for name in ("theta", "varphi", "phi"):
            value = getattr(self, name)
            if type(value) is not float:  # np.float64, a float subclass, too
                value = float(value)
                object.__setattr__(self, name, value)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class Gate:
    """A two-mode gate on adjacent modes, optionally followed by loss.

    ``lossy_mode`` selects which output mode of the pair carries the loss
    channel: 0 for the lower index, 1 for the upper index.
    """

    modes: tuple[int, int]
    params: GateParams
    loss_gamma: float = 0.0
    lossy_mode: int = 1

    def __post_init__(self):
        modes = self.modes
        # values that are not exactly a tuple of two ints are checked and
        # coerced: np.int64, bool and integral floats become int
        if (
            type(modes) is not tuple or len(modes) != 2
            or type(modes[0]) is not int or type(modes[1]) is not int
        ):
            modes = tuple(modes)
            if len(modes) != 2:
                raise ValueError(f"a gate acts on two modes, got {self.modes!r}")
            modes = (_integral(modes[0], "a mode"), _integral(modes[1], "a mode"))
            object.__setattr__(self, "modes", modes)
        i, j = modes
        if j != i + 1 or i < 0:
            raise ValueError(f"gate modes must be adjacent (i, i+1), got {modes}")
        if type(self.loss_gamma) is not float:
            object.__setattr__(self, "loss_gamma", float(self.loss_gamma))
        if not (0.0 <= self.loss_gamma < 1.0):
            raise ValueError(f"loss_gamma must lie in [0, 1), got {self.loss_gamma}")
        if type(self.lossy_mode) is not int:
            object.__setattr__(self, "lossy_mode", _integral(self.lossy_mode, "lossy_mode"))
        if self.lossy_mode not in (0, 1):
            raise ValueError(f"lossy_mode must be 0 or 1, got {self.lossy_mode}")

    @property
    def loss_site(self) -> int:
        """Absolute index of the mode carrying this gate's loss channel."""
        return self.modes[self.lossy_mode]


@dataclass(frozen=True)
class Circuit:
    """A layered interferometer on ``num_modes`` optical modes."""

    num_modes: int
    layers: tuple[tuple[Gate, ...], ...]

    def __post_init__(self):
        if type(self.num_modes) is not int:
            object.__setattr__(self, "num_modes", _integral(self.num_modes, "num_modes"))
        if self.num_modes < 2:
            raise ValueError(f"need at least 2 modes, got {self.num_modes}")
        layers = tuple(tuple(layer) for layer in self.layers)
        for index, layer in enumerate(layers):
            seen: set[int] = set()
            for k, gate in enumerate(layer):
                i, j = gate.modes
                if j >= self.num_modes:
                    raise ValueError(
                        f"layer {index}, gate {k}: modes {gate.modes} exceed num_modes={self.num_modes}"
                    )
                if i in seen or j in seen:
                    raise ValueError(f"layer {index}, gate {k}: modes {gate.modes} overlap another gate")
                seen.add(i)
                seen.add(j)
        object.__setattr__(self, "layers", layers)

    def gates(self) -> Iterator[Gate]:
        for layer in self.layers:
            yield from layer

    @property
    def num_gates(self) -> int:
        return sum(len(layer) for layer in self.layers)

    @property
    def num_lossy_gates(self) -> int:
        return sum(1 for g in self.gates() if g.loss_gamma > 0.0)

    @property
    def max_loss_gamma(self) -> float:
        return max((g.loss_gamma for g in self.gates()), default=0.0)

    @property
    def is_lossless(self) -> bool:
        return all(g.loss_gamma == 0.0 for g in self.gates())

    def require_lossless(self, what: str) -> None:
        """Raise UnsupportedConfigurationError, naming ``what`` and the first
        lossy gate, unless the circuit is lossless."""
        for index, gate in enumerate(self.gates()):
            if gate.loss_gamma != 0.0:
                raise UnsupportedConfigurationError(
                    f"{what} handles lossless circuits only; gate {index} "
                    f"(modes {gate.modes}) has loss {gate.loss_gamma}"
                )

    def to_dict(self) -> dict:
        return {
            "num_modes": self.num_modes,
            "layers": [
                [
                    {
                        "modes": list(g.modes),
                        "theta": g.params.theta,
                        "varphi": g.params.varphi,
                        "phi": g.params.phi,
                        "loss_gamma": g.loss_gamma,
                        "lossy_mode": g.lossy_mode,
                    }
                    for g in layer
                ]
                for layer in self.layers
            ],
        }

    @staticmethod
    def from_dict(data: dict) -> "Circuit":
        """The circuit of a :meth:`to_dict` mapping, as read from JSON.  Values
        go to :class:`Gate` and :class:`GateParams` as they are, which refuse
        a malformed one; ValueError names its layer and gate."""
        layers = []
        for index, records in enumerate(data["layers"]):
            layer = []
            for k, g in enumerate(records):
                try:
                    params = GateParams(g["theta"], g["varphi"], g["phi"])
                    layer.append(Gate(tuple(g["modes"]), params, g.get("loss_gamma", 0.0), g.get("lossy_mode", 1)))
                except KeyError as exc:
                    raise ValueError(f"layer {index}, gate {k}: no {exc} entry") from None
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"layer {index}, gate {k}: {exc}") from None
            layers.append(tuple(layer))
        return Circuit(num_modes=data["num_modes"], layers=tuple(layers))


def _layer_pairs(num_modes: int, offset: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(offset, num_modes - 1, 2)]


def build_brickwork(
    num_modes: int,
    depth: int,
    angles: Sequence[tuple[float, float, float]] | None = None,
    seed: int | np.random.Generator | None = None,
) -> Circuit:
    """Build a brickwork circuit of ``depth`` layers.

    Odd layers (the first, third, ...) place gates on (0,1), (2,3), ...;
    even layers on (1,2), (3,4), ....  Angles are either taken verbatim from
    ``angles`` (one (theta, varphi, phi) triple per gate, in layer order) or
    drawn from a seeded stream: theta uniform on [0, pi/2), varphi and phi
    uniform on [0, 2*pi).  All gates come out lossless.

    The stream is drawn in one (gates, 3) call, which gives the same angles
    as three scalar ``uniform`` calls per gate and leaves a passed
    Generator in the same state.
    """
    if num_modes < 2:
        raise ValueError(f"need at least 2 modes, got {num_modes}")
    if depth < 1:
        raise ValueError(f"depth must be positive, got {depth}")
    if angles is not None and seed is not None:
        raise ValueError("pass angles or seed, not both: a seed draws the angles")

    pair_lists = [_layer_pairs(num_modes, layer % 2) for layer in range(depth)]
    total = sum(len(p) for p in pair_lists)

    if angles is not None:
        if len(angles) != total:
            raise ValueError(
                f"expected {total} angle triples for this layout, got {len(angles)}"
            )
        triples = [tuple(float(x) for x in t) for t in angles]
    else:
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        triples = rng.uniform((0.0, 0.0, 0.0), (np.pi / 2, 2 * np.pi, 2 * np.pi), size=(total, 3)).tolist()

    it = iter(triples)
    layers = tuple(
        tuple(Gate(modes=pair, params=GateParams(*next(it))) for pair in pairs)
        for pairs in pair_lists
    )
    return Circuit(num_modes=num_modes, layers=layers)


def with_uniform_loss(circuit: Circuit, gamma: float) -> Circuit:
    """Attach the same loss ``gamma`` to every gate, on its upper output mode."""
    if not (0.0 <= gamma < 1.0):
        raise ValueError(f"gamma must lie in [0, 1), got {gamma}")
    layers = tuple(
        tuple(replace(g, loss_gamma=float(gamma), lossy_mode=1) for g in layer)
        for layer in circuit.layers
    )
    return Circuit(num_modes=circuit.num_modes, layers=layers)


@lru_cache(maxsize=32)
def _hopping_eigensystems(local_cutoff: int) -> tuple:
    """Per photon-number total of a pair: the lower mode's occupations m and
    the eigensystem of the real tridiagonal H0 with H0[m-1, m] = H0[m, m-1]
    = sqrt(m (total - m + 1)), the block of a_i a*_{i+1} + h.c."""
    systems = []
    for total in range(2 * local_cutoff + 1):
        occ = np.arange(max(0, total - local_cutoff), min(total, local_cutoff) + 1)
        amp = np.sqrt(occ[1:] * (total - occ[1:] + 1.0))
        evals, evecs = np.linalg.eigh(np.diag(amp, 1) + np.diag(amp, -1))
        for array in (occ, evals, evecs):
            array.flags.writeable = False
        systems.append((total, occ, evals, evecs))
    return tuple(systems)


# holds every gate of a depth-64 brickwork (2016 gates), so that repeated
# evaluations of one circuit reuse its gates; an entry is about 21 d^3 bytes,
# the blocks of fixed total and their adjoints, none larger than d x d
@lru_cache(maxsize=2048)
def _gate_unitary_cached(theta: float, varphi: float, phi: float, local_cutoff: int):
    # checked here, for every gate function: a raised call is not cached
    local_cutoff = _integral(local_cutoff, "local_cutoff", 1)
    blocks, adjoints = [], []
    for total, occ, evals, evecs in _hopping_eigensystems(local_cutoff):
        # the block Hamiltonian is D H0 D^dag with D = diag(e^{i varphi m}),
        # so exp(i theta H) = D V e^{i theta Lambda} V^T D^dag; the phase
        # shift acts first and multiplies the column of input occupation m
        block = (evecs * np.exp(1j * theta * evals)) @ evecs.T
        block *= np.multiply.outer(np.exp(1j * varphi * occ), np.exp(1j * (phi - varphi) * occ))
        adjoint = np.ascontiguousarray(block.conj().T)
        block.flags.writeable = adjoint.flags.writeable = False
        blocks.append(block)
        adjoints.append(adjoint)
    return tuple(blocks), tuple(adjoints)


def gate_blocks(params: GateParams, local_cutoff: int, adjoint: bool = False) -> tuple:
    """The composite gate on the truncated two-mode Fock space, as its blocks
    of fixed photon-number total, indexed by the total T: entry [j, k] of
    block T maps lower-mode occupation ``m_k`` to ``m_j``, where m runs up
    from max(0, T - local_cutoff) and the upper mode holds T - m.  With
    ``adjoint`` the blocks of the conjugate-transposed gate.

    The generator conserves total photon number, so each block is
    exponentiated exactly (by Hermitian eigendecomposition); blocks whose
    total exceeds ``local_cutoff`` are exponentiated on their surviving basis
    states, which keeps the gate unitary on the truncated space.  Read-only
    and cached: the one stored form of a gate."""
    return _gate_unitary_cached(params.theta, params.varphi, params.phi, local_cutoff)[adjoint]


def gate_tensor(params: GateParams, local_cutoff: int) -> np.ndarray:
    """The dense gate, with axes (out_i, out_{i+1}, in_i, in_{i+1}) of
    dimension d = local_cutoff + 1, laid out from :func:`gate_blocks` anew
    on each call; ``reshape(d * d, d * d)`` gives its matrix on the basis
    index ``n_i * d + n_{i+1}`` (the lower mode of the pair is the slow
    index)."""
    d = local_cutoff + 1
    blocks = gate_blocks(params, local_cutoff)
    tensor = np.zeros((d, d, d, d), dtype=np.complex128)
    for (total, occ, _, _), block in zip(_hopping_eigensystems(local_cutoff), blocks):
        out, into = occ[:, None], occ[None, :]
        tensor[out, total - out, into, total - into] = block
    return tensor


def _blocks(theta, varphi, phi) -> np.ndarray:
    """(L, 2, 2) single-photon blocks of L gates from their angle arrays."""
    c, s = np.cos(theta), np.sin(theta)
    e, f = np.exp(1j * varphi), np.exp(1j * phi)
    blocks = np.empty((len(theta), 2, 2), dtype=np.complex128)
    blocks[:, 0, 0] = c * f
    blocks[:, 0, 1] = 1j * s * e
    blocks[:, 1, 0] = 1j * s * e.conj() * f
    blocks[:, 1, 1] = c
    return blocks


def single_photon_block(params: GateParams) -> np.ndarray:
    """2x2 action of the gate on a single photon in the pair (lower, upper):
    the splitter [[c, i s e^{i varphi}], [i s e^{-i varphi}, c]] times
    diag(e^{i phi}, 1)."""
    return _blocks(*np.array([[params.theta], [params.varphi], [params.phi]]))[0]


def transfer_matrix(circuit: Circuit) -> np.ndarray:
    """Compile a circuit to its M x M single-photon transfer matrix u: u[i, k]
    is the amplitude for a photon injected in mode k to exit in mode i.  A
    lossy gate's block has its loss site's row scaled by sqrt(1 - gamma), so
    u is unitary on a lossless circuit and a contraction on a lossy one.

    One pass over the gates reads each one's angles, loss, lossy mode and
    lower mode into a table; then all blocks are built at once and each
    layer is one batched 2x2 update of its rows."""
    table = np.array(
        [
            (g.params.theta, g.params.varphi, g.params.phi, g.loss_gamma, g.lossy_mode, g.modes[0])
            for g in circuit.gates()
        ],
        dtype=float,
    ).reshape(-1, 6)
    blocks = _blocks(*table[:, :3].T)
    survival = np.sqrt(1.0 - table[:, 3])
    blocks[np.arange(len(table)), table[:, 4].astype(int)] *= survival[:, None]
    pairs = table[:, 5].astype(int)[:, None] + np.arange(2)
    ends = np.cumsum([len(layer) for layer in circuit.layers])[:-1]
    u = np.eye(circuit.num_modes, dtype=np.complex128)
    for layer_blocks, rows in zip(np.split(blocks, ends), np.split(pairs, ends)):
        u[rows] = layer_blocks @ u[rows]  # a layer's pairs are disjoint
    return u


def circuit_to_mode_unitary(circuit: Circuit) -> np.ndarray:
    """The :func:`transfer_matrix` of a lossless circuit, a unitary.  Raises
    for lossy circuits, which have no mode unitary."""
    circuit.require_lossless("the mode unitary")
    return transfer_matrix(circuit)


def kraus_set(gamma: float, local_cutoff: int) -> tuple[np.ndarray, ...]:
    """Kraus operators of the single-mode loss channel of strength ``gamma``,
    in closed form: K_mu |n> = sqrt(C(n, mu) gamma^mu (1 - gamma)^(n - mu))
    |n - mu>, mu = 0..local_cutoff, so each K_mu lowers the photon number by
    exactly mu and sum_mu K_mu^dag K_mu = 1 on the truncated space.  Real
    square arrays of side local_cutoff + 1, built on each call."""
    if not (0.0 <= gamma < 1.0):
        raise ValueError(f"gamma must lie in [0, 1), got {gamma}")
    d = _integral(local_cutoff, "local_cutoff", 1) + 1
    return tuple(
        np.diag([math.sqrt(math.comb(n, mu) * gamma**mu * (1.0 - gamma) ** (n - mu)) for n in range(mu, d)], mu)
        for mu in range(d)
    )


def save_circuit(circuit: Circuit, path, seed: int | None = None) -> None:
    """Write the JSON circuit format; ``seed`` is recorded in the header if given.

    The file is one line of JSON and a newline, written at once by the C
    encoder (``json.dump`` never uses it): the keys and float reprs of the
    earlier indented files, which :func:`load_circuit` still reads."""
    payload: dict = {}
    if seed is not None:
        payload["seed"] = int(seed)
    payload.update(circuit.to_dict())
    text = json.dumps(payload) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def load_circuit(path) -> Circuit:
    with open(path) as fh:
        return Circuit.from_dict(json.load(fh))
