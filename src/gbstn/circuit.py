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

from .errors import UnsupportedConfigurationError

__all__ = [
    "GateParams",
    "Gate",
    "Circuit",
    "build_brickwork",
    "with_uniform_loss",
    "gate_unitary_fock",
    "gate_tensor",
    "gate_blocks",
    "single_photon_block",
    "single_photon_blocks",
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
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)


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
        i, j = self.modes
        if j != i + 1 or i < 0:
            raise ValueError(f"gate modes must be adjacent (i, i+1), got {self.modes}")
        object.__setattr__(self, "modes", (int(i), int(j)))
        if not (0.0 <= self.loss_gamma < 1.0):
            raise ValueError(f"loss_gamma must lie in [0, 1), got {self.loss_gamma}")
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
        if self.num_modes < 2:
            raise ValueError(f"need at least 2 modes, got {self.num_modes}")
        layers = tuple(tuple(layer) for layer in self.layers)
        for layer in layers:
            seen: set[int] = set()
            for gate in layer:
                if gate.modes[1] >= self.num_modes:
                    raise ValueError(
                        f"gate on modes {gate.modes} exceeds num_modes={self.num_modes}"
                    )
                if seen & set(gate.modes):
                    raise ValueError(f"overlapping gates in one layer: mode {gate.modes}")
                seen.update(gate.modes)
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
        layers = tuple(
            tuple(
                Gate(
                    modes=(int(g["modes"][0]), int(g["modes"][1])),
                    params=GateParams(g["theta"], g["varphi"], g["phi"]),
                    loss_gamma=float(g.get("loss_gamma", 0.0)),
                    lossy_mode=int(g.get("lossy_mode", 1)),
                )
                for g in layer
            )
            for layer in data["layers"]
        )
        return Circuit(num_modes=int(data["num_modes"]), layers=layers)


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
    """
    if num_modes < 2:
        raise ValueError(f"need at least 2 modes, got {num_modes}")
    if depth < 1:
        raise ValueError(f"depth must be positive, got {depth}")

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
        triples = [
            (
                rng.uniform(0.0, np.pi / 2),
                rng.uniform(0.0, 2 * np.pi),
                rng.uniform(0.0, 2 * np.pi),
            )
            for _ in range(total)
        ]

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
# evaluations of one circuit reuse its gates; an entry is 16 d^4 bytes for
# the matrix and about 21 d^3 for the blocks of fixed total and their adjoints
@lru_cache(maxsize=2048)
def _gate_unitary_cached(theta: float, varphi: float, phi: float, local_cutoff: int):
    d = local_cutoff + 1
    tensor = np.zeros((d, d, d, d), dtype=np.complex128)
    blocks, adjoints = [], []
    for total, occ, evals, evecs in _hopping_eigensystems(local_cutoff):
        # the block Hamiltonian is D H0 D^dag with D = diag(e^{i varphi m}),
        # so exp(i theta H) = D V e^{i theta Lambda} V^T D^dag; the phase
        # shift acts first and multiplies the column of input occupation m
        block = (evecs * np.exp(1j * theta * evals)) @ evecs.T
        block *= np.multiply.outer(np.exp(1j * varphi * occ), np.exp(1j * (phi - varphi) * occ))
        out, into = occ[:, None], occ[None, :]
        tensor[out, total - out, into, total - into] = block
        adjoint = np.ascontiguousarray(block.conj().T)
        block.flags.writeable = adjoint.flags.writeable = False
        blocks.append(block)
        adjoints.append(adjoint)
    matrix = tensor.reshape(d * d, d * d)
    matrix.flags.writeable = False
    tensor.flags.writeable = False
    return matrix, tensor, (tuple(blocks), tuple(adjoints))


def gate_unitary_fock(params: GateParams, local_cutoff: int) -> np.ndarray:
    """Matrix of the composite gate on the truncated two-mode Fock space.

    The generator conserves total photon number, so each fixed-total block is
    exponentiated exactly (by Hermitian eigendecomposition); blocks whose
    total exceeds ``local_cutoff`` are exponentiated on their surviving basis
    states, which keeps the full matrix unitary on the truncated space.

    Returns a read-only (d*d, d*d) matrix with d = local_cutoff + 1 and basis
    index ``n_i * d + n_{i+1}`` (the lower mode of the pair is the slow index).
    """
    if local_cutoff < 1:
        raise ValueError(f"local_cutoff must be >= 1, got {local_cutoff}")
    return _gate_unitary_cached(params.theta, params.varphi, params.phi, local_cutoff)[0]


def gate_tensor(params: GateParams, local_cutoff: int) -> np.ndarray:
    """Rank-4 view of :func:`gate_unitary_fock` with axes (out_i, out_{i+1}, in_i, in_{i+1})."""
    if local_cutoff < 1:
        raise ValueError(f"local_cutoff must be >= 1, got {local_cutoff}")
    return _gate_unitary_cached(params.theta, params.varphi, params.phi, local_cutoff)[1]


def gate_blocks(params: GateParams, local_cutoff: int, adjoint: bool = False) -> tuple:
    """The gate's blocks of fixed photon-number total, indexed by the total T:
    entry [j, k] of block T maps lower-mode occupation ``m_k`` to ``m_j``,
    where m runs up from max(0, T - local_cutoff) and the upper mode holds
    T - m.  With ``adjoint`` the blocks of the conjugate-transposed gate.
    Read-only, from the same cache entry as :func:`gate_tensor`."""
    if local_cutoff < 1:
        raise ValueError(f"local_cutoff must be >= 1, got {local_cutoff}")
    return _gate_unitary_cached(params.theta, params.varphi, params.phi, local_cutoff)[2][adjoint]


def single_photon_blocks(params: Sequence[GateParams]) -> np.ndarray:
    """(L, 2, 2) stack of the gates' actions on a single photon in their pair
    (lower, upper): the splitter [[c, i s e^{i varphi}], [i s e^{-i varphi}, c]]
    times diag(e^{i phi}, 1)."""
    theta, varphi, phi = np.array(
        [(p.theta, p.varphi, p.phi) for p in params], dtype=float
    ).reshape(-1, 3).T
    c, s = np.cos(theta), np.sin(theta)
    e, f = np.exp(1j * varphi), np.exp(1j * phi)
    blocks = np.empty((len(theta), 2, 2), dtype=np.complex128)
    blocks[:, 0, 0] = c * f
    blocks[:, 0, 1] = 1j * s * e
    blocks[:, 1, 0] = 1j * s * e.conj() * f
    blocks[:, 1, 1] = c
    return blocks


def single_photon_block(params: GateParams) -> np.ndarray:
    """2x2 action of the gate on a single photon in the pair (lower, upper)."""
    return single_photon_blocks([params])[0]


def circuit_to_mode_unitary(circuit: Circuit) -> np.ndarray:
    """Compile a lossless circuit to its M x M single-photon transfer matrix.

    Entry u[i, k] is the amplitude for one photon injected in mode k to exit
    in mode i.  Raises for lossy circuits, which have no mode unitary.
    """
    for index, gate in enumerate(circuit.gates()):
        if gate.loss_gamma != 0.0:
            raise UnsupportedConfigurationError(
                f"circuit has loss on gate {index} (modes {gate.modes}); "
                "a mode unitary exists only for lossless circuits"
            )
    m = circuit.num_modes
    u = np.eye(m, dtype=np.complex128)
    for layer in circuit.layers:
        layer_u = np.eye(m, dtype=np.complex128)
        for gate in layer:
            i = gate.modes[0]
            layer_u[i : i + 2, i : i + 2] = single_photon_block(gate.params)
        u = layer_u @ u
    return u


@lru_cache(maxsize=128)
def _kraus_cached(gamma: float, local_cutoff: int):
    alpha = math.asin(math.sqrt(gamma))
    tensor = gate_tensor(GateParams(alpha, 0.0, 0.0), local_cutoff)
    ops = []
    for mu in range(local_cutoff + 1):
        k = np.ascontiguousarray(tensor[:, mu, :, 0])
        k.flags.writeable = False
        ops.append(k)
    return tuple(ops)


def kraus_set(gamma: float, local_cutoff: int) -> tuple[np.ndarray, ...]:
    """Kraus operators of the single-mode loss channel of strength ``gamma``.

    K_mu is read off the two-mode beamsplitter at angle alpha = arcsin(sqrt(gamma))
    coupling the mode to a vacuum ancilla: K_mu = <., mu| W |., 0>.  Each K_mu
    lowers the photon number by exactly mu, and sum_mu K_mu^dag K_mu = 1 on the
    truncated space.
    """
    if not (0.0 <= gamma < 1.0):
        raise ValueError(f"gamma must lie in [0, 1), got {gamma}")
    if local_cutoff < 1:
        raise ValueError(f"local_cutoff must be >= 1, got {local_cutoff}")
    return _kraus_cached(float(gamma), local_cutoff)


def save_circuit(circuit: Circuit, path, seed: int | None = None) -> None:
    """Write the JSON circuit format; ``seed`` is recorded in the header if given."""
    payload: dict = {}
    if seed is not None:
        payload["seed"] = int(seed)
    payload.update(circuit.to_dict())
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def load_circuit(path) -> Circuit:
    with open(path) as fh:
        return Circuit.from_dict(json.load(fh))
