"""Photon-gain statistics, cutoff selection, and bond-dimension bounds.

The loss channels of a circuit act, in the Heisenberg picture, as photon
sources: the chance of x extra photons from Q sources of strength gamma is
modelled as a binomial, and combining it with the pair distribution of the
squeezed input yields the spillover bound Delta_gamma used to pick the local
dimension cutoff.  The bond-dimension estimators count independent operator
components across a bipartition.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass
from itertools import combinations

from .errors import NumericalFailureError, UnsupportedConfigurationError, _integral, check_outcome
from .fockdense import squeeze_values
from .gauss import photon_pair_distribution

__all__ = [
    "CutoffPolicy",
    "pi_gamma",
    "delta_gamma",
    "choose_cutoff",
    "recommended_cutoff",
    "dmax_fbs",
    "dmax_gbs",
    "dmax_bipartite",
    "dmax_closed_form",
    "mode_of_distribution",
    "outcomes_with_total",
    "scaling_rows",
    "write_scaling_report",
]


@dataclass(frozen=True)
class CutoffPolicy:
    """Inputs of the cutoff criterion Delta_gamma(n_c) < epsilon."""

    gamma: float
    num_sources: int
    num_modes: int
    r: float
    n_tilde: int
    epsilon: float = 1e-6

    def __post_init__(self):
        if not (0.0 < self.epsilon < math.inf):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not math.isfinite(self.r):
            raise ValueError(f"r must be finite, got {self.r}")
        if not (0.0 <= self.gamma < 1.0):
            raise ValueError(f"gamma must lie in [0, 1), got {self.gamma}")
        for name, least in (("num_modes", 1), ("num_sources", 0), ("n_tilde", 0)):
            object.__setattr__(self, name, _integral(getattr(self, name), name, least))


def pi_gamma(num_sources: int, gamma: float, photons: int) -> float:
    """Binomial chance of ``photons`` emissions from ``num_sources`` sources of rate gamma."""
    if photons < 0 or photons > num_sources:
        return 0.0
    return (
        math.comb(num_sources, photons)
        * gamma**photons
        * (1.0 - gamma) ** (num_sources - photons)
    )


def _total_photon_probability(num_modes: int, r: float, total: int) -> float:
    if total % 2 != 0:
        return 0.0
    return photon_pair_distribution(num_modes, r, total // 2)


def delta_gamma(policy: CutoffPolicy, n_tilde: int | None = None) -> float:
    """Spillover bound: sum_{x>0} pi_gamma(x) P_M^r(n_tilde + x)."""
    n = policy.n_tilde if n_tilde is None else _integral(n_tilde, "n_tilde", 0)
    total = 0.0
    for x in range(1, policy.num_sources + 1):
        total += pi_gamma(policy.num_sources, policy.gamma, x) * _total_photon_probability(
            policy.num_modes, policy.r, n + x
        )
    return total


def choose_cutoff(policy: CutoffPolicy) -> tuple[int, float]:
    """Smallest n >= n_tilde with Delta_gamma(n) < epsilon, plus the achieved value.

    Terminates because the pair distribution decays exponentially in the
    photon total.
    """
    n = policy.n_tilde
    while True:
        achieved = delta_gamma(policy, n)
        if achieved < policy.epsilon:
            return n, achieved
        n += 1
        if n > policy.n_tilde + 100_000:
            raise NumericalFailureError("cutoff search failed to converge")


def recommended_cutoff(
    circuit, r, n_tilde: int, epsilon: float = CutoffPolicy.epsilon
) -> int | None:
    """The local cutoff n_c for outcomes of ``n_tilde`` photons: the one rule
    the command-line front end applies.

    On a lossless circuit it is ``n_tilde`` (at least 1), which is exact
    because the gates conserve photon number.  On a lossy circuit it is
    :func:`choose_cutoff` for the circuit's loss and an input squeezing
    ``r``, the strongest gate loss standing for every lossy gate.  Returns
    None where the closed-form pair distribution does not apply: an odd mode
    count or squeezing that differs between modes.
    """
    if circuit.is_lossless:
        return max(n_tilde, 1)
    values = squeeze_values(r, circuit.num_modes)
    if circuit.num_modes % 2 != 0 or values.max() > values.min():
        return None
    policy = CutoffPolicy(
        gamma=circuit.max_loss_gamma,
        num_sources=circuit.num_lossy_gates,
        num_modes=circuit.num_modes,
        r=float(values[0]),
        n_tilde=n_tilde,
        epsilon=epsilon,
    )
    return max(choose_cutoff(policy)[0], 1)


def dmax_fbs(outcome) -> int:
    """Bond bound prod_k (n_k + 1) for evolving the outcome state; <= 2^total."""
    return math.prod(n + 1 for n in check_outcome(outcome))


def dmax_gbs(local_cutoff: int, num_modes: int) -> int:
    """The paper's estimate n_c^(M/2) of the bond of the squeezed input
    evolved forward; not a ceiling: the unprojected input's bond measures
    (n_c + 1)^(M/2)."""
    if num_modes % 2 != 0:
        raise UnsupportedConfigurationError(
            f"the closed-form state-side bound needs an even mode count, got {num_modes}"
        )
    return _integral(local_cutoff, "local_cutoff", 1) ** (num_modes // 2)


def dmax_bipartite(m_left: int, m_right: int, total_photons: int) -> int:
    """Component count across a bipartition of a fixed-photon-number state.

    D = sum_k min{ C(m_L - 1 + k, k), C(m_R - 1 + (N - k), N - k) }.
    """
    if m_left < 1 or m_right < 1:
        raise ValueError("both partitions need at least one mode")
    n = _integral(total_photons, "total_photons", 0)
    return sum(
        min(math.comb(m_left - 1 + k, k), math.comb(m_right - 1 + (n - k), n - k))
        for k in range(n + 1)
    )


def dmax_closed_form(num_modes: int, total_photons: int) -> int:
    """Closed form of :func:`dmax_bipartite` for the symmetric even-M split."""
    if num_modes % 2 != 0 or num_modes < 2:
        raise UnsupportedConfigurationError(
            f"the closed form needs an even mode count, got {num_modes}"
        )
    half = num_modes // 2
    n = _integral(total_photons, "total_photons", 0)
    if n % 2 == 0:
        return 2 * sum(math.comb(half - 1 + k, k) for k in range(n // 2)) + math.comb(
            half + n // 2 - 1, n // 2
        )
    return 2 * sum(math.comb(half - 1 + k, k) for k in range((n - 1) // 2 + 1))


def mode_of_distribution(num_modes: int, r: float) -> int:
    """Most probable photon total, 2 (M/2 - 1) sinh^2(r), rounded to the nearest even integer."""
    if num_modes % 2 != 0 or num_modes < 4:
        raise UnsupportedConfigurationError(
            f"the mode formula needs an even mode count >= 4, got {num_modes}"
        )
    value = 2.0 * (num_modes / 2.0 - 1.0) * math.sinh(r) ** 2
    return 2 * round(value / 2.0)


def outcomes_with_total(num_modes: int, total: int):
    """Yield every photon-count configuration of ``num_modes`` modes summing to ``total``."""
    if total == 0:
        yield (0,) * num_modes
        return
    # stars and bars: bar positions inside total + M - 1 slots
    for bars in combinations(range(total + num_modes - 1), num_modes - 1):
        counts = []
        prev = -1
        for b in bars:
            counts.append(b - prev - 1)
            prev = b
        counts.append(total + num_modes - 2 - prev)
        yield tuple(counts)


def scaling_rows(mode_counts, squeezings) -> list[dict]:
    """Heisenberg-vs-Schrodinger bond-bound grid at the modal photon number.

    For each (M, r): n = mode of the pair distribution, D_H = 2^n (all photons
    in distinct ports), D_S = n^(M/2).  Rows with the modal total outside the
    validity window 1 < n < M are flagged instead of omitted.  Raises
    ValueError, before computing it, on a bound with more digits than
    ``sys.get_int_max_str_digits()`` lets Python print.
    """
    limit = sys.get_int_max_str_digits()
    rows = []
    for m in mode_counts:
        for r in squeezings:
            n = mode_of_distribution(m, r)
            digits = math.floor(max(n * math.log10(2), m // 2 * math.log10(max(n, 1)))) + 1
            if limit and digits > limit:
                raise ValueError(
                    f"the bond bounds at M = {m}, r = {r} have about {digits} digits, "
                    f"above the {limit}-digit limit for printing an integer"
                )
            rows.append(
                {
                    "M": int(m),
                    "r": float(r),
                    "n_mode": n,
                    "D_heisenberg": 2**n,
                    "D_schrodinger": n ** (m // 2),
                    "out_of_regime": not (1 < n < m),
                }
            )
    return rows


def write_scaling_report(fileobj, mode_counts, squeezings) -> list[dict]:
    """Write :func:`scaling_rows` as CSV; returns the rows."""
    rows = scaling_rows(mode_counts, squeezings)
    writer = csv.DictWriter(
        fileobj,
        fieldnames=["M", "r", "n_mode", "D_heisenberg", "D_schrodinger", "out_of_regime"],
    )
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return rows
