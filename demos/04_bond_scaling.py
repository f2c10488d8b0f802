"""Why evolving the outcome beats evolving the state: bond-dimension scaling.

The cost driver of a tensor-train simulation is the bond dimension.  Evolving
an outcome with n photons backward needs at most prod_k (n_k + 1) <= 2^n,
independent of the mode count; evolving the squeezed input forward can reach
n_c^(M/2) (the paper's estimate).  Evaluated at the most likely photon total,
the gap grows exponentially with the number of modes.  Measured bonds on small
instances sit below their analytic ceilings: the state side here evolves only
the input's part with the outcome's photon total, whose ceiling is the
fixed-photon-number count dmax_bipartite across the middle cut; at M = 16,
N = 8 it reaches that count, dmax_closed_form = 660.
"""

from gbstn import (
    build_brickwork,
    dmax_bipartite,
    dmax_closed_form,
    dmax_fbs,
    heisenberg_probability_lossless,
    scaling_rows,
    schrodinger_probability,
)

print("analytic comparison at the modal photon number (flagged = outside regime):")
print(f"{'M':>4} {'r':>5} {'n':>4} {'D_heisenberg':>14} {'D_schrodinger':>16}")
for row in scaling_rows(range(6, 31, 4), [0.5]):
    flag = "  (out of regime)" if row["out_of_regime"] else ""
    print(
        f"{row['M']:>4} {row['r']:>5.2f} {row['n_mode']:>4} "
        f"{row['D_heisenberg']:>14} {row['D_schrodinger']:>16.3e}{flag}"
    )

print("\nmeasured bonds on a 4-mode instance (cutoff 8):")
circuit = build_brickwork(4, 4, seed=7)
print(f"{'outcome':>14} {'measured':>9} {'bound prod(n_k+1)':>18}")
for outcome in [(1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 1), (2, 2, 0, 0), (4, 0, 0, 0)]:
    _, stats = heisenberg_probability_lossless(circuit, outcome, 0.4, 8)
    print(f"{str(outcome):>14} {stats.max_bond_seen:>9} {dmax_fbs(outcome):>18}")

_, stats = schrodinger_probability(circuit, (1, 1, 0, 0), 0.4)
print(f"\nstate-side evolution of the input's 2-photon part on the same circuit: "
      f"max bond {stats.max_bond_seen} (ceiling dmax_bipartite {dmax_bipartite(2, 2, 2)})")

_, stats = schrodinger_probability(build_brickwork(16, 16, seed=1), (1,) * 8 + (0,) * 8, 0.4)
print(f"state-side evolution of the input's 8-photon part at M = 16 (depth 16): "
      f"max bond {stats.max_bond_seen} (ceiling dmax_closed_form {dmax_closed_form(16, 8)})")
