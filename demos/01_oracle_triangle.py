"""Four independent routes to the same outcome probability.

A squeezed-vacuum state enters a random 4-mode brickwork interferometer and
we ask for the probability of detecting a specific photon pattern.  The
number is computed by

  1. forward tensor-train evolution of the input state's part with the
     outcome's photon total,
  2. backward tensor-train evolution of the outcome state,
  3. brute-force dense Fock-space evolution,
  4. the closed-form Gaussian covariance / hafnian formula,

and the four answers agree to machine precision.
"""

from gbstn import (
    build_brickwork,
    circuit_to_mode_unitary,
    dense_evolve_state,
    dense_probability,
    dense_squeezed_vacuum,
    dmax_bipartite,
    dmax_fbs,
    gbs_probability,
    heisenberg_probability_lossless,
    propagate,
    schrodinger_probability,
    squeezed_vacuum_cov,
)

MODES, DEPTH, SEED = 4, 4, 7
R, CUTOFF = 0.4, 8

circuit = build_brickwork(MODES, DEPTH, seed=SEED)
print(f"brickwork circuit: {MODES} modes, {DEPTH} layers, {circuit.num_gates} gates")

# dense and Gaussian references are computed once per circuit
state = dense_evolve_state(dense_squeezed_vacuum(R, MODES, CUTOFF), circuit)
gaussian = propagate(squeezed_vacuum_cov(R, MODES), circuit_to_mode_unitary(circuit))

print(f"{'outcome':>12} {'heisenberg':>14} {'schrodinger':>14} {'dense':>14} {'gaussian':>14}")
for outcome in [(0, 0, 0, 0), (1, 1, 0, 0), (2, 0, 0, 0), (1, 0, 1, 0), (1, 1, 1, 1), (2, 2, 0, 0)]:
    p_h, stats = heisenberg_probability_lossless(circuit, outcome, R, CUTOFF)
    p_s, _ = schrodinger_probability(circuit, outcome, R)
    p_d = dense_probability(state, outcome)
    p_g = gbs_probability(gaussian, outcome)
    print(f"{str(outcome):>12} {p_h:14.10f} {p_s:14.10f} {p_d:14.10f} {p_g:14.10f}")
    assert max(p_h, p_s, p_d, p_g) - min(p_h, p_s, p_d, p_g) < 1e-10

print("\nNote the asymmetry of the two tensor-network routes: evolving the")
print("outcome backward touches only the arrangements of its own photons,")
print("while evolving the input forward carries every arrangement of the same")
print("photon total over the modes.  At four modes the two ceilings are close,")
print("but only the state-side one grows with the mode count.")
outcome = (2, 1, 1, 0)
p, stats_h = heisenberg_probability_lossless(circuit, outcome, R, CUTOFF)
_, stats_s = schrodinger_probability(circuit, outcome, R)
print(f"max bond, outcome-side evolution of {outcome}: {stats_h.max_bond_seen} "
      f"(ceiling {dmax_fbs(outcome)})")
print(f"max bond, state-side evolution of its 4 photons: {stats_s.max_bond_seen} "
      f"(ceiling {dmax_bipartite(MODES // 2, MODES // 2, 4)})")
