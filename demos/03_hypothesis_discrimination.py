"""Score collapse hypotheses against the unitary model's statistics.

Each hypothesis predicts an exact density operator for the four-photon
final state.  A correlation-inequality search over joint wing
measurements then asks two questions.  Can the hypothesis beat the
local-deterministic bound of 2 at all?  And does it reproduce the value
the fully unitary model attains at the shared optimal settings?  Next to
S, each hypothesis shows the largest entry by which any single-photon or
wing density differs from the unitary one: the local states cannot tell
the readings apart, only the joint correlation can.

The collapse-probability sweep is checked against its closed form
s_max(p) = sqrt2 (p^2 - 2p + 2); the demo exits non-zero if a point is
off by more than 1e-12.
"""

import math
import sys

import numpy as np

from wfsim import (
    FRIEND_DEPHASING,
    FRIEND_PROJECTIVE,
    SUBJECTIVE_COLLAPSE,
    UNITARY_ONLY,
    chsh_value,
    exact_optimum,
    hypothesis_comparison,
    local_deterministic_bound,
    partial_trace,
    proietti_scenario,
)

GRID = math.pi / 16  # grid cross-check of the exact optimum; pi/64 shrinks the gap
CLOSED_FORM_TOL = 1e-12


def closed_form_s_max(p):
    """The exact optimum of stochastic_collapse(p): sqrt2 (p^2 - 2p + 2)."""
    return math.sqrt(2.0) * (p * p - 2.0 * p + 2.0)


def local_deviation(scenario, hypothesis):
    """The largest entry difference between the hypothesis's and unitary_only's reduced
    densities over every single photon and each wing."""
    rho = scenario.exact_state_under(hypothesis)
    unitary = scenario.exact_state_under(UNITARY_ONLY)
    keeps = [(label,) for label in unitary.space.labels]
    keeps += [tuple(scenario.alice_labels), tuple(scenario.bob_labels)]
    return max(
        float(np.max(np.abs(partial_trace(rho, keep).matrix - partial_trace(unitary, keep).matrix)))
        for keep in keeps
    )


def main():
    scenario = proietti_scenario()
    hypotheses = [
        UNITARY_ONLY,
        FRIEND_PROJECTIVE,
        FRIEND_DEPHASING,
        SUBJECTIVE_COLLAPSE,
        "stochastic_collapse(p=0.5)",
    ]
    results = hypothesis_comparison(scenario, hypotheses, grid_step=GRID)

    print(f"local-deterministic bound: {local_deterministic_bound()}")
    print("(local dev: largest change of any single-photon or wing density from unitary_only)")
    print(
        f"{'hypothesis':<28}{'own s_max':>12}{'grid gap':>12}"
        f"{'S at shared':>14}{'local dev':>12}{'consistent':>12}"
    )
    for res in results:
        name = res.hypothesis.name if res.hypothesis else "?"
        flag = "yes" if res.consistent_with_data else "no"
        print(
            f"{name:<28}{res.s_max:>12.6f}{res.grid_gap:>12.2e}"
            f"{res.s_value:>14.6f}{local_deviation(scenario, res.hypothesis):>12.1e}{flag:>12}"
        )

    # sweep the per-side collapse probability: the attainable maximum
    # slides from 2*sqrt(2) down to sqrt(2) as collapse turns on; the
    # grid search never beats the exact optimum
    labels = (scenario.alice_labels, scenario.bob_labels)
    print("\ncollapse probability sweep (own optimum per point):")
    worst = 0.0
    sweep = [f"stochastic_collapse(p={p})" for p in np.linspace(0.0, 1.0, 5)]
    for res in hypothesis_comparison(scenario, sweep, grid_step=GRID):
        p, s_max = res.hypothesis.probability, res.s_max
        above = "violates" if s_max > 2.0 + 1e-9 else "classical"
        print(f"  p = {p:.2f}  s_max = {s_max:.6f}  grid gap = {res.grid_gap:.2e}  ({above})")
        closed = closed_form_s_max(p)
        worst = max(worst, abs(s_max - closed))
        print(f"            closed form sqrt2 (p^2 - 2p + 2) = {closed:.6f}  off by {abs(s_max - closed):.1e}")
    p_star = 1.0 - math.sqrt(math.sqrt(2.0) - 1.0)
    print(f"  the violation vanishes at p* = 1 - sqrt(sqrt2 - 1) = {p_star:.6f}")
    if not worst <= CLOSED_FORM_TOL:
        sys.exit(f"sweep is off its closed form by {worst:.3e} > {CLOSED_FORM_TOL:g}")

    # the angles behind the unitary optimum, for the curious
    settings, s_max = exact_optimum(scenario.exact_state_under(UNITARY_ONLY), *labels)
    print(f"\nunitary optimum {s_max:.9f} at")
    print("  alice (theta, phi):", [tuple(round(v, 6) for v in a) for a in settings.alice_angles])
    print("  bob   (theta, phi):", [tuple(round(v, 6) for v in b) for b in settings.bob_angles])
    check = chsh_value(scenario.exact_state_under(UNITARY_ONLY), settings)
    print("  re-evaluated at those settings:", round(check.s_value, 9))


if __name__ == "__main__":
    main()
