"""Acceptance gate: one test per shipped guarantee, tolerances pinned.

Run with ``pytest -v tests/test_acceptance.py`` to get exactly one
pass/fail line per criterion.  Each test also prints a short summary
with the measured numbers; pytest shows it on failure (or with -s).
"""

import math
import subprocess
import sys
import time

import numpy as np
from scipy import stats

from wfsim import (
    CompositeSpace,
    DensityOperator,
    PointerCoupling,
    ProjectiveMeasurement,
    PureState,
    SUBJECTIVE_COLLAPSE,
    UNITARY_ONLY,
    bell_singlet,
    born_probabilities,
    coherence_norm,
    couple_pointer,
    counterexample_frequencies,
    counterexample_probability,
    counterexample_run,
    dephase,
    expected_final_state,
    improper_mixture,
    local_deterministic_bound,
    observable_from_bloch,
    optimize_settings,
    partial_trace,
    proietti_scenario,
    projective_collapse,
    purity,
    sample_inequality,
    source_state,
)
from wfsim.chsh import MeasurementSettings, chsh_value

from _oracles import brute_partial_trace, random_density, random_dims, random_pure

TSIRELSON = 2.0 * math.sqrt(2.0)

# Source amplitudes, derived by hand and frozen:
# cos(pi/8)/sqrt2 and sin(pi/8)/sqrt2.
COS_AMP = 0.6532814824381883
SIN_AMP = 0.2705980500730985


def _report(n: int, detail: str) -> None:
    print(f"criterion {n} PASS: {detail}")


def test_criterion_1_improper_mixture_signature():
    """Composite pure, reduced mixed, coherence 1 vs 0; under 1 ms warm."""

    def compute():
        system = PureState(
            CompositeSpace.qubits("s"), np.array([1.0, 1.0]) / math.sqrt(2)
        )
        coupled = couple_pointer(system, PointerCoupling("s", "p"))
        rho = coupled.density()
        return (
            purity(rho),
            purity(improper_mixture(coupled, ("s",))),
            coherence_norm(rho),
            coherence_norm(dephase(rho, ("s", "p"))),
        )

    compute()  # warm numpy dispatch
    best = math.inf
    for _ in range(5):
        started = time.perf_counter()
        composite, reduced, coherent, dephased = compute()
        best = min(best, time.perf_counter() - started)

    assert abs(composite - 1.0) <= 1e-10
    assert abs(reduced - 0.5) <= 1e-10
    assert abs(coherent - 1.0) <= 1e-10
    assert abs(dephased - 0.0) <= 1e-10
    assert best < 1e-3
    _report(
        1,
        f"purity {composite:.12f}/{reduced:.12f}, coherence "
        f"{coherent:.3f} vs {dephased:.3f}, best of 5 in {best * 1e6:.0f} us",
    )


def test_criterion_2_state_chain():
    """Source amplitudes, per-side herald norm 1/4, chain equals reference."""
    psi = source_state()
    assert abs(psi.amplitude("hv") - COS_AMP) <= 1e-12
    assert abs(psi.amplitude("vh") - COS_AMP) <= 1e-12
    assert abs(psi.amplitude("hh") - SIN_AMP) <= 1e-12
    assert abs(psi.amplitude("vv") + SIN_AMP) <= 1e-12

    scenario = proietti_scenario()
    raw_a = scenario.after_side_a.raw_state.squared_norm
    raw_b = scenario.final.raw_state.squared_norm
    assert abs(raw_a - 0.25) <= 1e-12
    assert abs(raw_b - 0.25) <= 1e-12

    deviation = float(
        np.max(np.abs(scenario.final.state.amplitudes - expected_final_state().amplitudes))
    )
    assert deviation <= 1e-12
    _report(
        2,
        f"raw norms {raw_a:.15f}/{raw_b:.15f}, chain vs direct reference "
        f"max deviation {deviation:.2e}",
    )


def test_criterion_3_inequality_discrimination():
    """Grid search at pi/64 separates the hypotheses; enumeration gives 2."""
    scenario = proietti_scenario()
    started = time.perf_counter()
    _, s_unitary = optimize_settings(
        scenario.exact_state_under(UNITARY_ONLY),
        grid_step=math.pi / 64,
        alice_labels=scenario.alice_labels,
        bob_labels=scenario.bob_labels,
    )
    _, s_dephased = optimize_settings(
        scenario.exact_state_under("friend_dephasing"),
        grid_step=math.pi / 64,
        alice_labels=scenario.alice_labels,
        bob_labels=scenario.bob_labels,
    )
    elapsed = time.perf_counter() - started

    assert s_unitary > 2.0
    assert s_dephased <= 2.0 + 1e-6
    assert local_deterministic_bound() == 2.0
    assert elapsed < 60.0
    _report(
        3,
        f"s_max unitary {s_unitary:.9f} > 2, dephased {s_dephased:.9f} <= 2, "
        f"enumeration 2.0, search took {elapsed:.2f} s",
    )


def test_criterion_4_quantum_ceiling():
    """No exact evaluation exceeds 2*sqrt(2) + 1e-9 over 10^4 random cases."""
    rng = np.random.default_rng(404)
    space = CompositeSpace.qubits("e1", "e2")
    alice_space = space.subspace(("e1",))
    bob_space = space.subspace(("e2",))
    worst = 0.0
    for _ in range(10_000):
        psi = PureState(space, random_pure(rng, 4))
        settings = MeasurementSettings(
            alice=tuple(
                observable_from_bloch(
                    float(rng.uniform(0, math.pi)),
                    float(rng.uniform(0, 2 * math.pi)),
                    alice_space,
                )
                for _ in range(2)
            ),
            bob=tuple(
                observable_from_bloch(
                    float(rng.uniform(0, math.pi)),
                    float(rng.uniform(0, 2 * math.pi)),
                    bob_space,
                )
                for _ in range(2)
            ),
        )
        result = chsh_value(psi, settings)
        worst = max(worst, abs(result.s_value))
    assert worst <= TSIRELSON + 1e-9
    _report(4, f"largest |S| over 10^4 random evaluations: {worst:.12f}")


def test_criterion_5_counterexample_frequencies():
    """Photon always arrives under unitary evolution, half the time under collapse."""
    p_unitary = counterexample_probability(UNITARY_ONLY)
    p_collapse = counterexample_probability(SUBJECTIVE_COLLAPSE)
    assert abs(p_unitary - 1.0) <= 1e-12
    assert abs(p_collapse - 0.5) <= 1e-12

    rng = np.random.default_rng(505)
    freq_unitary = counterexample_frequencies(UNITARY_ONLY, 100_000, rng)
    assert freq_unitary == 1.0
    # the per-run pathway agrees with the batch on a sample of runs
    loop_rng = np.random.default_rng(506)
    assert all(counterexample_run(UNITARY_ONLY, loop_rng) for _ in range(1000))

    freq_collapse = counterexample_frequencies(SUBJECTIVE_COLLAPSE, 100_000, rng)
    assert abs(freq_collapse - 0.5) <= 0.005
    _report(
        5,
        f"exact {p_unitary:.12f}/{p_collapse:.12f}, frequencies "
        f"{freq_unitary:.6f}/{freq_collapse:.6f} over 1e5 runs",
    )


def test_criterion_6_sampling_soundness():
    """Mean of 100 seeded estimates sits on 2*sqrt(2); sampled counts fit Born."""
    psi = bell_singlet()
    settings, s_exact = optimize_settings(psi, grid_step=math.pi / 16)
    assert abs(s_exact - TSIRELSON) <= 1e-9
    shots = 1_000_000
    estimates = []
    sigma = None
    for k in range(100):
        result = sample_inequality(psi, settings, shots, np.random.default_rng(1000 + k))
        estimates.append(result.s_value)
        sigma = result.std_error
    mean = float(np.mean(estimates))
    assert abs(mean - TSIRELSON) <= 3 * sigma / 10

    # outcome counts drawn by the package's own collapse sampler
    meas = ProjectiveMeasurement(
        CompositeSpace(
            settings.alice[0].space.factors + settings.bob[0].space.factors
        ),
        tuple(
            np.kron(pa, pb)
            for pa in settings.alice[0].projectors()
            for pb in settings.bob[0].projectors()
        ),
        ("++", "+-", "-+", "--"),
    )
    probs = born_probabilities(psi, meas)
    draws = 20_000
    rng = np.random.default_rng(606)
    counts = np.zeros(4)
    for _ in range(draws):
        outcome, _ = projective_collapse(psi, basis=meas, rng=rng)
        counts[outcome] += 1
    fit = stats.chisquare(counts, probs * draws)
    assert fit.pvalue > 0.001
    _report(
        6,
        f"mean S {mean:.6f} vs {TSIRELSON:.6f} "
        f"(|diff| {abs(mean - TSIRELSON):.2e} <= {3 * sigma / 10:.2e}), "
        f"chi-square p {fit.pvalue:.3f} over {draws} collapses",
    )


def test_criterion_7_partial_trace_oracle():
    """Library reduction matches brute-force index summation, 500 cases."""
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(500):
        dims = random_dims(rng, max_total=64)
        labels = [f"q{k}" for k in range(len(dims))]
        space = CompositeSpace(tuple(zip(labels, dims)))
        rho_matrix = random_density(rng, space.dim)
        rho = DensityOperator(space, rho_matrix)
        n_keep = int(rng.integers(1, len(dims) + 1))
        keep_axes = sorted(rng.choice(len(dims), size=n_keep, replace=False).tolist())
        reduced = partial_trace(rho, [labels[a] for a in keep_axes])
        expected = brute_partial_trace(rho_matrix, list(dims), keep_axes)
        worst = max(worst, float(np.max(np.abs(reduced.matrix - expected))))
    assert worst < 1e-12
    _report(7, f"max entrywise deviation across 500 random reductions: {worst:.2e}")


def test_criterion_8_byte_determinism(tmp_path):
    """Same config and seed give byte-identical CSV rows."""

    def run_cli(name):
        out = tmp_path / name
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "wfsim",
                "--scenario",
                "proietti",
                "--seed",
                "2026",
                "--shots",
                "10000",
                "--grid-step",
                str(math.pi / 16),
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return out.read_bytes()

    first = run_cli("a.csv")
    second = run_cli("b.csv")
    third = run_cli("c.csv")
    assert first == second == third
    n_rows = first.decode().count("\n") - 1
    _report(8, f"{n_rows} data rows byte-identical across three runs")
