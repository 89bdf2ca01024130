"""Finite-shot estimates, their error bars, and the report pipeline.

The exact machinery everywhere else in the package gives infinite-shot
answers.  This script estimates the singlet's inequality value from
simulated counts at increasing shot budgets, then produces the same kind
of numbers through the scenario runner that backs the command line.
"""

import math

import numpy as np

from wfsim import (
    ScenarioConfig,
    bell_singlet,
    optimize_settings,
    render_csv,
    run,
    sample_inequality,
)

TSIRELSON = 2 * math.sqrt(2)


def convergence():
    psi = bell_singlet()
    settings, _ = optimize_settings(psi, grid_step=math.pi / 16)
    print(f"{'shots':>10}{'estimate':>12}{'std error':>12}{'|error|':>12}")
    for shots in (100, 1_000, 10_000, 100_000, 1_000_000):
        result = sample_inequality(psi, settings, shots, np.random.default_rng(42))
        err = abs(result.s_value - TSIRELSON)
        print(f"{shots:>10}{result.s_value:>12.5f}{result.std_error:>12.5f}{err:>12.5f}")
    print("(the plug-in standard error tracks the actual deviation)")


def report_pipeline():
    # the same run() the CLI calls; identical config and seed means
    # identical bytes, whatever machine it runs on
    config = ScenarioConfig(scenario="bell_singlet", shots=50_000, seed=11, grid_step=math.pi / 16)
    report = run(config)
    print(f"\nscenario '{config.scenario}' produced {len(report.rows)} rows "
          f"in {report.wall_time_s:.3f} s; CSV below\n")
    print(render_csv(report))


if __name__ == "__main__":
    convergence()
    report_pipeline()
