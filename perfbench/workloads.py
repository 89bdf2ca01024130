"""The benchmark's workloads: inputs from the seed, one operation, checks.

Each workload is a closed loop with one client.  ``prepare`` is the set-up
that ``setup_s`` times, ``op`` is one timed operation, ``check`` tests one
operation's output for physics invariants (not stored bytes, so that a
change of search method that moves witness rows still passes), and
``finish`` runs the checks that need the whole run: determinism and
goodness of fit.  Checks return a problem description, or None.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np

SQRT2 = math.sqrt(2.0)
TSIRELSON = 2.0 * SQRT2
TSIRELSON_TOL = 1e-9
REPLAYED_TRIALS = 16
GOF_MIN_P = 1e-6


def use_source(root: Path) -> None:
    """Put the checkout's ``src`` first on ``sys.path``; refuse to run without it."""
    src = root / "src"
    if not (src / "wfsim" / "__init__.py").is_file():
        raise FileNotFoundError(f"no wfsim sources under {src}")
    sys.path.insert(0, str(src))


class Workload:
    name = ""
    in_process = True

    def __init__(self, root: Path, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def prepare(self) -> None:
        """Import wfsim, build the inputs and warm up; what ``setup_s`` times."""

    def op(self, k: int):
        raise NotImplementedError

    def check(self, k: int, out) -> str | None:
        return None

    def finish(self) -> dict[int, str]:
        return {}


# -- proietti_report ------------------------------------------------------


class ProiettiReport(Workload):
    """The ``proietti`` CLI report at its shipped defaults, one child per operation."""

    name = "proietti_report"
    in_process = False
    shots = 100_000

    def __init__(self, root: Path, seed: int, workdir: Path) -> None:
        super().__init__(root, seed, workdir)
        self.traced = False
        self.child_peaks: list[float] = []
        self._seeds: list[int] = []
        self._rng = random.Random(seed)
        self._first_rows = None
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def prepare(self) -> None:
        import wfsim

        wfsim.proietti_scenario()

    def op_seed(self, k: int) -> int:
        # Operation 1 repeats operation 0's seed for the determinism check.
        while len(self._seeds) <= k:
            self._seeds.append(
                self._seeds[0] if len(self._seeds) == 1 else self._rng.getrandbits(63)
            )
        return self._seeds[k]

    def cli_args(self, k: int) -> list[str]:
        return [
            "--scenario", "proietti",
            "--shots", str(self.shots),
            "--format", "json",
            "--seed", str(self.op_seed(k)),
            "--out", str(self.workdir / f"op{k}.json"),
        ]

    def command(self, k: int) -> list[str]:
        if self.traced:
            tracer = str(Path(__file__).with_name("traced_cli.py"))
            return [sys.executable, tracer, str(self.trace_path(k)), *self.cli_args(k)]
        return [sys.executable, "-m", "wfsim", *self.cli_args(k)]

    def trace_path(self, k: int) -> Path:
        return self.workdir / f"op{k}.trace.json"

    def op(self, k: int) -> int:
        """Spawn one CLI child and wait for it; returns its exit code."""
        err_path = self.workdir / f"op{k}.err"
        with open(err_path, "wb") as err:
            proc = subprocess.Popen(
                self.command(k), cwd=self.workdir, env=self.env,
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
            )
            try:
                # wait4 gives this child's own peak RSS, not the maximum over
                # every child the benchmark has started.
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        if not self.traced:
            self.child_peaks.append(usage.ru_maxrss / 1024.0)
        return proc.returncode

    def check(self, k: int, exit_code: int) -> str | None:
        if exit_code != 0:
            err = (self.workdir / f"op{k}.err").read_text(errors="replace").strip()
            return f"exit code {exit_code}: {err[-300:]}"
        try:
            doc = json.loads((self.workdir / f"op{k}.json").read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return f"report unreadable: {exc}"
        problem = check_proietti_report(doc, self.shots)
        if problem is None and k == 0:
            self._first_rows = doc["rows"]
        elif problem is None and k == 1 and self._first_rows is not None:
            if doc["rows"] != self._first_rows:
                problem = "data rows differ from operation 0 under the same seed"
        return problem


def check_proietti_report(doc: dict, shots: int) -> str | None:
    """Physics invariants of a proietti JSON report; None when all hold."""
    try:
        rows = {(r["hypothesis"], r["quantity"]): r for r in doc["rows"]}

        def exact(hyp: str, quantity: str) -> float:
            return rows[(hyp, quantity)]["exact_value"]

        for quantity, want in (
            ("herald_probability_side_a", 0.25),
            ("herald_probability_side_b", 0.25),
            ("herald_probability_chained", 0.0625),
        ):
            if abs(exact("", quantity) - want) > 1e-12:
                return f"{quantity} = {exact('', quantity)!r}, expected {want}"
        if not exact("", "final_vs_reference_error") <= 1e-12:
            return f"final_vs_reference_error = {exact('', 'final_vs_reference_error')!r}"
        if abs(exact("unitary_only", "s_max") - TSIRELSON) > 1e-9:
            return f"unitary_only s_max = {exact('unitary_only', 's_max')!r}, expected 2*sqrt(2)"
        if not exact("friend_dephasing", "s_max") <= 2.0:
            return f"friend_dephasing s_max = {exact('friend_dephasing', 's_max')!r} > 2"
        if exact("unitary_only", "consistent_with_unitary") != 1.0:
            return "unitary_only is not flagged consistent with unitary"
        if exact("friend_dephasing", "consistent_with_unitary") != 0.0:
            return "friend_dephasing is flagged consistent with unitary"
        for (hyp, quantity), row in rows.items():
            if quantity in ("s_max", "s_at_witness_settings"):
                if abs(row["exact_value"]) > TSIRELSON + TSIRELSON_TOL:
                    return f"{hyp} {quantity} = {row['exact_value']!r} exceeds 2*sqrt(2)"
            if row["estimate"] is None:
                continue
            if row["shots"] != shots:
                return f"{hyp} {quantity} sampled with {row['shots']} shots, expected {shots}"
            se = row["std_error"]
            if se is None:  # a correlator: +/-1 outcomes
                se = math.sqrt(max(0.0, 1.0 - row["exact_value"] ** 2) / shots)
            if abs(row["estimate"] - row["exact_value"]) > 6.0 * se + 1e-12:
                return (
                    f"{hyp} {quantity} estimate {row['estimate']!r} is more than 6 "
                    f"standard errors ({se:.3g}) from {row['exact_value']!r}"
                )
    except (KeyError, TypeError) as exc:
        return f"report lacks an expected row or field: {exc!r}"
    return None


# -- collapse_chain -------------------------------------------------------

SETTING_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))
BRANCH_LABELS = ("a", "alpha", "b", "beta")


def outcome_probability(state, labels, projector) -> float:
    """||P psi||^2 for a projector on ``labels``, by reshaping, not embedding."""
    space_labels = state.space.labels
    dims = state.space.dims
    axes = [space_labels.index(label) for label in labels]
    sub = tuple(dims[a] for a in axes)
    proj = np.asarray(projector).reshape(sub + sub)
    k = len(axes)
    projected = np.tensordot(
        proj, state.amplitudes.reshape(dims), axes=(list(range(k, 2 * k)), axes)
    )
    return float(np.vdot(projected, projected).real)


def _basis_projector(outcome: int) -> np.ndarray:
    p = np.zeros((2, 2))
    p[outcome, outcome] = 1.0
    return p


def _eigen_projector(observable, outcome: int) -> np.ndarray:
    sign = 1.0 if outcome == 0 else -1.0  # outcome order (+1, -1)
    return (np.eye(observable.space.dim) + sign * observable.matrix) / 2.0


class CollapseChain(Workload):
    """Seeded single-run trials of the subjective-collapse chain, in process."""

    name = "collapse_chain"

    def prepare(self) -> None:
        from wfsim import hilbert, measurement, scenarios
        from wfsim.chsh import MeasurementSettings

        self.scenarios = scenarios
        self.measurement = measurement
        self.prepared = scenarios.prepared_state().state
        self.settings = MeasurementSettings.defaults(
            hilbert.CompositeSpace.qubits("a", "alpha"),
            hilbert.CompositeSpace.qubits("b", "beta"),
        )
        self.trial(0, np.random.default_rng(self.seed))  # warm-up
        self.rng = np.random.default_rng(self.seed)
        self.trials = 0
        self.branch_counts: Counter = Counter()
        self.first_outcomes: dict[int, tuple] = {}

    def trial(self, k: int, rng: np.random.Generator) -> dict:
        first = self.scenarios.claimed_branch_collapse(self.prepared, "A", rng)
        second = self.scenarios.claimed_branch_collapse(first.state, "B", rng)
        i, j = SETTING_PAIRS[k % 4]
        alice = self.settings.alice[i]
        bob = self.settings.bob[j]
        alice_out, after_alice = self.measurement.projective_collapse(
            second.state, basis=alice, rng=rng
        )
        bob_out, branch = self.measurement.projective_collapse(after_alice, basis=bob, rng=rng)
        probs = self.measurement.born_probabilities(branch, BRANCH_LABELS)
        return {
            "first": first, "second": second, "alice": alice, "bob": bob,
            "alice_out": alice_out, "after_alice": after_alice,
            "bob_out": bob_out, "branch": branch, "probs": probs,
        }

    def op(self, k: int) -> dict:
        return self.trial(k, self.rng)

    @staticmethod
    def outcomes(t: dict) -> tuple[int, int, int, int]:
        return (t["first"].branch, t["second"].branch, t["alice_out"], t["bob_out"])

    def check(self, k: int, t: dict) -> str | None:
        self.trials += 1
        steps = (
            # (pre-state, returned state, measured labels, projector, outcome)
            (self.prepared, t["first"].state, ("a",), _basis_projector(t["first"].branch), "A"),
            (t["first"].state, t["second"].state, ("b",), _basis_projector(t["second"].branch), "B"),
            (t["second"].state, t["after_alice"], ("a", "alpha"),
             _eigen_projector(t["alice"], t["alice_out"]), "Alice"),
            (t["after_alice"], t["branch"], ("b", "beta"),
             _eigen_projector(t["bob"], t["bob_out"]), "Bob"),
        )
        for pre, post, labels, projector, step in steps:
            norm = math.sqrt(float(np.vdot(post.amplitudes, post.amplitudes).real))
            if abs(norm - 1.0) > 1e-12:
                return f"{step}: returned state has norm {norm!r}"
            if outcome_probability(pre, labels, projector) <= 1e-12:
                return f"{step}: returned an outcome of zero Born probability"
            if abs(outcome_probability(post, labels, projector) - 1.0) > 1e-9:
                return f"{step}: returned state is not in the returned outcome's subspace"
        direct = np.abs(t["branch"].amplitudes) ** 2
        if float(np.max(np.abs(t["probs"] - direct))) > 1e-12:
            return "born_probabilities of the branch disagree with |amplitude|^2"
        self.branch_counts[(t["first"].branch, t["second"].branch)] += 1
        if k < REPLAYED_TRIALS:
            self.first_outcomes[k] = self.outcomes(t)
        return None

    def finish(self) -> dict[int, str]:
        failures: dict[int, str] = {}
        rng = np.random.default_rng(self.seed)
        for k in range(min(REPLAYED_TRIALS, len(self.first_outcomes))):
            replay = self.outcomes(self.trial(k, rng))
            if k in self.first_outcomes and replay != self.first_outcomes[k]:
                failures[k] = f"replay of trial {k} gave {replay}, not {self.first_outcomes[k]}"
        expected = self.measurement.born_probabilities(self.prepared, ("a", "b"))
        observed = [self.branch_counts[(a, b)] for a in (0, 1) for b in (0, 1)]
        p_value = chi2_sf_3dof(observed, expected)
        if p_value < GOF_MIN_P:
            # The branch frequencies are a property of every trial in the run.
            for k in range(self.trials):
                failures.setdefault(
                    k, f"branch counts {observed} fail a fit to {list(expected)} (p={p_value:.2g})"
                )
        return failures


def chi2_sf_3dof(observed, expected_probs) -> float:
    """Upper tail of Pearson's chi-square for four categories (3 dof)."""
    total = sum(observed)
    if total == 0:
        return 1.0
    x = sum(
        (o - total * p) ** 2 / (total * p) for o, p in zip(observed, expected_probs)
    )
    return math.erfc(math.sqrt(x / 2.0)) + math.sqrt(2.0 * x / math.pi) * math.exp(-x / 2.0)


# -- stochastic_sweep -----------------------------------------------------

SWEEP_PROBABILITIES = tuple(k / 10 for k in range(11))


class StochasticSweep(Workload):
    """The exact stochastic-collapse sweep of ``demos/03``, in process."""

    name = "stochastic_sweep"
    grid_step = math.pi / 16

    def prepare(self) -> None:
        from wfsim import chsh, scenarios
        from wfsim.measurement import CollapseHypothesis

        self.chsh = chsh
        self.scenarios = scenarios
        self.hypotheses = [CollapseHypothesis.stochastic(p) for p in SWEEP_PROBABILITIES]
        self.op(0)  # warm-up
        self.first_s_max = None

    def op(self, k: int) -> list:
        return self.chsh.hypothesis_comparison(
            self.scenarios.proietti_scenario(), self.hypotheses, grid_step=self.grid_step
        )

    def check(self, k: int, results: list) -> str | None:
        probabilities = tuple(r.hypothesis.probability for r in results)
        if probabilities != SWEEP_PROBABILITIES:
            return f"results are for p = {probabilities}"
        s_max = tuple(r.s_max for r in results)
        if abs(s_max[0] - TSIRELSON) > 1e-9:
            return f"s_max(p=0) = {s_max[0]!r}, expected 2*sqrt(2)"
        if abs(s_max[-1] - SQRT2) > 1e-6:
            return f"s_max(p=1) = {s_max[-1]!r}, expected sqrt(2)"
        for p, lo, hi in zip(SWEEP_PROBABILITIES[1:], s_max[1:], s_max):
            if lo > hi + 1e-9:
                return f"s_max rises to {lo!r} at p = {p}"
        for r in results:
            if max(abs(r.s_value), abs(r.s_max)) > TSIRELSON + TSIRELSON_TOL:
                return f"|S| exceeds 2*sqrt(2) at p = {r.hypothesis.probability}"
        flags = [bool(r.consistent_with_data) for r in results]
        if flags != [True] + [False] * 10:
            return f"consistency flags {flags}, expected only p = 0"
        if self.first_s_max is None:
            self.first_s_max = s_max
        elif s_max != self.first_s_max:
            return "s_max differs bitwise from the run's first operation"
        return None


WORKLOADS = {w.name: w for w in (ProiettiReport, CollapseChain, StochasticSweep)}
