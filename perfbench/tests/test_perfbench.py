"""Tests of the benchmark itself: smoke runs, injected failures, repeatable counts.

Run with ``python3 -m pytest perfbench/tests -q``; about a minute.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

workloads.use_source(ROOT)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
SHOTS = workloads.ProiettiReport.shots


def bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT, script: Path = BENCH / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )
    return proc, proc.stdout.splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc, lines = bench(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: v["unit"] for n, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    readable = {line.split()[0]: line.split() for line in lines[:-1] if line.strip()}
    for m in spec:
        assert m["unit"] in readable[m["name"]][2:3], readable.get(m["name"])
    assert readable["fail_ratio"][1:3] == ["0", "failed/attempted"]
    if not trace:
        assert "op_s_p90" in readable
        assert all(math.isfinite(v["value"]) and v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["collapse_chain", "stochastic_sweep"])
def test_traced_counts_repeat_exactly(workload):
    counts = []
    for _ in range(2):
        proc, lines = bench(workload, 1)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        metrics = json.loads(lines[-1])["metrics"]
        counts.append({
            n: v["value"] for n, v in metrics.items()
            if not n.endswith(".self_s") and n != "trace.overhead"
        })
    assert counts[0] == counts[1]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = bench("collapse_chain", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)


# -- injected failures ----------------------------------------------------


def fail_ratio(workload, min_ops: int) -> float:
    times, _, failures = run.run_phase(workload, 0, 0.0, min_ops)
    failures.update(workload.finish())
    return len(failures) / len(times)


def test_child_exiting_with_code_3_counts_as_failed(tmp_path, monkeypatch):
    w = workloads.ProiettiReport(ROOT, 1, tmp_path)
    monkeypatch.setattr(w, "command", lambda k: [sys.executable, "-c", "import sys; sys.exit(3)"])
    assert fail_ratio(w, 2) == 1.0


@pytest.fixture(scope="module")
def proietti_doc():
    """A real proietti report, built in process on the coarse grid to stay quick."""
    from wfsim.report import ScenarioConfig, render_json
    from wfsim.report import run as run_report

    config = ScenarioConfig(
        scenario="proietti", shots=SHOTS, seed=5, grid_step=math.pi / 16, output_format="json"
    )
    return json.loads(render_json(run_report(config)))


def test_report_checks_pass_on_a_real_report(proietti_doc):
    assert workloads.check_proietti_report(proietti_doc, SHOTS) is None


def test_report_with_s_max_above_tsirelson_counts_as_failed(tmp_path, monkeypatch, proietti_doc):
    bad = copy.deepcopy(proietti_doc)
    for row in bad["rows"]:
        if row["quantity"] == "s_max":
            row["exact_value"] = workloads.TSIRELSON + 1e-6
    source = tmp_path / "bad.json"
    source.write_text(json.dumps(bad))
    w = workloads.ProiettiReport(ROOT, 1, tmp_path)
    copy_report = "import shutil, sys; shutil.copy(sys.argv[1], sys.argv[2])"
    monkeypatch.setattr(
        w, "command",
        lambda k: [sys.executable, "-c", copy_report, str(source), str(tmp_path / f"op{k}.json")],
    )
    assert fail_ratio(w, 2) == 1.0


def test_tampered_outcome_counts_as_failed(monkeypatch):
    w = workloads.CollapseChain(ROOT, 2, ROOT)
    w.prepare()
    original = w.scenarios.claimed_branch_collapse

    def tampered(joint, side, rng):
        out = original(joint, side, rng)
        return dataclasses.replace(out, branch=1 - out.branch)

    monkeypatch.setattr(w.scenarios, "claimed_branch_collapse", tampered)
    assert fail_ratio(w, 20) == 1.0


def test_untampered_chain_passes():
    w = workloads.CollapseChain(ROOT, 2, ROOT)
    w.prepare()
    assert fail_ratio(w, 200) == 0.0


def test_chi_square_tail_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    expected = [0.1, 0.4, 0.4, 0.1]
    for observed in ([10, 40, 40, 10], [14, 35, 41, 10], [30, 30, 30, 10], [0, 50, 50, 0]):
        x = sum((o - 100 * p) ** 2 / (100 * p) for o, p in zip(observed, expected))
        assert workloads.chi2_sf_3dof(observed, expected) == pytest.approx(stats.chi2.sf(x, 3), rel=1e-9)
