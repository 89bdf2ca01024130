"""Byte-for-byte gate on the CSV and JSON report of every scenario.

The files under ``tests/golden/`` hold the reports at ``seed=7``, sampled
(``shots=1000``) and exact (``shots=0``), with the ``wall_time_s`` line
cut from the JSON.  Scenarios that read ``grid_step`` run at pi/16, so
their reports carry the grid cross-check's ``grid_gap`` rows, and the
report without a grid must equal them with those rows removed; the
others reject ``grid_step`` and run without one.  A change that alters
report bytes on purpose rewrites them with
``PYTHONPATH=src python tests/test_golden.py``, which rewrites only the
files that changed and prints each changed line, old (``-``) then new
(``+``); those lines go into CHANGES.md, and the diff of ``tests/golden/``
is then the reviewed record of what moved.
"""

from __future__ import annotations

import difflib
import math
import re
from pathlib import Path

import pytest

from wfsim.report import _SCENARIO_TABLE, ScenarioConfig, render_csv, render_json, run

GOLDEN = Path(__file__).parent / "golden"
SCENARIO_NAMES = ("proietti", "counterexample", "pointer_basic", "bell_singlet")
SHOTS = (1000, 0)
FORMATS = ("csv", "json")

_WALL_TIME_LINE = re.compile(r',\n  "wall_time_s": [^\n]*')


def golden_path(scenario: str, shots: int, fmt: str) -> Path:
    return GOLDEN / f"{scenario}_shots{shots}.{fmt}"


def render_golden(scenario: str, shots: int, fmt: str) -> bytes:
    config = ScenarioConfig(
        scenario=scenario,
        seed=7,
        shots=shots,
        grid_step=math.pi / 16 if _SCENARIO_TABLE[scenario].reads_grid_step else None,
        output_format=fmt,
    )
    report = run(config)
    if fmt == "csv":
        return render_csv(report).encode("utf-8")
    return _WALL_TIME_LINE.sub("", render_json(report)).encode("utf-8")


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("shots", SHOTS)
@pytest.mark.parametrize("scenario", SCENARIO_NAMES)
def test_report_bytes_match_golden(scenario, shots, fmt):
    expected = golden_path(scenario, shots, fmt).read_bytes()
    assert render_golden(scenario, shots, fmt) == expected


@pytest.mark.parametrize("shots", SHOTS)
@pytest.mark.parametrize("scenario", ("proietti", "bell_singlet"))
def test_grid_cross_check_only_adds_grid_gap_rows(scenario, shots):
    plain = run(ScenarioConfig(scenario=scenario, seed=7, shots=shots))
    checked = run(
        ScenarioConfig(scenario=scenario, seed=7, shots=shots, grid_step=math.pi / 16)
    )
    gap_rows = [row for row in checked.rows if row.quantity == "grid_gap"]
    assert plain.config.grid_step is None
    assert gap_rows and all(abs(row.exact_value) < 1e-12 for row in gap_rows)
    assert plain.rows == tuple(row for row in checked.rows if row.quantity != "grid_gap")


def rewrite_goldens() -> None:
    """Rewrite the golden files that changed; print each changed line, old then new.

    Each hunk is headed by its ``@@ -old +new @@`` line numbers.
    """
    GOLDEN.mkdir(exist_ok=True)
    for name in SCENARIO_NAMES:
        for shots in SHOTS:
            for fmt in FORMATS:
                path = golden_path(name, shots, fmt)
                new = render_golden(name, shots, fmt)
                old = path.read_bytes() if path.exists() else b""
                if new == old:
                    continue
                print(f"{path.name}:")
                old_lines, new_lines = (b.decode("utf-8").splitlines() for b in (old, new))
                for line in difflib.unified_diff(old_lines, new_lines, n=0, lineterm=""):
                    if line[:3] not in ("---", "+++"):
                        print(f"  {line}")
                path.write_bytes(new)


if __name__ == "__main__":
    rewrite_goldens()
