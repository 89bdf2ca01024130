"""Tests for configuration handling, report generation, and the CLI."""

import csv
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wfsim.cli as cli
import wfsim.scenarios as scenarios
from wfsim import ConfigError, InvariantViolation, ScenarioConfig, bell_singlet, emit, run
from wfsim.chsh import _GRID_PAIR_BUDGET, _s_max, _scan_pairs, _tables
from wfsim.errors import ShapeError, _check_count
from wfsim.report import (
    CSV_COLUMNS,
    ENV_OUT_DIR,
    ReportRow,
    RunReport,
    render_csv,
    render_json,
)


def _rows_by_quantity(report):
    out = {}
    for row in report.rows:
        out[(row.hypothesis, row.quantity)] = row
    return out


class TestScenarioConfig:
    def test_defaults(self):
        config = ScenarioConfig()
        assert config.scenario == "proietti"
        assert config.hypotheses == ("unitary_only", "friend_dephasing")
        assert config.shots == 0
        assert config.output_format == "csv"

    def test_per_scenario_default_hypotheses(self):
        assert ScenarioConfig(scenario="counterexample").hypotheses == (
            "unitary_only",
            "subjective_collapse",
        )
        assert ScenarioConfig(scenario="bell_singlet").hypotheses == ()

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(scenario="pendulum")

    def test_bad_hypothesis_name(self):
        for bad in (
            ("gravity_collapse",),
            "unitary_only,unitary_only",
            ("stochastic_collapse(0.5)", "stochastic_collapse(p=0.5)"),
        ):
            with pytest.raises(ConfigError):
                ScenarioConfig(hypotheses=bad)

    def test_counterexample_hypothesis_restriction(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(scenario="counterexample", hypotheses=("friend_dephasing",))

    def test_scenarios_without_hypotheses_reject_them(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(scenario="bell_singlet", hypotheses=("unitary_only",))

    def test_shots_bound_is_stated(self):
        """numpy's samplers take at most int64 counts; larger shot counts are config errors."""
        assert ScenarioConfig(shots=2**63 - 1).shots == 2**63 - 1
        with pytest.raises(ConfigError, match=r"shots must be an integer in \[0, 2\*\*63\), got"):
            ScenarioConfig(shots=2**63)

    @pytest.mark.parametrize("shots", [0, 1, 2**63 - 1, 2**63, 10**19, -1, True, 2.5, "5", None])
    def test_shots_follow_the_shared_count_rule(self, shots):
        """The config accepts exactly the shot counts ``_check_count`` accepts, and
        rejects the others with its message as a ConfigError."""
        try:
            _check_count("shots", shots, 0)
        except ShapeError as exc:
            with pytest.raises(ConfigError) as raised:
                ScenarioConfig(shots=shots)
            assert str(raised.value) == str(exc)
        else:
            assert ScenarioConfig(shots=shots).shots == shots

    def test_numeric_validation(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(shots=-1)
        with pytest.raises(ConfigError):
            ScenarioConfig(seed=-5)
        with pytest.raises(ConfigError):
            ScenarioConfig(seed=2**64)
        with pytest.raises(ConfigError):
            ScenarioConfig(grid_step=0.0)
        with pytest.raises(ConfigError):
            ScenarioConfig(grid_step=1.0)
        with pytest.raises(ConfigError):
            ScenarioConfig(grid_step=math.pi / 256)
        with pytest.raises(ConfigError):
            ScenarioConfig(grid_step=1e-3)
        with pytest.raises(ConfigError):
            ScenarioConfig(output_format="yaml")
        for bad in (
            {"seed": True},
            {"shots": True},
            {"seed": True, "shots": True},
            {"grid_step": "fine"},
            {"grid_step": "0.1"},
            {"grid_step": True},
        ):
            with pytest.raises(ConfigError):
                ScenarioConfig(**bad)

    def test_grid_step_defaults_to_no_grid(self):
        assert ScenarioConfig().grid_step is None
        assert ScenarioConfig(grid_step=None).echo()["grid_step"] is None
        assert ScenarioConfig.from_mapping({"grid_step": None}).grid_step is None

    def test_grid_step_range_is_inclusive(self):
        for step in (math.pi / 128, math.pi / 8):
            assert ScenarioConfig(grid_step=step).grid_step == step
        with pytest.raises(ConfigError, match=r"\[pi/128, pi/8\]"):
            ScenarioConfig(grid_step=math.pi / 129)

    def test_grid_step_only_where_the_runner_reads_it(self):
        for scenario in ("counterexample", "pointer_basic"):
            with pytest.raises(ConfigError, match="grid_step must be null"):
                ScenarioConfig(scenario=scenario, grid_step=math.pi / 16)
            assert ScenarioConfig(scenario=scenario).echo()["grid_step"] is None
        for scenario in ("proietti", "bell_singlet"):
            assert ScenarioConfig(scenario=scenario, grid_step=math.pi / 16).grid_step
        with pytest.raises(ConfigError, match="^<config>:3: grid_step"):
            ScenarioConfig.from_mapping(
                {"scenario": "pointer_basic", "grid_step": 0.1},
                lines={"scenario": 2, "grid_step": 3},
            )

    def test_grid_budget_admits_the_defaults_at_the_finest_step(self):
        config = ScenarioConfig(grid_step=math.pi / 128)
        assert config.hypotheses == ("unitary_only", "friend_dephasing")
        assert 3 * _scan_pairs(math.pi / 128) <= _GRID_PAIR_BUDGET

    def test_grid_budget_rejects_a_hundred_hypotheses_at_the_finest_step(self):
        """101 scans of n(n + 1)/2 pairs, n = 128 * 256 + 1 distinct directions."""
        hypotheses = tuple(f"stochastic_collapse({k / 100})" for k in range(100))
        pairs = 101 * (32769 * 32770 // 2)
        assert _scan_pairs(math.pi / 128) == 32769 * 32770 // 2
        with pytest.raises(ConfigError, match=f"{pairs:,} grid pairs.*{_GRID_PAIR_BUDGET:,}"):
            ScenarioConfig(hypotheses=hypotheses, grid_step=math.pi / 128)
        assert ScenarioConfig(hypotheses=hypotheses, grid_step=math.pi / 8).grid_step

    def test_from_mapping_rejects_unknown_key_with_line(self):
        with pytest.raises(ConfigError, match=r"cfg\.json:4"):
            ScenarioConfig.from_mapping(
                {"scenario": "proietti", "shotz": 3},
                lines={"scenario": 2, "shotz": 4},
                source="cfg.json",
            )

    def test_from_mapping_points_value_errors_at_lines(self):
        with pytest.raises(ConfigError, match=r"cfg\.json:3"):
            ScenarioConfig.from_mapping(
                {"grid_step": 2.5},
                lines={"grid_step": 3},
                source="cfg.json",
            )

    def test_from_mapping_comma_separated_hypotheses(self):
        config = ScenarioConfig.from_mapping(
            {"scenario": "proietti", "hypotheses": "unitary_only, stochastic_collapse(0.5)"}
        )
        assert config.hypotheses == ("unitary_only", "stochastic_collapse(0.5)")

    def test_from_mapping_type_checks(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_mapping({"shots": "many"})
        with pytest.raises(ConfigError):
            ScenarioConfig.from_mapping({"shots": True})
        with pytest.raises(ConfigError):
            ScenarioConfig.from_mapping({"grid_step": "fine"})
        for bad in (
            {"seed": True},
            {"grid_step": "0.1"},
            {"grid_step": False},
            {"hypotheses": 5},
            {"hypotheses": ["unitary_only", 3]},
            {"output_path": 5},
        ):
            with pytest.raises(ConfigError):
                ScenarioConfig.from_mapping(bad)


class TestRunPointerBasic:
    def test_exact_rows(self):
        report = run(ScenarioConfig(scenario="pointer_basic", hypotheses=()))
        rows = _rows_by_quantity(report)
        assert rows[("", "composite_purity")].exact_value == pytest.approx(1.0)
        assert rows[("", "reduced_purity")].exact_value == pytest.approx(0.5)
        assert rows[("", "coherence_composite")].exact_value == pytest.approx(1.0)
        assert rows[("", "coherence_dephased")].exact_value == pytest.approx(0.0)
        assert rows[("", "born_p0")].exact_value == pytest.approx(0.5)
        assert report.factor_order == ("s", "p")

    def test_sampling_fills_estimates(self):
        config = ScenarioConfig(
            scenario="pointer_basic", hypotheses=(), shots=2000, seed=5
        )
        rows = _rows_by_quantity(run(config))
        row = rows[("", "born_p0")]
        assert row.estimate is not None
        assert row.shots == 2000
        assert abs(row.estimate - 0.5) < 5 * row.std_error


class TestRunBellSinglet:
    def test_exact_rows(self):
        config = ScenarioConfig(scenario="bell_singlet", hypotheses=(), grid_step=math.pi / 16)
        rows = _rows_by_quantity(run(config))
        assert rows[("", "sigma_zz_correlator")].exact_value == pytest.approx(-1.0)
        assert rows[("", "s_max")].exact_value == pytest.approx(
            2 * math.sqrt(2), abs=1e-9
        )
        assert rows[("", "reduced_purity_e1")].exact_value == pytest.approx(0.5)

    def test_s_max_is_the_closed_form_of_the_kernel(self):
        """The row holds ``_s_max`` of the singlet's K bitwise, as in ``hypothesis_comparison``."""
        psi = bell_singlet()
        kernel = _tables([psi], (psi.space.subspace(("e1",)), psi.space.subspace(("e2",))))[0][0, 0]
        for grid_step in (None, math.pi / 16):
            config = ScenarioConfig(scenario="bell_singlet", grid_step=grid_step)
            assert _rows_by_quantity(run(config))[("", "s_max")].exact_value == _s_max(kernel)

    def test_sampled_rows_track_exact(self):
        config = ScenarioConfig(
            scenario="bell_singlet",
            hypotheses=(),
            shots=20000,
            seed=3,
            grid_step=math.pi / 16,
        )
        rows = _rows_by_quantity(run(config))
        row = rows[("", "s_at_optimal")]
        assert row.estimate is not None
        assert abs(row.estimate - row.exact_value) < 5 * row.std_error


class TestRunProietti:
    def test_exact_rows(self):
        config = ScenarioConfig(scenario="proietti", grid_step=math.pi / 16)
        report = run(config)
        rows = _rows_by_quantity(report)
        assert rows[("", "herald_probability_side_a")].exact_value == pytest.approx(
            0.25, abs=1e-12
        )
        assert rows[("", "herald_probability_chained")].exact_value == pytest.approx(
            0.0625, abs=1e-12
        )
        assert rows[("", "final_vs_reference_error")].exact_value < 1e-12
        assert rows[("", "local_deterministic_bound")].exact_value == 2.0
        assert rows[("unitary_only", "s_max")].exact_value == pytest.approx(
            2 * math.sqrt(2), abs=1e-9
        )
        assert rows[("unitary_only", "consistent_with_unitary")].exact_value == 1.0
        assert rows[("friend_dephasing", "consistent_with_unitary")].exact_value == 0.0
        assert report.factor_order[0] == "a"

    def test_stochastic_hypothesis_in_report(self):
        config = ScenarioConfig(
            scenario="proietti",
            hypotheses=("stochastic_collapse(0.5)",),
            grid_step=math.pi / 16,
        )
        rows = _rows_by_quantity(run(config))
        key = ("stochastic_collapse(0.5)", "s_max")
        assert key in rows


class TestRunCounterexample:
    def test_exact_probabilities(self):
        config = ScenarioConfig(scenario="counterexample")
        rows = _rows_by_quantity(run(config))
        assert rows[("unitary_only", "photon_probability")].exact_value == pytest.approx(
            1.0, abs=1e-12
        )
        assert rows[
            ("subjective_collapse", "photon_probability")
        ].exact_value == pytest.approx(0.5, abs=1e-12)

    def test_sampled_frequencies(self):
        config = ScenarioConfig(scenario="counterexample", shots=50_000, seed=2)
        rows = _rows_by_quantity(run(config))
        unitary = rows[("unitary_only", "photon_probability")]
        collapse = rows[("subjective_collapse", "photon_probability")]
        assert unitary.estimate == 1.0
        assert abs(collapse.estimate - 0.5) < 5 * math.sqrt(0.25 / 50_000)

    def test_one_probability_evaluation_per_hypothesis(self, monkeypatch):
        """With shots, each hypothesis's exact photon probability is evaluated once,
        for both the exact value and the binomial draw."""
        evaluated = []
        held_terms = scenarios.HeldScenario.held_terms
        monkeypatch.setattr(scenarios.HeldScenario, "held_terms",
                            lambda self, h: evaluated.append(h) or held_terms(self, h))
        config = ScenarioConfig(scenario="counterexample", shots=1000, seed=8)
        run(config)
        assert [h.name for h in evaluated] == list(config.hypotheses)

    def test_largest_accepted_shot_count_returns(self):
        """The top of the accepted range costs one binomial draw per hypothesis."""
        config = ScenarioConfig(scenario="counterexample", shots=2**63 - 1, seed=7)
        rows = _rows_by_quantity(run(config))
        assert rows[("unitary_only", "photon_probability")].estimate == 1.0
        collapse = rows[("subjective_collapse", "photon_probability")].estimate
        assert abs(collapse - 0.5) < 1e-6


class TestEmission:
    def test_csv_header_and_digits(self):
        report = run(ScenarioConfig(scenario="pointer_basic", hypotheses=()))
        text = render_csv(report)
        lines = text.splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + len(report.rows)
        # every float field round-trips through 12 significant digits
        for line in lines[1:]:
            value = line.split(",")[3]
            assert value == f"{float(value):.12g}"

    def test_json_mirrors_rows(self):
        report = run(ScenarioConfig(scenario="pointer_basic", hypotheses=(), seed=9))
        body = json.loads(render_json(report))
        assert body["factor_order"] == ["s", "p"]
        assert body["config"]["seed"] == 9
        assert len(body["rows"]) == len(report.rows)
        assert body["rows"][0]["quantity"] == report.rows[0].quantity

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.tuples(*[st.none() | st.floats()] * 3), min_size=1, max_size=8))
    @example(values=[(0.0, -0.0, None), (math.inf, -math.inf, math.nan)])
    @example(values=[(5e-324, -2.5e-320, 2.2250738585072014e-308), (1e-308, None, None)])
    @example(values=[(0.1 + 0.2, 1 / 3, 2**63 - 1.0), (-1.7976931348623157e308, 2.0, 1e16)])
    def test_both_formats_print_each_number_once_rounded(self, values):
        """Each CSV cell is the value's ``.12g`` (empty for None), and each JSON value is
        that text parsed back, so the two formats hold the same numbers."""
        config = ScenarioConfig(scenario="pointer_basic")
        rows = tuple(ReportRow("s", "h", "q", *triple, shots=3) for triple in values)
        report = RunReport(config, ("s", "p"), rows, 0.0, "0")
        cells = list(csv.reader(render_csv(report).splitlines()))[1:]
        records = json.loads(render_json(report))["rows"]
        assert len(cells) == len(records) == len(values)
        for triple, line, record in zip(values, cells, records):
            numbers = [record[name] for name in ("exact_value", "estimate", "std_error")]
            for x, cell, number in zip(triple, line[3:6], numbers):
                assert cell == ("" if x is None else f"{x:.12g}")
                assert repr(number) == repr(None if x is None else float(f"{x:.12g}"))
            assert (line[6], record["shots"]) == ("3", 3)

    def test_emit_writes_explicit_path(self, tmp_path):
        report = run(ScenarioConfig(scenario="pointer_basic", hypotheses=()))
        out = emit(report, path=tmp_path / "r.csv")
        assert out.read_text().startswith("scenario,")

    def test_emit_env_var_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_OUT_DIR, str(tmp_path))
        monkeypatch.chdir(tmp_path)
        report = run(ScenarioConfig(scenario="pointer_basic", hypotheses=(), seed=4))
        out = emit(report)
        assert out.parent == tmp_path
        assert out.name == "pointer_basic_seed4.csv"

    def test_emit_propagates_oserror(self, tmp_path):
        report = run(ScenarioConfig(scenario="pointer_basic", hypotheses=()))
        with pytest.raises(OSError):
            emit(report, path=tmp_path / "missing_dir" / "r.csv")

    def test_emit_failed_rename_keeps_old_report(self, tmp_path, monkeypatch):
        target = tmp_path / "r.csv"
        target.write_text("previous report\n")
        report = run(ScenarioConfig(scenario="pointer_basic", hypotheses=()))

        def refuse(src, dst):
            raise OSError("synthetic rename failure")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="synthetic rename failure"):
            emit(report, path=target)
        assert target.read_text() == "previous report\n"
        assert [p.name for p in tmp_path.iterdir()] == ["r.csv"]

    def test_emit_replaces_existing_report(self, tmp_path):
        target = tmp_path / "r.csv"
        target.write_text("previous report\n")
        report = run(ScenarioConfig(scenario="pointer_basic", hypotheses=()))
        emit(report, path=target)
        assert target.read_text() == render_csv(report)
        assert [p.name for p in tmp_path.iterdir()] == ["r.csv"]


class TestCliExitCodes:
    def test_success(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = cli.main(
            ["--scenario", "pointer_basic", "--seed", "1", "--out", str(out)]
        )
        assert code == 0
        assert out.exists()
        assert str(out) in capsys.readouterr().out

    def test_invalid_config_file_line_number(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{\n  "scenario": "proietti",\n  "shotz": 3\n}\n')
        code = cli.main(["--config", str(cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{cfg}:3" in err

    def test_config_line_of_key_not_of_equal_string_value(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{\n  "output_path": "shots",\n  "shots": -1\n}\n')
        assert cli.main(["--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}:3: shots must be" in err

    def test_config_line_ignores_nested_keys(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{\n  "output_path": {"shots": 1},\n  "shots": -1\n}\n')
        assert cli.main(["--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}:3: shots must be" in err

    def test_invalid_json_reports_line(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text('{\n  "scenario": "proietti",\n}\n')
        assert cli.main(["--config", str(cfg)]) == 2
        assert f"{cfg}:3" in capsys.readouterr().err

    def test_invalid_flag_value(self, capsys):
        code = cli.main(["--scenario", "pointer_basic", "--grid-step", "7.0"])
        assert code == 2

    @pytest.mark.parametrize("scenario", ["counterexample", "pointer_basic"])
    def test_grid_step_for_a_scenario_without_a_grid_exits_2(self, scenario, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = cli.main(["--scenario", scenario, "--grid-step", "0.1", "--out", str(out)])
        assert code == 2
        assert "grid_step must be null" in capsys.readouterr().err
        assert not out.exists()

    def test_invariant_violation_exit(self, tmp_path, monkeypatch, capsys):
        def explode(config):
            raise InvariantViolation("synthetic failure for the exit-code path")

        monkeypatch.setattr(cli, "run", explode)
        code = cli.main(["--scenario", "pointer_basic", "--out", str(tmp_path / "x.csv")])
        assert code == 3
        assert "invariant" in capsys.readouterr().err

    def test_unwritable_path_exit(self, tmp_path, capsys):
        target = tmp_path / "nowhere" / "r.csv"
        code = cli.main(["--scenario", "pointer_basic", "--out", str(target)])
        assert code == 4
        assert "cannot write" in capsys.readouterr().err

    def test_shots_beyond_int64_exit_before_any_work(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = cli.main(["--scenario", "proietti", "--shots", str(10**20), "--out", str(out)])
        assert code == 2
        assert "2**63" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_over_budget_exits_before_any_work(self, tmp_path, monkeypatch, capsys):
        def never(config):
            raise AssertionError("an over-budget configuration reached run")

        monkeypatch.setattr(cli, "run", never)
        out = tmp_path / "r.csv"
        hypotheses = ",".join(f"stochastic_collapse({k / 100})" for k in range(100))
        code = cli.main(["--scenario", "proietti", "--hypotheses", hypotheses,
                         "--grid-step", str(math.pi / 128), "--out", str(out)])
        assert code == 2
        assert f"over the budget of {_GRID_PAIR_BUDGET:,}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "pointer_basic", "seed": 1, "shots": 50}))
        out = tmp_path / "r.csv"
        assert cli.main(["--config", str(cfg), "--shots", "10", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        sampled = [r for r in rows if r["shots"]]
        assert sampled and all(r["shots"] == "10" for r in sampled)


class TestCliDeterminism:
    """Byte-level reproducibility through the real process boundary."""

    def _run(self, tmp_path, name):
        out = tmp_path / name
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "wfsim",
                "--scenario",
                "bell_singlet",
                "--seed",
                "123",
                "--shots",
                "5000",
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

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        first = self._run(tmp_path, "a.csv")
        second = self._run(tmp_path, "b.csv")
        assert first == second

    def test_proietti_rows_do_not_depend_on_blas_threads(self, tmp_path):
        """The same rows with one OpenBLAS thread and with the default count."""

        def rows(name, env):
            out = tmp_path / name
            argv = [sys.executable, "-m", "wfsim", "--scenario", "proietti", "--seed", "17"]
            argv += ["--hypotheses", "unitary_only,stochastic_collapse(0.5)", "--shots", "2000"]
            argv += ["--grid-step", str(math.pi / 16), "--format", "json", "--out", str(out)]
            proc = subprocess.run(argv, capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            return json.dumps(json.loads(out.read_text())["rows"])

        default = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        single = rows("one.json", {**default, "OPENBLAS_NUM_THREADS": "1"})
        assert single == rows("default.json", default)

    def test_counterexample_memory_does_not_grow_with_shots(self, tmp_path):
        """Peak RSS of a child running the counterexample at 10**6 shots stays
        within 10% of its peak at 10**4 shots."""

        def peak_rss(shots):
            out = tmp_path / f"{shots}.csv"
            argv = ["--scenario", "counterexample", "--seed", "7", "--shots", str(shots)]
            argv += ["--out", str(out)]
            code = "import resource; from wfsim.cli import main; "
            code += f"assert main({argv!r}) == 0; "
            code += "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            return int(proc.stdout.split()[-1])

        assert peak_rss(10**6) <= 1.10 * peak_rss(10**4)

    def test_removed_threads_option_is_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "pointer_basic", "threads": 2}))
        assert cli.main(["--config", str(cfg), "--out", str(tmp_path / "r.csv")]) == 2
        assert "unknown configuration key 'threads'" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            cli.main(["--scenario", "pointer_basic", "--threads", "2"])
        assert exc.value.code == 2
        assert not (tmp_path / "r.csv").exists()

    def test_json_body_stable_except_wall_time(self, tmp_path):
        config = ScenarioConfig(
            scenario="counterexample", shots=1000, seed=8, output_format="json"
        )
        body_a = json.loads(render_json(run(config)))
        body_b = json.loads(render_json(run(config)))
        body_a.pop("wall_time_s")
        body_b.pop("wall_time_s")
        assert body_a == body_b


# The package's public names: a star import must give exactly these.
PUBLIC_NAMES = {
    "CLASSICAL_BOUND", "CollapseHypothesis", "CompositeSpace", "ConfigError",
    "DensityOperator", "DichotomicObservable", "FRIEND_DEPHASING", "FRIEND_PROJECTIVE",
    "HeraldImpossible", "InequalityResult", "InvalidState", "InvariantViolation",
    "LabelCollision", "MeasurementSettings", "PointerCoupling", "PointerNotReady",
    "ProiettiScenario", "ProjectiveMeasurement", "PureState", "ReportRow", "RunReport",
    "SUBJECTIVE_COLLAPSE", "ScenarioConfig", "ScenarioState", "ShapeError",
    "TSIRELSON_BOUND", "UNITARY_ONLY", "UnknownSubsystem", "ValidityReport",
    "WfsimError", "__version__", "bell_singlet", "bloch_vector", "born_probabilities",
    "chsh_value", "claimed_branch_collapse", "coherence_norm", "correlator",
    "counterexample_frequencies", "counterexample_measurement",
    "counterexample_probability", "counterexample_run", "counterexample_state_under",
    "couple_pointer", "dephase", "embed", "emit", "exact_optimum", "expectation",
    "expected_final_state", "friend_interaction", "friend_pair_state",
    "hypothesis_comparison", "improper_mixture", "local_deterministic_bound",
    "observable_from_bloch", "optimize_settings", "partial_trace", "prepared_state",
    "proietti_scenario", "projective_collapse", "purity", "render_csv", "render_json",
    "run", "sample_inequality", "source_state", "tensor", "validate",
}


def test_star_import_gives_the_public_names_and_no_module():
    """``__all__``, derived from the package's imports, holds the 69 public names once each,
    and a star import binds exactly those: no submodule, and not the private ModuleType."""
    import types

    import wfsim

    assert len(PUBLIC_NAMES) == 69
    assert sorted(wfsim.__all__) == sorted(PUBLIC_NAMES)
    namespace: dict = {}
    exec("from wfsim import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == PUBLIC_NAMES
    assert not any(isinstance(value, types.ModuleType) for value in namespace.values())
