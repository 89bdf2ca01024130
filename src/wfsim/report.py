"""Scenario configuration, batch execution, and deterministic reports.

A report is a flat list of quantity rows.  Both inequality scenarios
read theirs off ``hypothesis_comparison`` results (``_result_rows``), and
each row becomes one record over CSV_COLUMNS with its numbers rounded to
12 significant digits (``_records``): the JSON emits the records and the
CSV prints them with ``%.12g``, so the two formats are literally the same
table.  For a fixed configuration and seed the data rows are
byte-identical across runs; wall time is the one field excluded from
that guarantee.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import numbers
import os
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, NoReturn

import numpy as np

from . import __version__
from .chsh import (
    _GRID_PAIR_BUDGET,
    InequalityResult,
    _scan_pairs,
    correlator,
    grid_step_in_range,
    hypothesis_comparison,
    local_deterministic_bound,
)
from .errors import ConfigError, InvalidState, ShapeError, _check_count
from .hilbert import (
    CompositeSpace,
    DichotomicObservable,
    PureState,
    coherence_norm,
    partial_trace,
    purity,
)
from .measurement import (
    CollapseHypothesis,
    PointerCoupling,
    _HYPOTHESIS_VARIANTS,
    born_probabilities,
    couple_pointer,
    dephase,
    improper_mixture,
)
from .scenarios import (
    COUNTEREXAMPLE_HYPOTHESES,
    COUNTEREXAMPLE_ORDER,
    PROIETTI_ORDER,
    SINGLET_ORDER,
    HeldScenario,
    _binomial_frequency,
    bell_singlet,
    counterexample_probability,
    expected_final_state,
    proietti_scenario,
)

ENV_OUT_DIR = "WFSIM_OUT_DIR"

_FORMATS = ("csv", "json")

CSV_COLUMNS = (
    "scenario",
    "hypothesis",
    "quantity",
    "exact_value",
    "estimate",
    "std_error",
    "shots",
    "seed",
)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated description of one batch run.

    ``__post_init__`` is the one validator: every type and range check
    lives there and raises ConfigError.  ``hypotheses`` may also be one
    comma-separated string; ``None`` takes the scenario's defaults.
    ``grid_step`` is ``None`` (no grid) or, for a scenario whose runner
    reads it, the step of a grid search run as a cross-check of each exact
    ``s_max``, reported as ``grid_gap``; the (hypotheses + 1) scans it may
    cost must fit the grid pair budget.
    """

    scenario: str = "proietti"
    hypotheses: tuple[str, ...] | None = None
    shots: int = 0
    seed: int = 0
    grid_step: float | None = None
    output_format: str = "csv"
    output_path: str | None = None

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ConfigError(
                f"unknown scenario {self.scenario!r}; known: {', '.join(SCENARIOS)}"
            )
        spec = _SCENARIO_TABLE[self.scenario]
        hypotheses = self.hypotheses
        if hypotheses is None:
            hypotheses = spec.default_hypotheses
        elif isinstance(hypotheses, str):
            hypotheses = [h.strip() for h in hypotheses.split(",") if h.strip()]
        if not isinstance(hypotheses, (list, tuple)):
            raise ConfigError(f"hypotheses must be a list of names, got {hypotheses!r}")
        object.__setattr__(self, "hypotheses", tuple(hypotheses))
        seen: set[str] = set()
        for text in self.hypotheses:
            if not isinstance(text, str):
                raise ConfigError(f"bad hypotheses entry {text!r}: not a name")
            try:
                hyp = CollapseHypothesis.parse(text)
            except InvalidState as exc:
                raise ConfigError(f"bad hypotheses entry {text!r}: {exc}") from exc
            if hyp.name in seen:
                raise ConfigError(f"hypotheses list names {hyp.name!r} twice")
            seen.add(hyp.name)
            if hyp.variant not in spec.allowed_variants:
                raise ConfigError(
                    f"hypotheses for scenario {self.scenario!r} must come from "
                    f"[{', '.join(spec.allowed_variants)}], got {hyp.name!r}"
                )
        try:
            _check_count("shots", self.shots, 0)
        except ShapeError as exc:
            raise ConfigError(str(exc)) from None
        if not _is_int(self.seed) or not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if self.grid_step is not None:
            if not spec.reads_grid_step:
                raise ConfigError(f"grid_step must be null: {self.scenario!r} runs no grid")
            if (
                isinstance(self.grid_step, bool)
                or not isinstance(self.grid_step, numbers.Real)
                or not grid_step_in_range(float(self.grid_step))
            ):
                raise ConfigError(
                    "grid_step must be null or lie in [pi/128, pi/8], "
                    f"got {self.grid_step!r}"
                )
            object.__setattr__(self, "grid_step", float(self.grid_step))
            pairs = (len(self.hypotheses) + 1) * _scan_pairs(self.grid_step)
            if pairs > _GRID_PAIR_BUDGET:
                raise ConfigError(
                    f"grid_step {self.grid_step!r} with {len(self.hypotheses)} hypotheses "
                    f"scans {pairs:,} grid pairs, over the budget of {_GRID_PAIR_BUDGET:,}"
                )
        if self.output_format not in _FORMATS:
            raise ConfigError(
                f"output_format must be one of {', '.join(map(repr, _FORMATS))}, "
                f"got {self.output_format!r}"
            )
        if self.output_path is not None and not isinstance(self.output_path, str):
            raise ConfigError(f"output_path must be a string, got {self.output_path!r}")

    @classmethod
    def from_mapping(
        cls,
        mapping: dict,
        lines: dict[str, int] | None = None,
        source: str = "<config>",
    ) -> "ScenarioConfig":
        """Build and validate a config, pointing errors at source lines.

        A key whose value is null keeps the field's default.
        """
        lines = lines or {}

        def fail(key: str | None, message: str) -> NoReturn:
            line = lines.get(key)
            where = f"{source}:{line}" if line else source
            raise ConfigError(f"{where}: {message}") from None

        for key in mapping:
            if key not in _FIELD_NAMES:
                fail(key, f"unknown configuration key {key!r}")
        try:
            return cls(**{k: v for k, v in mapping.items() if v is not None})
        except ConfigError as exc:
            # Validation messages lead with the failing field's name, so the
            # field named first in the message picks the source line.
            message = str(exc)
            hits = [
                (message.find(key), key)
                for key in _FIELD_NAMES
                if key in message and lines.get(key)
            ]
            fail(min(hits)[1] if hits else None, message)

    def echo(self) -> dict:
        """JSON-ready copy of the configuration as given, in field order."""
        body = {name: getattr(self, name) for name in _FIELD_NAMES}
        body["hypotheses"] = list(self.hypotheses)
        body["grid_step"] = _round12(self.grid_step)
        return body


_FIELD_NAMES = tuple(field.name for field in fields(ScenarioConfig))


@dataclass(frozen=True)
class ReportRow:
    """One audited quantity; estimate columns filled only when sampled."""

    scenario: str
    hypothesis: str
    quantity: str
    exact_value: float | None
    estimate: float | None = None
    std_error: float | None = None
    shots: int | None = None


@dataclass(frozen=True)
class RunReport:
    """Everything a run produced, ready for emission."""

    config: ScenarioConfig
    factor_order: tuple[str, ...]
    rows: tuple[ReportRow, ...]
    wall_time_s: float
    version: str


_CORRELATOR_NAMES = ("correlator_e11", "correlator_e10", "correlator_e01", "correlator_e00")


def _probability_row(
    scenario: str,
    hypothesis: str,
    quantity: str,
    exact: float,
    p_hat: float | None,
    shots: int,
) -> ReportRow:
    """An exact probability; with shots > 0 also its sampled frequency
    ``p_hat`` and that frequency's binomial standard error."""
    if shots == 0:
        return ReportRow(scenario, hypothesis, quantity, exact)
    std_error = math.sqrt(max(0.0, p_hat * (1.0 - p_hat)) / shots)
    return ReportRow(scenario, hypothesis, quantity, exact, p_hat, std_error, shots)


def _result_rows(
    scenario: str, hypothesis: str, quantity: str, result: InequalityResult
) -> list[ReportRow]:
    """A comparison result's rows: ``s_max``, ``grid_gap`` when a grid ran, then the exact
    S as ``quantity`` and its four correlators, with estimates only when sampled."""
    rows = [ReportRow(scenario, hypothesis, "s_max", result.s_max)]
    if result.grid_gap is not None:
        rows.append(ReportRow(scenario, hypothesis, "grid_gap", result.grid_gap))
    names = (quantity, *_CORRELATOR_NAMES)
    exact = (result.exact_s, *result.exact_correlators)
    estimates = (None,) * len(names) if result.exact else (result.s_value, *result.correlators)
    std_errors = (result.std_error,) + (None,) * len(_CORRELATOR_NAMES)
    for row in zip(names, exact, estimates, std_errors):
        rows.append(ReportRow(scenario, hypothesis, *row, result.shots))
    return rows


def _run_pointer_basic(config: ScenarioConfig, rng: np.random.Generator) -> list[ReportRow]:
    system = PureState(
        CompositeSpace.qubits("s"), np.array([1.0, 1.0]) / math.sqrt(2.0)
    )
    coupled = couple_pointer(system, PointerCoupling("s", "p"))
    rho = coupled.density()
    reduced = improper_mixture(coupled, ("s",))
    dephased = dephase(rho, ("s", "p"))
    probs = born_probabilities(coupled, ("s",))

    rows = [
        ReportRow(config.scenario, "", quantity, value)
        for quantity, value in (
            ("composite_purity", purity(rho)),
            ("reduced_purity", purity(reduced)),
            ("coherence_composite", coherence_norm(rho)),
            ("coherence_dephased", coherence_norm(dephased)),
        )
    ]
    counts = rng.multinomial(config.shots, probs) if config.shots > 0 else None
    for k in range(probs.size):
        p_hat = None if counts is None else counts[k] / config.shots
        rows.append(
            _probability_row(
                config.scenario, "", f"born_p{k}", float(probs[k]), p_hat, config.shots
            )
        )
    return rows


def _run_bell_singlet(config: ScenarioConfig, rng: np.random.Generator) -> list[ReportRow]:
    psi = bell_singlet()
    scenario = HeldScenario(psi, SINGLET_ORDER[:1], SINGLET_ORDER[1:], variants=("unitary_only",))
    rho = psi.density()
    reduced_e1 = partial_trace(rho, ("e1",))
    reduced_e2 = partial_trace(rho, ("e2",))
    zz = correlator(
        psi,
        DichotomicObservable.pauli("z", "e1"),
        DichotomicObservable.pauli("z", "e2"),
    )
    (result,) = hypothesis_comparison(
        scenario, ["unitary_only"], shots=config.shots, rng=rng, grid_step=config.grid_step
    )
    return [
        ReportRow(config.scenario, "", quantity, value)
        for quantity, value in (
            ("composite_purity", purity(rho)),
            ("reduced_purity_e1", purity(reduced_e1)),
            ("reduced_purity_e2", purity(reduced_e2)),
            ("coherence_reduced_e1", coherence_norm(reduced_e1)),
            ("sigma_zz_correlator", zz),
        )
    ] + _result_rows(config.scenario, "", "s_at_optimal", result)


def _run_proietti(config: ScenarioConfig, rng: np.random.Generator) -> list[ReportRow]:
    scenario = proietti_scenario()
    final = scenario.final.state
    ((_, rho_final),) = scenario.held_terms("unitary_only")  # the held final density
    reference = expected_final_state()
    deviation = float(np.max(np.abs(final.amplitudes - reference.amplitudes)))
    herald_a, herald_b = scenario.herald_probabilities
    min_purity = min(
        purity(partial_trace(rho_final, (label,)))
        for label in rho_final.space.labels
    )

    rows = [
        ReportRow(config.scenario, "", quantity, value)
        for quantity, value in (
            ("herald_probability_side_a", herald_a),
            ("herald_probability_side_b", herald_b),
            ("herald_probability_chained", scenario.chained_herald_probability),
            ("final_vs_reference_error", deviation),
            ("final_composite_purity", purity(rho_final)),
            ("min_single_factor_purity", min_purity),
            ("local_deterministic_bound", local_deterministic_bound()),
        )
    ]

    results = hypothesis_comparison(
        scenario, config.hypotheses, shots=config.shots, rng=rng, grid_step=config.grid_step
    )
    for res in results:
        name = res.hypothesis.name
        rows += _result_rows(config.scenario, name, "s_at_witness_settings", res)
        flag = 1.0 if res.consistent_with_data else 0.0
        rows.append(ReportRow(config.scenario, name, "consistent_with_unitary", flag))
    return rows


def _run_counterexample(config: ScenarioConfig, rng: np.random.Generator) -> list[ReportRow]:
    hypotheses = [CollapseHypothesis.parse(h) for h in config.hypotheses]
    streams = rng.spawn(len(hypotheses)) if config.shots > 0 else None
    rows = []
    for k, hyp in enumerate(hypotheses):
        exact_p = counterexample_probability(hyp)
        freq = None
        if config.shots > 0:
            freq = _binomial_frequency(exact_p, config.shots, streams[k])
        rows.append(
            _probability_row(
                config.scenario, hyp.name, "photon_probability", exact_p, freq, config.shots
            )
        )
    return rows


@dataclass(frozen=True)
class Scenario:
    """Everything the report layer knows about one scenario.

    ``allowed_variants`` lists the CollapseHypothesis variants a config
    may name (none for scenarios that take no hypotheses), and
    ``default_hypotheses`` is what a config without hypotheses runs.
    ``reads_grid_step`` says whether the runner reads ``grid_step``.
    """

    name: str
    runner: Callable[[ScenarioConfig, np.random.Generator], list[ReportRow]]
    factor_order: tuple[str, ...]
    default_hypotheses: tuple[str, ...] = ()
    allowed_variants: tuple[str, ...] = ()
    reads_grid_step: bool = False


_SCENARIO_TABLE = {
    spec.name: spec
    for spec in (
        Scenario(
            "proietti",
            _run_proietti,
            PROIETTI_ORDER,
            default_hypotheses=("unitary_only", "friend_dephasing"),
            allowed_variants=_HYPOTHESIS_VARIANTS,
            reads_grid_step=True,
        ),
        Scenario(
            "counterexample",
            _run_counterexample,
            COUNTEREXAMPLE_ORDER,
            default_hypotheses=COUNTEREXAMPLE_HYPOTHESES,
            allowed_variants=COUNTEREXAMPLE_HYPOTHESES,
        ),
        Scenario("pointer_basic", _run_pointer_basic, ("s", "p")),
        Scenario("bell_singlet", _run_bell_singlet, SINGLET_ORDER, reads_grid_step=True),
    )
}

SCENARIOS = tuple(_SCENARIO_TABLE)


def run(config: ScenarioConfig) -> RunReport:
    """Execute the configured scenario and collect its report rows.

    The master generator is ``numpy.random.default_rng(seed)`` (PCG64);
    every consumer derives child streams from it in a fixed documented
    order, so the rows depend only on the configuration and seed.
    """
    started = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    spec = _SCENARIO_TABLE[config.scenario]
    rows = spec.runner(config, rng)
    elapsed = time.perf_counter() - started
    return RunReport(
        config=config,
        factor_order=spec.factor_order,
        rows=tuple(rows),
        wall_time_s=elapsed,
        version=__version__,
    )


def _round12(value):
    if value is None:
        return None
    return float(f"{float(value):.12g}")


def _records(report: RunReport) -> list[dict]:
    """Each row as one record over CSV_COLUMNS, its numbers rounded to 12 significant
    digits: the JSON objects, whose floats the CSV prints with ``%.12g``."""
    seed = report.config.seed
    return [
        dict(zip(CSV_COLUMNS, (
            row.scenario, row.hypothesis, row.quantity, _round12(row.exact_value),
            _round12(row.estimate), _round12(row.std_error), row.shots, seed,
        )))
        for row in report.rows
    ]


def render_csv(report: RunReport) -> str:
    """The CSV text: header plus one line per record, 12 significant digits."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for record in _records(report):
        writer.writerow("%.12g" % v if isinstance(v, float) else v for v in record.values())
    return buf.getvalue()


def render_json(report: RunReport) -> str:
    """The JSON text mirroring the CSV schema, one object per record.

    Parsing the file recovers exactly the values the CSV prints.
    ``wall_time_s`` is informational and excluded from the determinism
    guarantee.
    """
    body = {
        "version": report.version,
        "factor_order": list(report.factor_order),
        "config": report.config.echo(),
        "rows": _records(report),
        "wall_time_s": _round12(report.wall_time_s),
    }
    return json.dumps(body, indent=2) + "\n"


def emit(report: RunReport, path: str | os.PathLike | None = None) -> Path:
    """Write the report; returns the path written.

    Location precedence: explicit ``path`` argument, then the config's
    ``output_path``, then ``$WFSIM_OUT_DIR`` (with a default file name),
    then the working directory.  The text goes to a temporary file in
    the target's directory that is then renamed over the target, so an
    interrupted write never leaves half a report.  OSError propagates to
    the caller.
    """
    fmt = report.config.output_format
    if path is None:
        path = report.config.output_path
    if path is None:
        default_name = f"{report.config.scenario}_seed{report.config.seed}.{fmt}"
        out_dir = os.environ.get(ENV_OUT_DIR, "")
        path = os.path.join(out_dir, default_name) if out_dir else default_name
    out = Path(path)
    text = render_csv(report) if fmt == "csv" else render_json(report)
    tmp = out.parent / f".{out.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, out)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise
    return out
