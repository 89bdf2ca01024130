"""Command-line entry point for batch scenario runs.

Configuration comes from an optional JSON file plus flags; a flag always
wins over the file.  Exit codes: 0 success, 2 invalid configuration
(message names the offending file line when one exists), 3 a physics
invariant failed during the run, 4 the output path was not writable.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import fields
from pathlib import Path

from . import __version__
from .errors import ConfigError, InvariantViolation
from .report import ENV_OUT_DIR, SCENARIOS, ScenarioConfig, emit, run

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_UNWRITABLE = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wfsim",
        description="Run an observer-chain scenario and write a quantity report.",
        epilog=(
            "When --out and output_path are absent, files land in "
            f"${ENV_OUT_DIR} if set, else the working directory."
        ),
    )
    parser.add_argument("--config", metavar="FILE", help="JSON configuration file")
    parser.add_argument("--scenario", choices=SCENARIOS, help="which scenario to run")
    parser.add_argument(
        "--hypotheses",
        metavar="LIST",
        help="comma-separated collapse hypotheses, e.g. "
        "'unitary_only,stochastic_collapse(0.5)'",
    )
    parser.add_argument("--seed", type=int, help="seed for the master random stream")
    parser.add_argument(
        "--shots", type=int, help="samples per measurement setting (0 = exact only)"
    )
    parser.add_argument(
        "--grid-step",
        type=float,
        dest="grid_step",
        help="also run a grid settings search at this angular resolution, in "
        "[pi/128, pi/8], as a cross-check of each exact s_max; adds a grid_gap "
        "row after each s_max; the search time grows as step**-4",
    )
    parser.add_argument(
        "--format",
        choices=("csv", "json"),
        dest="output_format",
        help="report format",
    )
    parser.add_argument("--out", dest="output_path", help="output file path")
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    return parser


def _load_config_file(path: str) -> tuple[dict, dict[str, int]]:
    """Parse a JSON config file and map each top-level key to its line."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config file: {exc}") from exc
    try:
        mapping = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    if not isinstance(mapping, dict):
        raise ConfigError(f"{path}:1: the top level must be a JSON object")
    return mapping, _top_level_key_lines(text)


# A JSON string, with the colon that follows it when it is a key, or a
# bracket.  Nothing else in valid JSON contains a quote or a bracket.
_JSON_TOKEN = re.compile(r'("(?:[^"\\]|\\.)*")(\s*:)?|[{}\[\]]')


def _top_level_key_lines(text: str) -> dict[str, int]:
    """Line of each key of the top-level object in valid JSON text.

    A key is a string token directly followed by a colon at nesting depth
    one, so a string value that spells a key name is never taken for it.
    A repeated key maps to its last occurrence, the one ``json`` keeps.
    """
    lines: dict[str, int] = {}
    depth = 0
    for match in _JSON_TOKEN.finditer(text):
        token, colon = match.group(1), match.group(2)
        if token is None:
            depth += 1 if match.group() in "{[" else -1
        elif colon and depth == 1:
            lines[json.loads(token)] = text.count("\n", 0, match.start()) + 1
    return lines


def load_config(args: argparse.Namespace) -> ScenarioConfig:
    """Merge the config file (if any) with flag overrides; flags win."""
    if args.config:
        mapping, lines = _load_config_file(args.config)
        source = args.config
    else:
        mapping, lines, source = {}, {}, "<flags>"
    for field in fields(ScenarioConfig):
        value = getattr(args, field.name)
        if value is not None:
            mapping[field.name] = value
            lines.pop(field.name, None)
    return ScenarioConfig.from_mapping(mapping, lines, source)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        report = run(config)
    except InvariantViolation as exc:
        print(f"error: invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    try:
        out_path = emit(report)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return EXIT_UNWRITABLE
    print(f"wrote {len(report.rows)} rows to {out_path}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
