"""Exact-stdout characterization of the CLI's study subcommands.

Every local study command — ``evaluate``, ``compare``, ``sensitivity``,
``optimize`` and ``search`` — is pinned byte for byte, in text and
``--json`` form where it has one, against
``tests/golden/cli_stdout.json``. Refactoring how the CLI
prices or renders a study must leave these outputs unchanged.

Regenerate the goldens (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_cli_characterization.py
"""

import json
import sys
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli_stdout.json"

DESIGN = {
    "name": "cli_chip",
    "integration": "hybrid_3d",
    "stacking": "f2f",
    "assembly": "d2w",
    "package": {"class": "fcbga"},
    "throughput_tops": 254.0,
    "dies": [
        {"name": "top", "node": "7nm", "gate_count": 8.5e9,
         "workload_share": 0.5, "efficiency_tops_per_w": 2.74},
        {"name": "bottom", "node": "7nm", "gate_count": 8.5e9,
         "workload_share": 0.5, "efficiency_tops_per_w": 2.74},
    ],
}

#: A single-die 2D reference: what ``search`` splits.
REFERENCE = {
    "name": "cli_ref",
    "integration": "2d",
    "package": {"class": "fcbga"},
    "throughput_tops": 254.0,
    "dies": [
        {"name": "soc", "node": "7nm", "gate_count": 17e9,
         "efficiency_tops_per_w": 2.74},
    ],
}

OPTIMIZE_AXES = [
    "--integrations", "hybrid_3d,mcm", "--die-counts", "2",
    "--wafers", "300,450", "--locations", "taiwan,iceland",
    "--max-configs", "24", "--chunk", "10", "--seed", "11",
]

#: case id → argv; ``{design}`` and ``{reference}`` are replaced by the
#: paths of the files holding :data:`DESIGN` and :data:`REFERENCE`.
CASES = {
    "evaluate-av-text": ["evaluate", "{design}"],
    "evaluate-av-json": ["evaluate", "{design}", "--json"],
    "evaluate-none-text": ["evaluate", "{design}", "--workload", "none"],
    "evaluate-none-json": [
        "evaluate", "{design}", "--workload", "none", "--json",
    ],
    "evaluate-iceland-text": [
        "--fab-location", "iceland", "evaluate", "{design}",
    ],
    "evaluate-iceland-json": [
        "--fab-location", "iceland", "evaluate", "{design}", "--json",
    ],
    "compare-text": ["compare", "{design}"],
    "compare-json": ["compare", "{design}", "--json"],
    "compare-draws-text": ["compare", "{design}", "--draws", "12"],
    "compare-draws-json": ["compare", "{design}", "--draws", "12", "--json"],
    "compare-backends-text": [
        "compare", "{design}", "--backends", "repro3d,act",
    ],
    "compare-backends-json": [
        "compare", "{design}", "--backends", "repro3d,act", "--json",
    ],
    "sensitivity-text": ["sensitivity", "{design}"],
    "optimize-text": ["optimize", "orin", *OPTIMIZE_AXES],
    "optimize-json": ["optimize", "orin", "--json", *OPTIMIZE_AXES],
    "optimize-stream-text": ["optimize", "orin", "--stream", *OPTIMIZE_AXES],
    "search-text": ["search", "{reference}"],
    "search-iceland-text": [
        "--fab-location", "iceland", "search", "{reference}",
    ],
}


def _write_designs(directory: Path) -> "dict[str, str]":
    """Write both design files; placeholder → path."""
    paths = {}
    for placeholder, record in (("{design}", DESIGN),
                                ("{reference}", REFERENCE)):
        path = directory / f"{placeholder.strip('{}')}.json"
        path.write_text(json.dumps(record))
        paths[placeholder] = str(path)
    return paths


def _argv(case: str, paths: "dict[str, str]") -> "list[str]":
    return [paths.get(arg, arg) for arg in CASES[case]]


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture()
def design_paths(tmp_path) -> "dict[str, str]":
    return _write_designs(tmp_path)


def test_every_case_has_a_golden(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_is_pinned(case, golden, design_paths, capsys):
    assert main(_argv(case, design_paths)) == 0
    assert capsys.readouterr().out == golden[case]


def _regenerate() -> None:  # pragma: no cover - maintenance entry point
    import contextlib
    import io
    import tempfile

    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        paths = _write_designs(Path(tmp))
        for case in sorted(CASES):
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                assert main(_argv(case, paths)) == 0
            outputs[case] = buffer.getvalue()
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps(outputs, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(outputs)} cases to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover
    _regenerate()
