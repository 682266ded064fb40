"""Exact-stdout characterization of the paper-reproduction outputs.

Pins the sha256 of what ``carbon3d validate-epyc``,
``carbon3d validate-lakefield`` and ``carbon3d table5`` print, and of the
stdout of ``examples/validate_published_designs.py`` and
``examples/drive_case_study.py``. Moving where these read their paper
values from must leave every byte of their output unchanged.
"""

import hashlib
import runpy
from pathlib import Path

import pytest

from repro.cli import main

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

CLI_DIGESTS = {
    "validate-epyc":
        "5379890dfe650f63f0479b491d7a3964988fab83a7bd12c85652d3fa0271e05b",
    "validate-lakefield":
        "cf98b6f474533edd43f9ca41903b0cc0f14932408a807158f222d94854fc425f",
    "table5":
        "1f7db3600f5752af4ea37c46115b24681212ee6037dcf5f1a80c51087706808e",
}

EXAMPLE_DIGESTS = {
    "validate_published_designs.py":
        "47294bb03ecd85ea5813b53c90e23dedf64f20569231ee45852ac7cf8a79f993",
    "drive_case_study.py":
        "455e67b493588ac08d0b59b521bff33123c33164fd368c17fd5226ac4cb81912",
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("command", sorted(CLI_DIGESTS))
def test_cli_stdout_is_pinned(command, capsys):
    assert main([command]) == 0
    assert _digest(capsys.readouterr().out) == CLI_DIGESTS[command]


@pytest.mark.parametrize("script", sorted(EXAMPLE_DIGESTS))
def test_example_stdout_is_pinned(script, capsys):
    runpy.run_path(str(EXAMPLES / script), run_name="__main__")
    assert _digest(capsys.readouterr().out) == EXAMPLE_DIGESTS[script]
