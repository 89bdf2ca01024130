"""README.md's Python examples run as written, so a documented call cannot go stale."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                    flags=re.MULTILINE | re.DOTALL)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{k}" for k in range(len(BLOCKS))])
def test_readme_python_block_runs(block):
    """Each block runs in a fresh namespace; what it prints is discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(block, str(README), "exec"), {})
