"""README.md's Python blocks run as written."""

import re
import textwrap
from pathlib import Path

import numpy as np

from slowphase import models

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks():
    """The fenced ```python blocks of README.md, dedented, in file order."""
    text = README.read_text(encoding="utf-8")
    return [textwrap.dedent(body) for indent, body in
            re.findall(r"^( *)```python\n(.*?)^\1```", text, flags=re.S | re.M)]


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    """The user-model example, the library example, the staged pipeline and
    the NumPy table snippet run in a fresh directory: the library blocks
    first, since the staged block writes the ``out`` directory that the
    snippet reads.  The model the example registers stays in this test."""
    blocks = _python_blocks()
    assert len(blocks) == 4
    snippet = next(block for block in blocks if "np.load(" in block)
    library = [block for block in blocks if block is not snippet]
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(models, "_REGISTRY", dict(models._REGISTRY))
    for i, block in enumerate(library + [snippet]):
        scope = {}
        exec(compile(block, f"{README.name}, Python block {i}", "exec"), scope)
    # the staged block's oracle run: order 4 stores orders 0..5 on grid 128
    assert scope["values"].shape == (6, 128, 2)
    assert np.isfinite(scope["values"]).all()
