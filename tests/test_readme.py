"""README's "Library quickstart" block runs and prints what its comments say.

The block is executed as written, so a public name that it imports and
that is removed or renamed fails here.
"""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def _quickstart() -> str:
    section = README.read_text().split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quickstart_prints_its_commented_values():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_quickstart(), "README.md", "exec"), {})
    test, embedding, cert, maximal, one_box, bitree_ok = [
        line.split() for line in out.getvalue().splitlines()
    ]
    assert float(test[0]) == 1.875                      # 2 - 2^-3
    assert float(test[0]) <= float(embedding[0]) <= 4 * float(test[0])
    assert cert[0] == "True"
    assert [float(x) for x in cert[1:]] == pytest.approx([8.0, 60.0], abs=1e-12)
    assert maximal[0] == "True" and float(maximal[1]) <= 32
    assert float(one_box[0]) == 3.0625                  # (2 - 1/4)^2
    assert bitree_ok == ["True"]
