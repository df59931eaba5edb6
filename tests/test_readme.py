"""Run the ``>>>`` examples of the README's Python quick tour."""

from __future__ import annotations

import doctest
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_tour():
    text = README.read_text()
    start = text.index("```python\n") + len("```python\n")
    block = text[start : text.index("```", start)]
    test = doctest.DocTestParser().get_doctest(block, {}, "README.md", str(README), 0)
    assert len(test.examples) >= 7
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.failures == 0, f"{runner.failures} README example(s) failed"
