"""Run the ``>>>`` examples of the README's Python quick tour and replay its
``$ zetalog ...`` command-line samples."""

from __future__ import annotations

import doctest
import re
import shlex
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

# an indented "$ zetalog ..." line and the indented output lines under it
CLI_SAMPLE = re.compile(r"^    \$ zetalog (.+)\n((?:    .*\n)*)", re.M)


def test_readme_python_tour():
    text = README.read_text()
    start = text.index("```python\n") + len("```python\n")
    block = text[start : text.index("```", start)]
    test = doctest.DocTestParser().get_doctest(block, {}, "README.md", str(README), 0)
    assert len(test.examples) >= 7
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.failures == 0, f"{runner.failures} README example(s) failed"


def test_readme_cli_samples(run_cli):
    # a sample whose output holds "..." is elided, and is skipped
    replayed, elided = [], []
    for match in CLI_SAMPLE.finditer(README.read_text()):
        command, want = match[1], "".join(line[4:] + "\n" for line in match[2].splitlines())
        if "..." in want:
            elided.append(command)
            continue
        assert run_cli(*shlex.split(command)) == (0, want, ""), command
        replayed.append(command)
    assert len(replayed) == 7
    assert elided == ["survey --from 3 --to 12"]
