"""Replay the golden CLI transcript in tests/data/cli_golden.txt.

Each entry is a ``$ zetalog ARGS`` line, the exact stdout, and an
``[exit N]`` line.  JSON envelopes carry ``"elapsed_ms": "*"`` in place of
the run-dependent timing.  The transcript pins every rendered form
(text, LaTeX, JSON) byte for byte, so it must not be edited to make a
change pass.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.txt"
_ELAPSED = re.compile(r'"elapsed_ms": \d+')


def _entries():
    argv, out = None, []
    for line in GOLDEN.read_text().splitlines(keepends=True):
        if argv is None:
            assert line.startswith("$ zetalog "), line
            argv, out = shlex.split(line[len("$ zetalog "):]), []
        elif re.fullmatch(r"\[exit \d+\]\n", line):
            yield argv, "".join(out), int(line[6:-2])
            argv = None
        else:
            out.append(line)
    assert argv is None, "transcript ends inside an entry"


def test_golden_transcript(run_cli):
    entries = list(_entries())
    assert len(entries) >= 40
    mismatches = []
    for argv, want_out, want_code in entries:
        code, out, _ = run_cli(*argv)
        out = _ELAPSED.sub('"elapsed_ms": "*"', out)
        if (code, out) != (want_code, want_out):
            mismatches.append(f"zetalog {shlex.join(argv)}: exit {code}\n{out}")
    assert not mismatches, "\n".join(mismatches)
