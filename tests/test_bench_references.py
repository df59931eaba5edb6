"""Replay the benchmark's recorded outputs in process.

bench/reference/cli.json holds, per short command, its exit code and the
sha256 of its stdout (JSON envelopes without ``elapsed_ms``), and
bench/reference/survey.json the JSON envelopes of three surveys.  Both were
recorded from earlier versions of the program; the replay only reads them,
through the benchmark's own normalisation in bench/check.py.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_check():
    spec = importlib.util.spec_from_file_location("bench_check", BENCH / "check.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _reference(name: str) -> dict:
    return json.loads((BENCH / "reference" / name).read_text())


def test_cli_references_replay(run_cli):
    check = _bench_check()
    refs = _reference("cli.json")
    assert len(refs) == 525
    differ = []
    for key, ref in refs.items():
        argv = key.split()
        code, out, _ = run_cli(*argv)
        is_json = "--format" in argv and argv[argv.index("--format") + 1] == "json"
        got = (code, check.digest(check.normalized_stdout(out, is_json)))
        if got != (ref["exit"], ref["sha256"]):
            differ.append(key)
    assert differ == []


def test_survey_references_replay(run_cli):
    refs = _reference("survey.json")
    assert len(refs) == 3
    for key, want in refs.items():
        code, out, _ = run_cli(*key.split())
        envelope = json.loads(out)
        del envelope["elapsed_ms"]
        assert (code, envelope) == (0, want), key
