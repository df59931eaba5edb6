#!/usr/bin/env python3
"""Record the reference outputs the checks compare against.

    python3 bench/record.py [survey] [cli]

Runs every ``survey-range`` op and every ``cli-queries`` candidate once
against ``src/`` and writes ``bench/reference/{survey,cli}.json`` (only the
named ones, if any are named).  ``cli.json`` also holds each candidate's cost,
which orders the candidates into strata, so re-recording it changes the draws.  The
references were recorded on the commit that introduced the benchmark;
re-record only when an output is meant to change, and say so in the change.
"""

from __future__ import annotations

import json
import sys

from run import ENTRY, REFERENCE, child_env, spawn
from check import digest, normalized_stdout
from workloads import SURVEY_OPS, Op, cli_pool


def run(argv, env):
    child = spawn([sys.executable, "-c", ENTRY, *argv], env)
    if child.exit_code not in (0, 2):
        raise SystemExit(f"{' '.join(argv)}: exit {child.exit_code}\n{child.stderr}")
    return child


def record_survey(env) -> None:
    survey = {}
    for argv in SURVEY_OPS:
        envelope = json.loads(run(argv, env).stdout)
        envelope.pop("elapsed_ms")
        survey[Op(argv).key] = envelope
    (REFERENCE / "survey.json").write_text(json.dumps(survey, indent=1, sort_keys=True) + "\n")


def record_cli(env) -> None:
    cli = {}
    for argv in cli_pool():
        op = Op(argv)
        child = run(argv, env)
        text = normalized_stdout(child.stdout, op.is_json)
        cost = round(child.wall_s, 3)  # orders candidates into cost-matched strata
        cli[op.key] = {"exit": child.exit_code, "sha256": digest(text), "cost_s": cost}
    (REFERENCE / "cli.json").write_text(json.dumps(cli, indent=1, sort_keys=True) + "\n")


def main(names) -> None:
    env = child_env()
    REFERENCE.mkdir(exist_ok=True)
    for name in names or ("survey", "cli"):
        {"survey": record_survey, "cli": record_cli}[name](env)


if __name__ == "__main__":
    main(sys.argv[1:])
