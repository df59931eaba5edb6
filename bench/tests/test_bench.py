"""Self-tests for the benchmark: checks, generators, tracing.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from check import check_cli, check_survey, check_verify, digest, normalized_stdout, verify_reference  # noqa: E402
import shim  # noqa: E402
from workloads import DIGITS_CAP, GENERATORS, SURVEY_CAP, WEIGHT_CAP, Op, cli_pool  # noqa: E402

SEEDS = range(40)


def _survey_reference():
    refs = json.loads((BENCH / "reference" / "survey.json").read_text())
    key = next(k for k in refs if "strict" not in k)
    return refs[key]


# ---------------------------------------------------------------------------
# the checker flags what it must


def test_survey_reference_passes_itself():
    ref = _survey_reference()
    stdout = json.dumps(dict(ref, elapsed_ms=1234))
    assert check_survey(stdout, 0, ref) == []


def test_survey_flags_a_doubled_count_in_a_record():
    ref = _survey_reference()
    bad = json.loads(json.dumps(ref))
    bad["result"]["records"][7]["equations"] *= 2
    problems = check_survey(json.dumps(bad), 0, ref)
    assert problems and not any(p.strict for p in problems)


def test_survey_flags_broken_invariants():
    ref = _survey_reference()
    bad = json.loads(json.dumps(ref))
    rec = next(r for r in bad["result"]["records"] if r["weight"] == 23)
    rec["expressible"].remove("z23")
    rec["inexpressible"] = []
    texts = [p.text for p in check_survey(json.dumps(bad), 0, bad)]
    assert "weight 23: no inexpressible product" in texts
    assert "weight 23: z23 is not expressible" in texts


def test_survey_flags_wrong_exit_code():
    ref = _survey_reference()
    assert check_survey(json.dumps(ref), 1, ref)


EXPAND_JSON = (
    '{"schema_version": 1, "command": "expand", "inputs": {"a": 4, "b": 2, "reduce": true},'
    ' "result": {"weight": 6, "reduced": true, "terms": [{"mono": "z3^2", "coeff": "1/2", "pi": 0},'
    ' {"mono": "1", "coeff": "-1/1260", "pi": 6}]}, "elapsed_ms": %d}'
)


def test_cli_masks_elapsed_and_flags_doubled_coefficient():
    ref = {"exit": 0, "sha256": digest(normalized_stdout(EXPAND_JSON % 0, True))}
    assert check_cli(EXPAND_JSON % 57, 0, True, ref) == []
    doubled = (EXPAND_JSON % 0).replace('"coeff": "1/2"', '"coeff": "1"')
    assert check_cli(doubled, 0, True, ref)


def test_cli_flags_wrong_exit_code():
    text = "status: not_expressible\n"
    ref = {"exit": 2, "sha256": digest(text)}
    assert check_cli(text, 2, False, ref) == []
    problems = check_cli(text, 0, False, ref)
    assert [p.text for p in problems] == ["exit code 0, expected 2"]


def _verify_stdout(value: str, digits: int) -> str:
    lines = [f"{n:>11}: {value}" for n in ("symbolic", "series", "quadrature")]
    lines += ["  deviation: 0.0", f"  threshold: 1.0e-{digits - 5}", "PASS"]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def zeta3():
    digits = 30
    ref = verify_reference([(Fraction(1), 0, ((3, 1),))], digits)
    with mp.workdps(digits + 10):
        printed = mp.nstr(ref, digits)
    return digits, ref, printed


def test_verify_accepts_correct_digits(zeta3):
    digits, ref, printed = zeta3
    assert check_verify(_verify_stdout(printed, digits), 0, digits, ref) == []


def test_verify_flags_a_changed_digit(zeta3):
    digits, ref, printed = zeta3
    i = 12
    changed = printed[:i] + str((int(printed[i]) + 1) % 10) + printed[i + 1:]
    stdout = _verify_stdout(printed, digits).replace(f"series: {printed}", f"series: {changed}")
    problems = check_verify(stdout, 0, digits, ref)
    assert len(problems) == 1 and "series" in problems[0].text


def test_verify_digit_rule_is_relative_to_lz():
    # a tiny Lz: an error far below the absolute threshold still breaks a digit
    digits = 30
    ref = verify_reference([(Fraction(1, 10**20), 0, ((3, 1),))], digits)
    with mp.workdps(digits + 10):
        printed = mp.nstr(ref * (1 + mp.mpf(10) ** -22), digits)
    problems = check_verify(_verify_stdout(printed, digits), 0, digits, ref)
    assert problems and all(p.strict for p in problems)


def test_verify_flags_wrong_exit_code(zeta3):
    digits, ref, printed = zeta3
    assert check_verify(_verify_stdout(printed, digits).replace("PASS", "FAIL"), 3, digits, ref)


# ---------------------------------------------------------------------------
# generators: deterministic for a seed and inside the program's caps


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_generator_is_deterministic(workload):
    gen = GENERATORS[workload]
    for seed in SEEDS:
        assert gen(seed) == gen(seed)
    if workload != "survey-range":
        assert len({tuple(gen(s)) for s in SEEDS}) > len(SEEDS) // 2


def _weight(op: Op) -> int:
    argv = op.argv
    if argv[0] in ("expand", "verify"):
        return int(argv[1]) + int(argv[2])
    if argv[0] == "table":
        return int(argv[1])
    if argv[0] == "express":
        if op.option("--weight"):
            return int(op.option("--weight"))
        return sum(
            int(n) * int(k or 1)
            for n, _, k in (f[1:].partition("^") for f in argv[1].split("*"))
        )
    return 0


def test_generated_ops_stay_inside_the_caps():
    for seed in SEEDS:
        for op in GENERATORS["survey-range"](seed):
            assert int(op.option("--to")) <= SURVEY_CAP
        for op in GENERATORS["verify-digits"](seed):
            assert _weight(op) <= WEIGHT_CAP and 30 <= op.digits <= DIGITS_CAP
        for op in GENERATORS["cli-queries"](seed):
            assert _weight(op) <= WEIGHT_CAP


def test_verify_draw_holds_balanced_and_unbalanced_pairs():
    for seed in SEEDS:
        pairs = [(int(op.argv[1]), int(op.argv[2])) for op in GENERATORS["verify-digits"](seed)]
        assert any(a + b == 24 and abs(a - b) <= 2 for a, b in pairs)
        assert any(b <= 4 < a for a, b in pairs) and any(a <= 4 < b for a, b in pairs)


def test_every_op_has_a_reference():
    refs = json.loads((BENCH / "reference" / "cli.json").read_text())
    assert set(refs) == {Op(argv).key for argv in cli_pool()}
    assert {r["exit"] for r in refs.values()} == {0, 2}
    survey = json.loads((BENCH / "reference" / "survey.json").read_text())
    assert {op.key for op in GENERATORS["survey-range"](0)} == set(survey)


# ---------------------------------------------------------------------------
# metrics and tracing


def test_benchmark_json_matches_the_runner():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == [m for m, _, _ in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(GENERATORS)


def test_typical_pass_sums_per_op_medians():
    # op 0 is slowed in pass 1, op 1 in pass 2: no pass is typical, each op is
    times = [[1.0, 2.0], [1.5, 2.0], [1.0, 3.0]]
    assert run.typical_pass(times) == 3.0


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([1.0] * 10) is None
    value, pct = run.tail([float(i) for i in range(40)])
    assert value == 29.0 and pct == 75.0


def test_child_times_are_scaled_by_the_calibration_before_them():
    child = run.run_child([sys.executable, "-c", "pass"], run.child_env())
    assert child.cal_s > 0
    assert child.scaled_s == child.wall_s * run.CAL_REF_S / child.cal_s
    assert run.Pass([child, child]).scaled_s == 2 * child.scaled_s


def test_self_time_excludes_wrapped_children():
    tracer = shim.Tracer()
    clock = iter(range(100))
    real = shim._clock
    shim._clock = lambda: next(clock)
    try:
        inner = tracer.wrap("m.inner", lambda: None, hot=True)
        outer = tracer.wrap("m.outer", lambda: inner() or inner(), hot=False)
        outer()
    finally:
        shim._clock = real
    # outer: clock 0..5 (5 units) minus two inner calls of 1 unit each
    assert tracer.stats["m.outer"]["self_s"] == 3
    assert tracer.stats["m.inner"] == {"calls": 2, "self_s": 2}
    assert tracer.spans == [["m.outer", 0, 5, -1]]


def test_shim_rebinds_imported_names(tmp_path):
    out = tmp_path / "trace.json"
    cmd = [sys.executable, str(BENCH / "shim.py"), str(out), "express", "--mode", "strict", "z3*z5"]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=run.child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(out.read_text())
    stats = trace["stats"]
    # solver and numerics call expand_lz/reduce_even through from-imports
    assert stats["expansion.expand_lz"]["calls"] >= 2
    assert stats["solver.verify_certificate"]["calls"] == 1
    assert stats["coefficients.little_c"]["calls"] > 0
    names = {s[0] for s in trace["spans"]}
    assert {"cli.main", "solver.express", "solver.build_system", "exact.solve_membership"} <= names
    for name, start, end, parent in trace["spans"]:
        assert start <= end
        if parent >= 0:
            _, pstart, pend, _ = trace["spans"][parent]
            assert pstart <= start and end <= pend


def test_exits_nonzero_without_the_program(tmp_path):
    # a directory holding only the benchmark: no result, non-zero exit
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, "bench/run.py", "--workload", "cli-queries", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
