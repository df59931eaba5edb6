from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from zetalog import cli, numerics, solver
from zetalog.expansion import ZetaCombination, ZetaMonomial, expand_lz
from zetalog.numerics import PrecisionBudgetError
from zetalog.solver import express

GOLDEN_DIR = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parents[1] / "src"

ENVELOPE_FIELDS = ["schema_version", "command", "inputs", "result", "elapsed_ms"]


def parse_envelope(out: str) -> dict:
    env = json.loads(out)
    assert list(env) == ENVELOPE_FIELDS
    assert env["schema_version"] == 1
    assert isinstance(env["elapsed_ms"], int)
    return env


def test_expand_text(run_cli):
    code, out, err = run_cli("expand", "3", "2")
    assert code == 0 and err == ""
    assert out == "2*z5 - z2*z3\n"


def test_expand_reduced_text(run_cli):
    code, out, _ = run_cli("expand", "2", "2", "--reduce")
    assert code == 0
    assert out == "-(1/360)*pi^4\n"


def test_expand_latex(run_cli):
    code, out, _ = run_cli("expand", "4", "1", "--format", "latex")
    assert code == 0
    assert out == "Lz(4,1)=\\zeta(5)\n"


def test_expand_json_roundtrip(run_cli):
    code, out, _ = run_cli("expand", "5", "3", "--format", "json")
    assert code == 0
    env = parse_envelope(out)
    assert env["command"] == "expand"
    assert env["inputs"] == {"a": 5, "b": 3, "reduce": False}
    rebuilt = ZetaCombination(
        env["result"]["weight"],
        {
            ZetaMonomial.parse(t["mono"]): Fraction(t["coeff"])
            for t in env["result"]["terms"]
        },
    )
    assert rebuilt == expand_lz(5, 3)


def test_expand_reduced_json_keeps_pi_split(run_cli):
    code, out, _ = run_cli("expand", "2", "2", "--reduce", "--format", "json")
    env = parse_envelope(out)
    assert env["result"]["terms"] == [{"mono": "1", "coeff": "-1/360", "pi": 4}]


def test_expand_usage_errors(run_cli):
    assert run_cli("expand", "0", "2")[0] == 1
    code, _, err = run_cli("expand", "21", "20")
    assert code == 1 and "cap" in err


def test_weight_cap_overrides(run_cli):
    # no override: --max-weight is refused, every command accepts weight 40
    # and refuses weight 41 with an error that names the weight cap
    assert run_cli("expand", "2", "1", "--max-weight", "30")[0] == 1
    assert run_cli("expand", "13", "12")[0] == 0
    code, out, _ = run_cli("verify", "13", "12", "--digits", "10")
    assert code == 0 and "symbolic: 4.270424917e-22\n" in out
    for args in (
        ("expand", "21", "20"),
        ("table", "41"),
        ("express", "z41"),
        ("express", "z3", "--weight", "41"),
        ("verify", "21", "20"),
        ("survey", "--from", "3", "--to", "41"),
        ("partitions", "41"),
    ):
        code, _, err = run_cli(*args)
        assert code == 1 and "cap" in err, args


def test_table_weight_two(run_cli):
    code, out, _ = run_cli("table", "2")
    assert code == 0
    assert out == "Lz(1,1) = -z2\n"


def test_table_weight_three(run_cli):
    code, out, _ = run_cli("table", "3")
    assert code == 0
    assert out == "Lz(2,1) = z3\n"


def test_table_six_latex_matches_golden(run_cli):
    code, out, _ = run_cli("table", "6", "--format", "latex")
    assert code == 0
    golden = (GOLDEN_DIR / "table6.golden.tex").read_text()
    assert out == golden


def test_table_reduce_flag(run_cli):
    code, out, _ = run_cli("table", "4", "--reduce")
    assert code == 0
    assert out.splitlines() == [
        "Lz(3,1) = -(1/90)*pi^4",
        "Lz(2,2) = -(1/360)*pi^4",
    ]


def test_table_json(run_cli):
    code, out, _ = run_cli("table", "5", "--format", "json")
    env = parse_envelope(out)
    entries = env["result"]["entries"]
    assert [(e["a"], e["b"]) for e in entries] == [(4, 1), (3, 2)]
    assert entries[0]["terms"] == [{"mono": "z5", "coeff": "1"}]


def test_table_usage(run_cli):
    assert run_cli("table", "1")[0] == 1
    assert run_cli("table", "41")[0] == 1


def test_verify_pass(run_cli):
    code, out, _ = run_cli("verify", "2", "1", "--digits", "20")
    assert code == 0
    assert out.strip().endswith("PASS")
    assert "symbolic" in out and "quadrature" in out


def test_verify_single_method(run_cli):
    code, out, _ = run_cli("verify", "3", "2", "--digits", "15", "--method", "series")
    assert code == 0
    assert "series" in out and out.strip().endswith("PASS")


def test_verify_reports_failure_with_exit_three(run_cli, monkeypatch):
    real = numerics.verify_expansion

    def doctored(a, b, digits, method):
        return real(a, b, digits, method)._replace(passed=False)

    monkeypatch.setattr(numerics, "verify_expansion", doctored)
    # every --method prints the one judgement's verdict
    for method in ("both", "series", "quadrature"):
        code, out, _ = run_cli("verify", "2", "1", "--digits", "15", "--method", method)
        assert code == 3, method
        assert out.strip().endswith("FAIL"), method


def test_verify_budget_exhaustion_exits_three(run_cli, monkeypatch):
    def explode(a, b, digits):
        raise PrecisionBudgetError("series term budget exhausted")

    monkeypatch.setattr(numerics, "lz_series", explode)
    code, _, err = run_cli("verify", "2", "1", "--digits", "15", "--method", "series")
    assert code == 3
    assert "precision budget" in err


def test_cli_choices_match_library_validation():
    # the parser spells these itself so that building it compiles neither
    # solver nor numerics; the library's own checks must accept the same words
    assert cli.MODES == solver.MODES
    assert cli.METHODS == numerics.METHODS


def test_verify_usage(run_cli):
    assert run_cli("verify", "2", "1", "--digits", "99")[0] == 1
    # below 6 digits the threshold would leave no digit of |Lz| checked
    assert run_cli("verify", "3", "3", "--digits", "3")[0] == 1
    assert run_cli("verify", "0", "1")[0] == 1
    assert run_cli("verify", "21", "20")[0] == 1


def test_express_text_certificate(run_cli):
    code, out, _ = run_cli("express", "z3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "status: expressible"
    assert lines[-1] == "z3 = Lz(2,1)"


def test_express_product_text(run_cli):
    code, out, _ = run_cli("express", "z3*z5")
    assert code == 0
    assert out.splitlines()[-1] == "z3*z5 = Lz(6,2) + (1/7560)*pi^8"


def test_express_weight_flag_apery_form(run_cli):
    code, out, _ = run_cli("express", "z3", "--weight", "5")
    assert code == 0
    assert out.splitlines()[-1] == "pi^2*z3 = 12*Lz(4,1) - 6*Lz(3,2)"


def test_express_strict_weight_seven(run_cli):
    code, out, _ = run_cli("express", "z5", "--mode", "strict", "--weight", "7")
    assert code == 0
    assert out.splitlines()[-1] == "pi^2*z5 = 10*Lz(6,1) + 10*Lz(5,2) - 8*Lz(4,3)"


def test_express_latex(run_cli):
    code, out, _ = run_cli("express", "z3^2", "--format", "latex")
    assert code == 0
    assert out == "\\zeta(3)^2=2Lz(4,2)+\\frac{1}{630}\\pi^6\n"


def test_express_json_matches_solver(run_cli):
    code, out, _ = run_cli("express", "z3^2", "--format", "json")
    assert code == 0
    env = parse_envelope(out)
    outcome = express(ZetaMonomial.parse("z3^2"))
    assert env["result"]["status"] == "expressible"
    assert env["result"]["certificate"] == outcome.certificate.to_payload()


def test_express_not_expressible_exits_two(run_cli):
    code, out, _ = run_cli("express", "z3*z7")
    assert code == 2
    assert "not_expressible" in out


def test_express_unresolved_dependency_exits_two(run_cli):
    code, out, _ = run_cli("express", "z3^2", "--weight", "12")
    assert code == 2
    assert "unresolved_dependency" in out


def test_express_failed_substitution_check_exits_three(run_cli, five_three_record_halved):
    # a verification failure, reported on one stderr line, not a traceback
    # with the usage code
    code, out, err = run_cli("express", "z3*z5")
    assert (code, out) == (3, "")
    assert err == "zetalog express: certificate for z3*z5 failed the substitution check\n"


def test_express_parse_error_exits_one(run_cli):
    code, _, err = run_cli("express", "q3")
    assert code == 1 and "bad factor" in err
    assert run_cli("express", "z1")[0] == 1


def test_express_invalid_weight_exits_one(run_cli):
    assert run_cli("express", "z3", "--weight", "4")[0] == 1
    assert run_cli("express", "z3", "--weight", "99")[0] == 1


def test_survey_text_table(run_cli):
    code, out, _ = run_cli("survey", "--from", "3", "--to", "10")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["N", "eq", "unk", "rank", "counting", "inexpressible"]
    assert len(lines) == 9
    last = lines[-1].split()
    assert last[:4] == ["10", "4", "2", "1"]
    assert "z3*z7," in lines[-1] and "z5^2" in lines[-1]


def test_survey_all_expressible_below_ten(run_cli):
    code, out, _ = run_cli("survey", "--from", "3", "--to", "9")
    assert code == 0
    for line in out.splitlines()[1:]:
        assert line.rstrip().endswith("-")


def test_survey_zero_unknowns_weight_four(run_cli):
    code, out, _ = run_cli("survey", "--from", "4", "--to", "4")
    assert code == 0
    row = out.splitlines()[1].split()
    assert row[:4] == ["4", "0", "0", "0"]


def test_survey_json(run_cli):
    code, out, _ = run_cli("survey", "--from", "3", "--to", "5", "--format", "json")
    env = parse_envelope(out)
    records = env["result"]["records"]
    assert [r["weight"] for r in records] == [3, 4, 5]
    assert records[0]["expressible"] == ["z3"]
    assert records[0]["rank"] == 1


def test_survey_latex_rows(run_cli):
    code, out, _ = run_cli("survey", "--from", "10", "--to", "10", "--format", "latex")
    assert code == 0
    assert out == "10 & 4 & 2 & 1 & z3*z7,z5^2 \\\\\n"


def test_survey_usage(run_cli):
    assert run_cli("survey", "--from", "5", "--to", "3")[0] == 1
    assert run_cli("survey", "--from", "3", "--to", "99")[0] == 1
    assert run_cli("survey", "--to", "9")[0] == 1


def test_partitions_listing(run_cli):
    code, out, _ = run_cli("partitions", "6", "--min-part", "2")
    assert code == 0
    assert out.splitlines() == ["6", "4+2", "3+3", "2+2+2", "count = 4"]


def test_partitions_parity(run_cli):
    code, out, _ = run_cli("partitions", "9", "--min-part", "3", "--parity", "odd")
    assert code == 0
    assert out.splitlines() == ["9", "3+3+3", "count = 2"]


def test_partitions_trivial(run_cli):
    code, out, _ = run_cli("partitions", "3", "--min-part", "2")
    assert code == 0
    assert out.splitlines() == ["3", "count = 1"]


def test_partitions_json(run_cli):
    code, out, _ = run_cli(
        "partitions", "7", "--min-part", "2", "--parts", "2", "--format", "json"
    )
    env = parse_envelope(out)
    assert env["result"]["partitions"] == [[5, 2], [4, 3]]
    assert env["result"]["count"] == 2


def test_partitions_usage(run_cli):
    assert run_cli("partitions", "0")[0] == 1
    assert run_cli("partitions", "41")[0] == 1
    assert run_cli("partitions", "5", "--parity", "prime")[0] == 1


def test_unknown_subcommand_exits_one(run_cli):
    assert run_cli("frobnicate")[0] == 1


def test_missing_subcommand_exits_one(run_cli):
    assert run_cli()[0] == 1


def _console(*argv, prelude=""):
    # a fresh process through the console script's entry point
    script = f"{prelude}\nfrom zetalog.cli import console_main\nconsole_main()"
    return subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )


def test_console_script_end_to_end(run_cli):
    proc = _console("expand", "3", "2")
    assert proc.returncode == 0
    assert proc.stdout == "2*z5 - z2*z3\n"
    # one command per exit code: freezing the heap before exit changes
    # neither the output nor the code that main returns in process
    for argv, code in (
        (["expand", "3", "2"], 0),
        (["partitions", "0"], 1),
        (["express", "z3*z5*z7", "--mode", "strict"], 2),
    ):
        proc = _console(*argv)
        assert (proc.returncode, proc.stdout) == run_cli(*argv)[:2], argv
        assert proc.returncode == code, argv


def test_console_script_freezes_the_heap_before_exit():
    # an atexit hook registered first runs after console_main's sys.exit
    proc = _console(
        "expand", "3", "2",
        prelude="import atexit, gc, sys\n"
        "atexit.register(lambda: print(gc.get_freeze_count(), file=sys.stderr))",
    )
    assert proc.returncode == 0 and proc.stdout == "2*z5 - z2*z3\n"
    assert int(proc.stderr) > 0


def test_main_keeps_a_normal_collector(run_cli):
    frozen = gc.get_freeze_count()
    assert run_cli("survey", "--from", "3", "--to", "8", "--format", "json")[0] == 0
    assert gc.get_freeze_count() == frozen
    assert gc.isenabled()


def test_closed_pipe_exits_one_without_traceback():
    # as `zetalog partitions 40 | head -c 10`: the reader leaves while the
    # child still writes far more than a pipe buffer holds
    with subprocess.Popen(
        [sys.executable, "-c", "from zetalog.cli import console_main; console_main()",
         "partitions", "40"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    ) as proc:
        assert proc.stdout.read(10) == b"40\n39+1\n38"
        proc.stdout.close()
        err = proc.stderr.read()
    assert proc.returncode == 1
    assert err == b""


def test_console_script_without_stdout():
    # started with fd 1 closed, the process has no sys.stdout to flush
    proc = subprocess.run(
        [sys.executable, "-c", "from zetalog.cli import console_main; console_main()",
         "expand", "3", "2"],
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        preexec_fn=lambda: os.close(1),
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_importing_the_cli_skips_json():
    # only a JSON envelope needs json; -S keeps site's own imports out
    script = f"import sys; sys.path.insert(0, {str(SRC)!r}); import zetalog.cli; " \
        "print('json' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
