"""Output checks for the benchmark's ops.

Every check returns a list of problems; an empty list means the op passed.
A problem marked ``strict`` breaks only the every-printed-digit rule for
``verify`` (README, "Precision policy"); every other problem breaks what the
program itself claims in its output.  Both kinds count the op as failed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from mpmath import mp

# A correctly rounded digit string is within half a unit in the last place
# of the true value; the slack admits values carried with a few guard digits.
ULP_SLACK = 0.501
REFERENCE_GUARD = 60  # extra digits for the independent verify reference


@dataclass(frozen=True)
class Problem:
    text: str
    strict: bool = False  # True: only the every-digit rule is broken


def normalized_stdout(stdout: str, is_json: bool) -> str:
    """Stdout with the run-dependent ``elapsed_ms`` removed from JSON output."""
    if not is_json:
        return stdout
    envelope = json.loads(stdout)
    envelope.pop("elapsed_ms", None)
    return json.dumps(envelope, sort_keys=True)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# survey-range


def check_survey(stdout: str, exit_code: int, reference: dict) -> list[Problem]:
    """The JSON envelope equals the reference and the paper's invariants hold."""
    if exit_code != 0:
        return [Problem(f"exit code {exit_code}, expected 0")]
    try:
        envelope = json.loads(stdout)
    except ValueError as exc:
        return [Problem(f"stdout is not JSON: {exc}")]
    envelope.pop("elapsed_ms", None)
    problems = []
    if envelope != reference:
        problems.append(Problem("survey envelope differs from the reference"))
    records = envelope.get("result", {}).get("records", [])
    for rec in records:
        n = rec["weight"]
        if n >= 21 and not rec["inexpressible"]:
            problems.append(Problem(f"weight {n}: no inexpressible product"))
        if n % 2 and f"z{n}" not in rec["expressible"]:
            problems.append(Problem(f"weight {n}: z{n} is not expressible"))
    return problems


# ---------------------------------------------------------------------------
# cli-queries


def check_cli(stdout: str, exit_code: int, is_json: bool, reference: dict) -> list[Problem]:
    """Exit code and masked stdout equal the reference recorded at the seed."""
    problems = []
    if exit_code != reference["exit"]:
        problems.append(Problem(f"exit code {exit_code}, expected {reference['exit']}"))
    try:
        text = normalized_stdout(stdout, is_json)
    except ValueError as exc:
        return problems + [Problem(f"stdout is not JSON: {exc}")]
    if digest(text) != reference["sha256"]:
        problems.append(Problem("stdout differs from the reference"))
    return problems


# ---------------------------------------------------------------------------
# verify-digits


def verify_reference(reduced_terms, digits: int):
    """Lz from its exact pi-reduced expansion, with mpmath's own zeta.

    ``reduced_terms`` is a list of (coeff Fraction, pi exponent, factors)
    where factors are (n, k) pairs; the sum runs at digits + 60 so that it
    is independent of the program's zeta_value and of both numeric routes.
    """
    with mp.workdps(digits + REFERENCE_GUARD):
        total = mp.zero
        for coeff, pi_exp, factors in reduced_terms:
            term = mp.mpf(coeff.numerator) / coeff.denominator * mp.pi**pi_exp
            for n, k in factors:
                term *= mp.zeta(n) ** k
            total += term
        return total


VALUE_LINES = ("symbolic", "series", "quadrature")


def parse_verify(stdout: str) -> dict[str, str]:
    """Map each ``name: value`` line to its text, and ``verdict`` to PASS/FAIL."""
    out = {}
    for line in stdout.splitlines():
        name, sep, value = line.partition(":")
        if sep:
            out[name.strip()] = value.strip()
        elif line.strip() in ("PASS", "FAIL"):
            out["verdict"] = line.strip()
    return out


def check_verify(stdout: str, exit_code: int, digits: int, reference) -> list[Problem]:
    """Every printed Lz value agrees with the reference in every printed digit.

    A value off by more than the program's own printed threshold breaks its
    claim; a value within the threshold but wrong in a printed digit relative
    to |Lz| breaks only the strict every-digit rule.
    """
    if exit_code != 0:
        return [Problem(f"exit code {exit_code}, expected 0 (the identity holds)")]
    fields = parse_verify(stdout)
    if fields.get("verdict") != "PASS":
        return [Problem("no PASS line")]
    problems = []
    with mp.workdps(digits + REFERENCE_GUARD):
        try:
            threshold = mp.mpf(fields["threshold"])
        except (KeyError, ValueError):
            return [Problem("no readable threshold line")]
        ulp = mp.mpf(10) ** (mp.floor(mp.log10(abs(reference))) - digits + 1)
        for name in VALUE_LINES:
            try:
                value = mp.mpf(fields[name])
            except (KeyError, ValueError):
                problems.append(Problem(f"no readable {name} line"))
                continue
            err = abs(value - reference)
            if err >= threshold:
                problems.append(Problem(f"{name} off by {mp.nstr(err, 3)}, over the threshold"))
            elif err > ULP_SLACK * ulp:
                rel = err / abs(reference)
                problems.append(
                    Problem(f"{name} wrong in printed digits: relative error {mp.nstr(rel, 3)}", strict=True)
                )
    return problems
