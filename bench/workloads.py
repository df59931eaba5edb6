"""Seeded op generators for the three workloads.

An op is one fresh ``zetalog`` process: its argv plus what the checker needs.
The generators draw from fixed candidate lists, one stratum at a time, so
every seed gives the same mix of costs and only the members differ.  The
``cli-queries`` candidates are the keys of the reference file that
``record.py`` writes, with the cost of each measured when it was recorded.
Every generated op stays inside the program's caps.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

# The program's own guard rails (cli.py): ops must stay inside them.
WEIGHT_CAP = 24
DIGITS_CAP = 60
SURVEY_CAP = 40

WORKLOADS = ("survey-range", "verify-digits", "cli-queries")
CLI_REFERENCE = Path(__file__).resolve().parent / "reference" / "cli.json"


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    def option(self, name: str):
        return self.argv[self.argv.index(name) + 1] if name in self.argv else None

    @property
    def is_json(self) -> bool:
        return self.option("--format") == "json"

    @property
    def digits(self) -> int:
        return int(self.option("--digits"))


# ---------------------------------------------------------------------------
# survey-range: the whole exact decision path, weights past 30.  Three ops of
# well-separated cost: the long optimistic survey, whose weights 31 and 32
# carry about half its time, a strict survey, and a short optimistic one.
# The strict survey sits in the middle, so the per-op median is its median.
# A pass takes about 7 s, so a run holds several passes to take a median of.

SURVEY_OPS = (
    ("survey", "--from", "3", "--to", "32", "--format", "json"),
    ("survey", "--from", "3", "--to", "26", "--mode", "strict", "--format", "json"),
    ("survey", "--from", "3", "--to", "24", "--format", "json"),
)


def survey_ops(seed: int) -> list[Op]:
    ops = [Op(argv) for argv in SURVEY_OPS]
    random.Random(seed).shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# verify-digits: numerics only.  The series route dominates, so an op's cost
# follows the pair's shape and P, not its orientation.  Every pass holds
# Lz(12,12) at 30 digits, the costliest op and one the seed prints wrong digits
# on, so the seed does not move the pass's cost.  Each other stratum holds
# cases of one shape class, order and P, of matched cost (measured at the
# seed), and gives one op, so every draw costs about the same.  The four b = 3
# ops sit in the middle of a pass's costs, so the per-op median is a median of
# theirs, over many samples.


def _b3(a_range, p, flip=False):
    return [(3, a, p) if flip else (a, 3, p) for a in a_range]


VERIFY_STRATA = (
    # balanced, weight 24: the seed prints wrong digits here
    [(12, 12, 30)],
    # unbalanced, b = 3, weight 12..17 and 18..24, in each order, about 0.9 s
    # each.  One P for all four: at P = 40 they cost 15% more, and a median
    # that falls between two such groups moves with every sample of either.
    _b3(range(9, 15), 30),
    _b3(range(9, 15), 30, flip=True),
    _b3(range(15, 22), 30),
    _b3(range(15, 22), 30, flip=True),
    # unbalanced, b = 2, weight 20..24, P up to the digit cap, about 0.5 s
    [(22, 2, 60), (2, 22, 60), (20, 2, 50), (2, 20, 50), (18, 2, 40), (2, 18, 40)],
)


def verify_ops(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for cases in VERIFY_STRATA:
        a, b, p = rng.choice(cases)
        ops.append(Op(("verify", str(a), str(b), "--digits", str(p))))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# cli-queries: short commands, one pair or one target at a time

FORMATS = ("text", "json", "latex")


def _odd_partitions(weight: int, smallest: int = 3) -> list[tuple[int, ...]]:
    if weight == 0:
        return [()]
    return [
        (part, *rest)
        for part in range(smallest, weight + 1, 2)
        for rest in _odd_partitions(weight - part, part)
    ]


def _odd_monomials(weight: int) -> list[str]:
    """Products of odd zetas >= 3 of the given weight, as CLI monomials."""
    out = []
    for parts in _odd_partitions(weight):
        factors = [f"z{p}" + (f"^{parts.count(p)}" if parts.count(p) > 1 else "")
                   for p in sorted(set(parts))]
        out.append("*".join(factors))
    return out


def _fmt(i: int, formats=FORMATS) -> tuple[str, ...]:
    return ("--format", formats[i % len(formats)])


def cli_candidates() -> list[tuple[int, list[tuple[str, ...]]]]:
    """(ops drawn per pass, candidate argvs) per kind of command."""
    expand, table, express, raised, parts = [], [], [], [], []
    for n in range(3, WEIGHT_CAP + 1):
        pairs = {(n - 1, 1), (1, n - 1), (n - 2, 2), ((n + 1) // 2, n // 2)}
        for a, b in sorted(pairs):
            for reduce in (False, True):
                flag = ("--reduce",) if reduce else ()
                expand.append(("expand", str(a), str(b)) + flag + _fmt(len(expand)))
    for n in range(2, WEIGHT_CAP + 1):
        for reduce in (False, True):
            flag = ("--reduce",) if reduce else ()
            table.append(("table", str(n)) + flag + _fmt(len(table)))
    for w in range(5, WEIGHT_CAP + 1):
        for mono in _odd_monomials(w):
            mode = ("--mode", "strict") if len(express) % 2 else ()
            express.append(("express", mono) + mode + _fmt(len(express)))
            if w + 2 <= WEIGHT_CAP:
                mode = ("--mode", "strict") if len(raised) % 2 else ()
                raised.append(("express", mono, "--weight", str(w + 2)) + mode + _fmt(len(raised)))
    for n in range(5, 31):
        for flt in ((), ("--min-part", "2"), ("--min-part", "3", "--parity", "odd"), ("--parts", "3")):
            parts.append(("partitions", str(n)) + flt + _fmt(len(parts), ("text", "json")))
    return [(10, expand), (6, table), (12, express), (6, raised), (6, parts)]


def cli_pool() -> list[tuple[str, ...]]:
    return [argv for _, cands in cli_candidates() for argv in cands]


def cli_strata(costs: dict[str, float]) -> list[list[tuple[str, ...]]]:
    """Each kind cut by recorded cost into as many strata as ops it gets."""
    strata = []
    for count, cands in cli_candidates():
        ranked = sorted(cands, key=lambda argv: (costs[Op(argv).key], argv))
        strata += [ranked[i * len(ranked) // count:(i + 1) * len(ranked) // count] for i in range(count)]
    return strata


def cli_ops(seed: int) -> list[Op]:
    refs = json.loads(CLI_REFERENCE.read_text())
    rng = random.Random(seed)
    ops = [Op(rng.choice(stratum)) for stratum in cli_strata({k: v["cost_s"] for k, v in refs.items()})]
    rng.shuffle(ops)
    return ops


GENERATORS = {
    "survey-range": survey_ops,
    "verify-digits": verify_ops,
    "cli-queries": cli_ops,
}
