"""Frozen closed forms of Lz(a,b) for small weights.

RAW maps monomial text to a rational coefficient string; REDUCED maps
odd-monomial text ("1" for the constant term) to (coefficient, power of
pi).  Keys are the unordered pairs written (a, b) with a >= b.  The raw
table covers the pairs whose plain zeta-combination is pinned down in
the literature; the reduced table covers every pair of weight <= 9.
"""

from __future__ import annotations

from fractions import Fraction

from zetalog import PiReducedCombination, ZetaCombination, ZetaMonomial

RAW = {
    (1, 1): {"z2": "-1"},
    (2, 1): {"z3": "1"},
    (3, 1): {"z4": "-1"},
    (2, 2): {"z2^2": "1/2", "z4": "-3/2"},
    (4, 1): {"z5": "1"},
    (3, 2): {"z5": "2", "z2*z3": "-1"},
    (5, 1): {"z6": "-1"},
    (4, 2): {"z3^2": "1/2", "z2*z4": "1", "z6": "-5/2"},
    (3, 3): {"z3^2": "1", "z2*z4": "3/2", "z6": "-10/3", "z2^3": "-1/6"},
    (6, 1): {"z7": "1"},
    (5, 2): {"z7": "3", "z2*z5": "-1", "z3*z4": "-1"},
    (4, 3): {"z7": "5", "z2*z5": "-2", "z2^2*z3": "1/2", "z3*z4": "-5/2"},
    (7, 1): {"z8": "-1"},
    (8, 1): {"z9": "1"},
    (7, 2): {"z9": "4", "z2*z7": "-1", "z4*z5": "-1", "z3*z6": "-1"},
    (6, 3): {
        "z9": "28/3",
        "z2*z7": "-3",
        "z4*z5": "-7/2",
        "z3*z6": "-7/2",
        "z2*z3*z4": "1",
        "z2^2*z5": "1/2",
        "z3^3": "1/6",
    },
    (5, 4): {
        "z9": "14",
        "z2*z7": "-5",
        "z4*z5": "-6",
        "z3*z6": "-35/6",
        "z2*z3*z4": "5/2",
        "z2^2*z5": "1",
        "z3^3": "1/2",
        "z2^3*z3": "-1/6",
    },
}

REDUCED = {
    (1, 1): {"1": ("-1/6", 2)},
    (2, 1): {"z3": ("1", 0)},
    (3, 1): {"1": ("-1/90", 4)},
    (2, 2): {"1": ("-1/360", 4)},
    (4, 1): {"z5": ("1", 0)},
    (3, 2): {"z5": ("2", 0), "z3": ("-1/6", 2)},
    (5, 1): {"1": ("-1/945", 6)},
    (4, 2): {"z3^2": ("1/2", 0), "1": ("-1/1260", 6)},
    (3, 3): {"z3^2": ("1", 0), "1": ("-23/15120", 6)},
    (6, 1): {"z7": ("1", 0)},
    (5, 2): {"z7": ("3", 0), "z5": ("-1/6", 2), "z3": ("-1/90", 4)},
    (4, 3): {"z7": ("5", 0), "z5": ("-1/3", 2), "z3": ("-1/72", 4)},
    (7, 1): {"1": ("-1/9450", 8)},
    (6, 2): {"z3*z5": ("1", 0), "1": ("-1/7560", 8)},
    (5, 3): {"z3*z5": ("3", 0), "z3^2": ("-1/12", 2), "1": ("-61/226800", 8)},
    (4, 4): {"z3*z5": ("4", 0), "z3^2": ("-1/6", 2), "1": ("-499/1814400", 8)},
    (8, 1): {"z9": ("1", 0)},
    (7, 2): {
        "z9": ("4", 0),
        "z7": ("-1/6", 2),
        "z5": ("-1/90", 4),
        "z3": ("-1/945", 6),
    },
    (6, 3): {
        "z3^3": ("1/6", 0),
        "z9": ("28/3", 0),
        "z7": ("-1/2", 2),
        "z5": ("-1/40", 4),
        "z3": ("-1/540", 6),
    },
    (5, 4): {
        "z3^3": ("1/2", 0),
        "z9": ("14", 0),
        "z7": ("-5/6", 2),
        "z5": ("-7/180", 4),
        "z3": ("-1/432", 6),
    },
}


def raw_combination(a: int, b: int) -> ZetaCombination:
    entry = RAW[(a, b)]
    return ZetaCombination(
        a + b, {ZetaMonomial.parse(m): Fraction(c) for m, c in entry.items()}
    )


def reduced_combination(a: int, b: int) -> PiReducedCombination:
    entry = REDUCED[(a, b)]
    comb = PiReducedCombination(
        a + b, {ZetaMonomial.parse(m): Fraction(c) for m, (c, _) in entry.items()}
    )
    # the combination derives each pi exponent from the weight; it must be
    # the one recorded
    recorded = {ZetaMonomial.parse(m): e for m, (_, e) in entry.items()}
    assert {mono: pi for _, pi, mono in comb.items()} == recorded, (a, b)
    return comb
