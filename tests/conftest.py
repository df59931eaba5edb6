from __future__ import annotations

import pytest

from zetalog import coefficients, expansion, solver
from zetalog.cli import main


@pytest.fixture
def run_cli(capsys):
    """Invoke the CLI in-process; returns (exit code, stdout, stderr)."""

    def invoke(*argv: str):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


@pytest.fixture
def five_three_record_halved(monkeypatch):
    """The record of 5+3 with its denominator doubled, and the caches that
    hold values built from it cleared around.  The columns take C_x and Ct
    from the parts of x, so only the expansions the substitution check
    reads see the wrong record, and the certificate of z3*z5 fails it."""
    true_record = coefficients._record

    def wrong(support):
        prof, sign, denom = true_record(support)
        return (prof, sign, 2 * denom) if support == ((3, 1), (5, 1)) else (prof, sign, denom)

    monkeypatch.setattr(coefficients, "_record", wrong)
    caches = (true_record, expansion.expand_lz, solver._even_kernel, solver._expressible_members)
    for cache in caches:
        cache.cache_clear()
    yield
    monkeypatch.undo()
    for cache in caches:
        cache.cache_clear()
