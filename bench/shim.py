"""Traced start-up shim: ``python shim.py TRACE_FILE ARGV...``.

Imports ``zetalog.cli``, wraps each layer's public functions from outside
the package, then runs ``cli.main(ARGV)``.  A wrapped name is rebound in
every ``zetalog`` module that holds it, so calls made through
``from .x import y`` go through the wrapper too.  Spans (name, start, end,
parent) stay in memory and are written to TRACE_FILE as JSON when the
process exits, together with per-name calls, self time and counters.  The
hot functions only accumulate counts and time; they record no span.
Self time is a call's duration minus the time of the wrapped calls inside it.
"""

from __future__ import annotations

import atexit
import json
import sys
import time
from collections import defaultdict

_clock = time.perf_counter

# (module, function, hot); the span name is "module.function"
TARGETS = (
    ("partitions", "enumerate_partitions", False),
    ("coefficients", "little_c", True),
    ("exact", "zeta_even_pi_coeff", True),
    ("exact", "bernoulli_number", True),
    ("exact", "rref", False),
    ("exact", "solve_membership", False),
    ("expansion", "expand_lz", False),
    ("expansion", "reduce_even", False),
    ("expansion", "expand_weight", False),
    ("solver", "build_system", False),
    ("solver", "survey", False),
    ("solver", "express", False),
    ("solver", "verify_certificate", False),
    ("numerics", "lz_series", False),
    ("numerics", "build_s_table", False),
    ("numerics", "lz_quadrature", False),
    ("numerics", "evaluate_reduced", False),
    ("numerics", "zeta_value", False),
    ("cli", "main", False),
)
# text()/latex() of both combination classes, traced as one span name
RENDER_CLASSES = ("ZetaCombination", "PiReducedCombination")
RENDER_METHODS = ("text", "latex")


def _counters(name, args, result):
    """Extra per-name counters, from the arguments and the result."""
    if name == "partitions.enumerate_partitions":
        return {"elements": len(result)}
    if name == "coefficients.little_c":
        return {"zero": int(result == 0)}
    if name == "exact.rref":
        return {"cells": args[0].rows * args[0].cols}
    if name == "expansion.reduce_even":
        return {"terms_in": len(args[0]), "terms_out": len(result)}
    if name == "solver.build_system":
        return {"rows": len(result.rows), "cols": len(result.columns)}
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stats = defaultdict(lambda: defaultdict(float))
        # one frame per active wrapped call: [child time, enclosing span index]
        self.stack: list[list] = [[0.0, -1]]

    def wrap(self, name, orig, hot):
        stack, spans, stats = self.stack, self.spans, self.stats

        def traced(*args, **kwargs):
            parent = stack[-1][1]
            if hot:
                frame = [0.0, parent]
            else:
                frame = [0.0, len(spans)]
                spans.append([name, 0.0, 0.0, parent])
            stack.append(frame)
            t0 = _clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = _clock()
                stack.pop()
                dur = t1 - t0
                stack[-1][0] += dur
                st = stats[name]
                st["calls"] += 1
                st["self_s"] += dur - frame[0]
                if not hot:
                    spans[frame[1]][1:3] = [t0, t1]
            extra = _counters(name, args, result)
            if extra:
                for key, value in extra.items():
                    st[key] += value
            return result

        return traced

    def install(self, modules: dict) -> None:
        for modname, fname, hot in TARGETS:
            orig = getattr(modules[modname], fname)
            wrapper = self.wrap(f"{modname}.{fname}", orig, hot)
            if fname == "expand_lz":
                wrapper = self._expand_lz(wrapper, orig)
            for mod in {id(m): m for m in modules.values()}.values():
                for attr in [k for k, v in vars(mod).items() if v is orig]:
                    setattr(mod, attr, wrapper)
        expansion = modules["expansion"]
        for cls_name in RENDER_CLASSES:
            cls = getattr(expansion, cls_name)
            for meth in RENDER_METHODS:
                setattr(cls, meth, self.wrap("expansion.render", getattr(cls, meth), False))

    def _expand_lz(self, wrapper, orig):
        # terms produced on cache misses; hits come from cache_info() at exit
        st = self.stats["expansion.expand_lz"]

        def counted(a, b):
            misses = orig.cache_info().misses
            result = wrapper(a, b)
            if orig.cache_info().misses != misses:
                st["terms"] += len(result)
            return result

        self._cache_info = orig.cache_info
        return counted

    def dump(self, path: str, import_s: float) -> None:
        info = self._cache_info()
        self.stats["expansion.expand_lz"]["hits"] = info.hits
        self.stats["cli.process"]["import_s"] = import_s
        payload = {"stats": self.stats, "spans": self.spans}
        with open(path, "w") as fh:
            json.dump(payload, fh)


def main() -> None:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    t0 = _clock()
    import zetalog.cli  # noqa: F401  (timed: the program's import cost)

    import_s = _clock() - t0
    modules = {
        name.partition(".")[2] or "__init__": mod
        for name, mod in sys.modules.items()
        if name == "zetalog" or name.startswith("zetalog.")
    }
    tracer = Tracer()
    tracer.install(modules)
    atexit.register(tracer.dump, trace_path, import_s)
    sys.argv = ["zetalog", *argv]
    raise SystemExit(modules["cli"].main(argv))


if __name__ == "__main__":
    main()
