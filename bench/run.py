#!/usr/bin/env python3
"""zetalog benchmark: fresh-process CLI workloads with checked outputs.

    python3 bench/run.py --workload {survey-range,verify-digits,cli-queries,all}
                         [--seed N] [--seconds S] [--trace 0|1]

Each op is one fresh ``zetalog`` process, run one at a time (closed loop,
one client) against ``src/`` of the checkout this file sits in.  The op
list comes from the seed; it is run as whole passes until ``--seconds`` is
used up (at least one pass), and every output is checked.  With
``--trace 0`` the end-to-end metrics are printed; with ``--trace 1`` one
untraced pass is followed by one pass through ``shim.py``, and the
per-layer metrics plus the tracing overhead are printed.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.

The host's speed drifts by up to a third within minutes, so every time
metric is scaled to a reference speed: just before each child, this process
times a fixed pure-Python loop (``calibrate``), and the child's wall time is
multiplied by ``CAL_REF_S`` over that loop time.  Medians are taken over the
scaled times; the unscaled ones are printed beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference"
sys.path.insert(0, str(BENCH))

from check import check_cli, check_survey, check_verify, verify_reference  # noqa: E402
from workloads import GENERATORS, WORKLOADS  # noqa: E402

ENTRY = "from zetalog.cli import console_main; console_main()"
SETUP_IMPORTS = 8  # fresh `import zetalog.cli` processes, before and after the ops
CHILD_TIMEOUT = 150.0
# Median time of calibrate() on the Xeon the benchmark was built on, in a
# quiet spell: the speed the scaled times are given at.
CAL_REF_S = 0.0233

END_TO_END = {  # name: unit
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: name, unit, and the workload on which it must be non-zero
# (the workload whose end-to-end numbers it should move; see README.md).
S, V, C = "survey-range", "verify-digits", "cli-queries"
PER_LAYER = [
    ("partitions.enumerate_partitions.calls", "count", S),
    ("partitions.enumerate_partitions.elements", "count", S),
    ("partitions.enumerate_partitions.self_s", "s", S),
    ("coefficients.little_c.calls", "count", S),
    ("coefficients.little_c.zero_ratio", "1", None),  # 0 while expand_lz pre-filters
    ("coefficients.little_c.self_s", "s", S),
    ("exact.zeta_even_pi_coeff.calls", "count", S),
    ("exact.zeta_even_pi_coeff.self_s", "s", S),
    ("exact.bernoulli_number.calls", "count", S),
    ("exact.bernoulli_number.self_s", "s", S),
    ("exact.rref.calls", "count", S),
    ("exact.rref.cells", "count", S),
    ("exact.rref.self_s", "s", S),
    ("exact.solve_membership.calls", "count", C),
    ("exact.solve_membership.self_s", "s", C),
    ("expansion.expand_lz.calls", "count", S),
    ("expansion.expand_lz.hit_ratio", "1", C),
    ("expansion.expand_lz.terms", "count", S),
    ("expansion.expand_lz.self_s", "s", S),
    ("expansion.reduce_even.calls", "count", S),
    ("expansion.reduce_even.terms_in", "count", S),
    ("expansion.reduce_even.terms_out", "count", S),
    ("expansion.reduce_even.self_s", "s", S),
    ("expansion.expand_weight.self_s", "s", C),
    ("expansion.render.calls", "count", C),
    ("expansion.render.self_s", "s", C),
    ("solver.build_system.calls", "count", S),
    ("solver.build_system.rows", "count", S),
    ("solver.build_system.cols", "count", S),
    ("solver.build_system.self_s", "s", S),
    ("solver.survey.self_s", "s", S),
    ("solver.express.calls", "count", C),
    ("solver.express.self_s", "s", C),
    ("solver.verify_certificate.calls", "count", C),
    ("solver.verify_certificate.self_s", "s", C),
    ("numerics.lz_series.calls", "count", V),
    ("numerics.lz_series.self_s", "s", V),
    ("numerics.build_s_table.calls", "count", V),
    ("numerics.build_s_table.self_s", "s", V),
    ("numerics.lz_quadrature.calls", "count", V),
    ("numerics.lz_quadrature.self_s", "s", V),
    ("numerics.evaluate_reduced.self_s", "s", V),
    ("numerics.zeta_value.calls", "count", V),
    ("numerics.zeta_value.self_s", "s", V),
    ("cli.main.self_s", "s", C),
    ("cli.process.import_s", "s", C),
    ("trace.overhead_s", "s", None),
]
RATIOS = {"zero_ratio": "zero", "hit_ratio": "hits"}  # numerator stat per ratio


class BenchError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


# ---------------------------------------------------------------------------
# child processes


@dataclass(frozen=True)
class Child:
    stdout: str
    stderr: str
    exit_code: int
    wall_s: float
    maxrss_mb: float
    cal_s: float = CAL_REF_S  # calibrate() time just before the child

    @property
    def scaled_s(self) -> float:
        """Wall time at the reference speed."""
        return self.wall_s * CAL_REF_S / self.cal_s


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "ZL_MAX_WEIGHT")}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(cmd: list[str], env: dict) -> Child:
    """Run one child to completion; wall time and its own max RSS (wait4)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT)
    killer = threading.Timer(CHILD_TIMEOUT, proc.kill)
    killer.start()
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    reader.join()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Child(out.decode(), err[0].decode(), proc.returncode, wall, usage.ru_maxrss / 1024)


def calibrate() -> float:
    """Time a fixed loop of the work the program does: Fractions, big ints, dicts."""
    t0 = time.perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, 3000):
        acc += Fraction(i % 97, i)
        table[i % 512] = table.get(i % 512, 0) + i * i
    sum(x for x in range(150000) if x % 3)
    return time.perf_counter() - t0


def run_child(cmd: list[str], env: dict) -> Child:
    """Calibrate, then run one child: the loop samples the speed the child runs at."""
    cal_s = calibrate()
    return replace(spawn(cmd, env), cal_s=cal_s)


def measure_setup(env: dict) -> list[Child]:
    """Fresh processes that only import zetalog.cli."""
    children = []
    for _ in range(SETUP_IMPORTS):
        child = run_child([sys.executable, "-c", "import zetalog.cli"], env)
        if child.exit_code != 0:
            raise BenchError(f"import zetalog.cli failed:\n{child.stderr}")
        children.append(child)
    return children


# ---------------------------------------------------------------------------
# references and checks


def load_references(workload: str, ops) -> dict:
    """Per-op reference, built before any timing starts."""
    if workload == "verify-digits":
        sys.path.insert(0, str(SRC))
        from zetalog import expand_lz, reduce_even

        refs = {}
        for op in ops:
            a, b = int(op.argv[1]), int(op.argv[2])
            terms = [
                (s.coeff, s.pi_exponent, m.factors)
                for m, s in reduce_even(expand_lz(a, b)).sorted_terms()
            ]
            refs[op.key] = verify_reference(terms, op.digits)
        return refs
    name = "survey.json" if workload == "survey-range" else "cli.json"
    data = json.loads((REFERENCE / name).read_text())
    missing = [op.key for op in ops if op.key not in data]
    if missing:
        raise BenchError(f"no reference recorded for {missing[:3]}")
    return {op.key: data[op.key] for op in ops}


def check(workload: str, op, child: Child, ref):
    if workload == "survey-range":
        return check_survey(child.stdout, child.exit_code, ref)
    if workload == "cli-queries":
        return check_cli(child.stdout, child.exit_code, op.is_json, ref)
    return check_verify(child.stdout, child.exit_code, op.digits, ref)


# ---------------------------------------------------------------------------
# passes


@dataclass
class Pass:
    children: list[Child]

    @property
    def scaled_s(self) -> float:
        """Time to run the pass's ops one after another, calibration left out."""
        return sum(c.scaled_s for c in self.children)


def run_pass(ops, env: dict, trace_dir: Path | None = None) -> Pass:
    children = []
    for i, op in enumerate(ops):
        if trace_dir is None:
            cmd = [sys.executable, "-c", ENTRY, *op.argv]
        else:
            cmd = [sys.executable, str(BENCH / "shim.py"), str(trace_dir / f"{i}.json"), *op.argv]
        children.append(run_child(cmd, env))
    return Pass(children)


def typical_pass(times: list[list[float]]) -> float:
    """Time to run a pass's ops one after another: the sum of each op's median.

    ``times[k][i]`` is op i in pass k.  A burst of host load slows some ops of
    a pass; the per-op medians leave it out, where a median of pass sums
    would still hold it.
    """
    return sum(statistics.median(per_op) for per_op in zip(*times))


def tail(samples: list[float]):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    k = n - 10  # the k-th smallest has n - k = 10 samples above it
    return sorted(samples)[k - 1], 100.0 * k / n


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for trace in traces:
        for name, stats in trace["stats"].items():
            for key, value in stats.items():
                totals[f"{name}.{key}"] = totals.get(f"{name}.{key}", 0.0) + value
    out = {}
    for metric, _, _ in PER_LAYER:
        stem, _, key = metric.rpartition(".")
        if key in RATIOS:
            calls = totals.get(f"{stem}.calls", 0.0)
            out[metric] = totals.get(f"{stem}.{RATIOS[key]}", 0.0) / calls if calls else 0.0
        else:
            out[metric] = totals.get(metric, 0.0)
    return out


def environment() -> str:
    import mpmath

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return (
        f"env: nproc={os.cpu_count()} cpu={cpu!r} python={platform.python_version()}"
        f" mpmath={mpmath.__version__} backend={mpmath.libmp.BACKEND}"
    )


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    env = child_env()
    ops = GENERATORS[workload](seed)
    refs = load_references(workload, ops)
    print(f"workload={workload} seed={seed} ops/pass={len(ops)} trace={int(trace)}")

    setup = [] if trace else measure_setup(env)
    passes: list[Pass] = []
    traces: list[dict] = []
    started = time.perf_counter()
    if trace:
        passes.append(run_pass(ops, env))
        with tempfile.TemporaryDirectory(prefix=".trace-", dir=BENCH) as tmp:
            passes.append(run_pass(ops, env, Path(tmp)))
            for i, op in enumerate(ops):
                path = Path(tmp) / f"{i}.json"
                if not path.is_file():
                    raise BenchError(f"traced op wrote no trace: {op.key}\n{passes[-1].children[i].stderr}")
                traces.append(json.loads(path.read_text()))
    else:
        while True:
            t0 = time.perf_counter()
            passes.append(run_pass(ops, env))
            now = time.perf_counter()
            if (now - started) + (now - t0) > seconds:  # another pass would overrun
                break

    attempted = failed = 0
    correct = True
    for p in passes:
        for op, child in zip(ops, p.children):
            problems = check(workload, op, child, refs[op.key])
            attempted += 1
            if problems:
                failed += 1
                # the every-digit rule alone (broken at the seed on balanced and
                # high-weight verify pairs) counts in `failed`, not in `correct`
                correct = correct and all(problem.strict for problem in problems)
                for problem in problems:
                    tag = " [every-digit rule]" if problem.strict else ""
                    print(f"  FAIL {op.key}: {problem.text}{tag}")

    if trace:
        metrics = layer_metrics(traces)
        metrics["trace.overhead_s"] = passes[1].scaled_s - passes[0].scaled_s
        print(f"  untraced wall_s {passes[0].scaled_s:.3f} s, traced wall_s {passes[1].scaled_s:.3f} s,"
              f" tracing overhead {metrics['trace.overhead_s']:.3f} s")
        for m, unit, _ in PER_LAYER:
            print(f"  {m:<44} {metrics[m]:.6g} {unit}")
        # a renamed or bypassed function must not silently drop out of the trace
        bad = [m for m, _, home in PER_LAYER if home == workload and not metrics[m]]
        if bad:
            raise BenchError(f"per-layer metrics zero or missing on {workload}: {', '.join(bad)}")
        units = {m: unit for m, unit, _ in PER_LAYER}
        result_metrics = metrics
    else:
        setup += measure_setup(env)
        ops_run = [c for p in passes for c in p.children]
        result_metrics = {
            "setup_s": statistics.median(c.scaled_s for c in setup),
            "wall_s": typical_pass([[c.scaled_s for c in p.children] for p in passes]),
            "op_p50_s": statistics.median(c.scaled_s for c in ops_run),
            "peak_rss_mb": max(c.maxrss_mb for c in ops_run),
        }
        raw = {
            "setup_s": statistics.median(c.wall_s for c in setup),
            "wall_s": typical_pass([[c.wall_s for c in p.children] for p in passes]),
            "op_p50_s": statistics.median(c.wall_s for c in ops_run),
        }
        units = END_TO_END
        n = len(ops_run)
        print(f"  times at the reference speed (calibrate() = {CAL_REF_S} s); unscaled in brackets;"
              f" median calibrate() {statistics.median(c.cal_s for c in setup + ops_run):.4f} s")
        print(f"  setup_s     {result_metrics['setup_s']:.4f} s   [{raw['setup_s']:.4f}]"
              f" (median of {len(setup)} fresh imports)")
        print(f"  wall_s      {result_metrics['wall_s']:.4f} s   [{raw['wall_s']:.4f}] (sum of per-op medians over {len(passes)} passes)")
        print(f"  op_p50_s    {result_metrics['op_p50_s']:.4f} s   [{raw['op_p50_s']:.4f}] (n={n})")
        t = tail([c.scaled_s for c in ops_run])
        if t is None:
            print(f"  op_tail_s   -          (undefined: n={n} < 11)")
        else:
            print(f"  op_tail_s   {t[0]:.4f} s   (p{t[1]:.1f}, n={n})")
        print(f"  fail_ratio  {failed / attempted:.4f} 1   ({failed} of {attempted})")
        print(f"  peak_rss_mb {result_metrics['peak_rss_mb']:.1f} MB  (max over {n} children)")

    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in result_metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "zetalog" / "cli.py").is_file():
        print(f"bench: no program source at {SRC / 'zetalog'}", file=sys.stderr)
        return 2
    print(environment())
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for workload in workloads:
            result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result), flush=True)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
