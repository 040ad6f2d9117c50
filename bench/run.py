"""Seeded benchmark of certified inverse solves.

    python3 bench/run.py --workload dg-ladder --seed 1 --seconds 30 --trace 0

Run from anywhere; the program is imported from `src/` beside this
directory.  One caller runs whole rounds of certified solves in a closed
loop until `--seconds` have passed (and at least four rounds),
checks every answer against the independent references and method
properties in `checks.py`, and prints one JSON line last: `correct`,
`attempted`, `failed` and the metrics.  With `--trace 0` these are the
end-to-end metrics; with `--trace 1` the run alternates untraced and traced
rounds and reports the per-layer metrics of `spans.py` plus the tracing
overhead.  See README.md for the workloads and metrics.
"""

import time

_START = time.perf_counter()  # set-up time counts from here: imports, generation, warm-up

import argparse
import contextlib
import io as stringio
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys

# one BLAS thread (set before numpy loads), and the LP engine's default unthreaded path
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("IO_RECOVER_THREADS", None)

import numpy as np

import selftest
import workloads
from checks import Answer, Mismatch, Reference, check
from instances import library_args
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
MIN_ROUNDS = 4  # each instance's latency is a median over at least four solves
SETUP_PROBES = 4  # fresh processes timing set-up, besides this one
KERNEL_REFERENCE_S = 0.008  # the reference kernel's usual time on the 2-core machine of README.md
# A solve slows by about 0.5-0.85 of the kernel's slowdown (in log terms) when the
# machine's speed swings; README.md, Steadiness.
KERNEL_EXPONENT = 0.75
FAMILIES = ("nlo", "iu", "ccu")
END_TO_END = {"setup_s": "s", "solves_per_s": "1/s", **{f"{f}.ms": "ms" for f in FAMILIES},
              "peak_rss_mb": "MB"}


class OpFailed(Exception):
    """The program raised or returned an unexpected exit code."""


class Bench:
    """Set-up and certified solves of one workload in this process."""

    def __init__(self, workload, seed, workdir):
        sys.path.insert(0, os.path.join(ROOT, "src"))
        import io_recover
        from io_recover import cli

        self.io, self.cli = io_recover, cli
        self.ops = workloads.build(workload, seed, ROOT, workdir)
        self.solution = os.path.join(workdir, "solution.json")
        self.args = {op.inst.label: library_args(io_recover, op.inst) for op in self.ops if op.doc is None}
        # warm-up: one untimed certified solve of each model, on its smallest instance
        warmed = set()
        for op in self.ops:
            if op.inst.model not in warmed:
                warmed.add(op.inst.model)
                self.run(op)
        elapsed = time.perf_counter() - _START
        self.setup_s = at_reference_speed(elapsed, math.sqrt(time_kernel() * time_kernel()))

    def solve(self, inst):
        """Certified solve of an extra instance on the library path, checked fields only."""
        self.args[inst.label] = library_args(self.io, inst)
        op = workloads.Op(inst, top=False)
        return self.answer(op, self.run(op))

    def run(self, op):
        """One certified solve; returns what `answer` needs.  This is the timed part."""
        if op.doc is not None:
            out, err = stringio.StringIO(), stringio.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                solved = self.cli.main(["solve", "--input", op.doc, "--output", self.solution])
                verified = self.cli.main(["verify", "--input", op.doc, "--solution", self.solution])
            if solved not in (0, 3) or verified not in (0, 2):
                raise OpFailed(f"{op.inst.label}: exit codes {solved}, {verified}: {err.getvalue().strip()}")
            return solved, verified, out.getvalue()
        io = self.io
        model, problem, x, structure, omega, prior = self.args[op.inst.label]
        report = io.validate(problem, x, structure, model, omega=omega, prior=prior)
        if not report.ok:
            raise OpFailed(f"{op.inst.label}: validation failed: {report.failures()}")
        solution = io.solve(model, problem, x, structure=structure, omega=omega, prior=prior)
        if solution.status.value not in ("optimal", "trivial-detected"):
            raise OpFailed(f"{op.inst.label}: status {solution.status.value}: {solution.message}")
        return solution, io.check_certificate(model, problem, x, structure, solution)

    def answer(self, op, result):
        """The checked fields of a result (untimed)."""
        if op.doc is None:
            solution, report = result
            return Answer(solution.status.value, solution.active_index, solution.duality_gap,
                          solution.objective_value, solution.cost, solution.dual_pi, solution.imputed,
                          solution.per_constraint.get("t"), report.verdict)
        solved, verified, printed = result
        with open(self.solution, encoding="utf-8") as fp:
            doc = json.load(fp)
        verdict = printed.split("verdict: ", 1)[1].split()[0] if "verdict: " in printed else None
        if (solved == 3) != (doc["status"] == "trivial-detected") or (verified == 0) != (verdict == "valid"):
            raise Mismatch(f"{op.inst.label}: exit codes {solved}, {verified} disagree with the documents")
        t = doc["per_constraint"].get("t")
        imputed = next(iter(doc["imputed"].values()))
        return Answer(doc["status"], doc["active_index"], doc["duality_gap"], doc["objective_value"],
                      np.array(doc["cost"]), np.array(doc["dual_pi"]), np.array(imputed),
                      None if t is None else np.array(t), verdict)


def reference_kernel():
    """A fixed piece of work that shares no code with the program: forty
    Gauss-Jordan pivots on a 60 x 120 matrix, row by row in Python, like the
    simplex's inner loop.  Its timing tracks the speed of the machine."""
    T = np.random.default_rng(0).random((60, 120))
    for step in range(40):
        i, j = step % 60, step % 120
        T[i] /= T[i, j] + 1.0
        for r in range(60):
            if r != i:
                T[r] -= T[r, j] * T[i]
    return T


def time_kernel():
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


def at_reference_speed(seconds, kernel_s):
    """A time measured while the reference kernel took `kernel_s`, at reference speed."""
    return seconds * (KERNEL_REFERENCE_S / kernel_s) ** KERNEL_EXPONENT


class Loop:
    """Closed loop of whole rounds; every answer is checked.  The reference
    kernel is timed after every operation, so each solve has a kernel timing
    on either side of it."""

    def __init__(self, bench, refs):
        self.bench, self.refs = bench, refs
        self.first = {}
        self.latency = [[] for _ in bench.ops]
        self.speed = [[] for _ in bench.ops]  # kernel time around each solve
        self.attempted = self.failed = 0
        self.mismatches = []
        self._kernel = time_kernel()

    def rounds(self, count=None, seconds=0.0, min_rounds=1, span=None):
        """Run `count` rounds, or rounds until `seconds` have passed and `min_rounds`
        are done.  Returns the rounds run and their solve time."""
        done, spent = 0, 0.0
        clock = time.perf_counter
        run = self.bench.run if span is None else span(self.bench.run)
        began = clock()
        while (done < count) if count is not None else (done < min_rounds or clock() - began < seconds):
            for k, op in enumerate(self.bench.ops):
                self.attempted += 1
                start = clock()
                try:
                    result = run(op)
                except Exception as exc:  # a failing operation is counted, not fatal
                    self.failed += 1
                    print(f"failed: {op.inst.label}: {exc!r}", file=sys.stderr)
                    continue
                elapsed = clock() - start
                spent += elapsed
                kernel = time_kernel()
                self.latency[k].append(elapsed)
                self.speed[k].append(math.sqrt(self._kernel * kernel))
                self._kernel = kernel
                try:
                    ans = self.bench.answer(op, result)
                    check(op.inst, ans, self.refs[op.inst.label], self.first.get(k))
                    self.first.setdefault(k, ans.fingerprint())
                except Mismatch as exc:
                    self.mismatches.append(str(exc))
            done += 1
        return done, spent

    def reference_latency(self, k):
        """Operation k's latency at reference speed: the median over the rounds of
        each solve's time, scaled by KERNEL_REFERENCE_S over the kernel time
        around it to the power KERNEL_EXPONENT."""
        return statistics.median(map(at_reference_speed, self.latency[k], self.speed[k]))


def _references(workload, seed, workdir):
    path = os.path.join(workdir, "references.json")
    subprocess.run([sys.executable, os.path.join(HERE, "reference.py"), "--workload", workload,
                    "--seed", str(seed), "--out", path], check=True, timeout=150)
    with open(path, encoding="utf-8") as fp:
        return {label: Reference.from_json(doc) for label, doc in json.load(fp).items()}


def _setup_probe(workload, seed):
    """Set-up time of a fresh process: import, generation and warm-up."""
    done = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", workload,
                           "--seed", str(seed), "--setup-probe"],
                          check=True, timeout=150, capture_output=True, text=True)
    return float(done.stdout.split()[-1])


def _end_to_end(bench, loop, workload, seed):
    """End-to-end metrics, from each operation's latency at reference speed
    (README.md, Steadiness)."""
    setups = [bench.setup_s] + [_setup_probe(workload, seed) for _ in range(SETUP_PROBES)]
    latency = {k: loop.reference_latency(k) for k in range(len(bench.ops)) if loop.latency[k]}
    values = {
        "setup_s": statistics.median(setups),
        "solves_per_s": len(latency) / sum(latency.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for family in FAMILIES:
        top = [latency[k] for k, op in enumerate(bench.ops)
               if op.top and op.inst.family == family and k in latency]
        values[f"{family}.ms"] = statistics.fmean(top) * 1e3
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def _per_layer(loop, seconds, workload, seed):
    """Per-layer metrics: one warm round, then untraced and traced rounds in turn
    until `seconds` have passed."""
    loop.rounds(count=1)
    tracer = Tracer()

    def span(run):  # one root span per operation, labelled with its instance
        return tracer.wrap("bench.op", run, note=lambda args, result: {"label": args[0].inst.label})

    pairs, untraced, traced = 0, 0.0, 0.0
    began = time.perf_counter()
    while pairs == 0 or time.perf_counter() - began < seconds:
        untraced += loop.rounds(count=1)[1]
        tracer.install()
        try:
            traced += loop.rounds(count=1, span=span)[1]
        finally:
            tracer.uninstall()
        pairs += 1
    tracer.write(os.path.join(OUT, f"trace-{workload}-{seed}.json"))
    return tracer.metrics(pairs, (traced - untraced) / pairs)


def main(argv=None):
    parser = argparse.ArgumentParser(description="Seeded benchmark of certified inverse solves.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help="time set-up only (internal)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "io_recover", "__init__.py")):
        print(f"no program source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        bench = Bench(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(repr(bench.setup_s))
            return 0
        refs = _references(args.workload, args.seed, workdir)
        selftest.run(bench.solve, refs, args.seed)
        loop = Loop(bench, refs)
        if args.trace:
            metrics = _per_layer(loop, args.seconds, args.workload, args.seed)
        else:
            loop.rounds(seconds=args.seconds, min_rounds=MIN_ROUNDS)
            metrics = _end_to_end(bench, loop, args.workload, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in loop.mismatches[:20]:
        print(f"mismatch: {line}", file=sys.stderr)
    print(json.dumps({"correct": not loop.mismatches, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
