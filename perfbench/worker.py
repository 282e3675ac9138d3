"""One measurement process for one workload; run.py starts it.

Prints one JSON line with raw per-op records, which run.py turns into
metrics.  Library workloads (`periods`, `curves`) run in this process; the
`cli` workload runs one `python -m periodforms.cli` child at a time.

    worker.py --workload periods --seed 1 --seconds 30 --trace 0 [--smoke]
    worker.py --workload curves --probe      # set-up time only
"""

import argparse
import gc
import hashlib
import importlib
import json
import os
import random
import resource
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import clicorpus
import hostspeed
import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
TRACE_MARK = "PERFBENCH-TRACE "
# No op of the mix needs more than a second on this class of machine; one
# that runs past the limit is stopped and counted as failed, so a run
# stays bounded even when the library hits a cost cliff.
OP_LIMIT_S = 5.0

# Rounds per measured second in a traced run.  The traced run makes a
# traced pass over rounds 0..R-1, so its counts are fixed by (seed,
# seconds) and repeat exactly, and an untraced pass over rounds R..2R-1 for
# the overhead ratio; distinct inputs keep sympy's caches from favouring
# the second pass.
TRACE_ROUNDS_PER_S = {"periods": 0.3, "curves": 0.8, "cli": 0.025}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def trace_rounds(workload, seconds, smoke):
    return 1 if smoke else max(1, round(seconds * TRACE_ROUNDS_PER_S[workload]))


def round_rng(workload, seed, index):
    return random.Random("%s:%d:%d" % (workload, seed, index))


class Recorder:
    """Per-op records (kind, latency in seconds, round index, ok flag,
    start time) and the host-speed probes taken between the ops."""

    def __init__(self):
        self.records = []
        self.errors = []
        self.digest = hashlib.sha256()
        self.probes = hostspeed.Probes()

    def add(self, kind, latency, index, problem, start):
        self.records.append((kind, latency, index, problem is None, start))
        if problem is not None and len(self.errors) < 20:
            self.errors.append("%s: %s" % (kind, problem))


# --- library workloads -----------------------------------------------------


class OpTimeout(Exception):
    pass


def _expire(signum, frame):
    raise OpTimeout("op ran past the %g s limit" % OP_LIMIT_S)


def run_op(op, tracer=None, op_id=0):
    """Times one op; returns (latency, problem or None)."""
    kind, call, check, reject = op
    signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
    t0 = perf_counter()
    try:
        try:
            result = call() if tracer is None else tracer.run_op(op_id, kind, call)
        finally:
            latency = perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Exception as exc:  # the op boundary: any exception is a finding
        if reject is not None and isinstance(exc, reject):
            return latency, None
        return latency, "%s: %s" % (type(exc).__name__, exc)
    if reject is not None:
        return latency, "expected a rejection"
    try:
        return latency, check(result)
    except Exception as exc:
        return latency, "check raised %s: %s" % (type(exc).__name__, exc)


def library_setup(workload):
    """Import plus one warm-up op of each kind; returns (module, seconds, problems)."""
    t0 = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    module = importlib.import_module(workload)
    problems = [p for p in (run_op(op)[1] for op in module.warmup_round(random.Random("warmup"))) if p]
    return module, perf_counter() - t0, problems


def round_indices(rounds, seconds):
    """The given round indices, or 0, 1, ... until seconds have passed."""
    if rounds is not None:
        yield from rounds
        return
    start = perf_counter()
    index = 0
    while index == 0 or perf_counter() - start < seconds:
        yield index
        index += 1


def library_pass(module, workload, seed, smoke, rec, rounds=None, seconds=None, tracer=None):
    """Runs rounds of ops: the given indices, or as many as fit in seconds."""
    op_id = 0
    for index in round_indices(rounds, seconds):
        ops, inputs = module.make_round(round_rng(workload, seed, index), smoke)
        rec.digest.update(repr(inputs).encode())
        gc.collect()
        for op in ops:
            rec.probes.take()
            start = perf_counter()
            latency, problem = run_op(op, tracer, op_id)
            rec.add(op[0], latency, index, problem, start)
            op_id += 1
    rec.probes.take(force=True)


# --- cli workload ----------------------------------------------------------


def run_cli(entry, argv_prefix, env):
    """Runs one corpus entry; returns (latency, problem, stderr text)."""
    t0 = perf_counter()
    try:
        proc = subprocess.run(argv_prefix + entry.argv, input=entry.stdin, capture_output=True, env=env,
                              cwd=str(ROOT), timeout=OP_LIMIT_S)
    except subprocess.TimeoutExpired:
        return perf_counter() - t0, "call ran past the %g s limit" % OP_LIMIT_S, ""
    latency = perf_counter() - t0
    stderr = proc.stderr.decode("utf-8", "replace")
    return latency, entry.problem(proc.returncode, proc.stdout, stderr), stderr


def cli_pass(seed, smoke, rec, rounds=None, seconds=None, traced=None):
    argv_prefix = [sys.executable, "-m", "periodforms.cli"]
    if traced is not None:
        argv_prefix = [sys.executable, str(HERE / "cli_child.py")]
    env = child_env()
    for index in round_indices(rounds, seconds):
        entries = clicorpus.make_round(round_rng("cli", seed, index), smoke)
        rec.digest.update(repr([(e.argv, e.stdin) for e in entries]).encode())
        for entry in entries:
            rec.probes.take()
            start = perf_counter()
            latency, problem, stderr = run_cli(entry, argv_prefix, env)
            if traced is not None:
                lines = stderr.rstrip("\n").split("\n")
                if lines and lines[-1].startswith(TRACE_MARK):
                    report = json.loads(lines[-1][len(TRACE_MARK):])
                    report["interpreter_s"] = latency - report["wall_s"]
                    report["exit"] = entry.expected_exit
                    traced.append(report)
                elif problem is None:
                    problem = "traced child sent no trace"
            rec.add(entry.name, latency, index, problem, start)
    rec.probes.take(force=True)


# --- main ------------------------------------------------------------------


def write_spans(out, workload, seed, rows, rec):
    OUT.mkdir(exist_ok=True)
    path = OUT / ("spans-%s-seed%d.csv.gz" % (workload, seed))
    tracing.write_spans(path, "workload=%s seed=%d inputs_sha256=%s" % (workload, seed, rec.digest.hexdigest()), rows)
    out["spans_file"] = str(path.relative_to(ROOT))
    out["spans"] = len(rows)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=("periods", "curves", "cli"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    signal.signal(signal.SIGALRM, _expire)
    out = {"setup_s": None, "errors": []}
    if args.workload == "cli":
        passes = [Recorder()]
        if args.trace:
            rounds = trace_rounds("cli", args.seconds, args.smoke)
            cli_pass(args.seed, args.smoke, passes[0], rounds=range(rounds, 2 * rounds))
            traced = []
            passes.append(Recorder())
            cli_pass(args.seed, args.smoke, passes[1], rounds=range(rounds), traced=traced)
            rows = []
            for op, child in enumerate(traced):
                base = len(rows)
                rows.extend((n, t0, t1, p + base if p >= 0 else -1, op, e) for n, t0, t1, p, _, e in child.pop("spans"))
            out["traced_children"] = traced
            write_spans(out, "cli", args.seed, rows, passes[1])
        else:
            cli_pass(args.seed, args.smoke, passes[0], seconds=args.seconds)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    else:
        module, setup_s, problems = library_setup(args.workload)
        out["setup_s"] = hostspeed.settle(setup_s)
        out["errors"].extend("warm-up: " + p for p in problems)
        if args.probe:
            print(json.dumps(out))
            return 0
        passes = [Recorder()]
        if args.trace:
            rounds = trace_rounds(args.workload, args.seconds, args.smoke)
            library_pass(module, args.workload, args.seed, args.smoke, passes[0], rounds=range(rounds, 2 * rounds))
            tracer = tracing.Tracer()
            tracer.install()
            passes.append(Recorder())
            library_pass(module, args.workload, args.seed, args.smoke, passes[1], rounds=range(rounds), tracer=tracer)
            tracer.uninstall()
            out["summary"] = tracer.summary()
            write_spans(out, args.workload, args.seed, tracer.rows(), passes[1])
        else:
            library_pass(module, args.workload, args.seed, args.smoke, passes[0], seconds=args.seconds)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["passes"] = [
        {"records": rec.records, "probes": rec.probes.samples, "errors": rec.errors,
         "inputs_sha256": rec.digest.hexdigest()}
        for rec in passes
    ]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
