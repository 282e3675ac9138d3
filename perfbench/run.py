"""The periodforms benchmark: one seeded workload per run, checked and timed.

    python3 perfbench/run.py --workload periods|curves|cli --seed N \\
        --seconds S --trace 0|1 [--smoke]

Run it from the root of a checkout; the library is imported from ./src.
With --trace 0 it measures the end-to-end metrics with tracing off; with
--trace 1 it makes one untraced and one traced pass over a fixed number of
rounds and reports the per-layer metrics.  --smoke runs the workload at a
tiny size with every check on.  The report goes to stdout, one metric a
line with its unit, and the last line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Every layer runs
synchronously on one caller, so no waiting time exists to report.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import hostspeed  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

SETUP_SAMPLES = 7
DEADLINE_S = 170.0
END_TO_END = {
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Printed in the report for the workloads they apply to; not in the JSON
# line, which carries only metrics every workload has.
RATES = {
    "periods": {
        "classes_per_s": ("line",),
        "pairs_per_s": ("pair",),
        "sp_maps_per_s": ("map2", "map4"),
        "lattice_invariants_per_s": ("det", "normal_form"),
    },
    "curves": {
        "quartics_per_s": ("quartic", "quartic_singular"),
        "curve_queries_per_s": ("cross_ratio", "cross_ratio_move", "classify_quartic", "noether",
                                "classify_hyper", "obscurant", "overlap", "isoperiodic", "residues", "sections"),
    },
    "cli": {},
}
CLI_LAYER = ("cli.interpreter_s", "cli.import_s", "cli.decode_s", "cli.compute_s", "cli.encode_s",
             "cli.exit_1", "cli.exit_2")


def per_layer_names():
    empty = {"self_s": {}, "calls": {}, "raised": {}, "counts": {}, "hnf_max_bits": 0, "witnesses": 0, "pairs": 0}
    return list(tracer.layer_metrics(empty)) + list(CLI_LAYER) + ["trace.overhead_ratio"]


def unit_of(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bits"):
        return "bits"
    return "count"


def spawn(argv, deadline):
    """Runs one benchmark process; past the deadline its whole process
    group (the worker and any CLI child) is killed and reaped."""
    proc = subprocess.Popen([sys.executable] + argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=worker.child_env(), cwd=str(ROOT), start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        sys.stderr.write(err.decode("utf-8", "replace"))
        raise SystemExit("benchmark process failed: %s" % " ".join(argv[:3]))
    return json.loads(out.decode().strip().splitlines()[-1])


def setup_samples(workload, deadline):
    """Set-up time measured in fresh interpreters, SETUP_SAMPLES times, each
    scaled to the reference host speed by kernels run after it."""
    if workload == "cli":
        probe = ("import time; t = time.perf_counter(); import periodforms.cli; "
                 "s = time.perf_counter() - t; import json, sys; sys.path.insert(0, %r); import hostspeed; "
                 "print(json.dumps({'setup_s': hostspeed.settle(s)}))" % str(HERE))
        return [spawn(["-c", probe], deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]
    argv = [str(HERE / "worker.py"), "--workload", workload, "--probe"]
    return [spawn(argv, deadline)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]


def machine():
    """One line naming the hardware and software the figures come from."""
    cpu = "unknown CPU"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(line.split(":", 1)[1].strip() for line in info if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    versions = []
    for package in ("numpy", "sympy"):
        try:
            versions.append("%s %s" % (package, importlib.metadata.version(package)))
        except importlib.metadata.PackageNotFoundError:
            versions.append("%s missing" % package)
    return "nproc %d, %s, Python %s, %s" % (os.cpu_count(), cpu, platform.python_version(), ", ".join(versions))


def tail(latencies):
    """(percentile, value): the highest percentile with ten samples beyond
    it, which is the eleventh-largest sample; the largest when n <= 10."""
    ordered = sorted(latencies, reverse=True)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[0]
    return 100.0 * (1.0 - 10.0 / n), ordered[10]


def scaled(run_pass):
    return hostspeed.scale(run_pass["records"], run_pass["probes"])


def timings(records):
    """(throughput, p50, tail percentile, tail, n) over every op of a pass."""
    latencies = [r[1] for r in records]
    p, tail_value = tail(latencies)
    return len(latencies) / sum(latencies), statistics.median(latencies), p, tail_value, len(latencies)


def end_to_end(workload, result, setups):
    run_pass = result["passes"][0]
    records, at_reference = run_pass["records"], scaled(run_pass)
    throughput, p50, p, tail_value, n = timings(at_reference)
    metrics = {
        "throughput_ops_s": throughput,
        "latency_p50_ms": 1000.0 * p50,
        "latency_tail_ms": 1000.0 * tail_value,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    wall = timings(records)
    notes = [
        "timings from %d ops in %d rounds" % (n, len({r[2] for r in records})),
        "latency_tail_ms is p%.2f of n=%d ops" % (p, n),
        "timings and setup_s are scaled to the reference host speed (kernel %.1f ms); this run's median "
        "factor was %.3f from %d probes" % (1000 * hostspeed.REFERENCE_S, hostspeed.factor(run_pass["probes"]),
                                            len(run_pass["probes"])),
        "unscaled wall figures: throughput_ops_s %.6g, latency_p50_ms %.6g, latency_tail_ms %.6g" % (
            wall[0], 1000.0 * wall[1], 1000.0 * wall[3]),
        "setup_s samples: %s" % ", ".join("%.4f" % s for s in setups),
    ]
    extra = {"failed_ratio": (sum(1 for r in records if not r[3]) / len(records), "ratio")}
    for name, kinds in RATES[workload].items():
        chosen = [r[1] for r in at_reference if r[0] in kinds]
        if chosen:
            extra[name] = (len(chosen) / sum(chosen), "1/s")
    return metrics, extra, notes


def per_layer(workload, result):
    untraced, traced = (scaled(p) for p in result["passes"])
    rate = lambda recs: len(recs) / sum(r[1] for r in recs)
    if workload == "cli":
        children = result["traced_children"]
        summary = tracer.merge(c["summary"] for c in children)
    else:
        children = []
        summary = result["summary"]
    metrics = tracer.layer_metrics(summary)
    for name in CLI_LAYER:
        metrics[name] = 0.0 if name.endswith("_s") else 0
    for c in children:
        for field in ("interpreter_s", "import_s", "decode_s", "compute_s", "encode_s"):
            metrics["cli." + field] += c[field]
        if c["exit"] in (1, 2):
            metrics["cli.exit_%d" % c["exit"]] += 1
    metrics["trace.overhead_ratio"] = rate(traced) / rate(untraced)
    notes = ["traced pass over %d ops: inputs_sha256 %s" % (len(traced), result["passes"][1]["inputs_sha256"])]
    if result.get("spans_file"):
        notes.append("%d spans written to %s" % (result["spans"], result["spans_file"]))
    notes.append("no waiting time is reported: every layer runs synchronously on one caller")
    return metrics, notes


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("periods", "curves", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, every check on")
    args = parser.parse_args()
    if not (ROOT / "src" / "periodforms" / "cli.py").is_file():
        raise SystemExit("no periodforms source tree at %s; run from the root of a checkout" % (ROOT / "src"))

    deadline = perf_counter() + DEADLINE_S
    argv = [str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
    try:
        setups = [] if args.trace else setup_samples(args.workload, deadline)
        result = spawn(argv, deadline)
    except subprocess.TimeoutExpired:
        raise SystemExit("benchmark process overran the %g s deadline" % DEADLINE_S)
    if result["setup_s"] is not None:
        setups.append(result["setup_s"])

    attempted = sum(len(p["records"]) for p in result["passes"])
    failed = sum(1 for p in result["passes"] for r in p["records"] if not r[3])
    errors = result["errors"] + [e for p in result["passes"] for e in p["errors"]]
    for line in errors:
        sys.stderr.write("check failed: %s\n" % line)

    print("# workload %s, seed %d, %d s, trace %d%s" % (
        args.workload, args.seed, args.seconds, args.trace, ", smoke" if args.smoke else ""))
    print("# machine: %s" % machine())
    if args.trace:
        values, notes = per_layer(args.workload, result)
        metrics = {k: {"value": values[k], "unit": unit_of(k)} for k in per_layer_names()}
    else:
        values, extra, notes = end_to_end(args.workload, result, setups)
        notes.append("inputs_sha256 %s" % result["passes"][0]["inputs_sha256"])
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        for name, (value, unit) in extra.items():
            print("%s = %.6g %s" % (name, value, unit))
    for name, m in metrics.items():
        print("%s = %.6g %s" % (name, m["value"], m["unit"]))
    for line in notes:
        print("# " + line)
    correct = failed == 0 and not result["errors"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
