"""Traced stand-in for `python -m periodforms.cli`, used by the traced `cli`
run: times the import, runs `cli.main` under the tracer, and appends one
line with its timings and spans to stderr, so stdout stays the CLI's.

    python3 perfbench/cli_child.py <cli arguments>
"""

from time import perf_counter

STARTED = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import tracer as tracing  # noqa: E402

TRACE_MARK = "PERFBENCH-TRACE "
LIBRARY = ("exact", "intlinalg", "polynomials", "symplectic_lattice", "realizability", "covers",
           "curve_algebra", "sympy", "numpy")


def main():
    t0 = perf_counter()
    from periodforms import cli

    import_s = perf_counter() - t0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = tracer.run_op(0, "cli", lambda: cli.main(sys.argv[1:]))
    except SystemExit as exc:  # argparse rejects bad usage with exit code 2
        code = exc.code
    tracer.uninstall()
    sys.stdout.flush()
    self_s = tracer.self_times()[0]
    decode = encode = compute = 0.0
    for name, seconds in self_s.items():
        layer, _, rest = name.partition(".")
        if rest == "import":
            continue  # lazy sympy/numpy imports: sympy.import_s, numpy.import_s
        if name == "cli._emit" or (layer == "jsonio" and rest.startswith("encode_")):
            encode += seconds
        elif name == "cli._read_payload" or layer == "jsonio":
            decode += seconds
        elif layer in LIBRARY:
            compute += seconds
    report = {
        "import_s": import_s,
        "decode_s": decode,
        "encode_s": encode,
        "compute_s": compute,
        "summary": tracer.summary(),
        "spans": tracer.rows(),
        "wall_s": perf_counter() - STARTED,
    }
    sys.stderr.write(TRACE_MARK + json.dumps(report) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
