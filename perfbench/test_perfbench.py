"""The benchmark's own tests: smoke runs of every workload with all checks
on, the traced bypasses, repeatable counters, and checks that do catch
wrong answers.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import argparse
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import clicorpus
import ref
import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
WORKLOADS = ("periods", "curves", "cli")


def bench(workload, trace, seed=1, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=str(cwd), timeout=180,
    )
    return proc


def result(workload, trace, seed=1):
    proc = bench(workload, trace, seed)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    return {w: result(w, 1) for w in WORKLOADS}


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["per_layer"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct(workload):
    out = result(workload, 0)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    assert set(out["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_traced_bypasses(traced):
    value = lambda w, name: traced[w]["metrics"][name]["value"]
    for name in ("symplectic_lattice.sp_validate_s", "intlinalg.mat_mul_s", "intlinalg.pfaffian_s"):
        assert value("periods", name) > 0
        assert value("curves", name) == 0
    assert value("curves", "sympy.groebner_calls") > 0
    assert value("cli", "sympy.groebner_calls") > 0
    assert value("periods", "sympy.groebner_calls") == 0
    assert value("cli", "cli.exit_1") > 0 and value("cli", "cli.exit_2") > 0
    for w in WORKLOADS:
        assert traced[w]["correct"]
        assert set(traced[w]["metrics"]) == set(run.per_layer_names())


def test_counters_repeat_for_a_seed(traced):
    again = result("periods", 1)
    counts = lambda out: {k: m["value"] for k, m in out["metrics"].items() if m["unit"] in ("count", "bits")}
    assert counts(again) == counts(traced["periods"])


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = bench("periods", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def subcommands(parser):
    """Every subcommand path of an argparse parser, as tuples of names."""
    out = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                inner = subcommands(sub)
                out |= {(name,) + rest for rest in inner} if inner else {(name,)}
    return out


def test_cli_corpus_reaches_every_subcommand_and_exit_code():
    from periodforms import cli

    entries = clicorpus.fixed_entries()
    commands = subcommands(cli._build_parser())
    assert all(any(tuple(e.argv[:len(c)]) == c for e in entries) for c in commands)
    assert {e.expected_exit for e in entries} == {0, 1, 2}
    readme = (ROOT / "README.md").read_text()
    assert clicorpus.README_OUTPUT.decode().strip() in readme
    assert "--input '%s'" % clicorpus.README_INPUT in readme


def test_host_speed_scaling_uses_the_probes_around_each_op():
    import hostspeed

    ref_s, window = hostspeed.REFERENCE_S, hostspeed.WINDOW_S
    probes = [(0.0, ref_s), (0.5, ref_s), (10.0, 2 * ref_s), (10.5, 2 * ref_s), (10.6, 2 * ref_s)]
    records = [("a", 0.2, 0, True, 0.1), ("b", 0.2, 0, True, 10.2), ("c", 0.2, 0, True, 5.0)]
    a, b, c = (r[1] for r in hostspeed.scale(records, probes))
    assert a == pytest.approx(0.2) and b == pytest.approx(0.1)
    assert window < 4.5 and c == pytest.approx(0.2 / 1.5)  # nearest probes when the window is empty
    assert hostspeed.kernel() > 0


def test_checks_catch_wrong_answers():
    import periods

    rng = random.Random(5)
    (_, _, line_check, _), _ = periods.line_op(rng, 3)
    wrong = SimpleNamespace(area=Fraction(-1), covolume=Fraction(1), det=1, identity_ok=True, realizable=False)
    assert line_check(wrong) is not None
    (_, _, cover_check, _), _ = periods.cover_op(3, 4)
    lattice = SimpleNamespace(basis=[SimpleNamespace(re=1, im=0), SimpleNamespace(re=0, im=1)])
    assert cover_check(((3, 4, 1, 4), lattice)) is None
    assert cover_check(((3, 4, 2, 2), lattice)) is not None
    (_, _, map_check, _), (source, target) = periods.map_op(rng, "map2", 3, 5)
    identity = SimpleNamespace(entries=[[int(i == j) for j in range(6)] for i in range(6)])
    assert ref.same_lattice(source, target) or map_check(identity) is not None
    assert ref.ratio_problem(complex(2, 0), complex(2, 0), True) is None
    assert ref.ratio_problem(complex(2, 0), complex(3, 1), True) is not None
    entry = clicorpus.Entry("x", [], 0, b"{}\n")
    assert entry.problem(0, b"{}\n", "") is None
    assert entry.problem(0, b"{}\n", "Traceback (most recent call last)") is not None
    assert entry.problem(1, b"", "error") is not None
    assert clicorpus.fmt(Fraction(-3, 6)) == "-1/2"
