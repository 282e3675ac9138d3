"""End-to-end tests of the command line, driven in-process."""

import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from periodforms.cli import main
from test_intlinalg import reference_det
from test_symplectic_lattice import CLIFF_MAP4_INPUTS

LINE_INPUT = '{"genus":2,"periods":[["1","0"],["0","1"],["0","0"],["0","0"]]}'
GENUS2_CURVE = {"kind": "hyperelliptic", "f": ["0", "-1", "0", "0", "0", "1"]}
FERMAT = {
    "kind": "quartic",
    "coefficients": [[4, 0, 0, "1"], [0, 4, 0, "1"], [0, 0, 4, "1"]],
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def payload(**kwargs):
    return json.dumps(kwargs)


def test_line_worked_example(capsys):
    code, out, err = run(capsys, "realizable", "line", "--input", LINE_INPUT)
    assert code == 0 and err == ""
    verdict = json.loads(out)
    assert verdict["realizable"] is False
    assert verdict["det"] == 1
    assert verdict["reason"] == "area<=covolume"


def test_line_float_periods_use_the_numeric_path(capsys):
    doc = '{"genus":2,"periods":[[1.0,0.0],[0.0,1.0],[0.5,0.25],[0.0,0.0]]}'
    code, out, _ = run(capsys, "realizable", "line", "--input", doc)
    assert code == 0
    verdict = json.loads(out)
    assert verdict["realizable"] is True
    assert verdict["det"] == 4
    assert verdict["covolume"] == "1/4"


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400])
def test_line_non_finite_float_periods_exit_2(capsys, literal):
    # json.loads accepts these literals; they are malformed periods, not a
    # failed precondition (the integer overflows a float)
    doc = '{"genus":2,"periods":[[%s,0.0],[0.0,1.0],[0.5,0.0],[0.0,2.0]]}' % literal
    code, out, err = run(capsys, "realizable", "line", "--input", doc)
    assert code == 2 and out == ""
    assert "malformed input" in err and "Traceback" not in err


def test_line_integer_literal_past_the_digit_limit_exits_2(capsys):
    # json.loads refuses integer literals longer than 4,300 digits with a
    # plain ValueError, not a JSONDecodeError
    doc = '{"genus":2,"periods":[[%s,0],[0,1],[0,0],[0,0]]}' % ("1" * 5001)
    code, out, err = run(capsys, "realizable", "line", "--input", doc)
    assert code == 2 and out == ""
    assert "malformed input" in err and "Traceback" not in err


def test_line_tolerance_flag_still_applies(capsys):
    doc = '{"genus":2,"periods":[[1.0,0.0],[0.0,1.0],[1.4142135623730951,0.0],[0.0,0.0]]}'
    code, out, _ = run(capsys, "realizable", "line", "--input", doc)
    assert code == 0 and json.loads(out)["reason"] == "presumed dense (heuristic)"
    code, out, _ = run(capsys, "realizable", "line", "--tolerance", "1e-3", "--input", doc)
    assert code == 0 and json.loads(out)["det"] == 8119


def test_line_nan_tolerance_exits_1(capsys):
    # no comparison with NaN is true, so a NaN tolerance would pass the
    # snaps of pi and e to 355/113 and a rational near e off as exact
    doc = '{"genus":2,"periods":[[3.141592653589793,0],[0,2.718281828459045],[0,0],[0,0]]}'
    code, out, err = run(capsys, "realizable", "line", "--tolerance", "nan", "--input", doc)
    assert code == 1 and out == ""
    assert err == "error: tolerance must be a nonnegative number, got nan\n"


def test_pair_decision(capsys):
    doc = payload(
        a={"genus": 2, "periods": [["1", "0"], ["0", "1"], ["0", "0"], ["0", "0"]]},
        b={"genus": 2, "periods": [["0", "0"], ["0", "0"], ["1", "0"], ["0", "1"]]},
    )
    code, out, _ = run(capsys, "realizable", "pair", "--assume-simple", "--input", doc)
    assert code == 0
    verdict = json.loads(out)
    assert verdict["kind"] == "pair"
    assert verdict["realizable"] is True and verdict["det"] == 2


PAIR_WITNESS_INPUT = payload(
    a={"genus": 3, "periods": [["1", "0"], ["0", "1"], ["0", "0"], ["0", "0"], ["0", "0"], ["0", "0"]]},
    b={"genus": 3, "periods": [["0", "0"], ["0", "0"], ["1", "0"], ["0", "2"], ["0", "1"], ["0", "0"]]},
)


def test_pair_witness_bytes(capsys):
    code, out, err = run(capsys, "realizable", "pair", "--input", PAIR_WITNESS_INPUT)
    assert code == 0 and err == ""
    assert out == (
        '{"det": 4, "det_at_least_2g_minus_2": true, "det_even": true, "genus": 3, '
        '"kind": "pair", "realizable": null, "reason": "criterion not applicable", '
        '"witness": {"coefficients": [0, 0, 0, 1], "pairing": "2", '
        '"plane": [[0, 0, 1, 0, 0, 0], [0, 0, 0, 2, 1, 0]], "vector": [0, 0, 0, 2, 1, 0]}}\n'
    )


def test_pair_height_flag_is_gone(capsys):
    # --assume-simple replaces the old "--height 0"
    with pytest.raises(SystemExit) as exc:
        main(["realizable", "pair", "--height", "3", "--input", PAIR_WITNESS_INPUT])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_malformed_json_exits_2_with_position(capsys):
    code, out, err = run(capsys, "realizable", "line", "--input", '{"genus":2,')
    assert code == 2 and out == ""
    assert "line 1 column" in err


def test_domain_error_exits_1(capsys):
    code, out, err = run(capsys, "realizable", "line", "--input", '{"genus":0,"periods":[]}')
    assert code == 1 and out == ""
    assert "genus must be positive" in err


def test_missing_key_exits_2(capsys):
    code, _, err = run(capsys, "realizable", "line", "--input", '{"genus":2}')
    assert code == 2
    assert "periods" in err


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lattice", "frobnicate"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_input_from_file_and_stdin(capsys, tmp_path, monkeypatch):
    path = tmp_path / "class.json"
    path.write_text(LINE_INPUT)
    code, out_file, _ = run(capsys, "realizable", "line", "--input", str(path))
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(LINE_INPUT))
    code, out_stdin, _ = run(capsys, "realizable", "line", "--input", "-")
    assert code == 0
    assert out_file == out_stdin


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "realizable", "line", "--input", "no/such/file.json")
    assert code == 2
    assert "cannot read" in err


def test_output_bytes_are_deterministic(capsys):
    _, first, _ = run(capsys, "realizable", "line", "--input", LINE_INPUT)
    _, second, _ = run(capsys, "realizable", "line", "--input", LINE_INPUT)
    assert first == second


def test_cover_build_round_trips_through_analyze(capsys):
    code, built, _ = run(capsys, "cover", "build", "--genus", "3", "--degree", "4")
    assert code == 0
    code, out, _ = run(capsys, "cover", "analyze", "--input", built.strip())
    assert code == 0
    report = json.loads(out)
    assert report["genus"] == 3 and report["degree"] == 4
    assert report["det"] * json.loads(json.dumps(report["covolume"])) == 4
    assert report["period_lattice"] == [["1", "0"], ["0", "1"]]


def test_cover_build_degree_one_higher_genus_fails(capsys):
    code, _, err = run(capsys, "cover", "build", "--genus", "2", "--degree", "1")
    assert code == 1
    assert "degree-1" in err


def test_origami_genus(capsys):
    doc = '{"horizontal":[1,2,0],"vertical":[1,0,2]}'
    code, out, _ = run(capsys, "cover", "origami-genus", "--input", doc)
    assert code == 0
    assert json.loads(out) == {"genus": 2}


def test_lattice_det_and_saturate(capsys):
    doc = '{"genus":2,"vectors":[[2,0,0,0],[0,2,0,0]]}'
    code, out, _ = run(capsys, "lattice", "det", "--input", doc)
    assert code == 0 and json.loads(out) == {"determinant": 4}
    code, out, _ = run(capsys, "lattice", "saturate", "--input", doc)
    assert code == 0
    assert json.loads(out) == {"genus": 2, "vectors": [[1, 0, 0, 0], [0, 1, 0, 0]]}


def test_lattice_det_of_dense_rank18_takes_polynomial_time(capsys):
    rng = random.Random(18)
    vectors = [[rng.randint(-3, 3) for _ in range(18)] for _ in range(18)]
    gram = [
        [sum(u[k] * v[k + 1] - u[k + 1] * v[k] for k in range(0, 18, 2)) for v in vectors]
        for u in vectors
    ]
    gram_det = reference_det(gram)
    assert gram_det != 0
    start = time.perf_counter()
    code, out, _ = run(capsys, "lattice", "det", "--input", payload(genus=9, vectors=vectors))
    elapsed = time.perf_counter() - start
    assert code == 0
    assert json.loads(out)["determinant"] ** 2 == gram_det
    assert elapsed < 2.0


def test_lattice_genus_is_checked_against_the_vectors(capsys):
    # a huge genus is compared with the vector length, never allocated
    for genus, message in ((0, "genus must be at least 1"), (10**9, "generators do not match the ambient dimension")):
        doc = payload(genus=genus, vectors=[[1, 0, 0, 0], [0, 1, 0, 0]])
        code, out, err = run(capsys, "lattice", "det", "--input", doc)
        assert code == 1 and out == ""
        assert message in err


def test_lattice_normal_form(capsys):
    doc = '{"genus":2,"vectors":[[1,0,0,0],[0,3,0,0]]}'
    code, out, _ = run(capsys, "lattice", "normal-form", "--input", doc)
    assert code == 0
    report = json.loads(out)
    assert report["divisors"] == [3]
    assert len(report["basis"]) == 2 and len(report["change"]) == 2


def test_lattice_extend_puts_vector_in_first_column(capsys):
    doc = '{"genus":2,"vector":[1,2,3,4]}'
    code, out, _ = run(capsys, "lattice", "extend", "--input", doc)
    assert code == 0
    entries = json.loads(out)["entries"]
    assert [row[0] for row in entries] == [1, 2, 3, 4]


def test_lattice_map2(capsys):
    doc = payload(
        source={"genus": 2, "vectors": [[1, 0, 0, 0], [0, 1, 0, 0]]},
        target={"genus": 2, "vectors": [[0, 0, 1, 0], [0, 0, 0, 1]]},
    )
    code, out, _ = run(capsys, "lattice", "map2", "--input", doc)
    assert code == 0
    entries = json.loads(out)["entries"]
    assert len(entries) == 4 and all(len(row) == 4 for row in entries)


def test_lattice_map4_on_a_recorded_cliff_input(capsys):
    source, target = CLIFF_MAP4_INPUTS[1]
    doc = payload(source={"genus": 6, "vectors": source}, target={"genus": 6, "vectors": target})
    code, out, err = run(capsys, "lattice", "map4", "--input", doc)
    assert code == 0 and err == ""
    entries = json.loads(out)["entries"]
    assert len(entries) == 12 and all(len(row) == 12 for row in entries)


def test_lattice_map4_names_the_divisors_it_refuses(capsys):
    # span(e0, 2f0 + e2, e1, 2f1 + e3) is complete with divisors 2, 2;
    # rank-4 maps cover the orbit whose first divisor is 1
    lattice = {"genus": 4, "vectors": [[1, 0, 0, 0, 0, 0, 0, 0], [0, 2, 0, 0, 1, 0, 0, 0],
                                       [0, 0, 1, 0, 0, 0, 0, 0], [0, 0, 0, 2, 0, 0, 1, 0]]}
    code, out, err = run(capsys, "lattice", "map4", "--input", payload(source=lattice, target=lattice))
    assert code == 1 and out == ""
    assert "restriction not indivisible: divisors 2, 2" in err
    assert "orbit with first divisor 1" in err


def test_lattice_extend_at_genus_60_with_64_bit_entries_finishes():
    # 120 coordinates of 64 bits; the CI entry-point step runs the same
    # input under timeout 10
    path = Path(__file__).with_name("extend_genus60.json")
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from periodforms.cli import main; sys.exit(main(sys.argv[1:]))",
         "lattice", "extend", "--input", str(path)],
        capture_output=True, text=True, env=src_env(), timeout=10,
    )
    assert done.returncode == 0, done.stderr
    entries = json.loads(done.stdout)["entries"]
    assert [row[0] for row in entries] == json.loads(path.read_text())["vector"]


def test_curve_classify_reports_rank_and_kernel(capsys):
    doc = payload(curve=GENUS2_CURVE, differentials=[[0, 1], [1, 0]])
    code, out, _ = run(capsys, "curve", "classify", "--input", doc)
    assert code == 0
    report = json.loads(out)
    assert report["classification"] == "coprime"
    assert report["obscurant_dim"] == 1 and report["rank"] == 3
    assert len(report["kernel"]) == 1 and len(report["kernel"][0]) == 4


def test_curve_obscurant_matches_kernel_size(capsys):
    doc = payload(curve=GENUS2_CURVE, differentials=[[0, 1], [1, 0]])
    code, out, _ = run(capsys, "curve", "obscurant", "--input", doc)
    assert code == 0
    report = json.loads(out)
    assert report["obscurant_dim"] == len(report["kernel"])
    assert report["rank"] + report["obscurant_dim"] == 4


def test_curve_overlap_and_noether(capsys):
    doc = payload(curve=GENUS2_CURVE, alpha=[0, 1], beta=[1, 0])
    code, out, _ = run(capsys, "curve", "overlap", "--input", doc)
    assert code == 0 and json.loads(out) == {"overlap_degree": 0}
    code, out, _ = run(capsys, "curve", "noether", "--input", payload(curve=GENUS2_CURVE))
    assert code == 0 and json.loads(out) == {"noether_image_dim": 3}


def test_curve_residues_exact_and_numeric(capsys):
    doc = payload(curve=GENUS2_CURVE, omega={"q": ["1"]}, alpha=["-2", "1"])
    code, out, _ = run(capsys, "curve", "residues", "--input", doc)
    assert code == 0
    report = json.loads(out)
    assert report["sum"] == "0"
    assert report["residues"][0]["disc"] == "30"
    code, out, _ = run(capsys, "curve", "residues", "--numeric", "--input", doc)
    assert code == 0
    report = json.loads(out)
    total = complex(*report["sum"])
    assert abs(total) < 1e-9


def test_curve_sections_exact_and_numeric(capsys):
    doc = payload(curve=GENUS2_CURVE, gamma=[0, 1], beta=[1, 0], alpha=["-2", "1"])
    code, out, _ = run(capsys, "curve", "sections", "--input", doc)
    assert code == 0 and json.loads(out) == {"values": ["2", "2"]}
    code, out, _ = run(capsys, "curve", "sections", "--numeric", "--input", doc)
    assert code == 0
    values = [complex(*v) for v in json.loads(out)["values"]]
    assert all(abs(v - 2) < 1e-9 for v in values)


def test_curve_sections_at_a_huge_rational_zero_returns_at_once():
    # the zero 10^20 of alpha used to be searched for by trial division
    root = 10**20
    doc = payload(curve=GENUS2_CURVE, gamma=[0, 1], beta=[1, 0], alpha=[str(-root), "1"])
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from periodforms.cli import main; sys.exit(main(sys.argv[1:]))",
         "curve", "sections", "--input", doc],
        capture_output=True, text=True, env=src_env(), timeout=5,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"values": [str(root), str(root)]}


def test_curve_overlap_at_genus_41_finishes():
    # Euclid over Q on the degree-84 f (squarefree check) and the
    # degree-40/39 differentials ran past 30 s; the primitive PRS does not
    rng = random.Random(41)
    f = [str(rng.randint(-9, 9)) for _ in range(84)] + ["1"]

    def rational(n):
        return ["%d/%d" % (rng.randint(-999, 999), rng.randint(1, 999)) for _ in range(n)]

    doc = payload(curve={"kind": "hyperelliptic", "f": f}, alpha=rational(41), beta=rational(40))
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from periodforms.cli import main; sys.exit(main(sys.argv[1:]))",
         "curve", "overlap", "--input", doc],
        capture_output=True, text=True, env=src_env(), timeout=10,
    )
    assert done.returncode == 0, done.stderr
    # coprime differentials of the top degree g - 1 share no zero
    assert json.loads(done.stdout) == {"overlap_degree": 0}


def test_curve_overlap_on_a_ten_digit_degree_83_curve_finishes():
    # f, alpha and beta have 10-digit numerators and denominators; the
    # primitive PRS of the squarefree check on f ran past 20 s, the modular
    # gcd proves each coprime case modulo one prime
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from periodforms.cli import main; sys.exit(main(sys.argv[1:]))",
         "curve", "overlap", "--input", str(Path(__file__).with_name("overlap_degree83.json"))],
        capture_output=True, text=True, env=src_env(), timeout=10,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"overlap_degree": 0}


def test_curve_cross_ratio_on_coordinate_lines(capsys):
    doc = payload(curve=FERMAT, alpha=[1, 0, 0], beta=[0, 1, 0], gamma=[0, 0, 1])
    code, out, _ = run(capsys, "curve", "cross-ratio", "--input", doc)
    assert code == 0
    report = json.loads(out)
    assert report["matches"] is True
    assert abs(complex(*report["forms_cross_ratio"]) - 0.5) < 1e-9


def test_curve_cross_ratio_on_a_bitangent_exits_1(capsys):
    doc = payload(curve=FERMAT, alpha=[1, 1, 1], beta=[1, 0, 0], gamma=[0, 1, 0])
    code, out, err = run(capsys, "curve", "cross-ratio", "--input", doc)
    assert code == 1 and out == ""
    assert "non-simple zeroes" in err


@pytest.mark.parametrize("subcommand", ["cross-ratio", "residues", "sections"])
def test_curve_tolerance_flags_are_gone(capsys, subcommand):
    # degeneracy on the curve layer is decided exactly
    with pytest.raises(SystemExit) as exc:
        main(["curve", subcommand, "--tolerance", "1e-9", "--input", "{}"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_curve_domain_errors_exit_1(capsys):
    singular = {"kind": "quartic", "coefficients": [[4, 0, 0, "1"]]}
    doc = payload(curve=singular, alpha=[1, 0, 0], beta=[0, 1, 0], gamma=[0, 0, 1])
    code, _, err = run(capsys, "curve", "cross-ratio", "--input", doc)
    assert code == 1
    assert "singular" in err


# Runs CLI calls in a fresh interpreter where importing the blocked modules
# fails, and reports each exit code and stream plus the blocked modules and
# their submodules that loaded.
WITHOUT_MODULE = r"""
import contextlib, io, json, sys
blocked = json.loads(sys.argv[1])
for name in blocked:
    sys.modules[name] = None
from periodforms.cli import main
report = []
for argv in json.loads(sys.argv[2]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    report.append([code, out.getvalue(), err.getvalue()])
loaded = [name for name, module in sys.modules.items() if module is not None
          and any(name == b or name.startswith(b + ".") for b in blocked)]
print(json.dumps({"calls": report, "loaded": loaded}))
"""


def src_env():
    """The environment with this checkout's src first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_without(modules, calls):
    done = subprocess.run([sys.executable, "-c", WITHOUT_MODULE, json.dumps(modules), json.dumps(calls)],
                          capture_output=True, text=True, env=src_env(), timeout=60)
    assert "Traceback" not in done.stderr and done.returncode == 0
    report = json.loads(done.stdout)
    assert report["loaded"] == []
    return report


def test_curve_commands_run_without_sympy():
    singular = {"kind": "quartic", "coefficients": [[4, 0, 0, "1"], [0, 3, 1, "1"]]}
    calls = [
        ["curve", "noether", "--input", payload(curve=FERMAT)],
        ["curve", "cross-ratio", "--input",
         payload(curve=FERMAT, alpha=[1, 0, 0], beta=[0, 1, 0], gamma=[0, 0, 1])],
        ["curve", "noether", "--input", payload(curve=singular)],
    ]
    report = run_without(["sympy"], calls)
    noether, cross, bad = report["calls"]
    assert noether[0] == 0 and json.loads(noether[1]) == {"noether_image_dim": 6}
    assert cross[0] == 0 and json.loads(cross[1])["matches"] is True
    assert bad[0] == 1 and "the quartic is singular" in bad[2]
    assert all("Traceback" not in err for _, _, err in report["calls"])


def test_lattice_det_loads_no_curve_layer():
    doc = payload(genus=3, vectors=[[1, 0, 0, 0, 0, 0], [0, 2, 1, 0, 0, 0]])
    report = run_without(["periodforms.curve_algebra", "periodforms.polynomials"],
                         [["lattice", "det", "--input", doc]])
    assert report["calls"] == [[0, '{"determinant": 2}\n', ""]]


def test_curve_overlap_loads_no_lattice_layer():
    doc = payload(curve=GENUS2_CURVE, alpha=["-2", "1"], beta=["-3", "1"])
    report = run_without(
        ["periodforms.symplectic_lattice", "periodforms.realizability", "periodforms.covers"],
        [["curve", "overlap", "--input", doc]],
    )
    assert report["calls"] == [[0, '{"overlap_degree": 0}\n', ""]]


def test_cover_build_and_genus_load_no_lattice_layer():
    calls = [["cover", "build", "--genus", "2", "--degree", "3"],
             ["cover", "origami-genus", "--input", payload(horizontal=[1, 0], vertical=[0, 1])]]
    report = run_without(["periodforms.symplectic_lattice", "periodforms.realizability"], calls)
    assert report["calls"] == [
        [0, '{"a": [1, 2, 0], "b": [0, 1, 2], "branch": [[1, 0, 2], [1, 0, 2]]}\n', ""],
        [0, '{"genus": 1}\n', ""],
    ]


def test_dims_gap_and_severi_load_no_lattice_layer():
    calls = [["dims", "gap", "--g", "4", "--k", "4"], ["severi", "--det", "6"]]
    report = run_without(["periodforms.symplectic_lattice", "periodforms.intlinalg"], calls)
    assert report["calls"] == [[0, "1\n", ""], [0, "[[2, 2], [3, 1], [4, 0]]\n", ""]]


def test_malformed_json_loads_no_layer():
    layers = ["periodforms." + name for name in (
        "covers", "curve_algebra", "intlinalg", "jsonio", "polynomials", "realizability",
        "symplectic_lattice")]
    calls = [[*command, "--input", '{"genus": 2,'] for command in (
        ["realizable", "line"], ["lattice", "det"], ["lattice", "map4"], ["cover", "analyze"],
        ["curve", "classify"], ["curve", "sections"])]
    report = run_without(layers, calls)
    assert [code for code, _, _ in report["calls"]] == [2] * len(calls)
    assert all(err.startswith("malformed input: invalid JSON") for _, _, err in report["calls"])


def test_public_names_resolve_lazily():
    import periodforms

    namespace = {}
    exec("from periodforms import *", namespace)
    for name in periodforms.__all__:
        assert getattr(periodforms, name) is namespace[name]
    assert set(periodforms.__all__) <= set(dir(periodforms))
    with pytest.raises(AttributeError, match="nope"):
        periodforms.nope


def test_every_top_level_definition_is_exported_or_used():
    # a top-level def or class of src is public (in _EXPORTS) or named by
    # some other top-level statement of src; anything else is dead code
    import ast

    import periodforms

    statements = []
    for path in sorted(Path(periodforms.__file__).parent.glob("*.py")):
        statements += ast.parse(path.read_text()).body

    def names(statement):
        return {node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(statement) if isinstance(node, (ast.Name, ast.Attribute))}

    used = [names(s) for s in statements]
    unreached = sorted(
        s.name for i, s in enumerate(statements)
        if isinstance(s, (ast.FunctionDef, ast.ClassDef))
        and not s.name.startswith("__") and s.name not in periodforms._EXPORTS
        and not any(s.name in u for j, u in enumerate(used) if j != i))
    assert unreached == []


def test_dims_gap_prints_bare_integer(capsys):
    code, out, _ = run(capsys, "dims", "gap", "--g", "4", "--k", "4")
    assert code == 0
    assert out.strip() == "1"


def test_severi_json_and_table(capsys):
    code, out, _ = run(capsys, "severi", "--det", "6")
    assert code == 0
    assert json.loads(out) == [[2, 2], [3, 1], [4, 0]]
    code, out, _ = run(capsys, "severi", "--det", "6", "--format", "table")
    assert code == 0
    assert out.splitlines() == ["[2, 2]", "[3, 1]", "[4, 0]"]


@pytest.mark.parametrize(
    "argv",
    [
        ["severi", "--det", str(10**100)],
        ["cover", "build", "--genus", str(10**100), "--degree", "2"],
        ["cover", "build", "--genus", "2", "--degree", str(10**100)],
    ],
)
def test_integer_arguments_past_the_output_limit_exit_1(capsys, argv):
    # refused before anything of that size is allocated
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err == "error: the result would hold more than 1000000 integers\n"


def test_table_format_on_dict_output(capsys):
    code, out, _ = run(capsys, "realizable", "line", "--format", "table", "--input", LINE_INPUT)
    assert code == 0
    lines = out.splitlines()
    keys = [line.split("\t")[0] for line in lines]
    assert keys == sorted(keys)
    row = dict(line.split("\t", 1) for line in lines)
    assert row["realizable"] == "false"


def test_bad_rational_string_exits_2(capsys):
    doc = '{"genus":2,"periods":[["1","0"],["0","x"],["0","0"],["0","0"]]}'
    code, _, err = run(capsys, "realizable", "line", "--input", doc)
    assert code == 2
    assert "cannot parse" in err


def test_numeric_roots_without_numpy(capsys):
    residues = payload(curve=GENUS2_CURVE, omega={"q": ["1"]}, alpha=["-2", "1"])
    sections = payload(curve=GENUS2_CURVE, gamma=[0, 1], beta=[1, 0], alpha=["-2", "1"])
    calls = [
        ["curve", "residues", "--numeric", "--input", residues],
        ["curve", "sections", "--numeric", "--input", sections],
        ["curve", "cross-ratio", "--input",
         payload(curve=FERMAT, alpha=[1, 0, 0], beta=[0, 1, 0], gamma=[0, 0, 1])],
        ["curve", "residues", "--input", residues],
    ]
    report = run_without(["numpy"], calls)
    # the same calls in this interpreter, where numpy is importable
    assert report["calls"] == [list(run(capsys, *argv)) for argv in calls]
    *numeric, exact = report["calls"]
    assert all(code == 0 and err == "" for code, _, err in numeric)
    assert exact[0] == 0 and json.loads(exact[1])["sum"] == "0"


TOO_BIG = str(10**400)


@pytest.mark.parametrize(
    "argv",
    [
        ["curve", "sections", "--numeric", "--input",
         payload(curve=GENUS2_CURVE, gamma=[0, 1], beta=[1, 0], alpha=["-3", TOO_BIG])],
        ["curve", "cross-ratio", "--input",
         payload(curve={"kind": "quartic",
                        "coefficients": [[4, 0, 0, TOO_BIG], [0, 4, 0, "1"], [0, 0, 4, "1"]]},
                 alpha=[0, 0, 1], beta=[0, 1, 0], gamma=[1, 0, 0])],
        ["curve", "sections", "--numeric", "--input",
         payload(curve=GENUS2_CURVE, gamma=[0, 1], beta=[1, 0], alpha=["-3", "1/" + TOO_BIG])],
        ["curve", "residues", "--numeric", "--input",
         payload(curve=GENUS2_CURVE, omega={"q": ["1"]}, alpha=["-3", "1/" + TOO_BIG])],
        ["curve", "sections", "--numeric", "--input",
         payload(curve=GENUS2_CURVE, gamma=[0, int(TOO_BIG)], beta=[1, 0], alpha=["-3", "1"])],
        ["curve", "residues", "--numeric", "--input",
         payload(curve=GENUS2_CURVE, omega={"q": [int(TOO_BIG)]}, alpha=["-3", "1"])],
        ["curve", "residues", "--numeric", "--input",
         payload(curve=GENUS2_CURVE, omega={"q": ["1"]}, alpha=["-3", "1/" + str(10**300)])],
    ],
)
def test_numeric_roots_outside_the_float_range_exit_1(capsys, argv):
    # made monic, each alpha or restricted quartic in the first four calls has
    # a nonzero coefficient that overflows or rounds to 0.0, so it has no
    # floating-point roots; in the next two, gamma and omega have one past the
    # float range; in the last, f overflows at the root 3 * 10^300
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == "error: the polynomial is not representable in floating point\n"


# x^4 + y^4 + z^4 + 3 x^2 y^2 is smooth, and each input below passes every
# exact check, so only the floats can fail
CROSS_RATIO_QUARTIC = {"kind": "quartic",
                       "coefficients": [[4, 0, 0, "1"], [0, 4, 0, "1"], [0, 0, 4, "1"], [2, 2, 0, "3"]]}


@pytest.mark.parametrize(
    "alpha, beta",
    [
        # the chart coordinates lie past the float range
        (["1/" + TOO_BIG, "1", "2"], ["0", "1", "0"]),
        # a coefficient of beta lies past the float range
        (["1", "1", "2"], [TOO_BIG, "1", "0"]),
        # beta's values at the four points overflow to inf, so the forms
        # ratio would print as NaN
        (["1/" + str(10**30), "1", "2"], [str(10**300), "1", "0"]),
    ],
    ids=["chart-overflows", "coefficient-overflows", "ratio-not-finite"],
)
def test_cross_ratio_outside_the_float_range_exits_1(capsys, alpha, beta):
    doc = payload(curve=CROSS_RATIO_QUARTIC, alpha=alpha, beta=beta, gamma=["0", "0", "1"])
    code, out, err = run(capsys, "curve", "cross-ratio", "--input", doc)
    assert code == 1 and out == ""
    assert err == "error: the cross-ratio is not representable in floating point\n"


def test_output_integer_past_the_digit_limit_exits_1(capsys):
    # the determinant 10^4400 has 4,401 digits; the input has 2,201 each
    big = 10**2200
    doc = payload(genus=2, vectors=[[big, 0, 0, 0], [0, big, 0, 0]])
    for fmt in ("json", "table"):
        code, out, err = run(capsys, "lattice", "det", "--format", fmt, "--input", doc)
        assert code == 1 and out == ""
        assert err == (
            "error: an output integer has more than %d digits, the interpreter's"
            " limit for int-to-str conversion\n" % sys.get_int_max_str_digits()
        )


MUTATION_SEEDS = [
    (["realizable", "line"], json.loads(LINE_INPUT)),
    (["realizable", "pair"], json.loads(PAIR_WITNESS_INPUT)),
    (["lattice", "det"], {"genus": 2, "vectors": [[2, 0, 0, 0], [0, 2, 0, 0]]}),
    (["lattice", "saturate"], {"genus": 2, "vectors": [[2, 0, 0, 0], [0, 2, 2, 0]]}),
    (["lattice", "normal-form"], {"genus": 2, "vectors": [[1, 0, 0, 0], [0, 3, 0, 0]]}),
    (["lattice", "extend"], {"genus": 2, "vector": [1, 2, 3, 4]}),
    (["lattice", "map2"], {"source": {"genus": 2, "vectors": [[1, 0, 0, 0], [0, 1, 0, 0]]},
                           "target": {"genus": 2, "vectors": [[0, 0, 1, 0], [0, 0, 0, 1]]}}),
    (["cover", "analyze"], {"a": [1, 2, 3, 0], "b": [0, 1, 2, 3], "branch": [[1, 0, 2, 3], [1, 0, 2, 3]]}),
    (["cover", "origami-genus"], {"horizontal": [1, 2, 0], "vertical": [1, 0, 2]}),
    (["curve", "classify"], {"curve": GENUS2_CURVE, "differentials": [[0, 1], [1, 0]]}),
    (["curve", "obscurant"], {"curve": GENUS2_CURVE, "differentials": [[0, 1], [1, 0]]}),
    (["curve", "overlap"], {"curve": GENUS2_CURVE, "alpha": [0, 1], "beta": [1, 0]}),
    (["curve", "noether"], {"curve": FERMAT}),
    (["curve", "residues"], {"curve": GENUS2_CURVE, "omega": {"q": ["1"]}, "alpha": ["-2", "1"]}),
    (["curve", "sections"], {"curve": GENUS2_CURVE, "gamma": [0, 1], "beta": [1, 0], "alpha": ["-2", "1"]}),
    (["curve", "cross-ratio"], {"curve": FERMAT, "alpha": [1, 0, 0], "beta": [0, 1, 0], "gamma": [0, 0, 1]}),
]
MUTATION_ATOMS = [0, 1, -1, 3, -7, 10**6, 10**40, "1/2", "-3", "0", "1/0", "x", "", 1.5, True, None,
                  [], {}, [0], [[0]], ["1", "0"]]


def _nodes(doc, path=()):
    """Every (path, value) of a JSON document, the root included."""
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _mutated(rng, doc):
    """doc (deep-copied) with one node replaced, deleted, duplicated or
    wrapped in a list; a list or object may gain an unknown entry.  An
    empty document comes back as it is."""
    doc = json.loads(json.dumps(doc))
    nodes = [(p, v) for p, v in _nodes(doc) if p]
    if not nodes:
        return doc
    path, node = rng.choice(nodes)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key, kind = path[-1], rng.choice(["replace", "replace", "delete", "duplicate", "wrap", "extra"])
    if kind == "replace":
        parent[key] = rng.choice(MUTATION_ATOMS)
    elif kind == "delete":
        del parent[key]
    elif kind == "duplicate" and isinstance(parent, list):
        parent.insert(key, node)
    elif kind == "extra":
        if isinstance(parent, list):
            parent.append(rng.choice(MUTATION_ATOMS))
        else:
            parent["unknown"] = rng.choice(MUTATION_ATOMS)
    else:
        parent[key] = [node]
    return doc


def test_mutated_inputs_exit_0_1_or_2(capsys):
    # no mutation of a valid document may end in a traceback: the exit code
    # is 0, 1 (a domain error) or 2 (malformed input), nothing else
    rng = random.Random(22)
    for trial in range(300):
        argv, doc = rng.choice(MUTATION_SEEDS)
        doc = _mutated(rng, doc)
        if trial % 3 == 0:
            doc = _mutated(rng, doc)
        text = json.dumps(doc)
        if trial % 10 == 0:
            # and a text edit: one character dropped, which may break the JSON
            i = rng.randrange(len(text))
            text = text[:i] + text[i + 1:]
        try:
            code = main(argv + ["--input", text])
        except Exception as exc:
            pytest.fail("%s --input %s raised %r" % (" ".join(argv), text, exc))
        capsys.readouterr()
        assert code in (0, 1, 2), (argv, text, code)
