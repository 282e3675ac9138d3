"""The `cli` corpus: a fixed part that reaches every subcommand and every
documented exit code, plus seeded entries whose output is known by
construction.

Fixed outputs are pinned in cli_golden.json, except the README worked
example, which is checked against the README's bytes, and the quartic
cross-ratio, whose floats are checked by tolerance.  Regenerate the pins
only for an intended output change:

    python3 perfbench/clicorpus.py --pin
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import gen
import ref

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "cli_golden.json"
README_INPUT = '{"genus":2,"periods":[["1","0"],["0","1"],["0","0"],["0","0"]]}'
README_OUTPUT = (
    b'{"area": "1", "covolume": "1", "det": 1, "genus": 2, "identity_area_eq_det_covolume": true,'
    b' "kind": "line", "realizable": false, "reason": "area<=covolume"}\n'
)


def fmt(q):
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)


def inline(obj):
    return json.dumps(obj, separators=(",", ":"))


def dumped(obj):
    return (json.dumps(obj, sort_keys=True) + "\n").encode()


class Entry:
    """One CLI call: argv after the program name, optional stdin bytes, the
    expected exit code, and the expected stdout bytes or a checker."""

    def __init__(self, name, argv, exit_code=0, expected=None, stdin=None):
        self.name = name
        self.argv = argv
        self.expected_exit = exit_code
        self.expected = expected
        self.stdin = stdin

    def problem(self, code, stdout, stderr):
        if "Traceback" in stderr:
            return "traceback on stderr"
        if code != self.expected_exit:
            return "exit %d, expected %d: %s" % (code, self.expected_exit, stderr.strip()[-200:])
        if self.expected_exit != 0:
            return None if stdout == b"" else "output on a failed call"
        if callable(self.expected):
            return self.expected(stdout)
        return None if stdout == self.expected else "stdout differs from the expected bytes"


# --- shapes ----------------------------------------------------------------

FERMAT = {"kind": "quartic", "coefficients": [[4, 0, 0, "1"], [0, 4, 0, "1"], [0, 0, 4, "1"]]}
QUINTIC = {"kind": "hyperelliptic", "f": ["0", "-1", "0", "0", "0", "1"]}
SEPTIC = {"kind": "hyperelliptic", "f": [fmt(c) for c in ref.poly_from_roots([0, 1, 2, 3, 4, 5, 6])]}


def _class(genus, periods):
    return {"genus": genus, "periods": [[fmt(x), fmt(y)] for x, y in periods]}


def _cross_ratio_check(stdout):
    try:
        out = json.loads(stdout)
        forms = complex(*out["forms_cross_ratio"])
        points = complex(*out["points_cross_ratio"])
    except (ValueError, KeyError, TypeError):
        return "cross-ratio output is not the documented shape"
    return ref.ratio_problem(forms, points, out.get("matches"))


def fixed_entries():
    pair_simple = {"a": _class(2, [(1, 0), (0, 1), (0, 0), (0, 0)]), "b": _class(2, [(0, 0), (0, 0), (1, 0), (0, 1)])}
    pair_witness = {"a": _class(3, [(1, 0), (0, 1), (0, 0), (0, 0), (0, 0), (0, 0)]),
                    "b": _class(3, [(0, 0), (0, 0), (1, 0), (0, 2), (0, 1), (0, 0)])}
    rank2 = {"genus": 3, "vectors": [[1, 0, 0, 0, 0, 0], [0, 2, 1, 0, 0, 0]]}
    rank2_moved = {"genus": 3, "vectors": [[1, 0, 0, 0, 0, 0], [1, 2, 0, 0, 1, 0]]}
    rank4 = {"genus": 3, "vectors": [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0], [0, 0, 0, 3, 1, 0]]}
    rank4_moved = {"genus": 3, "vectors": [[1, 0, 1, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0], [0, 0, 0, 3, 0, 1]]}
    cover = {"a": [1, 2, 3, 0], "b": [0, 1, 2, 3], "branch": [[1, 0, 2, 3], [1, 0, 2, 3]]}
    calls = [
        ("line-readme", ["realizable", "line", "--input", README_INPUT], 0, None),
        ("line-float", ["realizable", "line", "--input",
                        inline({"genus": 2, "periods": [[1.0, 0.0], [0.0, 1.0], [0.5, 0.0], [0.0, 2.0]]})], 0, None),
        ("line-dense", ["realizable", "line", "--input",
                        inline({"genus": 2, "periods": [[1.0, 0.0], [0.0, 1.0], [2 ** 0.5, 0.0], [0.0, 0.0]]})], 0, None),
        ("pair-simple", ["realizable", "pair", "--assume-simple", "--input", inline(pair_simple)], 0, None),
        ("pair-witness", ["realizable", "pair", "--input", inline(pair_witness)], 0, None),
        ("lattice-det", ["lattice", "det", "--input", inline(rank2)], 0, None),
        ("lattice-saturate", ["lattice", "saturate", "--input",
                              inline({"genus": 2, "vectors": [[2, 0, 0, 0], [0, 2, 2, 0]]})], 0, None),
        ("lattice-normal-form", ["lattice", "normal-form", "--input", inline(rank4)], 0, None),
        ("lattice-map2", ["lattice", "map2", "--input", inline({"source": rank2, "target": rank2_moved})], 0, None),
        ("lattice-map4", ["lattice", "map4", "--input", inline({"source": rank4, "target": rank4_moved})], 0, None),
        ("lattice-extend", ["lattice", "extend", "--input", inline({"genus": 2, "vector": [1, 2, 3, 4]})], 0, None),
        ("cover-build", ["cover", "build", "--genus", "3", "--degree", "4"], 0, None),
        ("cover-analyze-table", ["cover", "analyze", "--format", "table", "--input", inline(cover)], 0, None),
        ("cover-origami-genus", ["cover", "origami-genus", "--input",
                                 inline({"horizontal": [1, 2, 0], "vertical": [1, 0, 2]})], 0, None),
        ("curve-classify", ["curve", "classify", "--input",
                            inline({"curve": QUINTIC, "differentials": [[0, 1], [1]]})], 0, None),
        ("curve-obscurant", ["curve", "obscurant", "--input",
                             inline({"curve": SEPTIC, "differentials": [[1], [0, 1], [0, 0, 1]]})], 0, None),
        ("curve-overlap", ["curve", "overlap", "--input",
                           inline({"curve": SEPTIC, "alpha": [-10, 7, 1], "beta": [-10, 3, 1]})], 0, None),
        ("curve-noether", ["curve", "noether", "--input", inline({"curve": FERMAT})], 0, None),
        ("curve-residues", ["curve", "residues", "--input",
                            inline({"curve": QUINTIC, "omega": {"q": ["1"], "r": []}, "alpha": ["-2", "1"]})], 0, None),
        ("curve-sections", ["curve", "sections", "--input",
                            inline({"curve": SEPTIC, "gamma": [1, 1], "beta": [3, 0, 1], "alpha": [-70, 3, 1]})], 0, None),
        ("curve-cross-ratio", ["curve", "cross-ratio", "--input",
                               inline({"curve": FERMAT, "alpha": [1, 2, 3], "beta": [1, -1, 0], "gamma": [0, 1, 5]})],
         0, _cross_ratio_check),
        ("dims-gap", ["dims", "gap", "--g", "4", "--k", "4"], 0, None),
        ("severi", ["severi", "--det", "6"], 0, None),
        ("severi-odd", ["severi", "--det", "3"], 1, None),
        ("line-genus-one", ["realizable", "line", "--input", '{"genus":1,"periods":[["1","0"],["0","1"]]}'], 1, None),
        ("bad-json", ["realizable", "line", "--input", '{"genus": 2, "periods": ['], 2, None),
        ("missing-field", ["lattice", "det", "--input", '{"genus":2}'], 2, None),
        ("missing-option", ["cover", "build", "--genus", "3"], 2, None),
    ]
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    entries = [Entry("line-stdin", ["realizable", "line", "--input", "-"], 0, README_OUTPUT, README_INPUT.encode())]
    for name, argv, code, expected in calls:
        if expected is None and code == 0:
            expected = README_OUTPUT if name == "line-readme" else golden.get(name, "").encode()
        entries.append(Entry(name, argv, code, expected))
    return entries


# --- seeded entries --------------------------------------------------------


def line_entry(rng):
    """Re = l*e0 and Im = l*(d*f0 + e1), scrambled by Sp(2g, Z): area l^2 d,
    covolume l^2 and determinant d are invariant, so the verdict is known."""
    genus, d = rng.randint(2, 8), rng.randint(1, 6)
    scale = Fraction(rng.randint(1, 5), rng.randint(1, 3))
    n = 2 * genus
    re = [0] * n
    im = [0] * n
    re[0], im[1], im[2] = 1, d, 1
    cols = gen.random_sp(genus, rng)
    re, im = gen.apply_cols(cols, re), gen.apply_cols(cols, im)
    periods = [(scale * x, scale * y) for x, y in zip(re, im)]
    area, covol = scale * scale * d, scale * scale
    out = {"area": fmt(area), "covolume": fmt(covol), "det": d, "genus": genus,
           "identity_area_eq_det_covolume": True, "kind": "line", "realizable": d >= 2,
           "reason": "area>covolume" if d >= 2 else "area<=covolume"}
    return Entry("gen-line", ["realizable", "line", "--input", inline(_class(genus, periods))], 0, dumped(out))


def det_entry(rng):
    genus, d = rng.randint(2, 6), rng.randint(1, 20)
    vectors = gen.complete_rank2(rng, genus, d)
    return Entry("gen-lattice-det", ["lattice", "det", "--input", inline({"genus": genus, "vectors": vectors})],
                 0, dumped({"determinant": d}))


def cover_entries(rng):
    genus, d = rng.randint(2, 8), rng.randint(2, 12)
    a = list(range(1, d)) + [0]
    swap = [1, 0] + list(range(2, d))
    cover = {"a": a, "b": list(range(d)), "branch": [swap] * (2 * genus - 2)}
    analyzed = {"covolume": 1, "degree": d, "det": d, "genus": genus, "period_lattice": [["1", "0"], ["0", "1"]]}
    return [
        Entry("gen-cover-build", ["cover", "build", "--genus", str(genus), "--degree", str(d)], 0, dumped(cover)),
        Entry("gen-cover-analyze", ["cover", "analyze", "--input", inline(cover)], 0, dumped(analyzed)),
    ]


def counting_entries(rng):
    n = rng.randint(1, 15)
    g = rng.randint(2, 12)
    k = rng.randint(1, g)
    gap = 2 * g * k - (3 * k * k - k) // 2 - (3 * g - 3 + k * (g - k))
    return [
        Entry("gen-severi", ["severi", "--det", str(2 * n)], 0, dumped([[h, n + 1 - h] for h in range(2, n + 2)])),
        Entry("gen-dims-gap", ["dims", "gap", "--g", str(g), "--k", str(k)], 0, dumped(gap)),
        Entry("gen-severi-odd", ["severi", "--det", str(2 * n + 1)], 1),
        Entry("gen-bad-json", ["realizable", "line", "--input", inline(_class(g, [(1, 0)] * (2 * g)))[:-2]], 2),
    ]


def hyperelliptic_entries(rng):
    genus = rng.randint(2, 6)
    f, f_roots = gen.hyperelliptic_f(rng, genus)
    curve = {"kind": "hyperelliptic", "f": [fmt(c) for c in f]}
    p1, p2 = gen.differential_pair(rng, genus)
    h = ref.poly_gcd(p1, p2)
    overlap = 2 * ref.deg(h) + 2 * (genus - 1 - max(ref.deg(p1), ref.deg(p2)))
    alpha, roots = gen.alpha_with_height(rng, genus, rng.choice((30, 300)), f_roots)
    while True:
        beta = gen.differential(rng, rng.randint(0, genus - 1))
        if all(ref.poly_eval(beta, x) != 0 for x in roots):
            break
    gamma = gen.differential(rng, rng.randint(0, genus - 1))
    values = []
    for x in roots:
        v = fmt(ref.poly_eval(gamma, x) / ref.poly_eval(beta, x))
        values.extend([v, v])
    as_json = lambda p: [fmt(c) for c in p]
    return [
        Entry("gen-overlap", ["curve", "overlap", "--input",
                              inline({"curve": curve, "alpha": as_json(p1), "beta": as_json(p2)})],
              0, dumped({"overlap_degree": overlap})),
        Entry("gen-sections", ["curve", "sections", "--input",
                               inline({"curve": curve, "gamma": as_json(gamma), "beta": as_json(beta),
                                       "alpha": as_json(alpha)})], 0, dumped({"values": values})),
        Entry("gen-noether-hyper", ["curve", "noether", "--input", inline({"curve": curve})],
              0, dumped({"noether_image_dim": 2 * genus - 1})),
    ]


def quartic_entries(rng, count):
    out = []
    for _ in range(count):
        table = gen.smooth_quartic(rng)
        curve = {"kind": "quartic", "coefficients": [[i, j, k, fmt(c)] for (i, j, k), c in table.items()]}
        out.append(Entry("gen-noether-quartic", ["curve", "noether", "--input", inline({"curve": curve})],
                         0, dumped({"noether_image_dim": 6})))
    table = gen.smooth_quartic(rng)
    alpha, beta, gamma = gen.cross_ratio_lines(rng, table)
    curve = {"kind": "quartic", "coefficients": [[i, j, k, fmt(c)] for (i, j, k), c in table.items()]}
    out.append(Entry("gen-cross-ratio", ["curve", "cross-ratio", "--input",
                                         inline({"curve": curve, "alpha": alpha, "beta": beta, "gamma": gamma})],
                     0, _cross_ratio_check))
    return out


def make_round(rng, smoke=False):
    """The fixed corpus plus one batch of seeded entries."""
    entries = fixed_entries()
    entries.append(line_entry(rng))
    entries.append(line_entry(rng))
    entries.append(det_entry(rng))
    entries.extend(cover_entries(rng))
    entries.extend(counting_entries(rng))
    entries.extend(hyperelliptic_entries(rng))
    entries.extend(quartic_entries(rng, 1 if smoke else 3))
    return entries


def pin():
    """Record the current program's stdout for the fixed entries."""
    import subprocess

    import worker

    golden = {}
    for entry in fixed_entries():
        if entry.expected_exit != 0 or entry.name == "line-readme" or callable(entry.expected) or entry.stdin:
            continue
        proc = subprocess.run([sys.executable, "-m", "periodforms.cli"] + entry.argv, capture_output=True,
                              env=worker.child_env(), cwd=str(worker.ROOT), timeout=120)
        if proc.returncode != 0:
            raise SystemExit("%s exited %d: %s" % (entry.name, proc.returncode, proc.stderr.decode()))
        golden[entry.name] = proc.stdout.decode()
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] == ["--pin"]:
        pin()
    else:
        raise SystemExit(__doc__)
