import hashlib
import json
from fractions import Fraction

import pytest

from doubledist.abg import build_abg, to_dot
from doubledist.cli import fmt_half, run
from doubledist.genomes import format_genome, parse_genome, random_cognate_pair, singularize

from satgen import random_normalized_instance

MIXED_A = "(1 2)\n[3 -4]\n"
MIXED_B = "(1 -3 2)\n[4]\n"
TRIO_S = "[1 2 3]\n"
TRIO_D = "[1 2 -3 1]\n[-3 2]\n"
DEMO_CNF = "p cnf 4 5\n1 2 0\n1 3 0\n-1 -2 4 0\n2 3 0\n-3 -4 0\n"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in {
        "a.genome": MIXED_A,
        "b.genome": MIXED_B,
        "S.genome": TRIO_S,
        "D.genome": TRIO_D,
        "formula.cnf": DEMO_CNF,
    }.items():
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    return paths


def test_fmt_half():
    from fractions import Fraction

    assert fmt_half(Fraction(5, 2)) == "2.5"
    assert fmt_half(Fraction(4, 2)) == "2"
    assert fmt_half(3) == "3"


def test_dist_golden(files, capsys):
    assert run(["dist", "--k", "2", files["a.genome"], files["b.genome"]]) == 0
    assert capsys.readouterr().out == "2.5\n"
    assert run(["dist", "--k", "inf", files["a.genome"], files["b.genome"]]) == 0
    assert capsys.readouterr().out == "2\n"
    assert run(["dist", "--engine", "bfs", files["a.genome"], files["b.genome"]]) == 0
    assert capsys.readouterr().out == "2\n"


def test_dist_bfs_refuses_finite_k(files, capsys):
    # the BFS oracle computes the DCJ distance; --k 2 with it used to print 2
    assert run(["dist", "--k", "2", "--engine", "bfs", files["a.genome"], files["b.genome"]]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "k=inf" in err and "k=2" in err
    assert run(["dist", "--k", "inf", "--engine", "bfs", files["a.genome"], files["b.genome"]]) == 0
    assert capsys.readouterr().out == "2\n"


def test_dd_golden(files, capsys):
    assert run(["dd", "--k", "8", "--engine", "naive", files["S.genome"], files["D.genome"]]) == 0
    assert capsys.readouterr().out == "3\ntau 01\n"
    assert run(["dd", "--k", "2", "--engine", "greedy2", files["S.genome"], files["D.genome"]]) == 0
    assert capsys.readouterr().out == "4\n"
    assert run(["dd", "--k", "8", "--engine", "mis", files["S.genome"], files["D.genome"]]) == 0
    assert capsys.readouterr().out == "3\ntau 01\n"
    assert run(["dd", "--k", "8", "--engine", "oracle", files["S.genome"], files["D.genome"]]) == 0
    assert capsys.readouterr().out == "3\n"


def test_dd_refuses_unhonoured_budget(files, capsys):
    argv = ["dd", "--k", "8", "--engine", "naive", "--budget-ms", "5"]
    assert run(argv + [files["S.genome"], files["D.genome"]]) == 1
    assert "budget_ms" in capsys.readouterr().err


def test_dd_stats_on_stderr(files, capsys):
    argv = ["dd", "--k", "8", "--engine", "mis", files["S.genome"], files["D.genome"]]
    assert run(argv + ["--stats"]) == 0
    out, err = capsys.readouterr()
    assert out == "3\ntau 01\n"
    record = json.loads(err)
    assert record["candidates"] >= record["largest_component"] >= 1
    assert record["components"] >= 1 and record["nodes"] >= record["components"]
    assert set(record) == {"nodes", "candidates", "wall_ms", "components",
                           "largest_component", "upper_bound", "enumerate_ms", "forced",
                           "conflict_ms"}
    assert record["upper_bound"] is None
    assert 0 <= record["enumerate_ms"] + record["conflict_ms"] <= record["wall_ms"]
    assert run(argv) == 0
    assert capsys.readouterr() == (out, "")


def test_dd_stats_report_the_forced_squares(files, capsys):
    # the trio's square 0 repeats a fixed edge under its solid pair
    for engine in ("naive", "mis"):
        argv = ["dd", "--k", "8", "--engine", engine, "--stats"]
        assert run(argv + [files["S.genome"], files["D.genome"]]) == 0
        out, err = capsys.readouterr()
        assert out == "3\ntau 01\n"
        record = json.loads(err)
        assert record["forced"] == 1, engine
        if engine == "naive":
            assert record["nodes"] == 2  # 2^free, one free square


def test_dd_stats_bound_of_a_stopped_search(files, capsys):
    argv = ["dd", "--k", "8", "--engine", "mis", files["S.genome"], files["D.genome"]]
    n2 = build_abg(parse_genome(TRIO_S), singularize(parse_genome(TRIO_D))).n_star_doubled
    assert run(argv) == 0
    optimum = n2 - Fraction(capsys.readouterr().out.split()[0])  # score = n*_2 - dd
    assert run(argv + ["--stats", "--budget-nodes", "0"]) == 0
    out, err = capsys.readouterr()
    assert out.endswith("optimal false\n")
    score = n2 - Fraction(out.split()[0])
    assert score <= optimum <= Fraction(json.loads(err)["upper_bound"])


def test_dd_rejects_negative_budget(files, capsys):
    argv = ["dd", "--k", "8", "--engine", "mis", "--budget-nodes", "-1"]
    assert run(argv + [files["S.genome"], files["D.genome"]]) == 1
    assert "budget_nodes must not be negative" in capsys.readouterr().err


def test_dd_rejects_a_nan_time_budget(tmp_path, capsys):
    # the parent answered this pair with a non-optimal 29 and exit 0
    s, d = random_cognate_pair(60, True, 30, 3)
    paths = []
    for name, genome in (("S.genome", s), ("D.genome", d)):
        paths.append(str(tmp_path / name))
        (tmp_path / name).write_text(format_genome(genome) + "\n")
    argv = ["dd", "--k", "8", "--engine", "mis"]
    assert run(argv + paths) == 0
    assert capsys.readouterr().out.split()[0] == "27"
    assert run(argv + ["--budget-ms", "nan"] + paths) == 1
    assert "budget_ms must be a number of milliseconds, got nan" in capsys.readouterr().err


def test_reduce_golden(files, tmp_path, capsys):
    out_dir = str(tmp_path / "bundle")
    assert run(["reduce", "--k", "8", "--shape", "circular", files["formula.cnf"], "--out", out_dir]) == 0
    assert capsys.readouterr().out == "20\n"
    meta = json.loads((tmp_path / "bundle" / "meta.json").read_text())
    assert meta["bound"] == "20"
    assert meta["vertices"] == 944
    assert meta["squares"] == 236
    assert meta["isolated"] == 0
    assert meta["m"] == 21
    s_text = (tmp_path / "bundle" / "S.genome").read_text()
    d_text = (tmp_path / "bundle" / "D.genome").read_text()
    from doubledist.genomes import classify_pair, parse_genome

    assert classify_pair(parse_genome(s_text), parse_genome(d_text)) == "one-two-cognate"
    dot = (tmp_path / "bundle" / "abg.dot").read_text()
    assert dot.startswith("graph abg {")


def test_reduce_linear_with_assignment(files, capsys):
    assert run(
        ["reduce", "--k", "8", "--shape", "linear", files["formula.cnf"],
         "--assignment", "T,T,F,T"]
    ) == 0
    assert capsys.readouterr().out == "492\n"


def test_reduce_assignment_names_the_formula_variables(tmp_path, capsys):
    # normalization flips variable 1 (neg-neg-pos); F,F,F satisfies the
    # formula as written, so its encoding reaches the bound
    cnf = tmp_path / "flip.cnf"
    cnf.write_text("p cnf 3 3\n-1 2 0\n-1 3 0\n1 -2 -3 0\n")
    out_dir = tmp_path / "bundle"
    assert run(["reduce", str(cnf), "--assignment", "F,F,F", "--out", str(out_dir)]) == 0
    assert capsys.readouterr().out == "13\n"
    meta = json.loads((out_dir / "meta.json").read_text())
    assert meta["bound"] == meta["assignment_score"] == "13"
    assert run(["reduce", str(cnf), "--assignment", "F,F"]) == 1
    assert capsys.readouterr().err == "error: assignment incomplete: missing variables [3]\n"


def test_reduce_refuses_extra_assignment_values(tmp_path, capsys):
    cnf = tmp_path / "flip.cnf"
    cnf.write_text("p cnf 3 3\n-1 2 0\n-1 3 0\n1 -2 -3 0\n")
    assert run(["reduce", str(cnf), "--assignment", "F,F,F,T,T,T,T,T,T,T"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: assignment has 10 values, the formula has 3 variables\n"
    # variables 4 and 5 occur in no clause: normalization eliminates them,
    # but they are still the formula's own, so a 5-value list scores
    cnf.write_text("p cnf 5 3\n-1 2 0\n-1 3 0\n1 -2 -3 0\n")
    out_dir = tmp_path / "bundle"
    assert run(["reduce", str(cnf), "--assignment", "F,F,F,T,F", "--out", str(out_dir)]) == 0
    assert capsys.readouterr().out == "13\n"
    assert json.loads((out_dir / "meta.json").read_text())["assignment_score"] == "13"
    assert run(["reduce", str(cnf), "--assignment", "F,F,F,T,F,T"]) == 1
    assert capsys.readouterr().err == "error: assignment has 6 values, the formula has 5 variables\n"


def test_verify_flower_golden(capsys):
    assert run(["verify", "flower", "--p", "5"]) == 0
    assert capsys.readouterr().out == "flower p=5 resolutions=32 violations=0\n"


def test_verify_reduction_golden(files, capsys):
    assert run(["verify", "reduction", "--k", "8", files["formula.cnf"]]) == 0
    out = capsys.readouterr().out
    assert out == (
        "reduction k=8 shape=circular min_cycle_ok=True candidates=41/41 "
        "degree_ok=True\n"
    )


def test_gen_golden(capsys):
    assert run(["gen", "--n", "4", "--seed", "7", "--pair", "--wgd", "--ops", "2"]) == 0
    assert capsys.readouterr().out == (
        "# S\n[1 -3 4]\n[2]\n# D\n[1 -2]\n[1 -3 4]\n[2]\n[-3 4]\n"
    )
    assert run(["gen", "--n", "3", "--seed", "1", "--linear", "1", "--circular", "1"]) == 0
    out = capsys.readouterr().out
    from doubledist.genomes import parse_genome

    g = parse_genome(out)
    assert g.n_star == 3 and g.chi == 1 and g.o == 1


def test_gen_rejects_bad_pair_arguments(capsys):
    assert run(["gen", "--n", "-2", "--pair", "--wgd"]) == 1
    assert capsys.readouterr().err == "error: random_cognate_pair needs n >= 1, got n=-2\n"
    assert run(["gen", "--n", "4", "--pair", "--ops", "-1"]) == 1
    assert capsys.readouterr().err == "error: random_cognate_pair needs ops >= 0, got ops=-1\n"


def test_gen_rejects_negative_counts(capsys):
    assert run(["gen", "--n", "3", "--linear", "-1", "--circular", "2"]) == 1
    assert capsys.readouterr() == (
        "", "error: random_genome needs linear_count >= 0, got linear_count=-1\n"
    )
    assert run(["gen", "--n", "3", "--linear", "2", "--circular", "-1"]) == 1
    assert capsys.readouterr() == (
        "", "error: random_genome needs circular_count >= 0, got circular_count=-1\n"
    )


def test_gen_refuses_options_it_would_ignore(capsys):
    for argv, option in (
        (["--wgd"], "--wgd"),
        (["--ops", "3"], "--ops"),
        (["--wgd", "--ops", "3"], "--wgd"),
        (["--pair", "--circular", "3"], "--circular"),
        (["--pair", "--linear", "1"], "--linear"),
        (["--pair", "--wgd", "--ops", "2", "--linear", "0", "--circular", "2"], "--linear"),
    ):
        assert run(["gen", "--n", "4"] + argv) == 1, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: %s " % option), (argv, err)
    # the defaults stay accepted: --ops 0 alone, one linear chromosome
    assert run(["gen", "--n", "4", "--seed", "2", "--ops", "0"]) == 0
    assert run(["gen", "--n", "4", "--seed", "2", "--linear", "1", "--circular", "0"]) == 0
    out = capsys.readouterr().out.split("\n")
    assert out[0] == out[1] and parse_genome(out[0]).chi == 1


def test_export_dot_pair(files, capsys):
    assert run(["export-dot", files["a.genome"], files["b.genome"]]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph bg {")
    assert run(["export-dot", files["S.genome"], files["D.genome"]]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph abg {")


@pytest.mark.parametrize("k", ["3", "0", "-2", "x"])
def test_bad_k_exits_2(files, capsys, k):
    with pytest.raises(SystemExit) as exc:
        run(["dist", "--k", k, files["a.genome"], files["b.genome"]])
    assert exc.value.code == 2
    assert "k must be an even integer >= 2 or 'inf'" in capsys.readouterr().err


def test_error_exit_codes(files, capsys):
    assert run(["dist", "--k", "2", files["a.genome"], files["S.genome"]]) == 1
    assert "error:" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        run(["dist", "--k", "3", files["a.genome"], files["b.genome"]])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        run(["nope"])
    assert run(["dist", "--k", "2", "missing.genome", files["b.genome"]]) == 1
    capsys.readouterr()


def test_export_dot_builds_the_graph_dd_solves(files, capsys):
    s, d = parse_genome(TRIO_S), parse_genome(TRIO_D)
    assert run(["export-dot", files["S.genome"], files["D.genome"]]) == 0
    assert capsys.readouterr().out == to_dot(build_abg(s, singularize(d))) + "\n"
    # the pair the other way round is refused as dd refuses it
    assert run(["export-dot", files["D.genome"], files["S.genome"]]) == 1
    assert capsys.readouterr().err == (
        "error: build_abg needs a singular genome and its duplicated cognate\n")


def test_export_dot_to_file(files, tmp_path, capsys):
    out = tmp_path / "g.dot"
    assert run(["export-dot", "--out", str(out), files["a.genome"], files["b.genome"]]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text().startswith("graph bg {")


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_seeded_outputs_are_the_pinned_ones(tmp_path, capsys):
    """The seeded 5000-gene pair, the `reduce --k 10` bundle of a seeded
    formula and that formula's `verify reduction --k 12` line, each as
    pinned when it was first written."""
    pair = tmp_path / "pair.txt"
    assert run(["gen", "--n", "5000", "--pair", "--wgd", "--ops", "5000", "--seed", "1"]) == 0
    pair.write_text(capsys.readouterr().out)
    assert _sha256(pair) == "7404e88eec90f5be69c09ff2a15e4e4214341f1ec1023dc445642990f9907911"

    inst = random_normalized_instance(4, 1)
    formula = tmp_path / "formula.cnf"
    formula.write_text("p cnf %d %d\n" % (inst.var_count, len(inst.clauses)) + "".join(
        " ".join(map(str, (*clause, 0))) + "\n" for clause in inst.clauses))
    bundle = tmp_path / "bundle"
    assert run(["reduce", "--k", "10", str(formula), "--out", str(bundle)]) == 0
    capsys.readouterr()
    names = ("S.genome", "D.genome", "abg.dot", "meta.json")
    assert {name: _sha256(bundle / name) for name in names} == {
        "S.genome": "cc4e2e30f25cf85d1edf9e691ef4f1c114d3d2621c9885303896c973fa13b410",
        "D.genome": "432c25bee326bacca6553a5e14de7266f82ff7c039335aa59a23f5c624e59d2a",
        "abg.dot": "19c62c951402635bb0146d2cb7eda8c6a70c553ad42e240e211dc2279f23a396",
        "meta.json": "438ce3d2219ede71130dddc183393e571c2c3d1662f3af29b02e4025f497f74e",
    }

    for shape in ("circular", "linear"):
        assert run(["verify", "reduction", "--k", "12", "--shape", shape, str(formula)]) == 0
        assert capsys.readouterr().out == (
            "reduction k=12 shape=%s min_cycle_ok=True candidates=38/38 degree_ok=True\n" % shape)
