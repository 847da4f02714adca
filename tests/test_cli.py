import json
from fractions import Fraction

import pytest

from doubledist.abg import build_abg
from doubledist.cli import fmt_half, run
from doubledist.genomes import parse_genome, singularize

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
                           "largest_component", "upper_bound"}
    assert record["upper_bound"] is None
    assert run(argv) == 0
    assert capsys.readouterr() == (out, "")


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


def test_export_dot_pair(files, capsys):
    assert run(["export-dot", files["a.genome"], files["b.genome"]]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph bg {")
    assert run(["export-dot", files["S.genome"], files["D.genome"]]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph abg {")


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


def test_export_dot_to_file(files, tmp_path, capsys):
    out = tmp_path / "g.dot"
    assert run(["export-dot", "--out", str(out), files["a.genome"], files["b.genome"]]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text().startswith("graph bg {")
