"""Command-line front end: distances, double distance, reductions, verifiers.

All numeric output is exact; half-integers print in decimal .5 notation.
Domain errors exit 1, usage errors exit 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from fractions import Fraction

from .abg import bp_to_dot, build_abg, score, to_dot
from .bpgraph import (
    INFINITY,
    BudgetExceeded,
    build_breakpoint_graph,
    check_k,
    dcj_distance_bfs_oracle,
    distance,
)
from .genomes import (
    Genome,
    GenomeError,
    PairClass,
    classify_pair,
    format_genome,
    parse_genome,
    random_cognate_pair,
    random_genome,
)
from .reduction import (
    Assignment,
    SatError,
    assignment_to_solution,
    build_reduction,
    extract_genomes,
    normalize,
    parse_cnf,
    verify_flower,
    verify_structure,
)
from .solver import dd


def fmt_half(value) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    if value.denominator == 2:
        whole = value.numerator // 2
        return "%d.5" % whole
    return str(value)


def _parse_k(text: str):
    if text in ("inf", "infinity", "oo"):
        return INFINITY
    try:
        return check_k(int(text))
    except ValueError:
        raise argparse.ArgumentTypeError("k must be an even integer >= 2 or 'inf'")


def _load_genome(path: str) -> Genome:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_genome(fh.read())


def _load_reduction(args):
    with open(args.cnf, "r", encoding="utf-8") as fh:
        inst = normalize(parse_cnf(fh.read()))
    return build_reduction(inst, k=args.k, shape=args.shape)


def _parse_assignment(text: str) -> dict:
    values = {}
    for i, tok in enumerate(text.split(","), start=1):
        tok = tok.strip().upper()
        if tok in ("T", "1", "TRUE"):
            values[i] = True
        elif tok in ("F", "0", "FALSE"):
            values[i] = False
        else:
            raise GenomeError("bad assignment token %r" % tok)
    return values


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="doubledist",
        description="sigma_k genome distances, double distance solvers and "
        "the SAT-hardness construction",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", help="sigma_k distance of a canonical pair")
    p.add_argument("--k", type=_parse_k, default=INFINITY)
    p.add_argument(
        "--engine", choices=["formula", "bfs"], default="formula",
        help="bfs: the DCJ distance by breadth-first search, k=inf only",
    )
    p.add_argument("genome1")
    p.add_argument("genome2")

    p = sub.add_parser("dd", help="sigma_k double distance of a [1.2]-cognate pair")
    p.add_argument("--k", type=_parse_k, default=INFINITY)
    p.add_argument(
        "--engine", choices=["naive", "mis", "greedy2", "oracle"], default="naive"
    )
    p.add_argument("--budget-nodes", type=int, default=None)
    p.add_argument("--budget-ms", type=float, default=None)
    p.add_argument(
        "--stats", action="store_true",
        help="print the search statistics as JSON on stderr; "
        "upper_bound is the bound on the score of a search a budget stopped",
    )
    p.add_argument("genome_s")
    p.add_argument("genome_d")

    p = sub.add_parser("reduce", help="build the SAT-hardness instance")
    p.add_argument("--k", type=_parse_k, default=8)
    p.add_argument("--shape", choices=["circular", "linear"], default="circular")
    p.add_argument(
        "--assignment", default=None,
        help="values of the formula's own variables 1, 2, ..., as a comma list like T,F,T",
    )
    p.add_argument("--out", default=None, help="directory for the output bundle")
    p.add_argument("cnf")

    p = sub.add_parser("verify", help="structural verifiers")
    vsub = p.add_subparsers(dest="what", required=True)
    pf = vsub.add_parser("flower", help="parity law of closed flowers")
    pf.add_argument("--p", type=int, default=5)
    pr = vsub.add_parser("reduction", help="gadget structure of a built reduction")
    pr.add_argument("--k", type=_parse_k, default=8)
    pr.add_argument("--shape", choices=["circular", "linear"], default="circular")
    pr.add_argument("cnf")

    p = sub.add_parser("gen", help="seeded random genomes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--linear", type=int, default=None,
                   help="linear chromosome count of a single genome (default 1)")
    p.add_argument("--circular", type=int, default=None,
                   help="circular chromosome count of a single genome (default 0)")
    p.add_argument("--pair", action="store_true", help="emit a cognate pair")
    p.add_argument("--wgd", action="store_true", help="pair via doubling (needs --pair)")
    p.add_argument("--ops", type=int, default=0, help="scrambling DCJ count (needs --pair)")

    p = sub.add_parser("export-dot", help="DOT of a breakpoint graph or ABG")
    p.add_argument("--out", default=None)
    p.add_argument("genome1")
    p.add_argument("genome2")
    return ap


def _cmd_dist(args) -> int:
    if args.engine == "bfs" and args.k is not INFINITY:
        raise ValueError(
            "--engine bfs computes the DCJ distance (k=inf) only, got k=%d" % args.k
        )
    g1 = _load_genome(args.genome1)
    g2 = _load_genome(args.genome2)
    if args.engine == "bfs":
        print(dcj_distance_bfs_oracle(g1, g2))
    else:
        print(fmt_half(distance(g1, g2, args.k)))
    return 0


def _cmd_dd(args) -> int:
    s = _load_genome(args.genome_s)
    d = _load_genome(args.genome_d)
    result = dd(
        s,
        d,
        args.k,
        engine=args.engine,
        budget_nodes=args.budget_nodes,
        budget_ms=args.budget_ms,
    )
    print(fmt_half(result.dd))
    if result.tau is not None:
        print("tau %s" % "".join(str(b) for b in result.tau))
        if not result.optimal:
            print("optimal false")
    if args.stats:
        record = dataclasses.asdict(result.stats)
        if result.stats.upper_bound is not None:
            record["upper_bound"] = fmt_half(result.stats.upper_bound)
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
    return 0


def _cmd_reduce(args) -> int:
    r = _load_reduction(args)
    inst = r.instance
    meta = {
        "k": r.k,
        "shape": r.shape,
        "variables": inst.var_count,
        "clauses": len(inst.clauses),
        "size": inst.size,
        "vertices": r.graph.n_vertices,
        "squares": r.graph.a_star,
        "d_edges": len(r.graph.d_edges),
        "isolated": r.isolated_count,
        "nu": r.nu,
        "ell": r.ell,
        "p": r.p,
        "m": r.m,
        "bound": fmt_half(r.bound),
        "flowers": len(r.flowers),
        "extensions": len(r.extensions),
        "registry": {
            "variable_gadgets": [
                {"var": vg.var, "kind": vg.kind} for vg in r.var_gadgets
            ],
            "clause_gadgets": [
                {"clause": cg.index + 1, "size": cg.size} for cg in r.clause_gadgets
            ],
            "literal_gadgets": [
                {"clause": wg.clause + 1, "pos": wg.pos, "literal": wg.literal}
                for wg in r.w_gadgets
            ],
        },
    }
    if args.assignment:
        given = _parse_assignment(args.assignment)
        own = len(inst.var_map) + len(inst.eliminated)  # the header's variable count
        if len(given) > own:
            raise SatError("assignment has %d values, the formula has %d variables"
                           % (len(given), own))
        values = inst.normalized_assignment(given)
        tau = assignment_to_solution(r, Assignment(values))
        meta["assignment_score"] = fmt_half(score(r.graph, tau, args.k))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        s, d, d_check = extract_genomes(r)
        with open(os.path.join(args.out, "S.genome"), "w", encoding="utf-8") as fh:
            fh.write(format_genome(s) + "\n")
        with open(os.path.join(args.out, "D.genome"), "w", encoding="utf-8") as fh:
            fh.write(format_genome(d) + "\n")
        with open(os.path.join(args.out, "abg.dot"), "w", encoding="utf-8") as fh:
            fh.write(to_dot(r.graph) + "\n")
        with open(os.path.join(args.out, "meta.json"), "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(fmt_half(r.bound))
    return 0


def _cmd_verify(args) -> int:
    if args.what == "flower":
        report = verify_flower(args.p)
        print(
            "flower p=%d resolutions=%d violations=%d"
            % (report.p, report.resolutions, len(report.violations))
        )
        return 0 if report.ok else 1
    report = verify_structure(_load_reduction(args))
    print(
        "reduction k=%d shape=%s min_cycle_ok=%s candidates=%d/%d degree_ok=%s"
        % (
            report.k,
            report.shape,
            report.min_cycle_ok,
            report.candidate_count,
            report.expected_candidates,
            report.degree_ok,
        )
    )
    for v in report.violations:
        print("violation: %s" % v)
    return 0 if report.ok else 1


def _cmd_gen(args) -> int:
    if args.pair:
        for name in ("linear", "circular"):
            if getattr(args, name) is not None:
                raise ValueError(
                    "--%s sets a single genome's chromosomes; --pair draws its own" % name
                )
        s, d = random_cognate_pair(args.n, args.wgd, args.ops, args.seed)
        print("# S")
        print(format_genome(s))
        print("# D")
        print(format_genome(d))
    else:
        if args.wgd:
            raise ValueError("--wgd needs --pair")
        if args.ops:
            raise ValueError("--ops needs --pair")
        linear = 1 if args.linear is None else args.linear
        circular = 0 if args.circular is None else args.circular
        g = random_genome(args.n, linear, circular, args.seed)
        print(format_genome(g))
    return 0


def _cmd_export_dot(args) -> int:
    g1 = _load_genome(args.genome1)
    g2 = _load_genome(args.genome2)
    if classify_pair(g1, g2) == PairClass.ONE_TWO_COGNATE:
        text = to_dot(build_abg(g1, g2))
    else:
        text = bp_to_dot(build_breakpoint_graph(g1, g2))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


_COMMANDS = {
    "dist": _cmd_dist,
    "dd": _cmd_dd,
    "reduce": _cmd_reduce,
    "verify": _cmd_verify,
    "gen": _cmd_gen,
    "export-dot": _cmd_export_dot,
}


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (GenomeError, SatError, BudgetExceeded, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
