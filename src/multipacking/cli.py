"""Command-line surface.

Exit codes: 0 success or positive verdict, 1 negative verdict, 2 usage
error (argparse default), 3 malformed input, a solve refused by
``solver.MAX_FAMILY`` or by its branching depth (``input error: ...``) or a
file that cannot be read or written (``error: ...``).
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
import time
from pathlib import Path

from . import checkers, formats, pathcount, randgen, reductions, solver
from .graph import bfs_distances
from .oracle import DEFAULT_MP_CAP, brute_force_mp, duality_report, enumerate_multipackings, is_multipacking
from .rooted_tree import bfs_tree

JSON_SCHEMA = "multipacking-report/1"
BENCH_MAX_N = 200  # `bench family --max-n` bound; five n = 200 trees count in 0.3 s
COUNT_MAX_N = 20_000  # `count paths -n` bound; counts reach 3 300 digits, Python prints 4 300


def cmd_solve(args) -> int:
    g = formats.parse_graph(Path(args.graph).read_text())
    t0 = time.perf_counter()
    family_size = None
    if args.algo == "brute":
        size, witness = brute_force_mp(g)
    else:
        size, witness, family_size = solver.solve_detailed(g, args.algo)
    elapsed = time.perf_counter() - t0
    if args.json:
        print(
            json.dumps(
                {
                    "schema": JSON_SCHEMA,
                    "instance": args.graph,
                    "algorithm": args.algo,
                    "mp": size,
                    "witness": list(witness),
                    "family_size": family_size,
                    "wall_time_s": elapsed,
                }
            )
        )
    else:
        print(f"instance   {args.graph}")
        print(f"algorithm  {args.algo}")
        print(f"mp         {size}")
        print(f"witness    {' '.join(map(str, witness)) or '-'}")
        if family_size is not None:
            print(f"family     {family_size}")
        print(f"time_s     {elapsed:.4f}")
    return 0


def cmd_verify(args) -> int:
    g = formats.parse_graph(Path(args.graph).read_text())
    members = formats.parse_vertex_set(Path(args.set_file).read_text())
    # is_multipacking reads only the members' rows; an out-of-range member
    # gets no row, so is_multipacking still names it.
    rows = {u: bfs_distances(g, u) for u in members if 0 <= u < g.n}
    ok = is_multipacking(g, [rows.get(u, ()) for u in range(g.n)], members)
    print("multipacking" if ok else "not a multipacking")
    return 0 if ok else 1


def _write_reduction(out, prefix: str) -> None:
    Path(f"{prefix}.graph").write_text(formats.serialize_graph(out.graph))
    Path(f"{prefix}.labels").write_text(formats.serialize_labels(out.labels))
    Path(f"{prefix}.claims").write_text(formats.serialize_claims(out.claims))
    print(f"wrote {prefix}.graph ({out.graph.n} vertices), .labels, .claims")


HS_VARIANTS = {  # `reduce hs --variant` name -> builder, in `--help` order
    "chordal": reductions.reduce_hs_chordal,
    "hyperbolic": reductions.reduce_hs_half_hyperbolic,
    "bipartite": reductions.reduce_hs_bipartite,
    "clawfree": reductions.reduce_hs_clawfree,
}


def cmd_reduce_hs(args) -> int:
    inst = formats.parse_hitting_set(Path(args.hs_file).read_text())
    out = HS_VARIANTS[args.variant](inst)
    _write_reduction(out, args.out)
    return 0


def cmd_reduce_tds(args) -> int:
    g = formats.parse_graph(Path(args.graph).read_text())
    if args.variant == "regular":
        out = reductions.reduce_tds_regular(g, args.k)
    else:
        out = reductions.reduce_tds_conv(g, args.k)
    _write_reduction(out, args.out)
    return 0


def cmd_check(args) -> int:
    g = formats.parse_graph(Path(args.graph).read_text())
    all_ok = True
    for prop in args.props.split(","):
        prop = prop.strip()
        if prop == "chordal":
            ok, witness = checkers.is_chordal(g)
            detail = ("peo " if ok else "chordless cycle ") + " ".join(
                map(str, witness)
            )
        elif prop == "bipartite":
            ok, witness = checkers.is_bipartite(g)
            detail = f"parts {witness}" if ok else f"odd walk {list(witness)}"
        elif prop == "clawfree":
            ok, witness = checkers.is_clawfree(g)
            detail = "" if ok else f"claw {witness}"
        elif prop == "regular":
            deg = checkers.regularity(g)
            ok = deg is not None
            detail = f"degree {deg}" if ok else "degrees differ"
        elif prop == "hyperbolicity":
            delta = checkers.hyperbolicity(g)
            ok = True
            detail = f"delta = {delta}"
        else:
            print(f"unknown property: {prop}", file=sys.stderr)
            return 2
        all_ok = all_ok and ok
        print(f"{prop:14s} {'true' if ok else 'false':5s} {detail}")
    return 0 if all_ok else 1


def cmd_count(args) -> int:
    upto = min(args.verify_upto, args.n)
    if args.verify_upto < 0:
        raise ValueError(f"--verify-upto must be >= 0, got {args.verify_upto}")
    if upto > DEFAULT_MP_CAP:
        raise ValueError(f"--verify-upto enumerates paths up to n={upto}, above cap {DEFAULT_MP_CAP}")
    if args.n > COUNT_MAX_N:
        raise ValueError(f"-n must be at most {COUNT_MAX_N}, got {args.n}")
    counts = (
        pathcount.count_all_path(args.n)
        if args.kind == "all"
        else pathcount.count_maximal_path(args.n)
    )
    print("n count")
    for i, c in enumerate(counts, start=1):
        print(f"{i} {c}")
    if upto:
        for i in range(1, upto + 1):
            p = pathcount.path_graph(i)
            observed = (
                len(enumerate_multipackings(p))
                if args.kind == "all"
                else len(pathcount.enumerate_maximal_multipackings(p))
            )
            if observed != counts[i - 1]:
                print(f"mismatch at n={i}: recurrence {counts[i - 1]}, enumeration {observed}")
                return 1
        print(f"verified against enumeration up to n={upto}")
    return 0


def cmd_duality(args) -> int:
    g = formats.parse_graph(Path(args.graph).read_text())
    rep = duality_report(g)
    print(f"mp                {rep.mp}")
    print(f"gamma_b           {rep.gamma_b}")
    print(f"mp_witness        {' '.join(map(str, rep.mp_witness)) or '-'}")
    print(f"broadcast_powers  {' '.join(map(str, rep.broadcast_witness))}")
    print(f"bound_2mp3_ok     {rep.bound_2mp3_ok}")
    print(f"bound_chordal_ok  {rep.bound_chordal_ok}")
    return 0 if rep.bound_2mp3_ok and rep.mp <= rep.gamma_b else 1


def cmd_bench(args) -> int:
    if not 2 <= args.max_n <= BENCH_MAX_N:
        raise ValueError(f"--max-n must be in 2..{BENCH_MAX_N}, got {args.max_n}")
    if args.trees < 0:
        raise ValueError(f"--trees must be >= 0, got {args.trees}")
    rng = random.Random(args.seed)
    print("n,family_size,growth")
    for _ in range(args.trees):
        n = rng.randint(2, args.max_n)
        size = solver.family_count(bfs_tree(randgen.random_tree(n, rng), 0), solver.split_158)
        growth = size ** (1.0 / n)
        print(f"{n},{size},{growth:.6f}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every later call.

    Sharing is safe: `parse_args` returns a new namespace each time, and
    `print_help`/`error` look up `sys.stdout`/`sys.stderr` when called.
    """
    p = argparse.ArgumentParser(
        prog="multipacking",
        description="Exact multipacking solvers, reductions, and class checkers",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="maximum multipacking of a graph")
    sp.add_argument("graph")
    sp.add_argument("--algo", choices=["brute", "a162", "a158"], default="a158")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_solve)

    sp = sub.add_parser("verify", help="check a vertex set is a multipacking")
    sp.add_argument("graph")
    sp.add_argument("set_file")
    sp.set_defaults(fn=cmd_verify)

    rp = sub.add_parser("reduce", help="build hardness-reduction instances")
    rsub = rp.add_subparsers(dest="kind", required=True)
    sp = rsub.add_parser("hs", help="from a hitting-set instance")
    sp.add_argument("hs_file")
    sp.add_argument("--variant", required=True, choices=list(HS_VARIANTS))
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_reduce_hs)
    sp = rsub.add_parser("tds", help="from a total-dominating-set instance")
    sp.add_argument("graph")
    sp.add_argument("--variant", required=True, choices=["regular", "conv"])
    sp.add_argument("-k", type=int, required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_reduce_tds)

    sp = sub.add_parser("check", help="structural class checks with witnesses")
    sp.add_argument("graph")
    sp.add_argument(
        "--props",
        default="chordal,bipartite,clawfree,regular,hyperbolicity",
    )
    sp.set_defaults(fn=cmd_check)

    cp = sub.add_parser("count", help="path multipacking counts")
    csub = cp.add_subparsers(dest="what", required=True)
    sp = csub.add_parser("paths")
    sp.add_argument("-n", type=int, required=True)
    sp.add_argument("--kind", choices=["all", "maximal"], default="all")
    sp.add_argument("--verify-upto", type=int, default=0)
    sp.set_defaults(fn=cmd_count)

    sp = sub.add_parser("duality", help="MP vs broadcast domination report")
    sp.add_argument("graph")
    sp.set_defaults(fn=cmd_duality)

    bp = sub.add_parser("bench", help="benchmark harnesses")
    bsub = bp.add_subparsers(dest="what", required=True)
    sp = bsub.add_parser("family")
    sp.add_argument("--trees", type=int, required=True)
    sp.add_argument("--max-n", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.set_defaults(fn=cmd_bench)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
