import json
import random
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import cycle, path
from multipacking import checkers, cli, solver
from multipacking.cli import build_parser, main
from multipacking.formats import MAX_VERTICES, serialize_graph, serialize_vertex_set
from multipacking.graph import Graph
from multipacking.randgen import random_tree


@pytest.fixture
def p4_file(tmp_path):
    f = tmp_path / "p4.graph"
    f.write_text(serialize_graph(path(4)))
    return str(f)


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_solve_text(p4_file, capsys):
    code, out = run(capsys, "solve", p4_file)
    assert code == 0
    assert "mp         2" in out
    assert "witness    0 3" in out


def test_solve_json_all_algos(p4_file, capsys):
    for algo in ("brute", "a162", "a158"):
        code, out = run(capsys, "solve", p4_file, "--algo", algo, "--json")
        assert code == 0
        rep = json.loads(out)
        assert rep["schema"] == "multipacking-report/1"
        assert rep["mp"] == 2 and rep["witness"] == [0, 3]
        assert (rep["family_size"] is None) == (algo == "brute")


def test_solve_missing_file(capsys):
    assert main(["solve", "/nonexistent.graph"]) == 3


def test_solve_malformed(tmp_path, capsys):
    f = tmp_path / "bad.graph"
    f.write_text("2 1\n0 5\n")
    assert main(["solve", str(f)]) == 3


def test_solve_rejects_oversized_header(tmp_path, capsys):
    f = tmp_path / "huge.graph"
    f.write_text(f"{MAX_VERTICES + 1} 0\n")
    assert main(["solve", str(f)]) == 3
    assert "exceed the cap" in capsys.readouterr().err


def test_solve_refuses_a_family_above_the_budget(tmp_path, capsys, monkeypatch):
    """The first n = 50 tree after four at n = 30 and four at n = 40 from
    random.Random(5), with the budget cut to 10^5 so the refusal comes fast.
    The prefix search needs 5 840 children to answer it, so the solve builds."""
    assert solver.PREFIX_BUDGET < 5840
    rng = random.Random(5)
    for n in (30,) * 4 + (40,) * 4:
        random_tree(n, rng)
    f = tmp_path / "t50.graph"
    f.write_text(serialize_graph(random_tree(50, rng)))
    monkeypatch.setattr(solver, "MAX_FAMILY", 10**5)
    for algo, count in (("a158", 1350925056), ("a162", 8024106424)):
        assert main(["solve", str(f), "--algo", algo]) == 3
        err = capsys.readouterr().err
        assert re.fullmatch(f"input error: candidate family of {count} sets: a pruned list of "
                            r"\d+ exceeds the budget of 100000\n", err), err


@pytest.mark.parametrize("algo", ["a158", "a162"])
def test_solve_refuses_a_long_shortest_path_at_once(tmp_path, capsys, algo):
    """P_1000 has c_1000 multipackings, far above the budget: one stderr
    line, before any ball or tree is built."""
    f = tmp_path / "p1000.graph"
    f.write_text(serialize_graph(path(1000)))
    t0 = time.perf_counter()
    assert main(["solve", str(f), "--algo", algo]) == 3
    assert time.perf_counter() - t0 < 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("input error: a shortest path of 1000 vertices has more multipackings "
                   f"than the budget of {solver.MAX_FAMILY}\n")


@pytest.mark.parametrize("algo", ["a158", "a162"])
def test_solve_refuses_deep_branching(tmp_path, capsys, algo):
    """The broom made of edge 0-1 and 1 500 leaves on vertex 1 (height 2,
    MP 1) nests about 1 500 states deep in the plan pass."""
    f = tmp_path / "broom.graph"
    f.write_text(serialize_graph(Graph.from_edges(1502, [(0, 1)] + [(1, v) for v in range(2, 1502)])))
    assert main(["solve", str(f), "--algo", algo]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch("input error: the candidate family of a 1502-vertex tree nests deeper "
                        r"than the recursion limit of \d+\n", err), err


@pytest.mark.parametrize("graph, mp, family", [(path, 14, 267914296), (cycle, 13, 239629831)],
                         ids=["p40", "c40"])
def test_solve_a162_of_the_40_vertex_path_and_cycle(tmp_path, capsys, graph, mp, family):
    """Their unpruned families are above the budget; their pruned lists, at
    most 5 736 961 sets, are not."""
    f = tmp_path / "g40.graph"
    f.write_text(serialize_graph(graph(40)))
    code, out = run(capsys, "solve", str(f), "--algo", "a162", "--json")
    assert code == 0
    report = json.loads(out)
    assert (report["mp"], report["family_size"]) == (mp, family)
    assert family > solver.MAX_FAMILY


def test_verify(p4_file, tmp_path, capsys):
    good = tmp_path / "good.set"
    good.write_text(serialize_vertex_set([0, 3]))
    bad = tmp_path / "bad.set"
    bad.write_text(serialize_vertex_set([0, 1]))
    code, out = run(capsys, "verify", p4_file, str(good))
    assert code == 0 and "multipacking" in out
    code, out = run(capsys, "verify", p4_file, str(bad))
    assert code == 1 and "not a multipacking" in out


def test_repeated_members_exit_3(tmp_path, capsys):
    # Read as a list, {0, 0, 0} overfills N_1[0] of P3; read as {0} it is a
    # multipacking.  Neither reading is the file's, so the file is refused.
    p3 = tmp_path / "p3.graph"
    p3.write_text("3 2\n0 1\n1 2\n")
    repeated = tmp_path / "repeated.set"
    repeated.write_text("3\n0\n0\n0\n")
    hs = tmp_path / "repeated.hs"
    hs.write_text("3 2 2\n2 0 0\n1 2\n")
    for argv in (["verify", str(p3), str(repeated)],
                 ["reduce", "hs", str(hs), "--variant", "chordal", "--out", str(tmp_path / "x")]):
        assert main(argv) == 3
        assert "repeated" in capsys.readouterr().err
    assert not (tmp_path / "x.graph").exists()


def test_reduce_hs_writes_files(tmp_path, capsys):
    hs = tmp_path / "inst.hs"
    hs.write_text("3 2 2\n2 0 1\n1 2\n")
    prefix = str(tmp_path / "out")
    code, _ = run(capsys, "reduce", "hs", str(hs), "--variant", "chordal", "--out", prefix)
    assert code == 0
    graph_text = (tmp_path / "out.graph").read_text()
    assert graph_text.startswith("5 ")  # m + n(k-1) = 2 + 3*1
    labels = (tmp_path / "out.labels").read_text().splitlines()
    assert labels[0] == "0\tS_0" and len(labels) == 5
    assert (tmp_path / "out.claims").read_text() == "chordal\n"


def test_reduce_into_a_missing_directory_exits_3(tmp_path, capsys):
    hs = tmp_path / "inst.hs"
    hs.write_text("3 2 2\n2 0 1\n1 2\n")
    code = main(["reduce", "hs", str(hs), "--variant", "chordal", "--out", str(tmp_path / "missing" / "x")])
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert [f.name for f in tmp_path.iterdir()] == ["inst.hs"]  # no file written


def test_reduce_hs_invalid_k(tmp_path, capsys):
    hs = tmp_path / "inst.hs"
    hs.write_text("3 2 2\n2 0 1\n1 2\n")
    code = main(["reduce", "hs", str(hs), "--variant", "clawfree", "--out", str(tmp_path / "x")])
    assert code == 3  # claw-free needs k >= 3


def test_reduce_hs_rejects_oversized_header(tmp_path, capsys):
    hs = tmp_path / "huge.hs"
    hs.write_text("50001 0 2\n")  # m + n*k = 100002 > MAX_VERTICES
    assert main(["reduce", "hs", str(hs), "--variant", "chordal", "--out", str(tmp_path / "x")]) == 3
    assert "exceeds the cap" in capsys.readouterr().err
    assert not (tmp_path / "x.graph").exists()


def test_reduce_hs_rejects_oversized_output(tmp_path, capsys):
    hs = tmp_path / "pairs.hs"
    hs.write_text("33333 1 3\n1 0\n")  # within the header cap, but C(33333, 2) pair vertices
    start = time.perf_counter()
    code = main(["reduce", "hs", str(hs), "--variant", "hyperbolic", "--out", str(tmp_path / "x")])
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert "caps are" in capsys.readouterr().err
    assert not (tmp_path / "x.graph").exists()


def test_reduce_tds(tmp_path, p4_file, capsys):
    prefix = str(tmp_path / "conv")
    code, _ = run(capsys, "reduce", "tds", p4_file, "--variant", "conv", "-k", "3", "--out", prefix)
    assert code == 0
    assert (tmp_path / "conv.claims").read_text() == "conv_promise\n"
    code = main(["reduce", "tds", p4_file, "--variant", "regular", "-k", "4", "--out", prefix])
    assert code == 3  # P4 is not cubic


def test_reduce_tds_rejects_oversized_output(tmp_path, p4_file, capsys):
    """Both TDS variants check their output size before building anything."""
    ladder = tmp_path / "ladder.graph"  # the 60-vertex circular ladder, cubic
    rungs = [(i, i + 30) for i in range(30)]
    rims = [(r + i, r + (i + 1) % 30) for r in (0, 30) for i in range(30)]
    ladder.write_text(serialize_graph(Graph.from_edges(60, rungs + rims)))
    for graph, variant, k in ((p4_file, "conv", "1000000000"), (str(ladder), "regular", "4")):
        start = time.perf_counter()
        code = main(["reduce", "tds", graph, "--variant", variant, "-k", k, "--out", str(tmp_path / "x")])
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert capsys.readouterr().err.startswith("input error:")
        assert not (tmp_path / "x.graph").exists()


def test_check(p4_file, tmp_path, capsys):
    code, out = run(capsys, "check", p4_file)
    assert code == 1  # P4 is not regular
    assert "chordal" in out and "true" in out
    code, out = run(capsys, "check", p4_file, "--props", "chordal,bipartite")
    assert code == 0
    c4 = tmp_path / "c4.graph"
    c4.write_text(serialize_graph(cycle(4)))
    code, out = run(capsys, "check", str(c4), "--props", "hyperbolicity")
    assert code == 0 and "delta = 1" in out
    code = main(["check", p4_file, "--props", "nonsense"])
    assert code == 2


def readme_claim_props() -> dict[str, str]:
    """README's claim table, the one listing of the `check` property that
    certifies each claim a reduction writes (`none` for an unchecked one)."""
    text = (Path(__file__).parent.parent / "README.md").read_text()
    return dict(re.findall(r"^\| `([^`]+)` \| `?([a-z]+)`? \|", text, re.M))


def test_each_claim_passes_its_check(tmp_path, p4_file, capsys):
    props = readme_claim_props()
    assert props["conv_promise"] == "none"
    hs = tmp_path / "inst.hs"
    hs.write_text("4 3 3\n2 0 1\n2 1 2\n2 2 3\n")
    k33 = tmp_path / "k33.graph"
    k33.write_text(serialize_graph(Graph.from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)])))
    reductions = [["hs", str(hs), "--variant", v] for v in cli.HS_VARIANTS]
    reductions += [["tds", str(k33), "--variant", "regular", "-k", "4"],
                   ["tds", p4_file, "--variant", "conv", "-k", "3"]]
    for i, argv in enumerate(reductions):
        prefix = tmp_path / f"out{i}"
        assert run(capsys, "reduce", *argv, "--out", str(prefix))[0] == 0
        for claim in (tmp_path / f"out{i}.claims").read_text().split():
            regular = re.fullmatch(r"regular\((\d+)\)", claim)
            prop = props["regular(2d)" if regular else claim]
            if prop == "none":
                continue
            code, out = run(capsys, "check", f"{prefix}.graph", "--props", prop)
            assert code == 0, (claim, out)
            if regular:
                assert out.split() == ["regular", "true", "degree", regular[1]]
            if prop == "hyperbolicity":
                assert Fraction(out.split()[-1]) <= Fraction(1, 2)


def c5_chain(links: int) -> Graph:
    """``links`` copies of C5 in a row, each sharing one cut vertex with the next."""
    edges = []
    for i in range(links):
        ring = list(range(4 * i, 4 * i + 5))
        edges += [(ring[j], ring[(j + 1) % 5]) for j in range(5)]
    return Graph.from_edges(4 * links + 1, edges)


def test_check_hyperbolicity_refuses_a_block_above_the_budget(tmp_path, capsys, monkeypatch):
    """With the cell budget cut to 100, C_11's block of 121 cells is refused
    with one stderr line that names its size, before its table is built."""
    monkeypatch.setattr(checkers, "MAX_BLOCK_CELLS", 100)
    f = tmp_path / "c11.graph"
    f.write_text(serialize_graph(cycle(11)))
    assert main(["check", str(f), "--props", "hyperbolicity"]) == 3
    assert capsys.readouterr().err == (
        "input error: hyperbolicity: a block of 11 vertices needs 121 distance cells, above the budget of 100\n"
    )


@pytest.mark.parametrize("g, delta", [(path(1000), "0"), (c5_chain(50), "1/2")])
def test_check_hyperbolicity_reaches_long_block_chains(tmp_path, capsys, g, delta):
    """The scan visits each block alone; over all of V a 1000-vertex path
    would be C(1000, 4), about 4e10, four-sets."""
    f = tmp_path / "g.graph"
    f.write_text(serialize_graph(g))
    t0 = time.perf_counter()
    code, out = run(capsys, "check", str(f), "--props", "hyperbolicity")
    assert time.perf_counter() - t0 < 1
    assert code == 0
    assert out.split() == ["hyperbolicity", "true", "delta", "=", delta]


def test_count(capsys):
    code, out = run(capsys, "count", "paths", "-n", "5")
    assert code == 0
    assert out.splitlines()[1:] == ["1 2", "2 3", "3 4", "4 6", "5 9"]
    code, out = run(capsys, "count", "paths", "-n", "8", "--kind", "maximal", "--verify-upto", "8")
    assert code == 0 and "verified against enumeration up to n=8" in out


@pytest.mark.parametrize("argv", [["-n", "5", "--verify-upto", "-3"], ["-n", "25", "--verify-upto", "25"]])
def test_count_rejects_out_of_range_verify_upto(capsys, argv):
    """A negative bound, or one that would enumerate paths above the oracle's
    cap, exits 3 with one input error line before the table is printed."""
    code = main(["count", "paths", *argv])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("input error: --verify-upto")


def test_count_refuses_n_above_the_bound(capsys):
    """Above ``COUNT_MAX_N`` the counts would pass Python's int-to-str digit
    limit mid-table; the refusal comes before anything is printed."""
    code = main(["count", "paths", "-n", str(cli.COUNT_MAX_N + 1)])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err == f"input error: -n must be at most {cli.COUNT_MAX_N}, got {cli.COUNT_MAX_N + 1}\n"


def test_duality(p4_file, capsys):
    code, out = run(capsys, "duality", p4_file)
    assert code == 0
    assert "mp                2" in out
    assert "gamma_b           2" in out
    assert "bound_2mp3_ok     True" in out


def test_bench_family_reproducible(capsys):
    code, out1 = run(capsys, "bench", "family", "--trees", "5", "--max-n", "12", "--seed", "9")
    assert code == 0
    assert out1.splitlines()[0] == "n,family_size,growth"
    assert len(out1.splitlines()) == 6
    _, out2 = run(capsys, "bench", "family", "--trees", "5", "--max-n", "12", "--seed", "9")
    assert out1 == out2


@pytest.mark.parametrize(
    "argv",
    [
        ["--trees", "3", "--max-n", "1"],
        ["--trees", "3", "--max-n", "201"],
        ["--trees", "3", "--max-n", "1500"],
        ["--trees", "-1", "--max-n", "10"],
    ],
)
def test_bench_family_rejects_out_of_range_arguments(capsys, argv):
    """Bad bounds exit 3 with one input error line, before the CSV header."""
    t0 = time.perf_counter()
    code = main(["bench", "family", "--seed", "1", *argv])
    elapsed = time.perf_counter() - t0
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("input error: --")
    assert elapsed < 1


def test_solve_brute_on_the_edgeless_graph_at_the_cap(tmp_path, capsys):
    """Every subset of the edgeless graph is a multipacking; the oracle stops
    at its first set of the radius bound's size (here n), not after 2^22."""
    f = tmp_path / "e22.graph"
    f.write_text("22 0\n")
    t0 = time.perf_counter()
    code, out = run(capsys, "solve", str(f), "--algo", "brute")
    assert time.perf_counter() - t0 < 1
    assert code == 0
    assert "mp         22" in out
    assert "witness    " + " ".join(map(str, range(22))) in out


def test_shared_parser_keeps_no_state(p4_file, capsys, monkeypatch):
    """The parser built once per process answers like a freshly built one."""
    assert build_parser() is build_parser()
    calls = (
        ["solve", p4_file, "--json"],
        ["solve", p4_file, "--algo", "nope"],
        ["solve", "--help"],
        ["solve", p4_file, "--json"],
    )

    def outcomes():
        seen = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code
            out, err = capsys.readouterr()
            if argv[-1] == "--json":
                out = json.loads(out)
                del out["wall_time_s"]
            seen.append((code, out, err))
        return seen

    shared = outcomes()
    assert [code for code, _, _ in shared] == [0, 2, 0, 0]
    assert shared[0] == shared[3]
    monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
    assert outcomes() == shared
