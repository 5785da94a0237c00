import pytest

from conftest import path
from multipacking.formats import (
    MAX_VERTICES,
    InputError,
    parse_graph,
    parse_hitting_set,
    parse_vertex_set,
    serialize_claims,
    serialize_graph,
    serialize_hitting_set,
    serialize_labels,
    serialize_vertex_set,
)
from multipacking.reductions import HittingSetInstance


def test_graph_round_trip():
    text = "4 3\n0 1\n1 2\n2 3\n"
    g = parse_graph(text)
    assert g.adj == path(4).adj
    assert serialize_graph(g) == text


def test_graph_comments_and_blanks():
    g = parse_graph("# a path\n\n3 2\n0 1\n# middle\n1 2\n")
    assert g.n == 3 and g.num_edges() == 2


def test_graph_errors_carry_line_numbers():
    with pytest.raises(InputError, match="empty"):
        parse_graph("# nothing\n")
    with pytest.raises(InputError, match="line 2"):
        parse_graph("2 1\n0 x\n")
    with pytest.raises(InputError, match="line 2"):
        parse_graph("2 1\n0 2\n")
    with pytest.raises(InputError, match="line 2"):
        parse_graph("2 1\n1 1\n")
    with pytest.raises(InputError, match="declares 2 edges"):
        parse_graph("3 2\n0 1\n")
    with pytest.raises(InputError):
        parse_graph("2 2\n0 1\n1 0\n")  # duplicate edge


def test_graph_header_caps():
    with pytest.raises(InputError, match="line 1: .* exceed the cap"):
        parse_graph(f"{MAX_VERTICES + 1} 0\n")
    with pytest.raises(InputError, match="line 2: 4 edges exceed n\\(n-1\\)/2"):
        parse_graph("# K3 plus one\n3 4\n0 1\n1 2\n0 2\n1 0\n")
    with pytest.raises(InputError, match="duplicate edge"):
        parse_graph("3 2\n0 1\n1 0\n")
    assert parse_graph("3 3\n0 1\n1 2\n0 2\n").num_edges() == 3


def test_hitting_set_round_trip():
    text = "3 2 2\n2 0 1\n1 2\n"
    inst = parse_hitting_set(text)
    assert inst == HittingSetInstance.make(3, [{0, 1}, {2}], 2)
    assert serialize_hitting_set(inst) == text


def test_hitting_set_errors():
    with pytest.raises(InputError, match="line 2"):
        parse_hitting_set("3 1 2\n2 0\n")  # declared size mismatch
    with pytest.raises(InputError, match="line 2"):
        parse_hitting_set("3 1 2\n0\n")  # empty set
    with pytest.raises(InputError, match="line 2"):
        parse_hitting_set("3 1 2\n1 7\n")
    with pytest.raises(InputError, match="declares 2 sets"):
        parse_hitting_set("3 2 2\n1 0\n")
    with pytest.raises(InputError, match="k=1"):
        parse_hitting_set("3 1 1\n1 0\n")


def test_hitting_set_header_cap():
    # m + n*k = 100002: the smallest header over the cap, rejected at line 1
    # before the family line (element out of range) is read
    with pytest.raises(InputError, match="line 1: .* exceeds the cap"):
        parse_hitting_set("50001 0 2\n")
    with pytest.raises(InputError, match="line 1: .* exceeds the cap"):
        parse_hitting_set("50001 1 2\n1 99999999\n")
    assert MAX_VERTICES == 100_000
    assert parse_hitting_set("50000 0 2\n").n == 50_000


def test_vertex_set_round_trip():
    text = "3\n0\n2\n5\n"
    assert parse_vertex_set(text) == (0, 2, 5)
    assert serialize_vertex_set([5, 0, 2]) == text
    assert parse_vertex_set("2\n4 1\n") == (1, 4)
    with pytest.raises(InputError, match="declares 2 members"):
        parse_vertex_set("2\n1\n")


def test_repeated_members_are_rejected_with_their_line():
    with pytest.raises(InputError, match="line 3: repeated member 0"):
        parse_vertex_set("3\n0\n0\n0\n")
    with pytest.raises(InputError, match="line 2: repeated member 4"):
        parse_vertex_set("2\n4 4\n")
    with pytest.raises(InputError, match="line 3: repeated element"):
        parse_hitting_set("3 2 2\n1 0\n2 0 0\n")


def test_labels_and_claims():
    assert serialize_labels(["a", "b"]) == "0\ta\n1\tb\n"
    assert serialize_claims(("chordal",)) == "chordal\n"
    assert serialize_claims(()) == ""
