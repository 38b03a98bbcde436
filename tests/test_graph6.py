"""graph6 encoding round-trips and error handling."""

import pytest
from hypothesis import given, settings, strategies as st

from confrigid.errors import Graph6Error
from confrigid.graph6 import emit_graph6, parse_graph6


def test_single_vertex():
    assert parse_graph6("@") == (1, [])
    assert emit_graph6(1, []) == "@"


def test_known_small_encodings():
    # K3 and P4 against hand-decoded bytes
    n, edges = parse_graph6("Bw")
    assert n == 3 and sorted(edges) == [(0, 1), (0, 2), (1, 2)]
    n, edges = parse_graph6("Cr")
    assert n == 4 and sorted(edges) == [(0, 1), (0, 2), (1, 3), (2, 3)]


def test_petersen_decodes_to_3_regular():
    n, edges = parse_graph6("IheA@GUAo")
    assert n == 10
    assert len(edges) == 15
    deg = [0] * n
    for i, j in edges:
        deg[i] += 1
        deg[j] += 1
    assert set(deg) == {3}


def test_large_size_prefix_roundtrip():
    edges = [(0, 1), (50, 80), (99, 100)]
    s = emit_graph6(101, edges)
    assert s[0] == "~"
    n, back = parse_graph6(s)
    assert n == 101 and sorted(back) == sorted(edges)


@pytest.mark.parametrize("bad", ["", "  ", "\x1f", "B\x00", "B"])
def test_invalid_inputs_raise(bad):
    with pytest.raises(Graph6Error):
        parse_graph6(bad)


def test_optional_header_is_read():
    # networkx.write_graph6 writes the header by default
    assert parse_graph6(">>graph6<<IheA@GUAo\n") == parse_graph6("IheA@GUAo")
    assert parse_graph6(">>graph6<<" + emit_graph6(101, [(0, 100)])) == (101, [(0, 100)])


@pytest.mark.parametrize(
    "record, fmt",
    [(":Fa@x^", "sparse6"), (">>sparse6<<:Fa@x^", "sparse6"),
     ("&B?o", "digraph6"), (">>digraph6<<&B?o", "digraph6")],
)
def test_sibling_formats_are_named(record, fmt):
    with pytest.raises(Graph6Error, match=f"a {fmt} record, not graph6"):
        parse_graph6(record)


def test_trailing_garbage_rejected():
    with pytest.raises(Graph6Error):
        parse_graph6("BwBw")


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_roundtrip_random_graphs(data):
    n = data.draw(st.integers(min_value=1, max_value=40))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    # one draw for the whole edge subset: bit b keeps pairs[b]
    mask = data.draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    edges = [e for b, e in enumerate(pairs) if mask >> b & 1]
    n2, back = parse_graph6(emit_graph6(n, edges))
    assert n2 == n
    assert sorted(back) == sorted(edges)
