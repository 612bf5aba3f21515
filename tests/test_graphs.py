"""Core graph type and constructions."""

import pytest
from hypothesis import given, settings, strategies as st

from chibind.graphs import (
    BindingError,
    CapacityError,
    Graph,
    GraphError,
    VertexSet,
    complement,
    complete_graph,
    components_masks,
    cycle_graph,
    disjoint_union,
    empty_graph,
    from_edge_list,
    induced,
    is_clique,
    is_connected,
    is_independent_mask,
    join,
    neighborhood_mask,
    path_graph,
)
from oracles import graph_from_pair_mask


@st.composite
def small_graphs(draw, max_n=7):
    n = draw(st.integers(min_value=0, max_value=max_n))
    mask = draw(st.integers(min_value=0, max_value=(1 << (n * (n - 1) // 2)) - 1))
    return graph_from_pair_mask(n, mask)


def test_from_edge_list_examples():
    p3 = from_edge_list(3, [(0, 1), (1, 2)])
    assert p3.degree_sequence() == (2, 1, 1)
    k1 = from_edge_list(1, [])
    assert k1.n == 1 and k1.edge_count() == 0
    c5 = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert all(row.bit_count() == 2 for row in c5.adj)


def test_from_edge_list_collapses_duplicates():
    g = from_edge_list(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count() == 1


def test_from_edge_list_errors():
    with pytest.raises(GraphError):
        from_edge_list(3, [(0, 3)])
    with pytest.raises(GraphError):
        from_edge_list(3, [(1, 1)])
    with pytest.raises(CapacityError):
        empty_graph(65)


@pytest.mark.parametrize("build", [empty_graph, complete_graph, path_graph, cycle_graph,
                                   lambda n: from_edge_list(n, [(0, 1)])],
                         ids=["empty", "complete", "path", "cycle", "edge-list"])
def test_constructors_reject_a_huge_order_before_building(build):
    # rows for 2**62 vertices cannot be allocated, so only an early check passes
    with pytest.raises(CapacityError, match="outside 0..64"):
        build(2 ** 62)


def test_graph_validation_rejects_asymmetry():
    with pytest.raises(GraphError):
        Graph(2, (2, 0))
    with pytest.raises(GraphError):
        Graph(2, (1, 2))  # loop bits


def test_graph_keeps_its_own_rows():
    rows = [2, 1]
    g = Graph(2, rows)
    rows[0] = 0
    assert g.adj == (2, 1) and type(g.adj) is tuple
    assert hash(g) == hash(Graph(2, (2, 1)))


@pytest.mark.parametrize("n, adj", [
    ("2", ()), (2.0, (0, 0)), (True, (0,)), (False, ()), (None, ()),
    (2, (2.0, 1)), (2, (2, True)), (2, ("2", 1)), (2, None), (2, 3)])
def test_graph_validation_rejects_non_int_input(n, adj):
    with pytest.raises(GraphError):
        Graph(n, adj)


def test_unvalidated_copies_pass_validation(all_graphs_7):
    from chibind.enumeration import canonical_form

    # induced, complement and canonical_form build their graphs unvalidated
    for g in all_graphs_7:
        full = (1 << g.n) - 1
        copies = [complement(g), canonical_form(g), induced(g, VertexSet(full & 0x55, g.n))]
        copies += [induced(g, VertexSet(full ^ 1 << v, g.n)) for v in range(g.n)]
        for h in copies:
            assert h == Graph(h.n, h.adj)


def test_induced_examples():
    c5 = cycle_graph(5)
    p4 = induced(c5, VertexSet.of([0, 1, 2, 3], 5))
    assert p4.degree_sequence() == (2, 2, 1, 1)
    assert induced(c5, VertexSet((1 << 5) - 1, 5)) == c5
    k3 = induced(complete_graph(5), VertexSet.of([1, 3, 4], 5))
    assert k3 == complete_graph(3)


def test_induced_binding_mismatch():
    with pytest.raises(BindingError):
        induced(cycle_graph(5), VertexSet.of([0, 1], 4))


def test_complement_examples():
    from chibind.enumeration import canonical_key

    c5 = cycle_graph(5)
    assert canonical_key(complement(c5)) == canonical_key(c5)
    assert complement(complete_graph(4)) == empty_graph(4)


@settings(max_examples=80, derandomize=True)
@given(small_graphs())
def test_complement_involution(g):
    assert complement(complement(g)) == g


def test_union_and_join_examples():
    k1 = complete_graph(1)
    k3 = complete_graph(3)
    pat = join(k1, disjoint_union(k1, k3))
    assert pat.n == 5 and pat.edge_count() == 7
    two_k2 = disjoint_union(complete_graph(2), complete_graph(2))
    assert two_k2.degree_sequence() == (1, 1, 1, 1)
    k23 = join(empty_graph(2), empty_graph(3))
    assert sorted(k23.degree_sequence()) == [2, 2, 2, 3, 3]


@settings(max_examples=50, derandomize=True)
@given(small_graphs(max_n=5), small_graphs(max_n=5))
def test_union_join_counts(g1, g2):
    u = disjoint_union(g1, g2)
    j = join(g1, g2)
    assert u.n == j.n == g1.n + g2.n
    assert u.edge_count() == g1.edge_count() + g2.edge_count()
    assert j.edge_count() == g1.edge_count() + g2.edge_count() + g1.n * g2.n


def test_components_and_distance_examples():
    two_k2 = disjoint_union(complete_graph(2), complete_graph(2))
    assert components_masks(two_k2.adj, 0b1111) == [0b0011, 0b1100]
    assert not is_connected(two_k2)
    # the distance levels of a set, as the five-hole decomposition grows them
    p5 = path_graph(5)
    seen = frontier = 0b00001
    levels = []
    while frontier := neighborhood_mask(p5.adj, frontier) & ~seen:
        levels.append(frontier)
        seen |= frontier
    assert levels == [0b00010, 0b00100, 0b01000, 0b10000]
    c5 = cycle_graph(5)
    assert neighborhood_mask(c5.adj, 0b11111) == 0
    forked = disjoint_union(path_graph(2), complete_graph(1))
    assert neighborhood_mask(forked.adj, 0b001) == 0b010
    assert neighborhood_mask(forked.adj, 0b011) == 0


@settings(max_examples=60, derandomize=True)
@given(small_graphs())
def test_induced_degree_sums_even(g):
    mask = (1 << g.n) - 1 & 0b1011011
    sub = induced(g, VertexSet(mask & ((1 << g.n) - 1), g.n))
    assert sum(sub.degree_sequence()) % 2 == 0


@settings(max_examples=60, derandomize=True)
@given(small_graphs(), st.integers(min_value=0, max_value=(1 << 7) - 1),
       st.integers(min_value=0, max_value=(1 << 7) - 1))
def test_induced_composition(g, m1, m2):
    full = (1 << g.n) - 1
    s = VertexSet(m1 & full, g.n)
    h = induced(g, s)
    t_local = VertexSet(m2 & ((1 << h.n) - 1), h.n)
    inner = induced(h, t_local)
    # map t back through the members of s
    members = tuple(s)
    t_orig = VertexSet.of([members[i] for i in t_local], g.n)
    assert inner == induced(g, t_orig)


def test_clique_independent_complete_anticomplete():
    k23 = join(empty_graph(2), empty_graph(3))
    three_side = VertexSet.of([2, 3, 4], 5)
    two_side = VertexSet.of([0, 1], 5)
    assert not is_clique(k23, three_side)
    assert is_independent_mask(k23.adj, three_side.mask)
    assert not is_independent_mask(k23.adj, two_side.mask | 1 << 2)
    empty = VertexSet(0, 5)
    assert is_clique(k23, empty) and is_independent_mask(k23.adj, empty.mask)


def test_vertex_set_basics():
    s = VertexSet.of([1, 3], 5)
    assert len(s) == 2 and 3 in s and 0 not in s
    # membership is that of the frozenset of its vertices
    assert "a" not in s and None not in s and 5 not in s and -1 not in s
    assert 1 in s and True in s and 1.0 in s and 3.0 in s and 2.0 not in s
    assert tuple(s) == (1, 3) and list(s) == [1, 3]
    with pytest.raises(GraphError):
        VertexSet.of([5], 5)
