"""Exact invariants, perfect divisions, and the divisibility colourer."""

import hashlib
import json
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from chibind import invariants
from chibind.colorers import color_divisible
from chibind.errors import PreconditionError
from chibind.graphs import (
    VertexSet,
    complement,
    complete_graph,
    cycle_graph,
    empty_graph,
    from_edge_list,
    induced,
    path_graph,
)
from chibind.invariants import (
    chromatic_number,
    clique_number,
    clique_number_mask,
    cliques,
    find_perfect_division,
    independence_number,
    is_perfectly_divisible,
    is_proper_coloring,
    least_maximum_clique,
    omega_table,
    perfection_table,
)
from chibind.patterns import is_free, is_perfect, pattern
from chibind.harness import analyze_one
from oracles import (
    chi_bound_divisible_per_round,
    chromatic_dp,
    cliques_brute,
    first_division_brute,
    graph_from_pair_mask,
    is_perfect_definitional,
    omega_table_brute,
    perfectly_divisible_definitional,
    seeded_random_graphs,
    views_and_sub_masks,
)
from test_structure import _grown_pipeline_members


@st.composite
def small_graphs(draw, max_n=7, min_n=0):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    mask = draw(st.integers(min_value=0, max_value=(1 << (n * (n - 1) // 2)) - 1))
    return graph_from_pair_mask(n, mask)


def petersen():
    return from_edge_list(10, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                               (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
                               (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)])


def test_clique_and_independence_examples():
    assert clique_number(cycle_graph(5)) == 2
    assert clique_number(pattern("K2,3").graph) == 2
    assert clique_number(pattern("K1+(K1uK3)").graph) == 4
    assert independence_number(cycle_graph(5)) == 2
    assert independence_number(pattern("K2,3").graph) == 3
    assert independence_number(pattern("2K2").graph) == 2
    # the cocktail-party graph K2,...,2 on 64 vertices, a P5-free and K2,3-free input
    party = complement(from_edge_list(64, [(2 * i, 2 * i + 1) for i in range(32)]))
    assert clique_number(party) == 32
    assert independence_number(party) == 2


def test_clique_number_mask_matches_subset_table(all_graphs_7):
    for g in all_graphs_7:
        if g.n <= 6:
            table = omega_table_brute(g.adj, g.n)
            assert [clique_number_mask(g.adj, s) for s in range(1 << g.n)] == table


def test_maximum_clique_is_least():
    g = from_edge_list(5, [(1, 2), (2, 3), (1, 3), (0, 4)])
    assert next(cliques(g.adj, (1 << g.n) - 1, clique_number(g))) == 0b1110
    assert least_maximum_clique(g.adj, (1 << g.n) - 1) == 0b1110


def test_least_maximum_clique_is_the_first_clique_of_the_clique_number(all_graphs_7):
    # the clique number of every vertex mask comes from the subset table
    for g in all_graphs_7:
        table = omega_table(g.adj, g.n)
        for sub in range(1 << g.n):
            assert least_maximum_clique(g.adj, sub) == next(cliques(g.adj, sub, table[sub]))


def test_chromatic_number_is_searched_once_and_kept(monkeypatch):
    calls = []
    solve = invariants._solve_k_coloring

    def counting(g, k):
        calls.append(k)
        return solve(g, k)

    monkeypatch.setattr(invariants, "_solve_k_coloring", counting)
    g = petersen()
    first = chromatic_number(g)
    assert calls == [2, 3] and g._chi is first
    assert chromatic_number(g) is first and calls == [2, 3]
    # the kept value takes no part in equality, and a fresh equal graph searches anew
    twin = from_edge_list(g.n, g.edges())
    assert twin == g and twin._chi is None
    assert chromatic_number(twin) == first and calls == [2, 3, 2, 3]


def test_cliques_match_subset_scan(all_graphs_7):
    # exactly the cliques inside sub, in ascending lexicographic order of
    # their members, on full and sub masks of both adjacency views
    graphs = list(all_graphs_7) + seeded_random_graphs(29, range(9, 15), 5)
    for adj, n, subs in views_and_sub_masks(graphs, 7):
        for size in range(n + 2):
            brute = cliques_brute(adj, n, size)
            for sub in subs:
                assert list(cliques(adj, sub, size)) == [m for m in brute if m & sub == m]


def test_chromatic_examples():
    chi, col = chromatic_number(cycle_graph(5))
    assert chi == 3 and col.k == 3 and is_proper_coloring(cycle_graph(5), col)
    assert chromatic_number(pattern("K2,3").graph)[0] == 2
    # the Petersen graph: no 2-colouring exists (odd cycle), solver finds 3
    p = petersen()
    assert chromatic_dp(p) == 3
    chi, col = chromatic_number(p)
    assert chi == 3 and is_proper_coloring(p, col)


# SHA-256 of chromatic_number (chi and colours) over every graph with 1..7 vertices
CHROMATIC_UP_TO_SEVEN = "c7086b34429cf82223846dcd6dd19c1d49a2dde7e8faed5cf1abfa3a298fa888"


def test_chromatic_colorings_are_pinned(all_graphs_7):
    digest = hashlib.sha256()
    for g in all_graphs_7:
        chi, col = chromatic_number(g)
        digest.update(json.dumps([chi, list(col.colors)]).encode() + b"\n")
    assert digest.hexdigest() == CHROMATIC_UP_TO_SEVEN


# SHA-256 of chromatic_number over the seeded grown members of the two
# pipeline classes (14 to 30 vertices), where the backtracking branches; made
# while the k-colouring still collected neighbour colours into a set
CHROMATIC_GROWN = "8a8cca0bd11caeed23e7866ecaffefd5f97f7feccd05f2186d69e716207e6292"


def test_chromatic_colorings_of_grown_members_are_pinned():
    digest = hashlib.sha256()
    for g in _grown_pipeline_members():
        chi, col = chromatic_number(g)
        digest.update(json.dumps([chi, list(col.colors)]).encode() + b"\n")
    assert digest.hexdigest() == CHROMATIC_GROWN


def test_chromatic_empty_graph():
    chi, col = chromatic_number(empty_graph(0))
    assert chi == 0 and col.colors == ()


@settings(max_examples=80, derandomize=True)
@given(small_graphs(max_n=6))
def test_chromatic_agrees_with_dp(g):
    assert chromatic_number(g)[0] == chromatic_dp(g)


@settings(max_examples=80, derandomize=True)
@given(small_graphs(max_n=7, min_n=1))
def test_sandwich_and_pigeonhole(g):
    chi, col = chromatic_number(g)
    w = clique_number(g)
    assert w <= chi <= g.n
    assert independence_number(g) * chi >= g.n
    if is_perfect(g):
        assert chi == w
    assert col.used() == chi == col.k


def test_find_perfect_division_examples():
    c5 = cycle_graph(5)
    d = find_perfect_division(c5)
    assert d is not None
    assert d.a.members() == (0, 1, 3) and d.omega_g == 2 and d.omega_b == 1
    # edgeless: only the whole-vertex-set split works
    d = find_perfect_division(empty_graph(5))
    assert d.a == VertexSet.full(5) and len(d.b) == 0
    assert find_perfect_division(empty_graph(0)) is None


@settings(max_examples=60, derandomize=True)
@given(small_graphs(max_n=6, min_n=1))
def test_perfect_division_invariants(g):
    d = find_perfect_division(g)
    if d is None:
        return
    assert (d.a.mask | d.b.mask) == (1 << g.n) - 1
    assert d.a.mask & d.b.mask == 0
    assert is_perfect_definitional(induced(g, d.a))
    assert d.omega_b == clique_number(induced(g, d.b)) < d.omega_g == clique_number(g)


def test_perfect_graphs_admit_divisions():
    for g in (path_graph(4), complete_graph(4), cycle_graph(6)):
        assert find_perfect_division(g) is not None


def test_divisibility_examples():
    assert is_perfectly_divisible(cycle_graph(5))
    assert is_perfectly_divisible(path_graph(4))
    assert is_perfectly_divisible(complement(cycle_graph(7)))


def test_division_of_big_antihole():
    c7bar = complement(cycle_graph(7))
    d = find_perfect_division(c7bar)
    assert d is not None
    assert is_perfect_definitional(induced(c7bar, d.a))
    assert clique_number(induced(c7bar, d.b)) < clique_number(c7bar)


@settings(max_examples=60, derandomize=True)
@given(small_graphs(max_n=6))
def test_divisibility_agrees_with_definitional(g):
    assert is_perfectly_divisible(g) == perfectly_divisible_definitional(g)


@settings(max_examples=40, derandomize=True)
@given(small_graphs(max_n=7, min_n=1), st.integers(min_value=0, max_value=127))
def test_divisibility_is_hereditary(g, mask):
    if is_perfectly_divisible(g):
        sub = induced(g, VertexSet(mask & ((1 << g.n) - 1), g.n))
        assert is_perfectly_divisible(sub)


def test_perfection_table_matches_definitional():
    for g in (cycle_graph(5), cycle_graph(7), complement(cycle_graph(7)), path_graph(6)):
        table = perfection_table(g.adj, complement(g).adj, g.n)
        for s in range(1 << g.n):
            assert table[s] == is_perfect_definitional(induced(g, VertexSet(s, g.n)))


def test_chi_bound_divisible_examples():
    c5 = cycle_graph(5)
    col, _ = color_divisible(c5)
    assert col.k <= 3 and is_proper_coloring(c5, col)
    assert color_divisible(complete_graph(4))[0].k == 4
    assert color_divisible(empty_graph(3))[0].k == 1


def test_divisibility_size_guard():
    with pytest.raises(PreconditionError):
        is_perfectly_divisible(empty_graph(14))


@settings(max_examples=40, derandomize=True)
@given(small_graphs(max_n=7, min_n=1))
def test_chi_bound_divisible_on_class_members(g):
    if not is_free(g, ["P5", "C5", "K2,3"]):
        return
    col, _ = color_divisible(g)
    assert is_proper_coloring(g, col)
    w = clique_number(g)
    assert chromatic_number(g)[0] <= col.k <= comb(w + 1, 2)


def test_chi_bound_divisible_equals_per_round_tables(all_graphs_7):
    members = list(all_graphs_7) + [complement(cycle_graph(9))]
    for g in members:
        col, _ = color_divisible(g)
        assert (col.k, col) == chi_bound_divisible_per_round(g), g.adj
        assert find_perfect_division(g) == first_division_brute(g), g.adj


def grotzsch():
    """The Mycielskian of C5: triangle-free with chromatic number 4."""
    shadows = [(5 + i, (i + d) % 5) for i in range(5) for d in (1, 4)]
    return from_edge_list(11, [(i, (i + 1) % 5) for i in range(5)] + shadows
                          + [(10, 5 + i) for i in range(5)])


def test_chi_bound_divisible_rejects_grotzsch():
    g = grotzsch()
    assert clique_number(g) == 2 and chromatic_number(g)[0] == 4
    with pytest.raises(PreconditionError, match="not perfectly divisible"):
        color_divisible(g)
    assert find_perfect_division(g) is None


def test_division_search_size_guard():
    for fn in (color_divisible, find_perfect_division):
        with pytest.raises(PreconditionError, match="at most 16 vertices"):
            fn(empty_graph(17))
    # above the divisibility cap, the colouring still runs
    col, _ = color_divisible(from_edge_list(14, [(i, i + 7) for i in range(7)]))
    assert col.k == 2 and col.used() == 2


def test_division_tables_are_built_only_by_the_divisibility_dp(monkeypatch):
    calls = []
    for name in ("omega_table", "perfection_table"):
        def counting(*args, _table=getattr(invariants, name), _name=name):
            calls.append(_name)
            return _table(*args)
        monkeypatch.setattr(invariants, name, counting)
    c9bar = complement(cycle_graph(9))
    color_divisible(c9bar)
    find_perfect_division(c9bar)
    assert calls == []
    profile = analyze_one(c9bar)
    assert calls == ["omega_table", "perfection_table"]
    assert profile["perfectly_divisible"] is True and profile["perfect_division"]["omega"] == 4
