"""Catalog integrity, induced-subgraph detection, and the perfection test."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from chibind.errors import PreconditionError
from chibind.enumeration import representatives
from chibind.graphs import (
    Graph,
    VertexSet,
    complement,
    complete_graph,
    cycle_graph,
    empty_graph,
    induced,
    path_graph,
)
from chibind.patterns import (
    PATTERN_CATALOG,
    _automorphisms,
    _pin_orbit_reps,
    find_induced,
    find_odd_antihole,
    find_odd_hole,
    has_induced_using,
    is_free,
    mark_forbidden_traces,
    is_perfect,
    odd_antihole_not_two_cliques,
    parse_pattern_list,
    pattern,
)
from oracles import (
    graph_from_pair_mask,
    induced_copy_exists,
    is_perfect_definitional,
    least_embedding_plain,
    uses_vertex_plain,
)
from test_structure import _grown_pipeline_members

# name -> (vertices, edges, sorted degree sequence)
CATALOG_FACTS = {
    "P2": (2, 1, (1, 1)), "P3": (3, 2, (2, 1, 1)), "P4": (4, 3, (2, 2, 1, 1)),
    "P5": (5, 4, (2, 2, 2, 1, 1)), "P6": (6, 5, (2, 2, 2, 2, 1, 1)),
    "P7": (7, 6, (2, 2, 2, 2, 2, 1, 1)),
    "C4": (4, 4, (2, 2, 2, 2)), "C5": (5, 5, (2,) * 5), "C6": (6, 6, (2,) * 6),
    "C7": (7, 7, (2,) * 7), "C8": (8, 8, (2,) * 8), "C9": (9, 9, (2,) * 9),
    "K1": (1, 0, (0,)), "K2": (2, 1, (1, 1)), "K3": (3, 3, (2, 2, 2)),
    "K4": (4, 6, (3,) * 4), "K5": (5, 10, (4,) * 5), "K6": (6, 15, (5,) * 6),
    "K1,3": (4, 3, (3, 1, 1, 1)),
    "K2,3": (5, 6, (3, 3, 2, 2, 2)),
    "2K2": (4, 2, (1, 1, 1, 1)),
    "K1+2K2": (5, 6, (4, 2, 2, 2, 2)),
    "K1uK3": (4, 3, (2, 2, 2, 0)),
    "K1+(K1uK3)": (5, 7, (4, 3, 3, 3, 1)),
    "bull": (5, 5, (3, 3, 2, 1, 1)),
    "cricket": (5, 5, (4, 2, 2, 1, 1)),
    "diamond": (4, 5, (3, 3, 2, 2)),
    "cochair": (5, 6, (3, 3, 3, 2, 1)),
    "dart": (5, 6, (4, 3, 2, 2, 1)),
    "hammer": (5, 5, (3, 2, 2, 2, 1)),
    "house": (5, 6, (3, 3, 2, 2, 2)),
    "gem": (5, 7, (4, 3, 3, 2, 2)),
    "gem+": (6, 8, (5, 3, 3, 2, 2, 1)),
    "paraglider": (5, 7, (3, 3, 3, 3, 2)),
    "banner": (5, 5, (3, 2, 2, 2, 1)),
}


def test_catalog_contents():
    assert set(PATTERN_CATALOG) == set(CATALOG_FACTS)
    for name, (n, m, degs) in CATALOG_FACTS.items():
        g = pattern(name).graph
        assert g.n == n, name
        assert g.edge_count() == m, name
        assert g.degree_sequence() == degs, name


def test_pattern_lookup_normalisation():
    assert pattern("k2,3").name == "K2,3"
    assert pattern("K_{2,3}").name == "K2,3"
    assert pattern("BULL").name == "bull"
    with pytest.raises(KeyError):
        pattern("K99")


def test_parse_pattern_list_merges_numeric_tokens():
    names = [p.name for p in parse_pattern_list("P5,K2,3,K1+(K1uK3)")]
    assert names == ["P5", "K2,3", "K1+(K1uK3)"]


def test_catalog_structural_identities():
    assert pattern("house").graph == complement(path_graph(5))
    diamond = pattern("diamond").graph
    assert diamond.edge_count() == complete_graph(4).edge_count() - 1


def test_find_induced_examples():
    c5 = cycle_graph(5)
    emb = find_induced(c5, "P4")
    assert emb is not None and len(set(emb.map)) == 4
    assert find_induced(c5, "P5") is None
    emb = find_induced(pattern("K2,3").graph, "C4")
    assert emb is not None


def test_embedding_witnesses_are_induced():
    c7bar = complement(cycle_graph(7))
    for name in ("P4", "K3", "C5", "paraglider"):
        emb = find_induced(c7bar, name)
        pg = pattern(name).graph
        if emb is None:
            continue
        m = emb.map
        for i in range(pg.n):
            for j in range(i):
                assert (pg.adj[i] >> j & 1) == (c7bar.adj[m[i]] >> m[j] & 1)


def test_is_free_examples():
    c5 = cycle_graph(5)
    assert not is_free(c5, ["P5", "C5", "K2,3"])
    assert not is_free(cycle_graph(6), ["P5"])
    assert is_free(complete_graph(5), ["P5", "K2,3", "C5"])


def test_identity_embedding_for_every_catalog_pattern():
    for name, pat in PATTERN_CATALOG.items():
        assert find_induced(pat.graph, pat) is not None, name


def test_odd_hole_search():
    assert find_odd_hole(cycle_graph(5)) == VertexSet.full(5)
    assert find_odd_hole(cycle_graph(6)) is None
    assert find_odd_hole(cycle_graph(7)) == VertexSet.full(7)
    assert find_odd_antihole(complement(cycle_graph(7))) == VertexSet.full(7)
    assert find_odd_antihole(complement(cycle_graph(5))) == VertexSet.full(5)


def test_is_perfect_examples():
    assert not is_perfect(cycle_graph(5))
    assert is_perfect(path_graph(4))
    assert is_perfect(cycle_graph(6))
    assert not is_perfect(complement(cycle_graph(7)))


def test_odd_antihole_two_cliques_scan():
    for m in (5, 7, 9):
        assert odd_antihole_not_two_cliques(complement(cycle_graph(m)))
    with pytest.raises(PreconditionError):
        odd_antihole_not_two_cliques(path_graph(5))
    with pytest.raises(PreconditionError):
        odd_antihole_not_two_cliques(complement(cycle_graph(6)))


@st.composite
def small_graphs(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    mask = draw(st.integers(min_value=0, max_value=(1 << (n * (n - 1) // 2)) - 1))
    return graph_from_pair_mask(n, mask)


@settings(max_examples=60, derandomize=True)
@given(small_graphs(), small_graphs(max_n=4))
def test_detection_matches_bruteforce(host, pat):
    assert (find_induced(host, pat) is not None) == induced_copy_exists(host, pat)


@settings(max_examples=60, derandomize=True)
@given(small_graphs(), small_graphs(max_n=4))
def test_complement_duality(host, pat):
    direct = find_induced(host, pat) is not None
    dual = find_induced(complement(host), complement(pat)) is not None
    assert direct == dual


@settings(max_examples=60, derandomize=True)
@given(small_graphs(max_n=6), st.integers(min_value=0, max_value=63))
def test_freeness_is_hereditary(g, mask):
    patterns = ["P4", "K3"]
    if is_free(g, patterns):
        sub = induced(g, VertexSet(mask & ((1 << g.n) - 1), g.n))
        assert is_free(sub, patterns)


@settings(max_examples=40, derandomize=True)
@given(small_graphs(max_n=6))
def test_perfection_routes_agree(g):
    assert is_perfect(g) == is_perfect_definitional(g)


@settings(max_examples=60, derandomize=True)
@given(small_graphs(max_n=8))
def test_odd_hole_certificate_is_an_induced_odd_cycle(g):
    found = find_odd_hole(g)
    if found is None:
        return
    sub = induced(g, found)
    assert sub.n >= 5 and sub.n % 2 == 1
    assert all(sub.degree(v) == 2 for v in range(sub.n))
    from chibind.graphs import is_connected

    assert is_connected(sub)


def test_detection_exhaustive_small_hosts():
    small_patterns = [p for p in PATTERN_CATALOG.values() if p.graph.n <= 5]
    for host in representatives(5):
        for pat in small_patterns:
            assert (find_induced(host, pat) is not None) == \
                induced_copy_exists(host, pat.graph), (host.adj, pat.name)


def test_kept_freeness_results_match_a_fresh_search(all_graphs_7):
    """``find_induced`` keeps exactly its results of None, and a graph with a
    kept result, or one generation records, gets what a fresh copy gets."""
    small = [p.graph for p in PATTERN_CATALOG.values() if p.graph.n <= 5]
    for g in all_graphs_7:
        host = Graph(g.n, g.adj)
        for pg in small:
            found = find_induced(host, pg)
            assert (pg.adj in host._free_of) == (found is None), (g.adj, pg.adj)
            assert find_induced(host, pg) == find_induced(g, pg) == found, (g.adj, pg.adj)
    for names in (("P5", "K2,3"), ("2K2",), ("P5", "K1+(K1uK3)")):
        for g in (g for n in range(1, 7) for g in representatives(n, names)):
            assert g._free_of == tuple(pattern(name).graph.adj for name in names)
            assert is_free(Graph(g.n, g.adj), names)


def test_trace_filter_matches_per_child_search(all_graphs_7):
    # every parent whose children stay within seven vertices; each child is
    # tested on its own, the way generation did before the trace filter
    patterns = [p.graph for p in PATTERN_CATALOG.values() if p.graph.n <= 6]
    patterns += [empty_graph(3), complete_graph(1)]
    for parent in (g for g in all_graphs_7 if g.n <= 6):
        m = parent.n
        blocked = []
        for pg in patterns:
            marks = bytearray(1 << m)
            mark_forbidden_traces(parent.adj, m, pg, marks)
            blocked.append(marks)
        for sub in range(1 << m):
            child = tuple(row | 1 << m if sub >> v & 1 else row
                          for v, row in enumerate(parent.adj)) + (sub,)
            for pg, marks in zip(patterns, blocked):
                want = has_induced_using(child, m + 1, pg, m)
                assert marks[sub] == want, (parent.adj, sub, pg.adj)


def test_find_induced_returns_the_plain_search_witness(all_graphs_7):
    # the symmetry conditions skip only copies that are not the least of
    # their class, so the least copy, which plain backtracking finds, stays
    small = [p.graph for p in PATTERN_CATALOG.values() if p.graph.n <= 6]
    # the catalog's search orders happen to give the stabiliser chains of
    # vertex order; some five-vertex graphs, labelled canonically, do not
    small += [g for g in all_graphs_7 if g.n == 5]
    for host in all_graphs_7:
        for pg in small:
            emb = find_induced(host, pg)
            assert (None if emb is None else emb.map) == least_embedding_plain(host, pg), \
                (host.adj, pg.adj)
    named = [pattern(name).graph for name in
             ("P5", "K2,3", "K1+2K2", "K1+(K1uK3)", "2K2", "K1uK3", "K3", "C5")]
    for host in _grown_pipeline_members():
        for pg in named:
            emb = find_induced(host, pg)
            assert (None if emb is None else emb.map) == least_embedding_plain(host, pg), \
                (host.adj, pg.adj)


def test_has_induced_using_matches_every_pinned_plain_search(all_graphs_7):
    patterns = [p.graph for p in PATTERN_CATALOG.values() if p.graph.n <= 5]
    for host in (g for g in all_graphs_7 if g.n == 6):
        for pg in patterns:
            for v in range(host.n):
                assert has_induced_using(host.adj, host.n, pg, v) == \
                    uses_vertex_plain(host.adj, pg, v), (host.adj, pg.adj, v)


def test_automorphisms_match_a_permutation_scan():
    for name, pat in PATTERN_CATALOG.items():
        g = pat.graph
        if g.n > 7:
            continue
        scan = {perm for perm in itertools.permutations(range(g.n))
                if all(g.adj[perm[v]] == sum(1 << perm[u] for u in range(g.n) if g.adj[v] >> u & 1)
                       for v in range(g.n))}
        group = _automorphisms(g.adj, g.n)
        assert len(group) == len(scan) and set(group) == scan, name
    for n in (8, 9):
        c = cycle_graph(n)
        group = _automorphisms(c.adj, n)
        assert len(set(group)) == len(group) == 2 * n
        for perm in group:
            assert sorted(perm) == list(range(n))
            assert all(c.adj[perm[v]] >> perm[(v + 1) % n] & 1 for v in range(n))


# the least vertex of each automorphism orbit, as the plain pinned searches
# found them
PIN_ORBIT_REPS = {
    "2K2": (0,), "C4": (0,), "C5": (0,), "C6": (0,), "C7": (0,), "C8": (0,), "C9": (0,),
    "K1": (0,), "K2": (0,), "K3": (0,), "K4": (0,), "K5": (0,), "K6": (0,),
    "K1+(K1uK3)": (0, 1, 2), "K1+2K2": (0, 1), "K1,3": (0, 1), "K1uK3": (0, 1),
    "K2,3": (0, 2), "P2": (0,), "P3": (0, 1), "P4": (0, 1), "P5": (0, 1, 2),
    "P6": (0, 1, 2), "P7": (0, 1, 2, 3), "banner": (0, 1, 2, 4), "bull": (0, 2, 3),
    "cochair": (0, 1, 3, 4), "cricket": (0, 1, 3), "dart": (0, 1, 2, 3), "diamond": (0, 1),
    "gem": (0, 1, 2), "gem+": (0, 1, 2, 3), "hammer": (0, 2, 3, 4), "house": (0, 1, 2),
    "paraglider": (0, 1, 4),
}


def test_pin_orbit_reps_are_pinned():
    assert set(PIN_ORBIT_REPS) == set(PATTERN_CATALOG)
    for name, pat in PATTERN_CATALOG.items():
        assert _pin_orbit_reps(pat.graph.adj, pat.graph.n) == PIN_ORBIT_REPS[name], name
