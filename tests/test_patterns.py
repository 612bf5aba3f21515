"""Catalog integrity, induced-subgraph detection, and the perfection test."""

import hashlib
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from chibind import patterns
from chibind.errors import PreconditionError
from chibind.enumeration import decode_graph6, iter_graph6_file, representatives
from chibind.graphs import (
    Graph,
    GraphError,
    VertexSet,
    bits_of,
    complement,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    from_edge_list,
    induced,
    join,
    path_graph,
)
from chibind.invariants import clique_number, clique_number_mask
from chibind.patterns import (
    _CHUNK,
    PATTERN_CATALOG,
    _candidate_masks,
    _cards,
    _connectivity_order,
    _embed_kernel,
    _hole_kernel,
    _holes,
    _moves,
    _pin_orbit_reps,
    _plan,
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
    holes_plain,
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


@pytest.mark.parametrize("call, error, match", [
    (lambda: pattern(5), PreconditionError, "must be a str"),
    (lambda: parse_pattern_list(5), PreconditionError, "must be a str"),
    (lambda: find_induced(cycle_graph(5), 5), PreconditionError, "expected a Pattern"),
    (lambda: is_free(cycle_graph(5), [5]), PreconditionError, "expected a Pattern"),
    (lambda: representatives(3, [3]), PreconditionError, "expected a Pattern"),
    (lambda: representatives(3, "P5"), PreconditionError, "parse_pattern_list"),
    (lambda: is_free(cycle_graph(5), "P5"), PreconditionError, "parse_pattern_list"),
    (lambda: decode_graph6(b"DLo"), GraphError, "must be a str"),
], ids=["pattern", "parse_pattern_list", "find_induced", "is_free-list", "representatives-list",
        "representatives-str", "is_free-str", "decode_graph6"])
def test_a_pattern_or_graph6_argument_of_the_wrong_type_is_rejected(call, error, match):
    with pytest.raises(error, match=match):
        call()


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
    assert find_odd_hole(cycle_graph(5)) == VertexSet((1 << 5) - 1, 5)
    assert find_odd_hole(cycle_graph(6)) is None
    assert find_odd_hole(cycle_graph(7)) == VertexSet((1 << 7) - 1, 7)
    assert find_odd_antihole(complement(cycle_graph(7))) == VertexSet((1 << 7) - 1, 7)
    assert find_odd_antihole(complement(cycle_graph(5))) == VertexSet((1 << 5) - 1, 5)


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
    assert all(row.bit_count() == 2 for row in sub.adj)
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


def test_has_induced_using_matches_the_pinned_plain_search_when_grown():
    named = [pattern(name).graph for name in
             ("P5", "K2,3", "K1+2K2", "K1+(K1uK3)", "2K2", "K1uK3", "K3", "C5")]
    hits = 0
    for host in _grown_pipeline_members():
        for pg in named:
            for v in (0, host.n // 2, host.n - 1):
                found = has_induced_using(host.adj, host.n, pg, v)
                assert found == uses_vertex_plain(host.adj, pg, v), (host.adj, pg.adj, v)
                hits += found
    assert hits == 681


# every complete image _embed hands over, in order, for every catalog pattern
# on at most six vertices under its whole-pattern plan and each card plan, in
# the hosts on at most six vertices and the grown members on at most twenty;
# the search had 6,796,560 images on all the grown members, too many to list
# in a test
EMBED_IMAGES_SHA256 = "8404cf8f165df858a60b77264f552ad4b89617dd1886bdb63bdba5e8e54717e9"


def test_embed_hands_over_every_image_in_the_pinned_order(all_graphs_7):
    hosts = [g for g in all_graphs_7 if g.n <= 6]
    hosts += [g for g in _grown_pipeline_members() if g.n <= 20]
    digest = hashlib.sha256()

    def visit(image):
        digest.update(bytes(image))
        return False

    for pat in PATTERN_CATALOG.values():
        padj, k = pat.graph.adj, pat.graph.n
        if k > 6:
            continue
        plans = [(padj, _plan(padj, k, 0, 0))]
        plans += [(cadj, plan) for cadj, plan, _ in (_cards(padj, k) if k > 1 else ())]
        for qadj, plan in plans:
            for host in hosts:
                digest.update(b"|")
                cand = _candidate_masks(host.adj, qadj) if len(qadj) <= host.n else None
                if cand is not None:
                    patterns._embed(host.adj, plan, [cand[v] for v, _ in plan], [0] * len(qadj), visit)
    assert len(hosts) == 236
    assert digest.hexdigest() == EMBED_IMAGES_SHA256


def test_the_degree_window_keeps_the_plain_search_witness():
    # the window of degree d tops out at n - k + d: a universal host vertex
    # may play only a universal pattern vertex, and beside an isolated vertex
    # a vertex universal in h only one of degree k - 2 or more
    small = [p.graph for p in PATTERN_CATALOG.values() if p.graph.n <= 6]
    k1 = complete_graph(1)
    for h in (g for n in range(7) for g in representatives(n)):
        for host in (join(k1, h), disjoint_union(k1, h)):
            for pg in small:
                emb = find_induced(host, pg)
                assert (None if emb is None else emb.map) == least_embedding_plain(host, pg), \
                    (host.adj, pg.adj)
                assert has_induced_using(host.adj, host.n, pg, 0) == \
                    uses_vertex_plain(host.adj, pg, 0), (host.adj, pg.adj)


# adjacency rows the searches read inside _embed, one per host vertex placed
# before the last position, while they prove the tracked (P5, K1+(K1uK3))-free
# members with n <= 7 free of both patterns, and the searches they take.  When
# every position had a frame of its own, the frames numbered 11,612 before
# the degree window and the distinct-vertex count, 3,838 before members of
# clique number three or less skipped the K1+(K1uK3) search, 2,469 before the
# third-to-last position placed the last three without a frame of its own,
# and 2,409 then; those 2,409 frames read 6,062 rows, as the compiled kernels
# do, so the kernels expand the same nodes
PROOF_ROW_READS_UP_TO_SEVEN = 6062
PROOF_SEARCHES_UP_TO_SEVEN = 617


def test_the_freeness_proofs_keep_their_pruning(monkeypatch):
    cache = Path(__file__).parent / "_cache"
    members = [g for n in range(1, 8) for g in iter_graph6_file(str(cache / f"v1-P5-K1pK1uK3-{n}.g6"))]
    pats = [pattern("P5").graph, pattern("K1+(K1uK3)").graph]
    for pg in pats:
        _plan(pg.adj, pg.n, 0, 0)
    searches = reads = 0
    embed = patterns._embed

    class CountedRows(tuple):
        def __getitem__(self, index):
            nonlocal reads
            reads += 1
            return tuple.__getitem__(self, index)

    def counting(host_adj, *args):
        nonlocal searches
        searches += 1
        return embed(CountedRows(host_adj), *args)

    monkeypatch.setattr(patterns, "_embed", counting)
    assert len(members) == 650
    assert all(is_free(g, pats) for g in members)
    assert reads == PROOF_ROW_READS_UP_TO_SEVEN
    assert searches == PROOF_SEARCHES_UP_TO_SEVEN


def _permutation_scan(g: Graph) -> list[tuple[int, ...]]:
    return [perm for perm in itertools.permutations(range(g.n))
            if all(g.adj[perm[v]] == sum(1 << perm[u] for u in bits_of(g.adj[v])) for v in range(g.n))]


def _check_moves(g: Graph, scan: list[tuple[int, ...]], keep: int, starts) -> None:
    # every stabiliser-chain orbit the planner asks about, against the
    # scanned automorphisms that map ``keep`` onto itself
    group = [s for s in scan if all(keep >> s[v] & 1 for v in bits_of(keep))]
    for start in starts:
        order = _connectivity_order(g.adj, g.n, start)
        for idx, v in enumerate(order):
            stab = [s for s in group if all(s[u] == u for u in order[:idx])]
            for w in order[idx + 1:]:
                assert _moves(g.adj, order, idx, keep, w) == any(s[v] == w for s in stab), \
                    (g.adj, keep, order, idx, w)


def test_symmetry_predicate_matches_a_permutation_scan():
    small = [p.graph for p in PATTERN_CATALOG.values() if p.graph.n <= 7]
    for g in small + [cycle_graph(8), cycle_graph(9)]:
        # the whole group and the pointwise stabiliser of each search-order
        # prefix, from every start, and the stabiliser of a pinned start
        scan = _permutation_scan(g)
        _check_moves(g, scan, 0, range(g.n))
        for start in range(g.n):
            _check_moves(g, scan, 1 << start, (start,))
        # the card automorphisms that map the removed vertex's neighbour
        # positions onto themselves
        for cadj, _, nbrs in _cards(g.adj, g.n) if g.n > 1 else ():
            card = Graph(g.n - 1, cadj)
            _check_moves(card, _permutation_scan(card), sum(1 << i for i in nbrs), (0,))


# orbit representatives, cards and plans of the catalog, 3K1 and every graph
# on five and six vertices, as they were built from the listed automorphism
# group before the pinned self-searches replaced it
PLANNER_SHA256 = "ea8e39a7ca1ae26f4bd7f68101552137b4ce325dd784da0d46927d1a484f9f3b"


def test_planner_is_pinned():
    pats = [p.graph for p in PATTERN_CATALOG.values()] + [empty_graph(3)]
    pats += list(representatives(5)) + list(representatives(6))
    digest = hashlib.sha256()
    for g in pats:
        k, padj = g.n, g.adj
        row = (_pin_orbit_reps(padj, k), _cards(padj, k) if k > 1 else (),
               tuple((_plan(padj, k, s, 0), _plan(padj, k, s, 1 << s)) for s in range(k)))
        digest.update(repr(row).encode())
    assert len(pats) == 226
    assert digest.hexdigest() == PLANNER_SHA256


def test_complete_and_edgeless_patterns_plan_without_their_group(monkeypatch):
    # listing the group of K9 took 521,316 searches; the pinned self-searches
    # take a few hundred
    for cached in (_plan, _pin_orbit_reps, _cards):
        cached.cache_clear()
    calls = 0
    embed = patterns._embed

    def counting(*args):
        nonlocal calls
        calls += 1
        return embed(*args)

    monkeypatch.setattr(patterns, "_embed", counting)
    assert find_induced(complete_graph(11), complete_graph(9)).map == tuple(range(9))
    assert find_induced(empty_graph(11), empty_graph(9)).map == tuple(range(9))
    assert calls < 5000


def _host_of_clique_number(rng: random.Random, n: int, w: int, planted: Graph | None) -> Graph:
    """A random host on ``n`` vertices of clique number ``w``, drawn until one
    fits, with ``planted`` induced on some of its vertices when given."""
    full = (1 << n) - 1
    while True:
        density = rng.uniform(0.1, 0.9)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < density]
        if planted is not None:
            edges = [(u, v) for u, v in edges if v >= planted.n] + list(planted.edges())
        host = _shuffled(from_edge_list(n, edges), rng)
        if clique_number_mask(host.adj, full) == w:
            return host


def test_the_clique_number_filter_keeps_the_plain_search_witness(monkeypatch):
    # a pattern of clique number w >= 3 is searched in hosts of clique number
    # w, with a copy planted in every other one, and not in hosts of clique
    # number w - 1, where no _embed frame runs
    rng = random.Random(25)
    frames = 0
    embed = patterns._embed

    def counting(*args):
        nonlocal frames
        frames += 1
        return embed(*args)

    monkeypatch.setattr(patterns, "_embed", counting)
    found = skipped = 0
    for pat in PATTERN_CATALOG.values():
        pg = pat.graph
        w = clique_number(pg)
        if w < 3:
            continue
        for n in range(9, 13):
            for host_w, planted in ((w - 1, None), (w, None), (w, pg)):
                host = _host_of_clique_number(rng, n, host_w, planted)
                frames = 0
                emb = find_induced(host, pg)
                assert (None if emb is None else emb.map) == least_embedding_plain(host, pg), \
                    (host.adj, pat.name)
                found += emb is not None
                if host_w < w:
                    assert frames == 0 and pg.adj in host._free_of, (host.adj, pat.name)
                    skipped += 1
    assert skipped == 4 * 17 and found >= 100, found
    # a pattern of clique number two or less never asks for the host's
    for name in ("P5", "C5", "K2,3", "2K2"):
        host = _host_of_clique_number(rng, 10, 4, None)
        find_induced(host, pattern(name))
        assert host._omega is None, name


def _shuffled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _random_pattern(rng: random.Random, k: int) -> Graph:
    """A random graph on k vertices, in one of three cases out of four built
    with a symmetry: an involution, a rotation or a set of twins."""
    shape = rng.randrange(4)
    pairs = list(itertools.combinations(range(k), 2))
    if shape == 0:
        density = rng.choice((0.3, 0.5, 0.7))
        edges = [e for e in pairs if rng.random() < density]
    elif shape == 1:
        # closed under the involution i <-> k-1-i
        mirror = {e: tuple(sorted((k - 1 - e[0], k - 1 - e[1]))) for e in pairs}
        chosen = {e for e in pairs if e <= mirror[e] and rng.random() < 0.5}
        edges = [e for e in pairs if e in chosen or mirror[e] in chosen]
    elif shape == 2:
        # a circulant: i ~ j when j - i mod k is in a symmetric step set
        steps = {d for d in range(1, k // 2 + 1) if rng.random() < 0.5}
        edges = [(i, j) for i, j in pairs if min(j - i, k - (j - i)) in steps]
    else:
        # vertices 0..t-1 are twins: the same neighbours outside, all adjacent or none
        t = rng.randrange(2, k - 1)
        inside = rng.random() < 0.5
        outside = [v for v in range(t, k) if rng.random() < 0.5]
        edges = [(i, j) for i, j in pairs if j < t and inside]
        edges += [(i, v) for i in range(t) for v in outside]
        edges += [(i, j) for i, j in pairs if i >= t and rng.random() < 0.5]
    return _shuffled(from_edge_list(k, edges), rng)


def test_random_symmetric_patterns_give_the_plain_search_witness():
    rng = random.Random(20)
    for _ in range(100):
        pg = _random_pattern(rng, rng.randrange(6, 9))
        for _ in range(4):
            # the pattern planted among up to two extra vertices, or a random host
            n = min(10, pg.n + rng.randrange(3))
            if rng.random() < 0.75:
                rows = [0] * n
                for u, v in itertools.combinations(range(n), 2):
                    if (pg.adj[u] >> v & 1) if v < pg.n else rng.random() < 0.5:
                        rows[u] |= 1 << v
                        rows[v] |= 1 << u
                host = _shuffled(Graph(n, tuple(rows)), rng)
            else:
                host = _shuffled(from_edge_list(n, [e for e in itertools.combinations(range(n), 2)
                                                    if rng.random() < 0.5]), rng)
            emb = find_induced(host, pg)
            assert (None if emb is None else emb.map) == least_embedding_plain(host, pg), \
                (host.adj, pg.adj)


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


def _planted(rng: random.Random, pg: Graph, extra: int, reach: int) -> Graph:
    """``pg`` with ``extra`` more vertices, each adjacent to at most ``reach``
    of its vertices and to each other extra vertex with probability 1/2,
    relabelled at random."""
    k = pg.n
    edges = list(pg.edges())
    for x in range(k, k + extra):
        edges += [(v, x) for v in rng.sample(range(k), rng.randrange(reach + 1))]
        edges += [(y, x) for y in range(k, x) if rng.random() < 0.5]
    return _shuffled(from_edge_list(k + extra, edges), rng)


def test_embed_kernels_past_the_chunk_match_the_plain_search():
    # a kernel places at most _CHUNK positions and hands the rest to the
    # kernel of the remaining ones; paths, cycles and cliques of 17 to 24
    # vertices cross that hand-over once.  The extra vertices see few
    # pattern vertices, so the plain search, which does not break the
    # clique's symmetry, stays small
    rng = random.Random(31)
    found = using = 0
    for k in range(_CHUNK + 1, 25):
        for pg in (path_graph(k), cycle_graph(k), complete_graph(k)):
            for extra, reach in ((2, 2), (4, 2), (4, 3)):
                host = _planted(rng, pg, extra, reach)
                emb = find_induced(host, pg)
                assert (None if emb is None else emb.map) == least_embedding_plain(host, pg), \
                    (host.adj, pg.adj)
                found += emb is not None
                for v in (0, host.n // 2, host.n - 1):
                    hit = has_induced_using(host.adj, host.n, pg, v)
                    assert hit == uses_vertex_plain(host.adj, pg, v), (host.adj, pg.adj, v)
                    using += hit
    assert (found, using) == (8 * 3 * 3, 191), (found, using)


def test_hole_kernels_past_the_chunk_match_the_plain_search():
    # a hole kernel holds at most _CHUNK depths, and a longer cycle is
    # finished by the generator of the depths that remain: every length in
    # cycles and their complements up to 31 vertices, and in seeded hosts of
    # 17 to 30 vertices, sparse ones built around a long cycle among them,
    # each inside the whole vertex set and inside a random part of it
    rng = random.Random(32)
    hosts = [cycle_graph(n) for n in range(3, 32)] + [complement(cycle_graph(n)) for n in range(3, 32)]
    for n in range(_CHUNK + 1, 31):
        chords = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randrange(1, 4))]
        hosts.append(_shuffled(from_edge_list(n, list(cycle_graph(n).edges()) + chords), rng))
        density = rng.choice((0.15, 0.3, 0.5))
        hosts.append(_shuffled(from_edge_list(n, [e for e in itertools.combinations(range(n), 2)
                                                  if rng.random() < density]), rng))
    long_holes = 0
    for host in hosts:
        full = (1 << host.n) - 1
        part = full & ~(1 << rng.randrange(host.n))
        for sub in (full, part):
            for length in range(3, host.n + 1):
                got = list(_holes(host.adj, sub, length))
                assert got == list(holes_plain(host.adj, sub, length)), (host.adj, sub, length)
                if length > _CHUNK:
                    long_holes += len(got)
    assert long_holes == 26, long_holes


def test_verify_compiles_one_kernel_per_size_and_length():
    # lemma-6.5 over the P5,K1+(K1uK3)-free graphs on at most eight vertices
    # searches for P5 and K1+(K1uK3), both on five vertices, and for holes of
    # lengths five and seven
    from chibind.harness import verify

    source = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "p5-k1pk1uk3-upto8.g6"
    for cached in (_embed_kernel, _hole_kernel, patterns._bound):
        cached.cache_clear()
    assert verify("lemma-6.5", 8, source=str(source)).violations == []
    embed, holes = _embed_kernel.cache_info(), _hole_kernel.cache_info()
    assert (embed.misses, embed.currsize) == (1, 1) and embed.hits > 0
    assert (holes.misses, holes.currsize) == (2, 2) and holes.hits > 1000
