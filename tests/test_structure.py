"""Five-hole decomposition, cutsets, homogeneous sets, and the lemma checkers."""

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from chibind import colorers, patterns, structure
from chibind.errors import PreconditionError, SearchExhaustedError
from chibind.graphs import (
    Graph,
    VertexSet,
    bits_of,
    complement,
    complete_graph,
    components_masks,
    cycle_graph,
    disjoint_union,
    distances_from,
    from_edge_list,
    induced,
    is_connected,
    join,
    path_graph,
    empty_graph,
)
from chibind.invariants import clique_number
from chibind.harness import verify
from chibind.patterns import _as_graph, _holes, has_induced_using, is_free, pattern
from chibind.structure import (
    FiveHoleDecomposition,
    _least_clique_cutset,
    antihole_neighborhood_split,
    check_antihole_lemma,
    check_c5_cutset_lemma,
    check_k1uk3_hole_lemma,
    check_k1uk3_level_lemma,
    check_k23_hole_lemma,
    check_k23_level_lemma,
    check_p5_hole_lemma,
    decompose_five_hole,
    find_all_five_holes,
    find_all_odd_antiholes,
    find_clique_cutset,
    find_dominating_clique_or_p3,
    find_five_hole,
    find_homogeneous_set,
    five_cliques_partition,
    is_bad_pair,
    minimal_cutsets,
    triangle_free_level2_split,
)
from oracles import (
    clique_cutset_brute,
    cliques_brute,
    cutset_splits_oracle,
    five_hole_decomposition_plain,
    graph_from_pair_mask,
    homogeneous_sets_brute,
    induced_cycles_brute,
    minimal_cutsets_brute,
    neighbor_class,
    seeded_random_graphs,
    views_and_sub_masks,
)


def c5_plus(*attachments):
    """Five-cycle 0..4 plus one extra vertex per attachment index set."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    n = 5
    for hits in attachments:
        for h in hits:
            edges.append((n, h))
        n += 1
    return from_edge_list(n, edges)


def _cutset_pair(report):
    """A cutset report in the oracles' form: the mask and the component masks."""
    return (report.cutset.mask, [c.mask for c in report.side_components]) if report else None


def _grown_member(rng, forbidden, n):
    """A connected member of a hereditary class on ``n`` vertices, grown from
    an edge: each new vertex copies a random vertex's neighbourhood (as a true
    or false twin) with a few places flipped, and is kept only when it creates
    no forbidden induced subgraph."""
    adj = [0b10, 0b01]
    while len(adj) < n:
        k = len(adj)
        v = rng.randrange(k)
        sub = adj[v] | (1 << v if rng.random() < 0.5 else 0)
        for u in range(k):
            if rng.random() < 0.15:
                sub ^= 1 << u
        if not sub:
            continue
        child = tuple(a | 1 << k if sub >> u & 1 else a for u, a in enumerate(adj)) + (sub,)
        if not any(has_induced_using(child, k + 1, pg, k) for pg in forbidden):
            adj = list(child)
    return Graph(n, tuple(adj))


def test_find_five_hole_examples():
    c5 = cycle_graph(5)
    assert find_five_hole(c5) == (0, 1, 2, 3, 4)
    apex = c5_plus(range(5))
    assert find_five_hole(apex) == (0, 1, 2, 3, 4)
    assert find_five_hole(cycle_graph(6)) is None
    assert find_five_hole(join(empty_graph(2), empty_graph(3))) is None


def test_find_five_hole_is_least_of_all_holes(all_graphs_7):
    for g in all_graphs_7:
        assert find_five_hole(g) == min(induced_cycles_brute(g.adj, g.n, 5), default=None)


def test_hole_searches_match_subset_scans(all_graphs_8):
    # the order contract of every caller: exactly the induced cycles inside
    # sub, each written canonically, in ascending lexicographic order
    graphs = [g for g in all_graphs_8 if g.n <= 7] + seeded_random_graphs(23, range(9, 15), 5)
    for adj, n, subs in views_and_sub_masks(graphs, 5):
        for length in range(3, n + 1):
            brute = sorted(induced_cycles_brute(adj, n, length))
            for sub in subs:
                inside = [t for t in brute if all(sub >> v & 1 for v in t)]
                assert list(_holes(adj, sub, length)) == inside
    for g in all_graphs_8:
        assert find_all_five_holes(g) == sorted(induced_cycles_brute(g.adj, g.n, 5))
        comp = complement(g)
        brute = [t for length in range(5, g.n + 1, 2)
                 for t in induced_cycles_brute(comp.adj, g.n, length)]
        assert find_all_odd_antiholes(g, 5) == brute
        assert find_all_odd_antiholes(g) == [t for t in brute if len(t) >= 7]


def test_clique_searches_match_subset_scans(all_graphs_8):
    for g in all_graphs_8:
        if not is_connected(g):
            continue
        by_size = [cliques_brute(g.adj, g.n, size) for size in range(g.n + 1)]
        assert _cutset_pair(find_clique_cutset(g)) == clique_cutset_brute(g)
        dominating = next((m for masks in by_size[1:] for m in masks
                           if all(m >> v & 1 or g.adj[v] & m for v in range(g.n))), None)
        try:
            kind, found = find_dominating_clique_or_p3(g)
        except SearchExhaustedError:
            kind, found = None, None
        assert (kind == "clique") == (dominating is not None)
        if dominating is not None:
            assert found.mask == dominating


def test_decompose_classes():
    g = c5_plus([0, 2])  # one vertex adjacent to v1 and v3 in 1-based terms
    dec = decompose_five_hole(g, (0, 1, 2, 3, 4))
    assert neighbor_class(dec, 1, 3) == 1 << 5
    # pattern index: bit i-1 stands for v_i
    assert dec.classes[0b00101] == 1 << 5
    assert not neighbor_class(dec, 1, 2)
    apex = c5_plus(range(5))
    dec = decompose_five_hole(apex, (0, 1, 2, 3, 4))
    assert neighbor_class(dec, 1, 2, 3, 4, 5) == dec.classes[0b11111] == 1 << 5
    c5 = cycle_graph(5)
    dec = decompose_five_hole(c5, (0, 1, 2, 3, 4))
    assert dec.levels == () and dec.classes == (0,) * 32 and dec.level(1) == 0


def test_decompose_rejects_non_holes():
    with pytest.raises(PreconditionError):
        decompose_five_hole(cycle_graph(5), (0, 1, 2, 3, 3))
    with pytest.raises(PreconditionError):
        decompose_five_hole(complete_graph(5), (0, 1, 2, 3, 4))
    for bad in (-1, 4.0, 5, True, "4"):
        with pytest.raises(PreconditionError, match="hole entry"):
            decompose_five_hole(cycle_graph(5), (0, 1, 2, 3, bad))


def _assert_decomposition_matches_plain(g, hole):
    dec = decompose_five_hole(g, hole)
    classes, levels, _ = five_hole_decomposition_plain(g, hole)
    assert dec.hole == hole and dec.classes[0] == 0
    for key, vs in classes.items():
        assert dec.classes[sum(1 << i - 1 for i in key)] == vs.mask, (g, hole, sorted(key))
    assert dec.levels == tuple(level.mask for level in levels), (g, hole)


def test_decomposition_matches_the_plain_one_up_to_eight(all_graphs_8):
    holes = 0
    for g in all_graphs_8:
        for hole in find_all_five_holes(g):
            _assert_decomposition_matches_plain(g, hole)
            holes += 1
    assert holes == 7267


def test_decomposition_matches_the_plain_one_when_grown():
    holes = 0
    for g in _grown_pipeline_members():
        for hole in find_all_five_holes(g):
            _assert_decomposition_matches_plain(g, hole)
            holes += 1
    assert holes == 422


def test_p5_hole_lemma_catches_misuse():
    # a pendant on the hole gives a singleton class, impossible without P5
    g = c5_plus([0])
    assert not is_free(g, ["P5"])
    dec = decompose_five_hole(g, (0, 1, 2, 3, 4))
    assert check_p5_hole_lemma(g, dec) == ["singleton class {1} is nonempty"]


# hosts around the five-hole 0..4 that break one fact of lemma 2.2 each, with
# the violations the checker reports, and a last one whose level-two vertices
# are each complete to one level-three component and anticomplete to the other
APEX = [(5, i) for i in range(5)]
P5_HOLE_LEMMA_HOSTS = (
    ([(5, 0), (5, 1)], ["adjacent-pair class {1,2} is nonempty"]),
    ([(5, 0), (5, 2), (6, 5), (7, 6)],
     ["vertex 5 in a distance-two or consecutive-triple class sees level two",
      "vertex 5 reaches level three at distance two but misses a hole vertex"]),
    (APEX + [(6, 5), (7, 6), (8, 7)], ["connected host has vertices past level three"]),
    (APEX + [(6, 5), (9, 5), (7, 6), (8, 7), (8, 9)],
     ["level-two vertex 6 is neither complete nor anticomplete to a level-three component",
      "level-two vertex 9 is neither complete nor anticomplete to a level-three component"]),
    (APEX + [(6, 5), (9, 5), (7, 6), (8, 9)], []),
    # a fourth level in the hole's component and an edge in another
    (APEX + [(6, 5), (7, 6), (8, 7), (10, 9)], []),
)


@pytest.mark.parametrize("extra,expected", P5_HOLE_LEMMA_HOSTS)
def test_p5_hole_lemma_reports_each_fact(extra, expected):
    edges = [(i, (i + 1) % 5) for i in range(5)] + extra
    g = from_edge_list(1 + max(max(e) for e in extra), edges)
    assert check_p5_hole_lemma(g, decompose_five_hole(g, (0, 1, 2, 3, 4))) == expected


def test_class_key_canonicalisation():
    g = c5_plus([0, 2])
    dec = decompose_five_hole(g, (0, 1, 2, 3, 4))
    # {k, k+2} and {l, l+3} with l = k+2 name the same literal set
    assert neighbor_class(dec, 1, 3) == neighbor_class(dec, 3, 6) == 1 << 5
    assert neighbor_class(dec, 1, 3, 4) == neighbor_class(dec, 3, 4, 6)
    assert neighbor_class(dec, 1, 3) == neighbor_class(dec, 1, 1, 3, 8)


def test_pattern_tables_name_the_oracle_classes():
    """Every module table of pattern indices holds the classes its comment
    names by hole position, read through the oracle on a record whose class
    at each index is that index."""
    dec = FiveHoleDecomposition((0, 1, 2, 3, 4), tuple(range(32)), ())

    def cls(*positions):
        return neighbor_class(dec, *positions)

    per_position = range(1, 6)
    assert structure._ALL_FIVE == cls(1, 2, 3, 4, 5)
    assert structure._BAD_PAIRS == {frozenset((cls(i, i + 1, i + 3), cls(i, i + 1, i + 2, i + 4)))
                                    for i in per_position}
    assert structure._P5_LEMMA_PATTERNS == tuple(
        (cls(i), cls(i, i + 1), cls(i, i + 2), cls(i, i + 1, i + 2)) for i in per_position)
    assert structure._K1UK3_PATTERNS == tuple(
        (cls(i, i + 2), (cls(i, i + 1, i + 2), cls(i, i + 1, i + 3), cls(i, i + 1, i + 2, i + 3)))
        for i in per_position)
    assert structure._CLIQUE_GROUP_PATTERNS == (
        (cls(2, 5), cls(2, 3, 5), cls(2, 4, 5), cls(2, 3, 4, 5)),
        (cls(1, 3), cls(1, 3, 4), cls(1, 3, 5), cls(1, 3, 4, 5)),
        (cls(2, 4), cls(1, 2, 4, 5)),
        (cls(3, 5), cls(1, 2, 3, 5)),
        (cls(1, 4), cls(1, 2, 4), cls(1, 2, 3, 4)),
    )
    # group i avoids hole vertex v_i
    for i, group in enumerate(structure._CLIQUE_GROUP_PATTERNS, start=1):
        assert all(cls(i) & p == 0 for p in group)
    assert structure._TRIPLE_PATTERNS == tuple(cls(i, i + 1, i + 2) for i in per_position)
    assert structure._FORCED_EDGE_PATTERNS == tuple((cls(i, i + 2), cls(i + 1)) for i in per_position)
    assert structure._K23_CLIQUE_PATTERNS == tuple(item for i in per_position for item in (
        (f"{{{i},{i + 2}}}", cls(i, i + 2)),
        (f"{{{i},{i + 1},{i + 3}}}", cls(i, i + 1, i + 3)),
        (f"{{{i}..{i + 3}}}", cls(i, i + 1, i + 2, i + 3)),
    ))
    # blow-up class j sees the two hole neighbours of hole[j]
    assert colorers._BLOWUP_PATTERNS == tuple(cls(j, j + 2) for j in range(5))
    assert colorers._K23_PIECES == (
        ("triple-classes-a", (cls(1, 2, 3), cls(2, 3, 4))),
        ("triple-classes-b", (cls(3, 4, 5), cls(4, 5, 1))),
        ("triple-classes-c", (cls(5, 1, 2),)),
        ("all-five-class", (cls(1, 2, 3, 4, 5),)),
    )


def test_decomposition_partitions_vertices():
    # a path hangs off the hole, and a separate edge is reached from no level
    base = c5_plus([0, 2], [0, 1, 2], [1, 3])
    g = from_edge_list(12, list(base.edges()) + [(8, 5), (9, 8), (10, 11)])
    dec = decompose_five_hole(g, (0, 1, 2, 3, 4))
    covered = sum(1 << v for v in dec.hole)
    for level in dec.levels:
        assert level and covered & level == 0
        covered |= level
    dist = distances_from(g, VertexSet.of(dec.hole, g.n))
    assert covered == sum(1 << v for v, d in enumerate(dist) if d is not None)
    assert covered != (1 << g.n) - 1
    class_union = 0
    for vs in dec.classes:
        assert class_union & vs == 0
        class_union |= vs
    assert class_union == dec.level(1)


def test_check_p5_hole_lemma_on_small_cases():
    for g in (cycle_graph(5), c5_plus([0, 2]), c5_plus(range(5)), c5_plus([0, 2], [1, 3])):
        if not is_free(g, ["P5"]):
            continue
        for hole in find_all_five_holes(g):
            assert check_p5_hole_lemma(g, decompose_five_hole(g, hole)) == []


def test_check_k23_hole_lemma_small():
    g = c5_plus([0, 2])
    assert is_free(g, ["P5", "K2,3"])
    dec = decompose_five_hole(g, (0, 1, 2, 3, 4))
    assert check_k23_hole_lemma(g, dec) == []
    groups = five_cliques_partition(dec)
    assert groups[1] == 1 << 5
    assert sum(grp.bit_count() for grp in groups) == 1
    assert check_k23_level_lemma(g, dec) == []


def test_bad_pair_detection():
    g = c5_plus([0, 1, 3], [0, 1, 2, 4])
    dec = decompose_five_hole(g, (0, 1, 2, 3, 4))
    assert is_bad_pair(g, dec, 5, 6)
    assert is_bad_pair(g, dec, 6, 5)
    g2 = c5_plus([0, 2], [0, 2])
    dec2 = decompose_five_hole(g2, (0, 1, 2, 3, 4))
    assert not is_bad_pair(g2, dec2, 5, 6)
    with pytest.raises(PreconditionError):
        is_bad_pair(g, dec, 0, 5)
    # two adjacent hole neighbours: a bad pair is non-adjacent by definition
    g3 = from_edge_list(7, [*c5_plus([0, 2], [0, 1, 2]).edges(), (5, 6)])
    dec3 = decompose_five_hole(g3, (0, 1, 2, 3, 4))
    with pytest.raises(PreconditionError, match="non-adjacent"):
        is_bad_pair(g3, dec3, 5, 6)


def test_homogeneous_set_examples():
    k23 = pattern("K2,3").graph
    assert find_homogeneous_set(k23).members() == (0, 1)
    assert find_homogeneous_set(path_graph(4)) is None
    assert find_homogeneous_set(cycle_graph(5)) is None


@st.composite
def small_graphs(draw, max_n=6, min_n=1):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    mask = draw(st.integers(min_value=0, max_value=(1 << (n * (n - 1) // 2)) - 1))
    return graph_from_pair_mask(n, mask)


@settings(max_examples=80, derandomize=True)
@given(small_graphs())
def test_homogeneous_set_matches_bruteforce(g):
    brute = homogeneous_sets_brute(g)
    got = find_homogeneous_set(g)
    if not brute:
        assert got is None
    else:
        best = min(brute, key=lambda m: (m.bit_count(), m))
        assert got.mask == best


def test_clique_cutset_examples():
    report = find_clique_cutset(path_graph(3))
    assert report.cutset.members() == (1,) and report.kind == "clique-cutset"
    assert len(report.side_components) == 2
    assert find_clique_cutset(cycle_graph(5)) is None
    assert find_clique_cutset(complete_graph(4)) is None
    with pytest.raises(PreconditionError):
        find_clique_cutset(disjoint_union(complete_graph(2), complete_graph(2)))


def test_clique_cutset_breaks_ties_on_sorted_members():
    # {4,5} has the least mask of the two-vertex clique cutsets, but {3,6}
    # has the least sorted members
    g = Graph(7, (96, 48, 72, 84, 106, 83, 61))
    report = find_clique_cutset(g)
    assert report.cutset.members() == (3, 6)
    assert [c.members() for c in report.side_components] == [(0, 1, 4, 5), (2,)]
    assert _cutset_pair(report) == clique_cutset_brute(g)


def _grown_pipeline_members():
    rng = random.Random(20221)
    return [_grown_member(rng, [pattern(p).graph for p in names], 14 + i % 17)
            for names in (("P5", "K2,3"), ("P5", "K1+(K1uK3)")) for i in range(30)]


def test_clique_cutsets_match_the_clique_scan_when_grown():
    grown = _grown_pipeline_members()
    assert sum(find_clique_cutset(g) is not None for g in grown) >= 10
    for g in grown:
        assert _cutset_pair(find_clique_cutset(g)) == clique_cutset_brute(g)


def test_one_separator_list_splits_like_the_per_piece_search(monkeypatch, all_graphs_8):
    # the pipelines split every piece of a component with the component's one
    # list of clique separators; the oracle searches each piece's copy afresh
    splits = []

    def recording_search(adj, mask, seps):
        found = _least_clique_cutset(adj, mask, seps)
        if found is not None:
            splits.append((found[0], found[1][0]))
        return found

    # the graphs are not all P5-free, so each cutset-free piece goes to a
    # stub dispatch rather than the perfection test
    def recording_dispatch(g, mask, leaf):
        return dict.fromkeys(bits_of(mask), 0), [("leaf", mask)]

    monkeypatch.setattr(colorers, "_least_clique_cutset", recording_search)
    monkeypatch.setattr(colorers, "_leaf_on_copy", recording_dispatch)
    for graphs, least_split in ((all_graphs_8, 10000), (_grown_pipeline_members(), 20)):
        split_graphs = 0
        for g in graphs:
            splits.clear()
            _, regions = colorers._components_shared_palette(g, colorers._p5k23_leaf)
            assert splits == cutset_splits_oracle(g), g
            # each split of a piece repeats its cut in both parts; a piece
            # that is a clique is coloured in place, the others by the leaf
            leaves = [m for name, m in regions if name in ("leaf", "perfect-exact")]
            assert sum(m.bit_count() for m in leaves) == g.n + sum(c.bit_count() for c, _ in splits)
            split_graphs += bool(splits)
        assert split_graphs >= least_split


def test_minimal_cutsets_examples():
    cuts = [r.cutset.members() for r in minimal_cutsets(cycle_graph(5))]
    assert cuts == [(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)]
    assert minimal_cutsets(complete_graph(4)) == []


def test_minimal_cutsets_of_long_cycles():
    # past the reach of a subset scan: the minimal separators of a k-cycle
    # are its k(k-3)/2 non-adjacent pairs
    for k in range(13, 21):
        pairs = sorted((1 << u | 1 << v for u, v in itertools.combinations(range(k), 2)
                        if (v - u) % k not in (1, k - 1)), key=lambda m: (m.bit_count(), m))
        reports = minimal_cutsets(cycle_graph(k))
        assert [r.cutset.mask for r in reports] == pairs
        assert len(pairs) == k * (k - 3) // 2
        assert all(len(r.side_components) == 2 for r in reports)


@settings(max_examples=50, derandomize=True)
@given(small_graphs(max_n=6, min_n=2))
def test_minimal_cutsets_match_definition(g):
    if not is_connected(g):
        return
    full = (1 << g.n) - 1

    def is_cutset(mask):
        return len(components_masks(g.adj, full & ~mask)) >= 2

    cutsets = [m for m in range(1, full) if is_cutset(m)]
    minimal = [m for m in cutsets
               if not any(other != m and other & m == other for other in cutsets)]
    got = [r.cutset.mask for r in minimal_cutsets(g)]
    assert sorted(got) == sorted(minimal)


def test_minimal_cutsets_match_the_subset_scan(all_graphs_8):
    for g in all_graphs_8:
        if is_connected(g):
            assert [(r.cutset.mask, [c.mask for c in r.side_components])
                    for r in minimal_cutsets(g)] == minimal_cutsets_brute(g)


def test_dominating_examples():
    kind, found = find_dominating_clique_or_p3(complete_graph(1))
    assert kind == "clique" and found.members() == (0,)
    kind, found = find_dominating_clique_or_p3(cycle_graph(5))
    assert kind == "p3" and found.members() == (0, 1, 2)
    star = pattern("K1,3").graph
    kind, found = find_dominating_clique_or_p3(star)
    assert kind == "clique" and found.members() == (0,)
    with pytest.raises(PreconditionError):
        find_dominating_clique_or_p3(pattern("2K2").graph)


def test_the_null_graph_is_dominated_by_the_empty_clique():
    from chibind.enumeration import decode_graph6

    assert find_dominating_clique_or_p3(decode_graph6("?")) == ("clique", VertexSet(0, 0))


def test_c5_has_no_dominating_clique():
    g = cycle_graph(5)
    full = (1 << 5) - 1
    for size in (1, 2):
        for combo in itertools.combinations(range(5), size):
            mask = sum(1 << v for v in combo)
            from chibind.graphs import is_clique_mask

            if not is_clique_mask(g.adj, mask):
                continue
            covered = mask
            for v in combo:
                covered |= g.adj[v]
            assert covered != full


def test_c5_cutset_lemma_on_qualifying_graphs():
    c7bar = complement(cycle_graph(7))
    assert check_c5_cutset_lemma(c7bar) == []
    octahedron = join(empty_graph(2), join(empty_graph(2), empty_graph(2)))
    assert is_free(octahedron, ["P5", "C5", "K2,3"])
    assert find_clique_cutset(octahedron) is None
    assert check_c5_cutset_lemma(octahedron) == []


def test_k1uk3_checkers_on_small_cases():
    c5 = cycle_graph(5)
    dec = decompose_five_hole(c5, (0, 1, 2, 3, 4))
    assert check_k1uk3_hole_lemma(c5, dec) == []
    assert check_k1uk3_level_lemma(c5, dec) == []
    a, b = triangle_free_level2_split(c5, dec)
    assert not a and not b
    g = c5_plus([0, 2])
    dec = decompose_five_hole(g, (0, 1, 2, 3, 4))
    assert check_k1uk3_hole_lemma(g, dec) == []


def test_antihole_machinery():
    c7bar = complement(cycle_graph(7))
    orders = find_all_odd_antiholes(c7bar, 7)
    assert orders == [(0, 1, 2, 3, 4, 5, 6)]
    s, t, buckets = antihole_neighborhood_split(c7bar, orders[0])
    assert not s and not t and all(not b for b in buckets)
    assert check_antihole_lemma(c7bar) == []
    # add one fully attached vertex
    g = from_edge_list(8, list(c7bar.edges()) + [(7, i) for i in range(7)])
    s, t, _ = antihole_neighborhood_split(g, (0, 1, 2, 3, 4, 5, 6))
    assert s == 1 << 7 and not t
    if is_free(g, ["P5", "K1+(K1uK3)"]) and find_five_hole(g) is None:
        assert check_antihole_lemma(g) == []


def test_clique_number_drops_in_neighborhoods():
    g = complement(cycle_graph(7))
    w = clique_number(g)
    for v in range(g.n):
        piece = induced(g, VertexSet(g.adj[v], g.n))
        assert clique_number(piece) <= w - 1


# negative controls: on hosts outside the stated classes the checkers must
# actually report something, so a vacuously empty checker cannot pass the
# exhaustive sweeps unnoticed


def test_p5_checker_fires_outside_class():
    pendant = c5_plus([0])  # induces P5, singleton class nonempty
    dec = decompose_five_hole(pendant, (0, 1, 2, 3, 4))
    assert check_p5_hole_lemma(pendant, dec)


def test_k23_checker_fires_outside_class():
    # two non-adjacent vertices in one distance-two class break the clique fact
    g = c5_plus([0, 2], [0, 2])
    assert not g.has_edge(5, 6)
    dec = decompose_five_hole(g, (0, 1, 2, 3, 4))
    assert any("not a clique" in v for v in check_k23_hole_lemma(g, dec))


def _hole_hosts(seed, count):
    """Seeded hosts around the five-hole 0..4 on 7 to 12 vertices.  Each
    further vertex sees no hole vertex (twice as likely), all five, a
    consecutive triple, a distance-two pair or a random set of them, and each
    earlier further vertex with the host's one density."""
    rng = random.Random(seed)
    for _ in range(count):
        density = rng.choice((0.2, 0.35, 0.5))
        n = rng.randint(7, 12)
        edges = [(i, (i + 1) % 5) for i in range(5)]
        for x in range(5, n):
            sees = rng.choice((0, 0, 31, rng.choice((7, 14, 28, 25, 19)),
                               rng.choice((5, 10, 20, 9, 18)), rng.getrandbits(5)))
            edges += [(i, x) for i in range(5) if sees >> i & 1]
            edges += [(y, x) for y in range(5, x) if rng.random() < density]
        yield from_edge_list(n, edges)


@pytest.mark.parametrize("hosts, decompositions, lines, digest", [
    (lambda: seeded_random_graphs(26, range(6, 13), 90), 1115, 2322,
     "46ae65eb766e3c8814c4cfdf3f98b7b83d0d1ff70bd4d65045c5b9c983f39317"),
    (lambda: _hole_hosts(26, 600), 2325, 4285,
     "5bef44ccc6a1d85a2100de030b4e193a83a250ad43ead15df8524aa792f1b703"),
], ids=["random", "around-a-hole"])
def test_k23_checker_violations_are_pinned(hosts, decompositions, lines, digest):
    """Both p5-k23 checkers' violation texts, in order, on every five-hole of
    seeded hosts that induce P5 or K2,3.  Every text fires here but three:
    the level-two independence one, and the overlapping group and the hole
    vertex seeing its own group, which the group patterns rule out.  So a
    rewrite of a checker must keep its texts and their order."""
    h = hashlib.sha256()
    seen = said = 0
    for g in hosts():
        if is_free(g, ["P5", "K2,3"]):
            continue
        for hole in find_all_five_holes(g):
            dec = decompose_five_hole(g, hole)
            seen += 1
            for text in check_k23_hole_lemma(g, dec) + check_k23_level_lemma(g, dec):
                h.update(text.encode() + b"\n")
                said += 1
            h.update(b"\n")
    assert (seen, said, h.hexdigest()) == (decompositions, lines, digest)


def test_cutset_checker_fires_outside_class():
    k23 = pattern("K2,3").graph  # the 3-side is a minimal cutset with alpha 3
    assert any("independence" in v for v in check_c5_cutset_lemma(k23))


def test_k1uk3_checker_fires_outside_class():
    # a triangle inside one distance-two class
    base = [(i, (i + 1) % 5) for i in range(5)]
    extra = [(u, h) for u in (5, 6, 7) for h in (0, 2)]
    extra += [(5, 6), (6, 7), (5, 7)]
    g = from_edge_list(8, base + extra)
    dec = decompose_five_hole(g, (0, 1, 2, 3, 4))
    assert any("triangle" in v for v in check_k1uk3_hole_lemma(g, dec))


def test_k1uk3_facts_are_read_from_the_class_record(monkeypatch):
    """A K1uK3 inside N(v), or inside the part of an antihole's neighbourhood
    that is complete to it, makes a K1+(K1uK3) with one more vertex.  So on
    the members ``verify`` checks and on the leaves the pipeline colours, no
    K1uK3 search runs past the patterns a graph records; outside the class
    the neighbourhood is still searched."""
    k1uk3 = pattern("K1uK3").graph.adj
    searched = []
    find = patterns.find_induced

    def finding(host, pat):
        if _as_graph(pat).adj == k1uk3 and k1uk3 not in host._free_of:
            searched.append(host)
        return find(host, pat)

    monkeypatch.setattr(patterns, "find_induced", finding)
    for target, n in (("theorem-1.4", 7), ("lemma-6.3", 8)):
        assert verify(target, n).violations == []
    assert searched == []
    # a triangle seen by v1 alone, beside the hole neighbour v2
    g = c5_plus([0], [0], [0])
    g = from_edge_list(8, list(g.edges()) + [(5, 6), (6, 7), (5, 7)])
    dec = decompose_five_hole(g, (0, 1, 2, 3, 4))
    assert "neighbourhood of hole vertex v1 induces K1uK3" in check_k1uk3_hole_lemma(g, dec)
    assert searched


def test_antihole_checker_fires_on_distance_two():
    c7bar = complement(cycle_graph(7))
    edges = list(c7bar.edges()) + [(7, i) for i in range(7)] + [(8, 7)]
    g = from_edge_list(9, edges)
    assert any("distance two" in v for v in check_antihole_lemma(g))


@pytest.mark.parametrize("n, extra, text", [
    (8, [(7, 0)], "partially attached vertex 7 fits no antihole bucket"),
    (9, [(7, 1), (7, 3), (8, 7)], "a vertex sits at distance two from an odd antihole"),
    (9, [(7, 1), (7, 3), (8, 1), (8, 3), (7, 8)], "antihole bucket 1 is not independent"),
    (11, [(v, i) for v in range(7, 11) for i in range(7)] + [(8, 9), (8, 10), (9, 10)],
     "fully attached antihole neighbourhood induces K1uK3"),
])
def test_antihole_checker_names_each_failed_fact(n, extra, text):
    g = from_edge_list(n, list(complement(cycle_graph(7)).edges()) + extra)
    assert check_antihole_lemma(g) == [text]


def test_level_checker_fires_on_third_level():
    # a path hanging two deep off the hole populates level three
    g = c5_plus([0, 1, 2])
    edges = list(g.edges()) + [(6, 5), (7, 6)]
    g2 = from_edge_list(8, edges)
    dec = decompose_five_hole(g2, (0, 1, 2, 3, 4))
    assert dec.level(3)
    assert any("level three" in v for v in check_k23_level_lemma(g2, dec))
