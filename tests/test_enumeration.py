"""Generation, canonical forms and graph6 interchange."""

import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from chibind import enumeration
from chibind.errors import PreconditionError
from chibind.graphs import (
    Graph,
    GraphError,
    complete_graph,
    cycle_graph,
    empty_graph,
    is_connected,
    path_graph,
)
from chibind import harness
from chibind.enumeration import (
    _canon,
    canonical_form,
    canonical_key,
    decode_graph6,
    encode_graph6,
    iter_graph6_file,
    representatives,
    write_graph6_file,
)
from chibind.patterns import is_free, pattern
from oracles import (
    decode_graph6_plain,
    graph_from_pair_mask,
    labeled_rejection_counts,
    seeded_random_graphs,
)


def test_counts_match_labeled_rejection_oracle():
    for n in range(1, 7):
        total, connected = labeled_rejection_counts(n)
        reps = representatives(n)
        assert len(reps) == total, n
        assert sum(1 for g in reps if is_connected(g)) == connected, n


def test_connected_counts_are_the_published_ones():
    expected = {4: 6, 5: 21, 6: 112}
    for n, want in expected.items():
        got = sum(1 for g in representatives(n) if is_connected(g))
        assert got == want


def test_total_counts_at_seven_and_eight(all_graphs_8):
    # published unlabeled-graph counts
    assert len(representatives(7)) == 1044
    assert sum(1 for g in all_graphs_8 if g.n == 8) == 12346


def test_canonical_key_exhaustive_at_five():
    # every relabelling of every five-vertex graph maps to one key
    for g in representatives(5):
        want = canonical_key(g)
        for perm in itertools.permutations(range(5)):
            rows = [0] * 5
            for u, v in g.edges():
                rows[perm[u]] |= 1 << perm[v]
                rows[perm[v]] |= 1 << perm[u]
            assert canonical_key(Graph(5, tuple(rows))) == want


def test_representatives_are_pairwise_distinct():
    reps = representatives(6)
    keys = [canonical_key(g) for g in reps]
    assert len(set(keys)) == len(keys)
    # already canonically labelled and sorted
    assert all(canonical_form(g) == g for g in reps)
    assert keys == sorted(keys)


@st.composite
def graph_and_permutation(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    mask = draw(st.integers(min_value=0, max_value=(1 << (n * (n - 1) // 2)) - 1))
    perm = draw(st.permutations(list(range(n))))
    return graph_from_pair_mask(n, mask), perm


@settings(max_examples=120, derandomize=True)
@given(graph_and_permutation())
def test_canonical_key_is_isomorphism_invariant(pair):
    g, perm = pair
    rows = [0] * g.n
    for u, v in g.edges():
        rows[perm[u]] |= 1 << perm[v]
        rows[perm[v]] |= 1 << perm[u]
    relabeled = Graph(g.n, tuple(rows))
    assert canonical_key(g) == canonical_key(relabeled)
    assert canonical_form(g) == canonical_form(relabeled)


def test_canonical_keys_separate_non_isomorphic():
    reps = representatives(5)
    keys = {canonical_key(g) for g in reps}
    assert len(keys) == 34


def test_graph6_hand_values():
    assert encode_graph6(complete_graph(1)) == "@"
    assert encode_graph6(complete_graph(2)) == "A_"
    assert encode_graph6(Graph(2, (0, 0))) == "A?"
    g = decode_graph6("A_")
    assert g.n == 2 and g.edge_count() == 1
    assert decode_graph6(">>graph6<<A_") == g


def test_graph6_round_trip_small(all_graphs_8):
    # the decoder skips the row checks, so each decoded graph is checked again
    for g in [Graph(0, ())] + all_graphs_8:
        back = decode_graph6(encode_graph6(g))
        assert back == g == Graph(back.n, back.adj)


def test_graph6_decoding_matches_the_pair_by_pair_oracle(all_graphs_7):
    graphs = [Graph(0, ())] + all_graphs_7 + seeded_random_graphs(31, range(8, 63), 2)
    for g in graphs:
        text = encode_graph6(g)
        assert decode_graph6(text) == decode_graph6_plain(text) == g
    # a set padding bit is ignored: C5 has 10 pair bits in two bytes
    text = encode_graph6(cycle_graph(5))
    padded = text[:-1] + chr(63 + ((ord(text[-1]) - 63) | 1))
    assert padded != text
    assert decode_graph6(padded) == decode_graph6_plain(padded) == cycle_graph(5)


def test_graph6_errors():
    for text, message in (
        ("", "empty graph6 string"),
        ("D", "graph6 payload has 0 bytes, expected 2"),  # truncated payload
        ("~??", r"long-form graph6 \(more than 62 vertices\) is not supported"),
        ("=", "graph6 header byte 61 outside the short-form range"),
        ("A" + chr(20), "graph6 payload byte 20 out of range"),
        ("Aé", "graph6 input must be ASCII"),
    ):
        with pytest.raises(GraphError, match=f"^{message}$"):
            decode_graph6(text)


def test_graph6_file_round_trip(tmp_path):
    graphs = representatives(5)
    path = tmp_path / "five.g6"
    count = write_graph6_file(str(path), graphs)
    assert count == 34
    back = list(iter_graph6_file(str(path)))
    assert back == graphs


def test_generated_stream_filters():
    members = [g for g in representatives(5, ["P5", "K3"]) if is_connected(g)]
    keys = {canonical_key(g) for g in members}
    assert canonical_key(cycle_graph(5)) in keys
    assert canonical_key(path_graph(5)) not in keys
    assert all(is_free(g, ["P5", "K3"]) and is_connected(g) for g in members)


def test_empty_filter_is_identity():
    plain = representatives(4)
    filtered = representatives(4, [])
    assert plain == filtered and len(plain) == 11


def test_hereditary_fusion_equals_post_filtering():
    fused = representatives(6, (complete_graph(3),))
    post = [g for g in representatives(6) if is_free(g, ["K3"])]
    assert [canonical_key(g) for g in fused] == [canonical_key(g) for g in post]


def test_class_member_counts_regression():
    # frozen on the first verified run of the generator
    expected = {1: 1, 2: 2, 3: 4, 4: 11, 5: 31, 6: 118, 7: 501}
    for n, want in expected.items():
        got = len(representatives(n, free_of=["P5", "C5", "K2,3"]))
        assert got == want, (n, got)


def test_omega_filters():
    from chibind.invariants import clique_number

    members = list(harness._admitted(harness.TARGETS["theorem-1.2"], 6, None, False))
    assert members and all(clique_number(g) >= 2 for g in members)
    assert len(members) < sum(len(representatives(n, ["P5", "K2,3"])) for n in range(1, 7))


def test_generation_cap():
    with pytest.raises(PreconditionError, match="at most 10 vertices"):
        representatives(11)
    with pytest.raises(PreconditionError, match="at most 10 vertices"):
        representatives(11, ["P5", "K3"])


@pytest.mark.parametrize("n", [-1, -3])
def test_negative_size_is_rejected(n):
    with pytest.raises(PreconditionError, match="negative"):
        representatives(n)
    with pytest.raises(PreconditionError, match="negative"):
        representatives(n, ["P5"])


@pytest.mark.parametrize("n", [3.5, 3.0, True, "3"])
def test_non_int_size_is_rejected(n):
    with pytest.raises(PreconditionError, match="vertex count must be an int"):
        representatives(n)
    with pytest.raises(PreconditionError, match="vertex count must be an int"):
        representatives(n, ["P5"])


def _sub_orbits(n: int, perms) -> list[frozenset[int]]:
    """Orbits of vertex subsets under the group generated by ``perms``."""
    seen: set[int] = set()
    orbits = []
    for sub in range(1 << n):
        if sub in seen:
            continue
        orbit = {sub}
        stack = [sub]
        while stack:
            s = stack.pop()
            for p in perms:
                t = sum(1 << p[v] for v in range(n) if s >> v & 1)
                if t not in orbit:
                    orbit.add(t)
                    stack.append(t)
        seen |= orbit
        orbits.append(frozenset(orbit))
    return sorted(orbits, key=min)


def test_canon_generators_are_automorphisms_generating_the_group():
    for n in range(1, 7):
        for g in representatives(n):
            gens = _canon(n, g.adj)[2]
            edges = set(g.edges())
            for gen in gens:
                assert sorted(gen) == list(range(n))
                assert {tuple(sorted((gen[u], gen[v]))) for u, v in edges} == edges, (g.adj, gen)
            auts = [p for p in itertools.permutations(range(n))
                    if all(g.adj[p[v]] == sum(1 << p[u] for u in range(n) if g.adj[v] >> u & 1)
                           for v in range(n))]
            assert _sub_orbits(n, gens) == _sub_orbits(n, auts), g.adj


# tracked fixture files in tests/_cache, by class, as conftest names them
CACHED_CLASSES = {
    "all": (), "2K2": ("2K2",), "3K1": ("3K1",), "P5": ("P5",),
    "P5-C5-K23": ("P5", "C5", "K2,3"), "P5-K1p2K2": ("P5", "K1+2K2"),
    "P5-K1pK1uK3": ("P5", "K1+(K1uK3)"), "P5-K1uK3": ("P5", "K1uK3"),
    "P5-K23": ("P5", "K2,3"), "P5-K3": ("P5", "K3"),
}


@pytest.mark.parametrize("key", sorted(CACHED_CLASSES))
def test_cold_generation_equals_tracked_files(key, monkeypatch):
    monkeypatch.setattr(enumeration, "_GEN_CACHE", {})
    free = tuple(empty_graph(3) if name == "3K1" else pattern(name).graph
                 for name in CACHED_CLASSES[key])
    cache = Path(__file__).parent / "_cache"
    for n in range(1, 9):
        text = "".join(encode_graph6(g) + "\n" for g in representatives(n, free))
        assert text == (cache / f"v1-{key}-{n}.g6").read_text(encoding="ascii"), (key, n)


def test_generation_canonicalises_only_children_with_a_maximum_degree_new_vertex(monkeypatch):
    monkeypatch.setattr(enumeration, "_GEN_CACHE", {})
    free = (pattern("P5").graph, pattern("K2,3").graph)
    calls = []
    canon = enumeration._canon

    def recording(n, adj):
        calls.append(adj)
        return canon(n, adj)

    monkeypatch.setattr(enumeration, "_canon", recording)
    representatives(8, free)
    # the patterns are canonicalised for the cache key; the parents are
    # canonical forms, which refinement ends with a vertex of maximum degree,
    # except the empty parent of n = 1, which has no vertex
    patterns = {pg.adj for pg in free}
    children = [adj for adj in calls if adj and adj not in patterns]
    assert max(map(len, children)) == 8
    for adj in children:
        assert adj[-1].bit_count() == max(row.bit_count() for row in adj), adj


def test_unknown_pattern_name_fails_fast():
    with pytest.raises(KeyError, match="nosuch"):
        representatives(4, ["P5", "nosuch"])


@settings(max_examples=30, derandomize=True)
@given(st.integers(min_value=0, max_value=(1 << 15) - 1))
def test_round_trip_random_six_vertex(mask):
    g = graph_from_pair_mask(6, mask)
    assert decode_graph6(encode_graph6(g)) == g
