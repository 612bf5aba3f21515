"""Sub-colourers, the three certified pipelines, and their certificates."""

import hashlib
import json

import pytest

from chibind import colorers, color_one, decode_graph6, invariants, structure
from chibind.colorers import (
    BOUNDS,
    classify_triangle_free,
    color_k1_union_k3_free,
    color_p5_k1_2k2,
    color_p5_k1_k1k3,
    color_p5_k23,
    color_sumner,
    color_wagon_2k2_free,
)
from chibind.errors import PreconditionError, StructureAssertionError
from chibind.graphs import (
    bits_of,
    complement,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    from_edge_list,
    is_clique_mask,
    is_connected,
    join,
    path_graph,
)
from chibind.invariants import chromatic_number, clique_number, is_proper_coloring
from chibind.patterns import is_free, is_perfect, pattern


def doubled_c5():
    edges = []
    for i in range(5):
        for a in (0, 1):
            for b in (0, 1):
                edges.append((2 * i + a, 2 * ((i + 1) % 5) + b))
    return from_edge_list(10, edges)


def test_sumner_examples():
    assert color_sumner(cycle_graph(5))[0].used() == 3
    assert color_sumner(cycle_graph(6))[0].used() == 2
    g = doubled_c5()
    col, _ = color_sumner(g)
    assert col.used() == 3 and is_proper_coloring(g, col)
    assert chromatic_number(g)[0] == 3
    assert color_sumner(empty_graph(4))[0].used() == 1
    assert color_sumner(empty_graph(0))[0].k == 0


def test_sumner_structure_proofs():
    shapes = classify_triangle_free(doubled_c5())
    assert shapes[0][0] == "blown-up-five-hole"
    classes = shapes[0][1]
    assert sorted(len(c) for c in classes) == [2, 2, 2, 2, 2]
    shapes = classify_triangle_free(disjoint_union(cycle_graph(6), cycle_graph(5)))
    assert [kind for kind, _ in shapes] == ["bipartite", "blown-up-five-hole"]


def test_sumner_two_colors_iff_bipartite():
    for g in (path_graph(5), cycle_graph(6), empty_graph(3)):
        assert color_sumner(g)[0].used() <= 2
    for g in (cycle_graph(5), doubled_c5()):
        assert color_sumner(g)[0].used() == 3


def test_sumner_rejects_triangles():
    with pytest.raises(PreconditionError):
        color_sumner(complete_graph(3))


def c5_with(n, extra):
    """The five-cycle 0..4 on ``n`` vertices, plus the ``extra`` edges."""
    return from_edge_list(n, [(i, (i + 1) % 5) for i in range(5)] + extra)


# negative controls: hosts outside the class, each failing one step of the
# triangle-free structure proof
@pytest.mark.parametrize("g, text", [
    (cycle_graph(7), "non-bipartite triangle-free component has no five-hole"),
    (c5_with(6, [(5, 0)]), "vertex 5 does not fit the five-hole blow-up"),
    (c5_with(7, [(5, 1), (5, 4), (6, 1), (6, 4), (5, 6)]), "blow-up class 0 is not independent"),
    (c5_with(7, [(5, 1), (5, 4), (6, 0), (6, 2)]),
     "blow-up class 0 not complete to its successor"),
    (c5_with(7, [(5, 1), (5, 4), (6, 1), (6, 3), (5, 6)]),
     "blow-up class 0 not anticomplete to distance two"),
])
def test_sumner_structure_proof_failures_are_named(g, text, monkeypatch):
    with pytest.raises(PreconditionError) as exc:
        color_sumner(g)
    assert str(exc.value) == "input induces P5 or K3"
    # past a freeness test that passes anything, the failed step is named
    monkeypatch.setattr(colorers, "is_free", lambda host, pats: True)
    with pytest.raises(StructureAssertionError) as exc:
        color_sumner(g)
    assert str(exc.value) == text


def test_k1uk3_colorer_examples():
    col, _ = color_k1_union_k3_free(complete_graph(3))
    assert col.used() == 3  # bound 3*3-3 = 6
    col, _ = color_k1_union_k3_free(complete_graph(2))
    assert col.used() == 2  # bound 3
    col, _ = color_k1_union_k3_free(empty_graph(3))
    assert col.used() == 1
    g = join(complete_graph(1), cycle_graph(5))
    if is_free(g, ["P5", "K1uK3"]):
        col, _ = color_k1_union_k3_free(g)
        assert is_proper_coloring(g, col)
        assert col.used() <= 3 * clique_number(g) - 3


def test_k1uk3_rejects_outside_class():
    with pytest.raises(PreconditionError):
        color_k1_union_k3_free(disjoint_union(complete_graph(1), complete_graph(3)))


def test_wagon_examples():
    col, _ = color_wagon_2k2_free(cycle_graph(5))
    assert col.used() <= 3 and is_proper_coloring(cycle_graph(5), col)
    k23 = pattern("K2,3").graph
    col, _ = color_wagon_2k2_free(k23)
    assert col.used() <= 3 and is_proper_coloring(k23, col)
    assert color_wagon_2k2_free(empty_graph(0))[0].k == 0
    assert color_wagon_2k2_free(empty_graph(4))[0].used() == 1
    with pytest.raises(PreconditionError):
        color_wagon_2k2_free(pattern("2K2").graph)


def test_wagon_exhaustive_small(two_k2_free_8):
    for g in two_k2_free_8:
        if g.n > 6:
            continue
        w = clique_number(g)
        col, _ = color_wagon_2k2_free(g)
        assert is_proper_coloring(g, col)
        assert col.used() <= (w * w + w) // 2


def test_p5k23_pipeline_sharp_at_c5():
    c5 = cycle_graph(5)
    col, cert = color_p5_k23(c5)
    assert is_proper_coloring(c5, col)
    assert cert.omega == 2 and cert.bound_value == 3 and cert.colors_used == 3
    assert chromatic_number(c5)[0] == 3


def test_p5k23_pipeline_perfect_inputs_use_omega():
    for g in (complete_graph(4), path_graph(4), join(empty_graph(2), complete_graph(2))):
        if clique_number(g) < 2:
            continue
        col, cert = color_p5_k23(g)
        assert is_perfect(g)
        assert cert.colors_used == clique_number(g) <= cert.bound_value


def test_p5k23_overshoot_is_an_assertion(monkeypatch):
    def wasteful_leaf(h, hole, antiholes):
        return {v: v for v in range(h.n)}, [("one-colour-per-vertex", (1 << h.n) - 1)]

    monkeypatch.setattr(colorers, "_p5k23_leaf", wasteful_leaf)
    with pytest.raises(StructureAssertionError, match="above its bound 3"):
        color_p5_k23(cycle_graph(5))


def test_p5k23_pipeline_preconditions():
    with pytest.raises(PreconditionError):
        color_p5_k23(path_graph(5))
    with pytest.raises(PreconditionError):
        color_p5_k23(empty_graph(3))


def test_p5k23_pipeline_handles_cutsets_and_components():
    bowtie = from_edge_list(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    if is_free(bowtie, ["P5", "K2,3"]):
        col, cert = color_p5_k23(bowtie)
        assert is_proper_coloring(bowtie, col)
        assert cert.colors_used == 3
        assert any(step.step == "clique-cutset-merge" for step in cert.pipeline_trace)
    two = disjoint_union(cycle_graph(5), complete_graph(3))
    col, cert = color_p5_k23(two)
    assert is_proper_coloring(two, col)
    assert cert.colors_used == 3  # shared palette across components


def test_p5k23_certificate_trace_covers_graph():
    g = from_edge_list(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 0), (5, 2)])
    col, cert = color_p5_k23(g)
    covered = 0
    for step in cert.pipeline_trace:
        covered |= step.vertices.mask
        for v in step.vertices:
            assert step.palette[0] <= col.colors[v] < step.palette[1]
    assert covered == (1 << g.n) - 1
    assert cert.bound_value == BOUNDS["p5-k23"](cert.omega)


def bad_pair_witness():
    """Cutset-free class member whose level two survives through a bad pair."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5, 0), (5, 1), (5, 3)]
    edges += [(6, 0), (6, 1), (6, 2), (6, 4)]
    edges += [(7, 5), (7, 6)]
    return from_edge_list(8, edges)


def full_clique_level2_witness():
    """Cutset-free member whose level-two component reaches the clique number."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5, i) for i in range(5)] + [(6, i) for i in range(5)]
    edges += [(7, 8), (8, 9), (7, 9), (5, 7), (5, 9), (6, 8)]
    return from_edge_list(10, edges)


def test_p5k23_pipeline_level_two_reuse():
    from chibind.structure import decompose_five_hole, find_clique_cutset, find_five_hole

    for g, expected_level2 in ((bad_pair_witness(), [7]),
                               (full_clique_level2_witness(), [7, 8, 9])):
        assert is_free(g, ["P5", "K2,3"])
        assert find_clique_cutset(g) is None
        dec = decompose_five_hole(g, find_five_hole(g))
        assert list(bits_of(dec.level(2))) == expected_level2
        col, cert = color_p5_k23(g)
        assert is_proper_coloring(g, col)
        assert chromatic_number(g)[0] <= cert.colors_used <= cert.bound_value
        assert any(s.step == "level-two-reuse" for s in cert.pipeline_trace)


def test_checkers_on_level_two_witnesses():
    from chibind.structure import (
        check_k23_hole_lemma,
        check_k23_level_lemma,
        decompose_five_hole,
        find_all_five_holes,
    )

    for g in (bad_pair_witness(), full_clique_level2_witness()):
        for hole in find_all_five_holes(g):
            dec = decompose_five_hole(g, hole)
            assert check_k23_hole_lemma(g, dec) == []
            assert check_k23_level_lemma(g, dec) == []


def test_p5_k1_2k2_pipeline_examples():
    c5 = cycle_graph(5)
    col, cert = color_p5_k1_2k2(c5)
    assert is_proper_coloring(c5, col)
    assert cert.colors_used == 3 and cert.bound_value == 3
    for n in (2, 3, 5):
        kn = complete_graph(n)
        col, cert = color_p5_k1_2k2(kn)
        assert cert.colors_used == n <= cert.bound_value == BOUNDS["p5-k1-2k2"](n)


def test_p5_k1_2k2_pipeline_preconditions():
    with pytest.raises(PreconditionError):
        color_p5_k1_2k2(disjoint_union(complete_graph(2), complete_graph(2)))
    with pytest.raises(PreconditionError):
        color_p5_k1_2k2(empty_graph(1))


def test_p5_k1_k1k3_pipeline_examples():
    c5 = cycle_graph(5)
    col, cert = color_p5_k1_k1k3(c5)
    assert is_proper_coloring(c5, col)
    assert cert.colors_used == 3 and cert.bound_value == 17
    c7bar = complement(cycle_graph(7))
    assert is_free(c7bar, ["P5", "K1+(K1uK3)"])
    col, cert = color_p5_k1_k1k3(c7bar)
    assert is_proper_coloring(c7bar, col)
    assert cert.colors_used == 4 and cert.bound_value == BOUNDS["p5-k1-k1uk3"](3)
    assert chromatic_number(c7bar)[0] == 4


def test_pipelines_exhaustive_to_seven(p5_k23_free_9, p5_k1_2k2_free_9, p5_k1_k1uk3_free_9):
    for g in p5_k23_free_9:
        if g.n > 7 or clique_number(g) < 2:
            continue
        chi = chromatic_number(g)[0]
        bound = BOUNDS["p5-k23"](clique_number(g))
        assert chi <= bound
        if is_connected(g):
            col, cert = color_p5_k23(g)
            assert is_proper_coloring(g, col)
            assert chi <= cert.colors_used <= bound
    for g in p5_k1_2k2_free_9:
        if g.n > 7 or clique_number(g) < 2 or not is_connected(g):
            continue
        col, cert = color_p5_k1_2k2(g)
        assert is_proper_coloring(g, col)
        assert cert.colors_used <= cert.bound_value
    for g in p5_k1_k1uk3_free_9:
        if g.n > 7 or not is_connected(g):
            continue
        col, cert = color_p5_k1_k1k3(g)
        assert is_proper_coloring(g, col)
        assert cert.colors_used <= cert.bound_value


def test_k1uk3_exhaustive_to_seven(p5_k1uk3_free_9):
    for g in p5_k1uk3_free_9:
        if g.n > 7 or g.edge_count() == 0:
            continue
        col, _ = color_k1_union_k3_free(g)
        assert is_proper_coloring(g, col)
        assert col.used() <= 3 * clique_number(g) - 3


def test_sumner_exhaustive_to_seven(p5_k3_free_9):
    for g in p5_k3_free_9:
        if g.n > 7:
            continue
        col, _ = color_sumner(g)
        assert is_proper_coloring(g, col)
        assert col.used() <= 3
        bipartite = all(kind == "bipartite" for kind, _ in classify_triangle_free(g))
        assert (col.used() <= 2) == bipartite


# branch witnesses past the exhaustive pins at n <= 7: the only graph at n = 10
# whose p5-k1-k1uk3 trace holds level-three-reuse, a p5-k23 member at n = 10
# whose trace holds level-two-reuse, and the least members (both at n = 8)
# whose p5-k1-k1uk3 antihole traces hold full-attachment and a bucket; the
# digests are of the sorted-key JSON payloads
BRANCH_WITNESSES_PAST_SEVEN = {
    ("Io?Ggp~^o", "p5-k1-k1uk3"): (
        10, "645122ec64d9cad965fceb50f88574fd3ee7c54bc3635f8979c12bf0e8d6b6b1",
        ["all-five-class"] + [f"distance-two-class-{i}" for i in range(1, 6)]
        + [f"independent-union-{i}" for i in range(1, 6)]
        + ["level-two-reuse", "level-three-reuse", "hole-reuse"]),
    ("I@dlI|^{w", "p5-k23"): (
        10, "ecdfb576ca885e6e265f99446858e9b476fb658756eae4086323362ea6cd2ec0",
        ["triple-classes-a", "triple-classes-b", "triple-classes-c", "all-five-class"]
        + [f"clique-group-{i}" for i in range(1, 6)] + ["hole-reuse", "level-two-reuse"]),
    ("GLvnf{", "p5-k1-k1uk3"): (
        8, "8e4ba7ebcba4d6eaa9f0f0fa5b6612894bcdda0713845d497923f2783de6f606",
        ["antihole-exact", "full-attachment"]),
    ("G@Vnno", "p5-k1-k1uk3"): (
        8, "ef99a768ddbbb06f0cc255aa21e26f82d307552b94026978840334febbb084d0",
        ["antihole-exact", "antihole-bucket-3"]),
}


@pytest.mark.parametrize("g6, pipeline", sorted(BRANCH_WITNESSES_PAST_SEVEN))
def test_branch_witnesses_past_seven_are_pinned(g6, pipeline):
    n, digest, steps = BRANCH_WITNESSES_PAST_SEVEN[g6, pipeline]
    payload = color_one(decode_graph6(g6), pipeline)
    assert payload["n"] == n
    assert [s["step"] for s in payload["trace"]] == steps
    assert hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest() == digest


# the least class members, by vertex count then graph6 text, whose traces hold
# a branch that the pins at n <= 7 cover only inside their digests
NAMED_BRANCH_WITNESSES = [
    ("DLo", "p5-k23", "triangle-free"),
    ("FLvn_", "p5-k23", "divisible"),
    ("A_", "p5-k1-2k2", "dominating-vertex"),
    ("E@UW", "p5-k1-2k2", "independent-leftover"),
    ("DLo", "p5-k1-2k2", "dominator-neighborhood-3"),
]


@pytest.mark.parametrize("g6, pipeline, step", NAMED_BRANCH_WITNESSES)
def test_named_branches_are_hit(g6, pipeline, step):
    assert step in [s["step"] for s in color_one(decode_graph6(g6), pipeline)["trace"]]


# SHA-256 over every graph with n <= 7 of the sorted-key JSON payload, or the
# PreconditionError text, one line each: the "input induces P at vertices
# [...]" witnesses of rejected inputs are pinned with the colourings
OUTPUTS_TO_SEVEN = {
    "p5-k23": "2f4adc63d9ed6dc31ca4fbaf4682a606cb48da1ae35fd5b256e00a4bca9f2893",
    "p5-k1-2k2": "d773afb292c5e95abd01829cb5371fafd1c7aa6d539dd041fb516329d2ab26f1",
    "p5-k1-k1uk3": "f12798027c438eec05cb8f908fd45f023e9354528b50e837858664557bb77a17",
}


@pytest.mark.parametrize("pipeline", sorted(OUTPUTS_TO_SEVEN))
def test_outputs_and_rejection_texts_to_seven_are_pinned(pipeline, all_graphs_7):
    h = hashlib.sha256()
    rejected = 0
    for g in all_graphs_7:
        try:
            out = json.dumps(color_one(g, pipeline), sort_keys=True)
        except PreconditionError as exc:
            out = str(exc)
            rejected += out.startswith("input induces ")
        h.update(out.encode() + b"\n")
    assert rejected >= 400
    assert h.hexdigest() == OUTPUTS_TO_SEVEN[pipeline]


def test_clique_atoms_are_coloured_as_either_leaf_colours_them(monkeypatch, all_graphs_8):
    # every cutset-free piece that is a clique, of every graph with n <= 8,
    # coloured in place and by the dispatch on its induced copy with each leaf;
    # the graphs are not all P5-free, so the split runs with a stub dispatch
    split = colorers._color_with_cutsets
    dispatch = colorers._leaf_on_copy
    atoms = []

    def recording(g, mask, seps, leaf):
        if is_clique_mask(g.adj, mask):
            atoms.append((g, mask))
        return split(g, mask, seps, leaf)

    def stub_dispatch(g, mask, leaf):
        return {v: i for i, v in enumerate(bits_of(mask))}, []

    monkeypatch.setattr(colorers, "_color_with_cutsets", recording)
    monkeypatch.setattr(colorers, "_leaf_on_copy", stub_dispatch)
    compared = 0
    for g in all_graphs_8:
        atoms.clear()
        colorers._components_shared_palette(g, colorers._p5k23_leaf)
        for host, mask in atoms:
            in_place = split(host, mask, [], colorers._p5k23_leaf)
            assert in_place[1] == [("perfect-exact", mask)]
            for leaf in (colorers._p5k23_leaf, colorers._p5k1k1k3_leaf):
                assert dispatch(host, mask, leaf) == in_place, (g.adj, mask)
            compared += 1
    assert compared == 26406


def test_each_piece_is_searched_once_for_each_structure(monkeypatch, p5_k23_free_9,
                                                         p5_k1_k1uk3_free_9):
    # the dispatch searches a copy once for a five-hole and, only when it
    # finds none, once for big odd antiholes
    hole_found = {}
    antiholes_searched = set()
    copies = []

    def five_hole(h, _search=colorers.find_five_hole):
        assert id(h) not in hole_found
        copies.append(h)
        hole = _search(h)
        hole_found[id(h)] = hole is not None
        return hole

    def antiholes(h, _search=colorers.find_all_odd_antiholes):
        assert hole_found.get(id(h)) is False and id(h) not in antiholes_searched
        antiholes_searched.add(id(h))
        return _search(h)

    monkeypatch.setattr(colorers, "find_five_hole", five_hole)
    monkeypatch.setattr(colorers, "find_all_odd_antiholes", antiholes)
    searched = 0
    for graphs, colorer in ((p5_k23_free_9, color_p5_k23), (p5_k1_k1uk3_free_9, color_p5_k1_k1k3)):
        for g in graphs:
            if g.n > 8:
                continue
            try:
                colorer(g)
            except PreconditionError:
                assert clique_number(g) < 2
            searched += len(copies)
            # the copies are kept alive until here, so no id is reused within a colouring
            hole_found.clear()
            antiholes_searched.clear()
            copies.clear()
    assert searched == 3971


@pytest.mark.parametrize("colorer", [
    color_p5_k23, color_p5_k1_2k2, color_p5_k1_k1k3,
    color_wagon_2k2_free, color_k1_union_k3_free, color_sumner])
def test_a_non_member_passed_as_a_member_is_never_miscoloured(colorer, all_graphs_7,
                                                            monkeypatch):
    """Past a freeness precondition that passes anything, on every graph with
    n <= 7, members or not, the colourer returns a proper colouring, fails
    an assertion, or rejects a connectivity or clique-number precondition,
    which it still checks."""
    monkeypatch.setattr(colorers, "_require_free", lambda host, pats: None)
    monkeypatch.setattr(colorers, "is_free", lambda host, pats: True)
    outcomes = set()
    for g in all_graphs_7:
        try:
            coloring, _ = colorer(g)
        except StructureAssertionError:
            outcomes.add("assertion")
            continue
        except PreconditionError as exc:
            assert not str(exc).startswith("input induces"), exc
            outcomes.add("precondition")
            continue
        assert is_proper_coloring(g, coloring)
        outcomes.add("coloured")
    assert {"coloured", "assertion"} <= outcomes


@pytest.mark.parametrize("pipeline, free_of", [
    (color_p5_k23, ["P5", "K2,3"]),
    (color_p5_k1_2k2, ["P5", "K1+2K2"]),
    (color_p5_k1_k1k3, ["P5", "K1+(K1uK3)"]),
])
def test_pipelines_measure_the_host_clique_number_once(pipeline, free_of, monkeypatch):
    """Each pipeline searches the clique number of the whole host once; every
    later reader, a leaf that is the whole host included, shares it."""
    searched = []
    search = invariants.clique_number_mask

    def counting(adj, sub):
        if sub == (1 << len(adj)) - 1:
            searched.append(adj)
        return search(adj, sub)

    for module in (invariants, structure, colorers):
        monkeypatch.setattr(module, "clique_number_mask", counting)
    members = [g for g in map(decode_graph6, ("Ehfw", "FUzro", "GLvnf{", "I@dlI|^{w", "Io?Ggp~^o"))
               if is_free(g, free_of)]
    assert len(members) >= 4
    for g in members:
        pipeline(g)
        assert sum(adj is g.adj for adj in searched) == 1


def test_an_antihole_leaf_splits_its_neighbourhood_once(monkeypatch):
    """The lemma check and the colouring of an antihole leaf read one split."""
    splits = []
    split = structure.antihole_neighborhood_split

    def counting(g, order):
        splits.append(order)
        return split(g, order)

    # colorers holds no name for the split unless it splits on its own
    for module in (structure, colorers):
        monkeypatch.setattr(module, "antihole_neighborhood_split", counting, raising=False)
    for text in ("GLvnf{", "G@Vnno", "FUzro"):
        splits.clear()
        steps = [s["step"] for s in color_one(decode_graph6(text), "p5-k1-k1uk3")["trace"]]
        assert len(splits) == steps.count("antihole-exact") >= 1, text
