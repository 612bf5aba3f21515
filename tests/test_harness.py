"""Verification targets, report determinism, and the CLI surface."""

import ast
import dataclasses
import functools
import hashlib
import importlib.util
import itertools
import json
import re
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

import chibind
from chibind import colorers, enumeration, harness, invariants, patterns, structure
from chibind.cli import main
from chibind.enumeration import decode_graph6, encode_graph6, representatives, write_graph6_file
from chibind.errors import PreconditionError, SearchExhaustedError, StructureAssertionError
from chibind.graphs import (
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
    is_connected,
    path_graph,
)
from chibind.harness import COLORERS, TARGETS, analyze_one, color_one, verify
from chibind.invariants import Coloring, chromatic_number, clique_number, cliques
from chibind.patterns import _as_graph, is_free, pattern
from test_invariants import grotzsch
from test_structure import _grown_pipeline_members


def test_target_registry_is_complete():
    expected = {
        "theorem-1.1", "theorem-1.2", "theorem-1.3", "theorem-1.4",
        "lemma-2.2", "lemma-2.4", "lemma-3.1", "lemma-4.1", "lemma-4.2",
        "lemma-5.1", "lemma-5.2", "lemma-6.1", "lemma-6.2", "lemma-6.3",
        "lemma-6.4", "lemma-6.5", "observation-2.1",
    }
    assert set(TARGETS) == expected


def test_verify_observation():
    report = verify("observation-2.1")
    assert report.graphs_checked == 3
    assert report.violations == []
    bigger = verify("observation-2.1", n_max=13)
    assert bigger.graphs_checked == 5 and bigger.violations == []
    with pytest.raises(PreconditionError):
        verify("observation-2.1", n_max=23)


def test_verify_small_targets():
    report = verify("lemma-5.2", n_max=5)
    assert report.graphs_checked > 0 and report.violations == []
    report = verify("theorem-1.1", n_max=5)
    assert report.violations == []
    report = verify("lemma-5.1", n_max=5)
    assert report.violations == []


def test_verify_unknown_target_and_caps():
    with pytest.raises(KeyError):
        verify("lemma-9.9")
    with pytest.raises(PreconditionError):
        verify("theorem-1.2", n_max=11)


def test_verify_json_is_byte_stable_across_runs():
    a = verify("lemma-5.2", n_max=5).to_json()
    b = verify("lemma-5.2", n_max=5).to_json()
    assert a == b
    payload = json.loads(a)
    assert set(payload) == {"target", "params", "counts", "violations", "extremes"}
    timed = verify("lemma-5.2", n_max=5).to_json(include_timing=True)
    assert "seconds" in json.loads(timed)


def test_verify_json_cold_cache_equals_warm(monkeypatch):
    monkeypatch.setattr(enumeration, "_GEN_CACHE", {})
    cold = verify("theorem-1.3", n_max=6).to_json()
    assert enumeration._GEN_CACHE
    warm = verify("theorem-1.3", n_max=6).to_json()
    assert cold == warm


def test_verify_from_file(tmp_path):
    path = tmp_path / "in.g6"
    graphs = [cycle_graph(5), complete_graph(4), from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4)])]
    write_graph6_file(str(path), graphs)
    report = verify("lemma-5.2", n_max=8, source=str(path))
    # the path on five vertices induces 2K2 and is filtered out
    assert report.graphs_checked == 2
    assert report.violations == []
    assert report.params["source"] == str(path)
    from_path = verify("lemma-5.2", n_max=8, source=path)
    assert from_path.params["source"] == str(path)
    assert from_path.to_json() == report.to_json()


@pytest.mark.parametrize("n_max", ["3", 3.5, True])
def test_verify_rejects_a_non_int_cap(n_max):
    with pytest.raises(PreconditionError, match="n_max must be an int"):
        verify("lemma-5.2", n_max=n_max)


@pytest.mark.parametrize("flag, value", [
    ("connected", "no"), ("connected", 1), ("keep_rows", "yes"), ("keep_rows", None)])
def test_verify_rejects_a_non_bool_flag(flag, value):
    with pytest.raises(PreconditionError, match=f"{flag} must be a bool"):
        verify("lemma-5.2", n_max=4, **{flag: value})


@pytest.mark.parametrize("source", [123, 0, b"in.g6"])
def test_verify_rejects_a_source_that_is_not_a_path(source):
    with pytest.raises(PreconditionError, match="source must be"):
        verify("lemma-5.2", n_max=4, source=source)


@pytest.mark.parametrize("g", [None, "G", "Ehfw", 5, [0, 1]])
def test_single_graph_entry_points_reject_a_non_graph(g):
    with pytest.raises(PreconditionError, match="expected a Graph"):
        color_one(g, "p5-k23")
    with pytest.raises(PreconditionError, match="expected a Graph"):
        analyze_one(g)


@pytest.mark.parametrize("call, error, match", [
    (lambda: patterns.find_induced(5, "P5"), PreconditionError, "Graph for host"),
    (lambda: is_free("x", ["P5"]), PreconditionError, "Graph for host"),
    (lambda: clique_number(5), PreconditionError, "Graph for g"),
    (lambda: invariants.chromatic_number(5), PreconditionError, "Graph for g"),
    (lambda: colorers.color_sumner(5), PreconditionError, "Graph for g"),
    (lambda: colorers.color_k1_union_k3_free(5), PreconditionError, "Graph for g"),
    (lambda: colorers.color_wagon_2k2_free(5), PreconditionError, "Graph for g"),
    (lambda: colorers.color_divisible(None), PreconditionError, "Graph for g"),
    (lambda: colorers.color_p5_k23(5), PreconditionError, "Graph for g"),
    (lambda: colorers.color_p5_k1_2k2(5), PreconditionError, "Graph for g"),
    (lambda: colorers.color_p5_k1_k1k3(5), PreconditionError, "Graph for g"),
    (lambda: is_free(cycle_graph(5), None), PreconditionError, "patterns for patterns"),
    (lambda: is_free(cycle_graph(5), 5), PreconditionError, "patterns for patterns"),
    (lambda: representatives(3, None), PreconditionError, "patterns for free_of"),
] + [(lambda f=f: f(5), PreconditionError, "Graph for g") for f in (
    chibind.find_odd_hole, chibind.find_odd_antihole, chibind.is_perfect, chibind.independence_number,
    chibind.is_perfectly_divisible, chibind.find_perfect_division,
    chibind.encode_graph6, chibind.canonical_form, chibind.canonical_key,
    chibind.find_clique_cutset, chibind.minimal_cutsets, chibind.find_homogeneous_set,
    chibind.find_five_hole, chibind.find_dominating_clique_or_p3,
    chibind.complement, chibind.is_connected, chibind.odd_antihole_not_two_cliques,
)] + [
    (lambda: chibind.induced(cycle_graph(5), 5), PreconditionError, "VertexSet for s"),
    (lambda: chibind.induced(5, VertexSet((1 << 5) - 1, 5)), PreconditionError, "Graph for g"),
    (lambda: chibind.is_clique(cycle_graph(5), 5), PreconditionError, "VertexSet for s"),
    (lambda: chibind.is_clique(5, VertexSet((1 << 5) - 1, 5)), PreconditionError, "Graph for g"),
    (lambda: chibind.VertexSet("a", 3), GraphError, "mask must be an int"),
    (lambda: chibind.VertexSet(1, "a"), GraphError, "n must be an int"),
    (lambda: chibind.VertexSet.of(5, 3), GraphError, "vertices must be iterable"),
    (lambda: chibind.VertexSet.of([1.5], 3), GraphError, r"vertex 1\.5 is not one of 0\.\.2"),
    (lambda: chibind.from_edge_list(3, 5), GraphError, "edges must be pairs"),
    (lambda: chibind.from_edge_list(3, [(0, 1, 2)]), GraphError, "edges must be pairs"),
    (lambda: chibind.from_edge_list(3, [("a", 1)]), GraphError, r"edge \('a',1\) has an endpoint"),
    (lambda: chibind.join(cycle_graph(5), 5), PreconditionError, "Graph for g2"),
    (lambda: chibind.disjoint_union(cycle_graph(5), 5), PreconditionError, "Graph for g2"),
    (lambda: chibind.is_proper_coloring(cycle_graph(5), 5), PreconditionError, "Coloring for coloring"),
    (lambda: chibind.is_proper_coloring(5, Coloring((0,), 1)), PreconditionError, "Graph for g"),
    (lambda: chibind.is_proper_coloring(cycle_graph(5), Coloring("abcde", 2)), PreconditionError,
     "coloring must hold int colours"),
    (lambda: chibind.decompose_five_hole(5, (0, 1, 2, 3, 4)), PreconditionError, "Graph for g"),
    (lambda: chibind.decompose_five_hole(cycle_graph(5), 5), PreconditionError, "five vertices for hole"),
], ids=["find_induced", "is_free-host", "clique_number", "chromatic_number", "color_sumner",
        "color_k1_union_k3_free", "color_wagon_2k2_free", "color_divisible", "color_p5_k23",
        "color_p5_k1_2k2", "color_p5_k1_k1k3", "is_free-None", "is_free-int", "representatives-None",
        "find_odd_hole", "find_odd_antihole", "is_perfect", "independence_number",
        "is_perfectly_divisible", "find_perfect_division", "encode_graph6", "canonical_form",
        "canonical_key", "find_clique_cutset", "minimal_cutsets", "find_homogeneous_set",
        "find_five_hole", "find_dominating_clique_or_p3", "complement", "is_connected",
        "odd_antihole_not_two_cliques", "induced-s", "induced-g", "is_clique-s", "is_clique-g",
        "VertexSet-mask", "VertexSet-n", "VertexSet.of-vertices", "VertexSet.of-float",
        "from_edge_list-int", "from_edge_list-triple", "from_edge_list-str", "join", "disjoint_union",
        "is_proper_coloring-coloring", "is_proper_coloring-g", "is_proper_coloring-str",
        "decompose_five_hole-g", "decompose_five_hole-hole"])
def test_public_entry_points_name_an_argument_of_the_wrong_type(call, error, match):
    with pytest.raises(error, match=match):
        call()


# the exports that nothing outside the tests calls, each with why it stays
EXPORTS_FOR_TESTS = {
    "is_perfect": "the perfection test that test_acceptance checks against the definition",
    "canonical_form": "the labelling that test_enumeration checks generation against",
}


_ROOT = Path(__file__).resolve().parents[1]
_INIT = _ROOT / "src" / "chibind" / "__init__.py"
_EXPORTED = [alias.asname or alias.name for node in ast.parse(_INIT.read_text()).body
             if isinstance(node, ast.ImportFrom) for alias in node.names]


def _read_outside_tests() -> set[str]:
    """The names that the package itself, ``benchmarks/`` and ``perfbench/``
    read: as a name, an attribute or a string naming it, anywhere but in an
    import."""
    sources = [path for path in _INIT.parent.rglob("*.py") if path != _INIT]
    sources += [*(_ROOT / "benchmarks").rglob("*.py"), *(_ROOT / "perfbench").rglob("*.py")]
    read = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return read


def test_every_export_has_a_caller_outside_the_tests():
    """Each name ``chibind`` exports is read outside the tests."""
    read = _read_outside_tests()
    unread = [name for name in _EXPORTED if name not in read]
    assert sorted(unread) == sorted(EXPORTS_FOR_TESTS)


def test_every_member_of_an_exported_class_has_a_caller_outside_the_tests():
    """Each public method and property of a class that ``chibind`` exports
    is read outside the tests too; dataclass fields are data, not members."""
    read = _read_outside_tests()
    kinds = (types.FunctionType, classmethod, staticmethod, property, functools.cached_property)
    members = []
    for name in _EXPORTED:
        cls = getattr(chibind, name)
        if not isinstance(cls, type):
            continue
        fields = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
        members += [(name, key) for key, value in vars(cls).items()
                    if isinstance(value, kinds) and not key.startswith("_") and key not in fields]
    assert ("Graph", "edges") in members and ("BoundCertificate", "pipeline_trace") in members
    assert [f"{name}.{key}" for name, key in members if key not in read] == []


@pytest.mark.parametrize("pipeline", [["x"], None, 3, ("p5-k23",)])
def test_color_one_rejects_a_pipeline_that_is_not_a_str(pipeline):
    with pytest.raises(PreconditionError, match="pipeline must be a str"):
        color_one(cycle_graph(5), pipeline)


def test_verify_rows_for_csv():
    report = verify("lemma-5.2", n_max=4, keep_rows=True)
    assert report.rows and all("g6" in row for row in report.rows)
    csv = report.to_csv()
    assert csv.splitlines()[0].startswith("bound") or "g6" in csv.splitlines()[0]
    header = verify("theorem-1.2", n_max=5, keep_rows=True).to_csv().splitlines()[0]
    assert "colors_used" in header.split(",")
    assert "fallback" not in header.split(",")


def test_verify_report_does_not_depend_on_the_file_order(tmp_path):
    forward, backward = tmp_path / "forward.g6", tmp_path / "backward.g6"
    graphs = [g for n in range(1, 7) for g in representatives(n)]
    write_graph6_file(str(forward), graphs)
    write_graph6_file(str(backward), graphs[::-1])
    for target in ("lemma-5.2", "theorem-1.4"):
        a = verify(target, n_max=6, source=str(forward), keep_rows=True)
        b = verify(target, n_max=6, source=str(backward), keep_rows=True)
        assert a.extremes and a.to_csv() == b.to_csv()
        assert a.to_json() == b.to_json().replace(json.dumps(str(backward)),
                                                  json.dumps(str(forward)))


def test_file_reports_equal_generated_reports(tmp_path):
    """Over a file of every graph with n <= 6, each target checks exactly
    its generated universe: the file's lines pass the cap, admission and
    the class search in that order, and admission alone states the rest of
    the class (lemma-3.1's admits only connected graphs, as its cutset
    search needs)."""
    path = tmp_path / "all6.g6"
    write_graph6_file(str(path), [g for n in range(1, 7) for g in representatives(n)])
    for target in TARGETS:
        from_file = json.loads(verify(target, 6, source=str(path)).to_json())
        generated = json.loads(verify(target, 6).to_json())
        assert from_file["params"].pop("source") == str(path)
        assert generated["params"].pop("source") == "generated"
        assert from_file == generated, target


PERFBENCH_DATA = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "p5-k1pk1uk3-upto8.g6"


@pytest.mark.parametrize("target, source, cap, lines", [
    ("lemma-6.5", PERFBENCH_DATA, 8, 2777),
    ("lemma-2.2", None, 5, 52),
])
def test_file_lines_pay_the_class_search_only_once_admitted(target, source, cap, lines,
                                                            monkeypatch, tmp_path):
    """Admission runs once on each file line within the cap, and the class
    search runs once on each admitted line only."""
    if source is None:
        source = tmp_path / "all6.g6"
        write_graph6_file(str(source), [g for n in range(1, 7) for g in representatives(n)])
    admitted, searched = [], []
    entry, free = TARGETS[target], patterns.is_free

    def admit(g):
        ok = entry.admit(g)
        admitted.append((g, ok))
        return ok

    def searching(g, pats):
        searched.append(g)
        return free(g, pats)

    monkeypatch.setitem(TARGETS, target, dataclasses.replace(entry, admit=admit))
    for module in (patterns, enumeration, harness):
        if vars(module).get("is_free") is free:
            monkeypatch.setattr(module, "is_free", searching)
    report = verify(target, cap, source=str(source))
    assert len(admitted) == lines
    assert searched == [g for g, ok in admitted if ok]
    assert report.graphs_checked <= len(searched)
    if target == "lemma-6.5":
        assert report.graphs_checked == len(searched) == 6


def test_connected_flag_is_tested_before_admission(monkeypatch, tmp_path):
    """``connected=True`` drops a disconnected graph before its five-hole
    search, generated or read from a file."""
    path = tmp_path / "all6.g6"
    write_graph6_file(str(path), [g for n in range(1, 7) for g in representatives(n)])
    entry, seen = TARGETS["lemma-2.2"], []

    def admit(g):
        seen.append(g)
        return entry.admit(g)

    monkeypatch.setitem(TARGETS, "lemma-2.2", dataclasses.replace(entry, admit=admit))
    for source in (None, path):
        seen.clear()
        assert verify("lemma-2.2", 6, source=source, connected=True).graphs_checked
        assert seen and all(is_connected(g) for g in seen)


def test_verify_from_file_keeps_connected_filter(tmp_path):
    path = tmp_path / "all6.g6"
    write_graph6_file(str(path), [g for n in range(1, 7) for g in representatives(n)])
    from_file = verify("theorem-1.3", n_max=6, source=str(path))
    generated = verify("theorem-1.3", n_max=6)
    assert from_file.graphs_checked == generated.graphs_checked == 112


def test_color_one_pipelines():
    c5 = cycle_graph(5)
    payload = color_one(c5, "p5-k23")
    assert payload["colors_used"] == 3 and payload["bound"] == 3
    assert payload["trace"]
    payload = color_one(c5, "sumner")
    assert payload["colors_used"] == 3 and payload["bound"] == 3
    payload = color_one(c5, "wagon-2k2")
    assert payload["colors_used"] <= 3
    payload = color_one(c5, "divisible")
    assert payload["colors_used"] <= payload["bound"] == 3
    with pytest.raises(KeyError):
        color_one(c5, "nosuch")


def test_cli_verify_csv(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code = main(["verify", "--target", "lemma-5.2", "--n", "4", "--csv", str(out)])
    assert code == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert len(lines) > 1 and "g6" in lines[0]


def test_verify_connected_restriction():
    full = verify("lemma-5.2", n_max=5)
    conn = verify("lemma-5.2", n_max=5, connected=True)
    assert conn.graphs_checked < full.graphs_checked
    assert conn.violations == []
    assert "connected" in conn.params["filter"]


def test_analyze_one_fields():
    k23 = pattern("K2,3").graph
    profile = analyze_one(k23)
    assert profile["homogeneous_set"] == [0, 1]
    assert profile["omega"] == 2 and profile["alpha"] == 3 and profile["chi"] == 2
    assert profile["perfect"] is True
    assert profile["perfectly_divisible"] is True
    c7bar = complement(cycle_graph(7))
    profile = analyze_one(c7bar)
    assert profile["odd_antihole"] == list(range(7))
    assert profile["perfect"] is False


def test_cli_gen(capsys):
    code = main(["gen", "--n", "4", "--connected"])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0 and len(out) == 6


def test_cli_gen_with_filter(capsys):
    code = main(["gen", "--n", "5", "--connected", "--free", "P5,K3"])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0 and len(out) == 5


def test_cli_gen_negative_size_exits_two(capsys):
    code = main(["gen", "--n", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and captured.err.startswith("rejected:")


def test_cli_gen_empty_graph(capsys):
    code = main(["gen", "--n", "0"])
    assert code == 0
    assert capsys.readouterr().out == "?\n"


# SHA-256 of the stdout of `chibind gen ARGS`: every graph on up to six
# vertices, and two classes on seven, each with and without --connected
GEN_DIGESTS = {
    "--n=0":
        "ce773b87709a04bbcb0ead74fea94b1f20fa4a4d185fc06a24a9bc703dd99613",
    "--n=0 --connected":
        "ce773b87709a04bbcb0ead74fea94b1f20fa4a4d185fc06a24a9bc703dd99613",
    "--n=1":
        "ecf5de1a2ecc66a1876a832804c64f6b5125784e94c82285d9720621c613ab46",
    "--n=1 --connected":
        "ecf5de1a2ecc66a1876a832804c64f6b5125784e94c82285d9720621c613ab46",
    "--n=2":
        "b7cd2a004ade86133158ffa94292f1d79a1fa154874706bf33b9e841cd3fa4cb",
    "--n=2 --connected":
        "fae4bfc454bd04363dcd5222772f2973b1193e1ff6f676e822a427323a677ef9",
    "--n=3":
        "1d237c0da1c599bbd8f4cffdf1fd13171099276e9ca335a1e0c819e4be9b2bea",
    "--n=3 --connected":
        "5966edf890849db6cb03626431916231a81a30c9db9a4781a4a8f2e5dc7e6129",
    "--n=4":
        "4779a12d9a07b2a2e13924257ea8b573ba0bd3af65d263532115d2ee564e7762",
    "--n=4 --connected":
        "b0024cb6b9eb3ef85ae992cd8b602640c1806b2e8f7e7a2cf8c6d7ab7603aee5",
    "--n=5":
        "a861c3acbf0b8b8df1672307d598f8093c85f6422a413336f33b549d99f911f6",
    "--n=5 --connected":
        "fb159f892d623e6e5e588d8e1a5e734b4e110f4215a73bcab8da56b8a96cd1f2",
    "--n=6":
        "bde039cd7d5800da5135b58aab7f933fa017b9d0c2a27690ac6fefefec019202",
    "--n=6 --connected":
        "b7faba875ebc555f7a00e050c88e234b09a9c96e67c430ed1925ae2ec58f092e",
    "--n=7 --free=P5,K2,3":
        "14802a698f3fe3bd7b01bd7ec639e22ee98a10bb4e377ac1b8179325f8ec4995",
    "--n=7 --free=P5,K2,3 --connected":
        "1d99063a9394b7a26dc2f586088daa36a6ccf8e43c028be1f000e91c396c44e4",
    "--n=7 --free=P5,K1+(K1uK3)":
        "6284ef4579cdc69d186c55ca6d00f4daaf349643fa1cf7ca3e6e54eb25422b94",
    "--n=7 --free=P5,K1+(K1uK3) --connected":
        "59c27c39db2af8ed8a7a663f3175bf59b04cdd3c5925da748c60eae50d20ebc0",
}


@pytest.mark.parametrize("args", GEN_DIGESTS)
def test_cli_gen_output_is_pinned(args, capsys):
    assert main(["gen", *args.split()]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GEN_DIGESTS[args]


def test_cli_gen_names_a_bad_pattern_before_a_bad_size(capsys):
    assert main(["gen", "--n", "11", "--free", "X"]) == 2
    assert capsys.readouterr().err == "rejected: \"unknown pattern 'X'\"\n"


def test_every_target_checks_the_null_graph_and_k1(tmp_path, capsys):
    """The null graph is connected and has the empty clique as its
    dominating clique, so no target reports it."""
    path = tmp_path / "tiny.g6"
    path.write_text("?\n@\n", encoding="ascii")
    for target in TARGETS:
        assert main(["verify", "--target", target, "--n", "3", "--in", str(path)]) == 0, target
        assert " 0 violations [ok]" in capsys.readouterr().out, target


def test_every_colourer_has_one_bound():
    assert colorers.BOUNDS.keys() == COLORERS.keys()
    for pipeline, colorer in COLORERS.items():
        coloring, cert = colorer(cycle_graph(5))
        assert cert.bound_value == colorers.BOUNDS[pipeline](2) >= coloring.used() == 3, pipeline


def test_cli_color_exit_codes(capsys):
    code = main(["color", "--pipeline", "p5-k23", "--edges", "0-1,1-2,2-3,3-4,4-0"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["colors_used"] == 3
    code = main(["color", "--pipeline", "p5-k23", "--edges", "0-1,1-2,2-3,3-4"])
    capsys.readouterr()
    assert code == 2


def test_cli_analyze(capsys):
    code = main(["analyze", "--g6", encode_graph6(cycle_graph(5))])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["chi"] == 3 and payload["odd_hole"] == [0, 1, 2, 3, 4]


def test_cli_verify_writes_json(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "--target", "observation-2.1", "--json", str(out)])
    assert code == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert payload["counts"]["violations"] == 0


def test_cli_bad_input(capsys):
    code = main(["color", "--pipeline", "p5-k23", "--g6", "~??"])
    assert code == 2
    code = main(["analyze", "--edges", "zap"])
    assert code == 2


def test_cli_bad_edge_token_exits_two(capsys):
    code = main(["color", "--pipeline", "p5-k23", "--edges", "0-x"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("rejected:") and "'0-x'" in err


def test_cli_missing_input_file_exits_two(tmp_path, capsys):
    missing = tmp_path / "missing.g6"
    code = main(["verify", "--target", "theorem-1.4", "--in", str(missing)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("rejected:") and str(missing) in err


def test_cli_verify_has_no_threads_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--target", "lemma-5.2", "--threads", "2"])
    assert exc.value.code == 2


def test_cli_non_ascii_input_file_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.g6"
    path.write_bytes(b"D\xe9\n")
    code = main(["verify", "--target", "theorem-1.4", "--in", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("rejected:") and "line 1" in err and "ASCII" in err


def test_cli_malformed_input_line_is_named(tmp_path, capsys):
    path = tmp_path / "bad.g6"
    path.write_text("DQc\nX\n", encoding="ascii")
    code = main(["verify", "--target", "theorem-1.4", "--in", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("rejected:") and str(path) in err and "line 2" in err


@pytest.mark.parametrize("n", ["0", "-3"])
def test_cli_verify_rejects_empty_size_range(n, capsys):
    code = main(["verify", "--target", "theorem-1.2", "--n", n])
    assert code == 2
    assert capsys.readouterr().err.startswith("rejected:")
    with pytest.raises(PreconditionError):
        verify("theorem-1.2", n_max=int(n))


def test_verify_assertion_names_its_graph(monkeypatch, capsys):
    def wasteful_leaf(h, hole, antiholes):
        return {v: v for v in range(h.n)}, [("one-colour-per-vertex", (1 << h.n) - 1)]

    monkeypatch.setattr(colorers, "_p5k23_leaf", wasteful_leaf)
    with pytest.raises(StructureAssertionError, match="above its bound") as exc:
        verify("theorem-1.2", n_max=5)
    g6, sep, _ = str(exc.value).partition(": ")
    assert sep
    with pytest.raises(StructureAssertionError, match="above its bound"):
        color_one(decode_graph6(g6), "p5-k23")
    assert main(["verify", "--target", "theorem-1.2", "--n", "5"]) == 1
    assert g6 in capsys.readouterr().err


WITNESS = "M{~Z~]}~k~}~}]~m_"


def _check_witness_payload(payload):
    g = decode_graph6(WITNESS)
    assert g.n == 14 and payload["n"] == 14
    assert payload["bound"] == 117 and payload["colors_used"] <= 117
    colors = payload["colors"]
    assert all(colors[u] != colors[v] for u, v in g.edges())
    assert len(set(colors)) == payload["colors_used"]


def test_divisible_piece_above_thirteen_vertices_is_coloured(capsys):
    _check_witness_payload(color_one(decode_graph6(WITNESS), "p5-k23"))
    assert main(["color", "--pipeline", "p5-k23", "--g6", WITNESS]) == 0
    _check_witness_payload(json.loads(capsys.readouterr().out))


def test_cli_division_search_rejections_exit_two(capsys):
    big = encode_graph6(from_edge_list(17, [(i, i + 1) for i in range(16)]))
    assert main(["color", "--pipeline", "divisible", "--g6", big]) == 2
    assert "at most 16 vertices" in capsys.readouterr().err
    # the Groetzsch graph, as built by test_invariants.grotzsch
    assert main(["color", "--pipeline", "divisible", "--g6", "JhdLA_gc?N_"]) == 2
    assert "not perfectly divisible" in capsys.readouterr().err


def test_verify_from_file_applies_the_cap_before_the_filters(tmp_path, monkeypatch):
    path = tmp_path / "all7.g6"
    write_graph6_file(str(path), [g for n in range(1, 8) for g in representatives(n)])
    sizes = []
    is_free = harness.is_free

    def counting(g, patterns):
        sizes.append(g.n)
        return is_free(g, patterns)

    monkeypatch.setattr(harness, "is_free", counting)
    from_file = verify("theorem-1.2", n_max=5, source=str(path))
    assert sizes and max(sizes) <= 5
    generated = verify("theorem-1.2", n_max=5)
    assert from_file.to_json() == generated.to_json().replace('"generated"', json.dumps(str(path)))


def test_verify_observation_from_mixed_file(tmp_path, capsys):
    path = tmp_path / "mixed.g6"
    antiholes = [complement(cycle_graph(n)) for n in (5, 7, 9, 11)]
    others = [cycle_graph(6), complete_graph(4), complement(cycle_graph(8))]
    write_graph6_file(str(path), [antiholes[0], others[0], antiholes[1], others[1],
                                  antiholes[2], others[2], antiholes[3]])
    report = verify("observation-2.1", n_max=9, source=str(path))
    assert report.graphs_checked == 3 and report.violations == []
    assert main(["verify", "--target", "observation-2.1", "--n", "9", "--in", str(path)]) == 0


# a connected member of the P5,K1+(K1uK3)-free class whose colouring splits
# level two of a five-hole decomposition
LEVEL_TWO_HOST = "F?N^_"


def test_pipeline_fault_is_an_assertion_not_a_rejection(monkeypatch, tmp_path, capsys):
    def split_with_a_triangle(g, dec):
        return next(cliques(g.adj, (1 << g.n) - 1, 3)), 0

    monkeypatch.setattr(colorers, "triangle_free_level2_split", split_with_a_triangle)
    g = decode_graph6(LEVEL_TWO_HOST)
    assert is_connected(g) and is_free(g, ["P5", "K1+(K1uK3)"])
    with pytest.raises(StructureAssertionError):
        colorers.color_p5_k1_k1k3(g)
    assert main(["color", "--pipeline", "p5-k1-k1uk3", "--g6", LEVEL_TWO_HOST]) == 1
    assert "(bug)" in capsys.readouterr().err
    path = tmp_path / "host.g6"
    path.write_text(LEVEL_TWO_HOST + "\n")
    assert main(["verify", "--target", "theorem-1.4", "--in", str(path)]) == 1
    assert f"(bug): {LEVEL_TWO_HOST}: " in capsys.readouterr().err


# the five-wheel, a cutset-free imperfect member of both five-hole pipelines'
# classes, and the antihole on seven vertices, a cutset-free member without a
# five-hole
WHEEL = "Ehfw"
ANTIHOLE = "FUzro"


@pytest.mark.parametrize("pipeline, checker, g6", [
    ("p5-k23", "check_p5_hole_lemma", WHEEL),
    ("p5-k23", "check_k23_hole_lemma", WHEEL),
    ("p5-k23", "check_k23_level_lemma", WHEEL),
    ("p5-k1-k1uk3", "check_p5_hole_lemma", WHEEL),
    ("p5-k1-k1uk3", "check_k1uk3_hole_lemma", WHEEL),
    ("p5-k1-k1uk3", "check_k1uk3_level_lemma", WHEEL),
    ("p5-k1-k1uk3", "_antihole_violations", ANTIHOLE),
])
def test_leaves_assert_their_lemmas(pipeline, checker, g6, monkeypatch, capsys):
    monkeypatch.setattr(colorers, checker, lambda *args: ["planted violation"])
    with pytest.raises(StructureAssertionError, match="planted violation"):
        color_one(decode_graph6(g6), pipeline)
    assert main(["color", "--pipeline", pipeline, "--g6", g6]) == 1
    assert "(bug): planted violation" in capsys.readouterr().err


def test_missing_division_inside_p5k23_is_an_assertion(monkeypatch, capsys):
    monkeypatch.setattr(invariants, "_first_division", lambda adj, comp_adj, mask, w: None)
    with pytest.raises(StructureAssertionError, match="no perfect division"):
        color_one(decode_graph6(WITNESS), "p5-k23")
    assert main(["color", "--pipeline", "p5-k23", "--g6", WITNESS]) == 1
    assert main(["verify", "--target", "theorem-1.2", "--n", "7"]) == 1
    found = re.search(r"\(bug\): (\S+): a perfectly divisible piece has no perfect division",
                      capsys.readouterr().err)
    assert found
    with pytest.raises(StructureAssertionError):
        color_one(decode_graph6(found[1]), "p5-k23")
    # outside the pipeline, a graph without a division is still bad input
    assert main(["color", "--pipeline", "divisible", "--g6", "JhdLA_gc?N_"]) == 2


def test_a_faulty_divisible_colouring_is_an_assertion(monkeypatch, capsys):
    """The divisible colourer is certified like every other one: an improper
    colouring from the peeling fails ``_finish``, and the CLI exits 1."""
    monkeypatch.setattr(colorers, "_peeled_map", lambda g, mask, w: dict.fromkeys(bits_of(mask), 0))
    c5 = cycle_graph(5)
    with pytest.raises(StructureAssertionError, match="improper"):
        color_one(c5, "divisible")
    assert main(["color", "--pipeline", "divisible", "--g6", encode_graph6(c5)]) == 1
    assert "(bug)" in capsys.readouterr().err


def test_the_divisibility_check_fires_on_the_groetzsch_graph():
    # triangle-free with chromatic number 4, so no perfect division
    outcome = harness._check_divisible(grotzsch())
    assert outcome.violations == ("not perfectly divisible",)
    assert outcome.row == {"divisible": False}


def test_the_bound_check_fires_above_the_bound(monkeypatch):
    """A chromatic number above the bound, and a proper colouring with one
    colour more than the bound, each give their violation; the colourer is a
    stub, since sumner's rejects the Groetzsch graph, which induces P5."""
    check = harness._bound_check("sumner")
    monkeypatch.setitem(COLORERS, "sumner", lambda g: (chromatic_number(g)[1], None))
    assert check(grotzsch()).violations == ("exact chromatic number 4 exceeds bound 3",
                                            "sumner used 4 colours above bound 3")
    c5 = cycle_graph(5)
    monkeypatch.setitem(COLORERS, "sumner", lambda g: (Coloring((0, 1, 2, 3, 1), 4), None))
    assert check(c5).violations == ("sumner used 4 colours above bound 3",)


def test_the_bound_check_fires_on_an_improper_colouring(monkeypatch):
    """Two colours on C5 repeat a colour along an edge and fall below its
    chromatic number three."""
    monkeypatch.setitem(COLORERS, "sumner", lambda g: (Coloring((0, 1, 0, 1, 0), 2), None))
    assert harness._bound_check("sumner")(cycle_graph(5)).violations == (
        "sumner colouring is improper",
        "sumner claims fewer colours than the chromatic number")


def _exhausted(g):
    raise SearchExhaustedError("stub")


@pytest.mark.parametrize("g, found, violation", [
    (path_graph(5), lambda g: ("clique", VertexSet.of([0], 5)), "returned set does not dominate"),
    (cycle_graph(5), lambda g: ("clique", VertexSet.of([0, 2], 5)), "returned clique is not a clique"),
    (complete_graph(4), lambda g: ("p3", VertexSet.of([0, 1, 2], 4)),
     "returned three-path is not an induced path"),
    (cycle_graph(5), _exhausted, "search exhausted without a dominating clique or three-path"),
], ids=["not-dominating", "not-a-clique", "not-a-path", "exhausted"])
def test_the_dominating_check_fires_on_a_bad_answer(g, found, violation, monkeypatch):
    """Each text of the dominating-set check, from a stubbed search: {0}
    leaves most of P5 undominated, {0, 2} dominates C5 but is no clique,
    and a triangle of K4 dominates but is no induced three-path."""
    monkeypatch.setattr(harness, "find_dominating_clique_or_p3", found)
    assert harness._check_dominating(g).violations == (violation,)


def test_the_per_hole_check_names_the_hole():
    """A pendant vertex on C5 sits in the singleton class of its neighbour,
    which the P5 hole lemma says is empty (the pendant makes a P5)."""
    g = from_edge_list(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5)])
    outcome = harness._per_hole_check(structure.check_p5_hole_lemma)(g)
    assert outcome.violations == ("hole (0, 1, 2, 3, 4): singleton class {1} is nonempty",)


def test_the_two_cliques_check_fires(monkeypatch):
    monkeypatch.setattr(harness, "odd_antihole_not_two_cliques", lambda g: False)
    outcome = harness._check_two_cliques(complement(cycle_graph(7)))
    assert outcome.violations == ("odd antihole split into two cliques",)


@pytest.mark.parametrize("target, admitted, refused", [
    ("lemma-2.2", (cycle_graph(5),), (path_graph(4),)),  # _has_five_hole
    ("lemma-4.1", (cycle_graph(5),), (path_graph(4),)),  # _has_five_hole
    ("lemma-3.1", (cycle_graph(5),), (path_graph(3), empty_graph(2))),  # _no_clique_cutset
    ("lemma-4.2", (cycle_graph(5),), (path_graph(4), path_graph(3))),  # both
    ("lemma-6.5", (complement(cycle_graph(7)),), (cycle_graph(5), complete_graph(4))),    ("theorem-1.2", (path_graph(2), disjoint_union(path_graph(2), empty_graph(1))),
     (empty_graph(1), empty_graph(3))),  # _has_edge
    ("theorem-1.3", (path_graph(2), cycle_graph(5)),
     (empty_graph(1), disjoint_union(path_graph(2), empty_graph(1)))),  # _connected_with_edge
])
def test_each_admission_admits_and_refuses(target, admitted, refused):
    """Each admission predicate admits a graph with its shape and refuses one
    without: P4 has no five-hole, the middle vertex of P3 is a clique
    cutset, two vertices without an edge are not connected, K1 has no
    edge, C5 is its own five-antihole and K4 holds no odd antihole."""
    admit = TARGETS[target].admit
    assert [admit(g) for g in admitted] == [True] * len(admitted)
    assert [admit(g) for g in refused] == [False] * len(refused)


def test_every_admission_answers_on_every_small_graph():
    """Each target's admission states the whole side condition of its
    class, so it answers with a bool on any graph, connected or not,
    without a precondition of its own."""
    graphs = [g for n in range(1, 7) for g in representatives(n)]
    assert not all(is_connected(g) for g in graphs)
    for name, entry in TARGETS.items():
        assert all(type(entry.admit(g)) is bool for g in graphs), name


def test_every_colourer_returns_its_certificate(all_graphs_7):
    """On every graph with n <= 5 each colourer rejects the graph or returns
    its colouring with a certificate of the graph's clique number and of the
    colours used."""
    for name, colorer in COLORERS.items():
        for g in all_graphs_7:
            if g.n > 5:
                continue
            try:
                coloring, cert = colorer(g)
            except PreconditionError:
                continue
            assert cert.theorem == name
            assert (cert.omega, cert.colors_used) == (clique_number(g), coloring.used()), name
            assert cert.colors_used <= cert.bound_value


def test_each_checked_graph_has_its_clique_number_searched_once(monkeypatch, tmp_path):
    """The bound check, the exact chromatic number, the pipeline with its
    leaves and the lemma checkers share one whole-graph clique search per
    checked graph."""
    searches: dict[int, tuple[tuple[int, ...], int]] = {}
    search = invariants.clique_number_mask

    def counting(adj, sub):
        if sub == (1 << len(adj)) - 1:
            # the searched rows stay referenced, so no id is reused
            searches[id(adj)] = (adj, searches.get(id(adj), (adj, 0))[1] + 1)
        return search(adj, sub)

    for module in (invariants, structure, colorers):
        monkeypatch.setattr(module, "clique_number_mask", counting)
    checked = []
    check = harness._checked

    def recording(entry, g):
        checked.append(g)
        return check(entry, g)

    monkeypatch.setattr(harness, "_checked", recording)
    # the file's lines pass the class search first, which reads the clique
    # number of a line before it searches K1+(K1uK3)
    runs = [(target, None) for target in ("theorem-1.2", "theorem-1.3", "theorem-1.4", "lemma-4.1",
                                         "lemma-4.2", "lemma-5.2", "lemma-6.1", "lemma-6.2")]
    for target, path in runs + [("theorem-1.4", str(_members_file(tmp_path)))]:
        searches.clear()
        checked.clear()
        report = verify(target, n_max=7, source=path)
        assert report.graphs_checked == len(checked) > 0
        assert {searches.get(id(g.adj), ((), 0))[1] for g in checked} == {1}, (target, path)
    assert all(induced(g, VertexSet((1 << g.n) - 1, g.n)) is g for g in checked)


def test_each_checked_graph_has_each_colouring_searched_once(monkeypatch, tmp_path):
    """The bound check's exact chromatic number is kept on the graph, so a
    pipeline leaf that is the whole checked graph runs no k-colouring search
    of its own."""
    calls: list = []  # (graph, k); holding the graphs keeps their ids apart
    solve = invariants._solve_k_coloring

    def counting(g, k):
        calls.append((g, k))
        return solve(g, k)

    monkeypatch.setattr(invariants, "_solve_k_coloring", counting)
    checked = []
    check = harness._checked

    def recording(entry, g):
        checked.append(g)
        return check(entry, g)

    monkeypatch.setattr(harness, "_checked", recording)
    runs = [(target, None) for target in BOUND_TARGETS]
    for target, path in runs + [("theorem-1.4", str(_members_file(tmp_path)))]:
        calls.clear()
        checked.clear()
        report = verify(target, n_max=7, source=path)
        assert report.graphs_checked == len(checked) > 0
        ids = {id(g) for g in checked}
        searches = Counter((id(g), k) for g, k in calls if id(g) in ids)
        assert searches and max(searches.values()) == 1, (target, path)


def test_verify_encodes_only_what_the_report_keeps(monkeypatch):
    encoded = []

    def counting(g):
        encoded.append(g)
        return encode_graph6(g)

    monkeypatch.setattr(harness, "encode_graph6", counting)
    report = verify("theorem-1.4", 7)
    assert report.violations == [] and 0 < len(encoded) < report.graphs_checked
    assert report.extremes["witness"] in {encode_graph6(g) for g in encoded}
    encoded.clear()
    rows = verify("theorem-1.4", 7, keep_rows=True)
    assert len(encoded) == rows.graphs_checked == report.graphs_checked
    assert rows.to_json() == report.to_json()


# SHA-256 of the color_one payload, or of the rejection, of every graph on at
# most seven vertices, one line per graph in canonical order
COLORINGS_UP_TO_SEVEN = {
    "divisible": "2c4116de5afb22c8d7f96d4accbf23d0cade8961604e54a8e7cfe846006fcd15",
    "k1-union-k3": "e6a8b7f570c1fecc2c2adf0df75de8b15045d09c627031cf65dbc7928d342494",
    "p5-k1-2k2": "243bdc320a1efd234f658baab35ed691bf130a52b2a53ce0ca53da589299b224",
    "p5-k1-k1uk3": "fa46b6a5ae34f2fea9c18fdc1baf9473d99a78df9977a562678c109d98bc4efe",
    "p5-k23": "691816e8e919ee4980f0348164c6001ab19729549ee61a8a140332c86eba6cb7",
    "sumner": "a9fd4b92407819ea52e197533a423f2109f135bdaee4af4cf5f61e817d6e015d",
    "wagon-2k2": "ab9fe7c02ff087bc7c84bac90c2c048db4105e826e23d438dce73e2b36a9f149",
}


@pytest.mark.parametrize("pipeline", sorted(COLORINGS_UP_TO_SEVEN))
def test_colorings_are_pinned(pipeline, all_graphs_7):
    assert set(COLORINGS_UP_TO_SEVEN) == set(COLORERS)
    digest = hashlib.sha256()
    for g in all_graphs_7:
        try:
            line = json.dumps(color_one(g, pipeline), sort_keys=True)
        except PreconditionError as exc:
            line = f"rejected: {exc}"
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == COLORINGS_UP_TO_SEVEN[pipeline]


# the same digest over the complete graphs K1..K20 and the grown members of
# tests/test_structure.py, past the exhaustive sweeps' reach
COLORINGS_PAST_REACH = {
    "divisible": "f7af54b35fca260435802d3cd3a32e746d669f9cb63867c511920c9eeb1f81c8",
    "p5-k1-k1uk3": "5be62f2fa352826db9bd164af574a5f7e4cc8a39d71c40ec3c1c4edf19af6458",
    "p5-k23": "6cd6a4ad044654ac6bb883190186e69211c43d852e64dd1c13bd88893f4ba8be",
}


@pytest.mark.parametrize("pipeline", sorted(COLORINGS_PAST_REACH))
def test_colorings_past_exhaustive_reach_are_pinned(pipeline):
    digest = hashlib.sha256()
    for g in [complete_graph(k) for k in range(1, 21)] + _grown_pipeline_members():
        try:
            line = json.dumps(color_one(g, pipeline), sort_keys=True)
        except PreconditionError as exc:
            line = f"rejected: {exc}"
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == COLORINGS_PAST_REACH[pipeline]


def test_suite_script_runs_every_target(tmp_path, monkeypatch):
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "suite.py"
    spec = importlib.util.spec_from_file_location("suite", path)
    suite = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(suite)
    monkeypatch.setattr(suite, "N_MAX", 5)
    monkeypatch.setattr(suite, "OUT", tmp_path / "BENCH_suite.json")
    monkeypatch.setattr(enumeration, "_GEN_CACHE", {})
    suite.main("first")
    first = json.loads(suite.OUT.read_text())["first"]
    assert set(first["targets"]) == set(TARGETS)
    assert all(t["violations"] == 0 for t in first["targets"].values())
    assert isinstance(first["peak_rss_mb"], float) and first["peak_rss_mb"] > 0
    for name, (free_of, _) in suite.classes().items():
        expected = {} if not free_of else {
            str(n): len(representatives(n, free_of)) for n in range(1, 6)}
        assert first["classes"][name]["counts"] == expected
    suite.main("second")
    results = json.loads(suite.OUT.read_text())
    assert set(results) == {"first", "second"} and results["first"] == first


def _load_alternate():
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "alternate.py"
    spec = importlib.util.spec_from_file_location("alternate", path)
    alternate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(alternate)
    return path, alternate


def test_alternate_script_runs_both_sides_in_turn():
    path, _ = _load_alternate()
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, str(path), src, src, "4", "lemma-6.2"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    sides = [line.split(":")[0].rsplit(" ", 1)[1] for line in lines[:6]]
    assert sides == ["parent", "change", "change", "parent", "parent", "change"]
    assert len({line.rsplit(" ", 1)[1] for line in lines[:6]}) == 1
    assert lines[6].startswith("lemma-6.2 n<=4: parent median ")
    assert lines[6].endswith("reports identical") and len(lines) == 7


def test_alternate_script_times_a_file_source(tmp_path):
    """With ``--in FILE`` each run verifies the file's lines, not the
    generated universe, and both sides report its digest."""
    path, _ = _load_alternate()
    src = str(Path(__file__).resolve().parents[1] / "src")
    source = tmp_path / "all5.g6"
    write_graph6_file(str(source), [g for n in range(1, 6) for g in representatives(n)])
    proc = subprocess.run([sys.executable, str(path), "--in", str(source), src, src, "4",
                           "lemma-6.2"], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    digest = hashlib.sha256(verify("lemma-6.2", 4, source=str(source)).to_json().encode())
    assert {line.rsplit(" ", 1)[1] for line in lines[:6]} == {digest.hexdigest()}
    assert lines[6].endswith("reports identical") and len(lines) == 7


def test_alternate_script_fails_when_reports_differ(monkeypatch, capsys):
    _, alternate = _load_alternate()
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = itertools.count()
    monkeypatch.setattr(alternate, "run", lambda side, target, n, infile: (0.0, str(next(runs))))
    assert alternate.main([src, src, "4", "lemma-6.2"]) == 1
    assert capsys.readouterr().out.splitlines()[-1].endswith("reports DIFFER")


def test_benchmark_hooks_name_existing_functions():
    """The benchmark's span recorder wraps functions by name and leaves out
    the metrics of a missing one, so a rename would silently drop them."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, name, _, _ in spans.HOOKS:
        assert callable(getattr(importlib.import_module(f"chibind.{module}"), name, None)), name
    for entry in TARGETS.values():
        assert dataclasses.replace(entry, admit=entry.admit, check=entry.check) == entry


# the colouring-bound targets and the colourer that each one runs
BOUND_TARGETS = {
    "theorem-1.2": "p5-k23",
    "theorem-1.3": "p5-k1-2k2",
    "theorem-1.4": "p5-k1-k1uk3",
    "lemma-5.2": "wagon-2k2",
    "lemma-6.1": "sumner",
    "lemma-6.2": "k1-union-k3",
}


def _precondition_patterns(pipeline, monkeypatch):
    """The patterns a colourer's precondition tests; sumner tests freeness
    only after a failed structure proof, which K3 provokes."""
    found = []
    with monkeypatch.context() as m:
        m.setattr(colorers, "_require_free", lambda g, pats: found.extend(pats))
        m.setattr(colorers, "is_free", lambda g, pats: found.extend(pats))
        try:
            color_one(complete_graph(3), pipeline)
        except PreconditionError:
            assert pipeline == "sumner"
    assert found
    return [_as_graph(p).adj for p in found]


def test_bound_targets_colour_members_of_their_colourers_classes(monkeypatch, tmp_path):
    """Each bound target colours with one colourer, and every member of its
    universe, generated or read from a file, records each pattern that the
    colourer's precondition tests."""
    colored = {}
    for target in TARGETS:
        for pipeline, colorer in COLORERS.items():
            def recording(g, pipeline=pipeline, colorer=colorer, target=target):
                colored.setdefault(target, set()).add(pipeline)
                return colorer(g)
            monkeypatch.setitem(COLORERS, pipeline, recording)
        verify(target, n_max=5)
        monkeypatch.undo()
    assert colored == {t: {p} for t, p in BOUND_TARGETS.items()}

    path = tmp_path / "all.g6"
    write_graph6_file(str(path), [g for n in range(1, 7) for g in representatives(n)])
    for target, pipeline in BOUND_TARGETS.items():
        entry = TARGETS[target]
        needed = _precondition_patterns(pipeline, monkeypatch)
        members = list(harness._admitted(entry, 6, None, False))
        from_file = list(harness._admitted(entry, 6, str(path), False))
        assert len(from_file) == len(members) > 0
        for g in members + from_file:
            assert all(adj in g._free_of for adj in needed), (target, encode_graph6(g))


def test_verify_colours_without_a_freeness_search(monkeypatch, tmp_path):
    """No induced-subgraph search runs on a checked graph of a bound target,
    generated or read from a file: its colourer's precondition finds the
    class's patterns recorded.  A fresh graph is searched.  The probe is the
    candidate masks, which every search past the recorded patterns builds;
    the degree window can settle a search there without an ``_embed`` call
    (C5 has no vertex of degree 1 for the ends of P5)."""
    searched = []
    current = [None]  # the graph being checked
    host = [None]  # per find_induced call: its host, if that is the checked graph
    masks, find = patterns._candidate_masks, patterns.find_induced
    checked = harness._checked

    def counting_masks(*args, **kwargs):
        if host[-1] is not None:
            searched.append(encode_graph6(host[-1]))
        return masks(*args, **kwargs)

    def finding(g, pat):
        host.append(g if g is current[0] else None)
        try:
            return find(g, pat)
        finally:
            host.pop()

    def checking(entry, g):
        current[0] = g
        try:
            return checked(entry, g)
        finally:
            current[0] = None

    monkeypatch.setattr(patterns, "_candidate_masks", counting_masks)
    for module in (patterns, colorers):
        monkeypatch.setattr(module, "find_induced", finding)
    monkeypatch.setattr(harness, "_checked", checking)
    path = tmp_path / "all.g6"
    write_graph6_file(str(path), [g for n in range(1, 7) for g in representatives(n)])
    for target in BOUND_TARGETS:
        for source in (None, path):
            report = verify(target, n_max=6, source=source)
            assert report.graphs_checked and report.violations == []
    assert searched == []
    current[0] = g = cycle_graph(5)
    color_one(g, "p5-k23")
    assert searched


# SHA-256 of the canonical JSON report of each colouring-bound target at
# n <= 7, as made while the colourers still searched every member
BOUND_REPORTS_UP_TO_SEVEN = {
    "lemma-5.2": "55e8a5c31393ff9f174fccb4efd3c9986ebba153ae79bc156496ff0aabda7088",
    "lemma-6.1": "f539ae408e05636c5889085357f561c3ad82020ca971b712b7a65262248be2f6",
    "lemma-6.2": "ff0de9868e29231bec613ff02ce9f5fe3caf74667b313625a6354bb6399a2d4c",
    "theorem-1.2": "0162c692c4b578259aea7923165fd8cfe6d7f3ec2ec0427a637730b9fd389dc3",
    "theorem-1.3": "9b3de79cb8ed1fe8eb1c153269f12333d792b7b7646f9d419bc30f59955ce0b2",
    "theorem-1.4": "cf694f43e360d27a51b69645d573dc84b10c29513063ed849ca3aed57caed40e",
}


@pytest.mark.parametrize("target", sorted(BOUND_REPORTS_UP_TO_SEVEN))
def test_bound_reports_are_pinned(target):
    assert set(BOUND_REPORTS_UP_TO_SEVEN) == set(BOUND_TARGETS)
    report = verify(target, n_max=7).to_json()
    assert hashlib.sha256(report.encode()).hexdigest() == BOUND_REPORTS_UP_TO_SEVEN[target]


# SHA-256 of the canonical JSON and of the CSV report, rows kept, of each
# five-hole target at n <= 8, as made while the decomposition still keyed its
# classes by frozensets of hole positions
FIVE_HOLE_REPORTS_UP_TO_EIGHT = {
    "lemma-2.2": ("06cb070a81cb1e4d2655e92caae630ac2353d14a07c13ac3383bdd4cd3ee0388",
                  "3f891b8c77d5edaec4fe57c9ca1ae6128df3320ab1d9bb139a8afbfbc029a075"),
    "lemma-4.1": ("58652b725bf6bb3072c3acd683c318846817cf8a7e538b5a83ce5bfea401661b",
                  "732fba256e7ddcd6d2976509d9c4b96ebf1a88644f0f36ff60b0ebcdf5ac546c"),
    "lemma-4.2": ("f05d80c84d3d17249a657cabd7f9a4533cb83ef07222bf07ecacfe7737e0ed99",
                  "b14413302b99a980a200d8003e2b2d042062b4e5e62b3d615e6c086dd7f213ff"),
    "lemma-6.3": ("3651aa456f330007362233ec0508217acc81b9c467b49ecf344e25a2cea6d46a",
                  "a5e6405c6e5852b7428e98af864a19b48316add00b2d3ed675b052e3f35817a8"),
    "lemma-6.4": ("3270cd2f5a7c60dfe02e4557a5686c0dc918271c5a54af78c25b6928a4e266cd",
                  "a5e6405c6e5852b7428e98af864a19b48316add00b2d3ed675b052e3f35817a8"),
}


@pytest.mark.parametrize("target", sorted(FIVE_HOLE_REPORTS_UP_TO_EIGHT))
def test_five_hole_reports_are_pinned(target):
    report = verify(target, 8, keep_rows=True)
    digests = tuple(hashlib.sha256(text.encode()).hexdigest()
                    for text in (report.to_json(), report.to_csv()))
    assert report.violations == [] and digests == FIVE_HOLE_REPORTS_UP_TO_EIGHT[target]


# SHA-256 of the CSV report, every row kept, of each colouring-bound target at
# n <= 7, and of theorem-1.4's over its class members at n <= 7 read from a
# graph6 file, whose JSON report is the generated one but for its source
BOUND_ROWS_UP_TO_SEVEN = {
    "lemma-5.2": "052f9282393af02684c5da552809b6c26e29c440de3b795798c44864f4a36983",
    "lemma-6.1": "2c430b70f2cdf78c7db7cf74fde77f184f702479525e62c0489cc9074e96ead8",
    "lemma-6.2": "221caca719d2f04f01d2ee1430888f557b4136d06b4556a3fddadbedb00ec15b",
    "theorem-1.2": "e91d3873d730a142fbcaa9c12144c90704442956bbc2e0b5ec4ddddce26e38dc",
    "theorem-1.3": "dc33b1717b4b01439faa14a76753e9eb5ebd24a17283eba712792464749a3d25",
    "theorem-1.4": "d66cb29e1e0c0102ceb9574ae88ad2921461fb85ef1146d4b8fb46e27b1abbc4",
    "theorem-1.4 --in": "d66cb29e1e0c0102ceb9574ae88ad2921461fb85ef1146d4b8fb46e27b1abbc4",
}


def _members_file(tmp_path: Path) -> Path:
    """The P5,K1+(K1uK3)-free graphs with at most seven vertices, one graph6
    line each, in canonical order."""
    cache = Path(__file__).parent / "_cache"
    path = tmp_path / "members.g6"
    path.write_bytes(b"".join((cache / f"v1-P5-K1pK1uK3-{n}.g6").read_bytes() for n in range(1, 8)))
    return path


@pytest.mark.parametrize("run", sorted(BOUND_ROWS_UP_TO_SEVEN))
def test_bound_rows_are_pinned(run, tmp_path):
    """Without rows only a contending ratio's graph is encoded; keeping every
    row must not change the JSON report."""
    target, _, flag = run.partition(" ")
    source = str(_members_file(tmp_path)) if flag else None
    plain = verify(target, 7, source=source)
    rows = verify(target, 7, source=source, keep_rows=True)
    assert rows.violations == [] and rows.to_json() == plain.to_json()
    assert hashlib.sha256(rows.to_csv().encode()).hexdigest() == BOUND_ROWS_UP_TO_SEVEN[run]
    if flag:
        generated = json.loads(verify(target, 7).to_json())
        generated["params"]["source"] = source
        assert json.loads(plain.to_json()) == generated


@pytest.mark.parametrize("target", ["theorem-1.4", "lemma-6.1", "lemma-6.2"])
def test_witness_does_not_depend_on_line_order(target, tmp_path):
    """Read last line first, the best ratio's first graph is not its least
    text, so every later graph that ties with it must still be encoded."""
    generated = verify(target, 7)
    entry = TARGETS[target]
    members = [g for n in range(1, 8) for g in entry.streams(n)]
    path = tmp_path / "reversed.g6"
    write_graph6_file(str(path), reversed(members))
    report = verify(target, 7, source=str(path))
    assert report.graphs_checked == generated.graphs_checked
    assert report.extremes == generated.extremes
