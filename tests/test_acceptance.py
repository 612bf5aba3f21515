"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

The bounds checked here are exact, not tolerances: the claims are discrete, so
every criterion demands zero violations over its exhaustively enumerated
universe.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines.
"""

from __future__ import annotations

import json

from chibind import enumeration
from chibind.colorers import BOUNDS, color_p5_k23
from chibind.enumeration import decode_graph6, encode_graph6, representatives
from chibind.graphs import cycle_graph, is_connected
from chibind.harness import verify
from chibind.invariants import chromatic_number, clique_number
from chibind.patterns import is_perfect
from oracles import chromatic_dp, is_perfect_definitional, labeled_rejection_counts


def _report_line(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_criterion_1_perfect_divisibility(p5_c5_k23_free_9):
    report = verify("theorem-1.1", n_max=8)
    ok = not report.violations and report.wall_time <= 900
    _report_line(1, ok,
                 f"{report.graphs_checked} connected class members at n<=8, "
                 f"{len(report.violations)} violations, {report.wall_time:.0f}s")


def test_criterion_2_k23_bound_and_pipeline(p5_k23_free_9):
    report = verify("theorem-1.2", n_max=9)
    c5 = cycle_graph(5)
    chi = chromatic_number(c5)[0]
    coloring, cert = color_p5_k23(c5)
    sharp = (clique_number(c5) == 2 and chi == BOUNDS["p5-k23"](2) == 3
             and cert.colors_used == 3
             and report.extremes.get("max_ratio") == 1.0)
    ok = not report.violations and sharp
    _report_line(2, ok,
                 f"{report.graphs_checked} members at n<=9, "
                 f"{len(report.violations)} violations, sharp at omega=2: {sharp}")


def test_criterion_3_k1_2k2_bound_and_pipeline(p5_k1_2k2_free_9):
    report = verify("theorem-1.3", n_max=9)
    _report_line(3, not report.violations,
                 f"{report.graphs_checked} connected members at n<=9, "
                 f"{len(report.violations)} violations")


def test_criterion_4_k1_k1k3_bound_and_pipeline(p5_k1_k1uk3_free_9):
    report = verify("theorem-1.4", n_max=9)
    _report_line(4, not report.violations,
                 f"{report.graphs_checked} members at n<=9, "
                 f"{len(report.violations)} violations")


def test_criterion_5_wagon_bound(two_k2_free_8):
    report = verify("lemma-5.2", n_max=8)
    _report_line(5, not report.violations,
                 f"{report.graphs_checked} 2K2-free members at n<=8, "
                 f"{len(report.violations)} violations")


def test_criterion_6_triangle_free_three_coloring(p5_k3_free_9):
    report = verify("lemma-6.1", n_max=9)
    _report_line(6, not report.violations,
                 f"{report.graphs_checked} members at n<=9, "
                 f"{len(report.violations)} violations, structure proof per member")


def test_criterion_7_dominating_clique_or_p3(p5_free_9):
    report = verify("lemma-5.1", n_max=9)
    _report_line(7, not report.violations,
                 f"{report.graphs_checked} connected P5-free members at n<=9, "
                 f"{len(report.violations)} violations, 0 search exhaustions")


def test_criterion_8_structure_lemmas(p5_free_9, alpha_le2_9, p5_c5_k23_free_9, p5_k23_free_9, p5_k1uk3_free_9, p5_k1_k1uk3_free_9):
    runs = [
        ("lemma-2.2", 9), ("lemma-2.4", 9), ("lemma-3.1", 9), ("lemma-4.1", 9),
        ("lemma-4.2", 9), ("lemma-6.2", 9), ("lemma-6.3", 9), ("lemma-6.4", 9),
        ("lemma-6.5", 9), ("observation-2.1", 9),
    ]
    details = []
    ok = True
    for target, cap in runs:
        report = verify(target, n_max=cap)
        details.append(f"{target}:{report.graphs_checked}/{len(report.violations)}")
        ok = ok and not report.violations
    _report_line(8, ok, "checked/violations " + " ".join(details))


def test_criterion_9_oracle_agreement(all_graphs_7, p5_free_9):
    chi_disagreements = 0
    perfect_disagreements = 0
    for g in all_graphs_7:
        if chromatic_number(g)[0] != chromatic_dp(g):
            chi_disagreements += 1
        if is_perfect(g) != is_perfect_definitional(g):
            perfect_disagreements += 1
    # deterministic spot sample beyond the required size cap
    big = [g for g in p5_free_9 if g.n >= 8]
    for g in big[::max(len(big) // 60, 1)]:
        if chromatic_number(g)[0] != chromatic_dp(g):
            chi_disagreements += 1
    ok = chi_disagreements == 0 and perfect_disagreements == 0
    _report_line(9, ok,
                 f"{len(all_graphs_7)} graphs at n<=7 plus a 61-graph sample at "
                 f"n=8..9, {chi_disagreements} chromatic and "
                 f"{perfect_disagreements} perfection disagreements")


def test_criterion_10_enumeration_and_graph6(all_graphs_8):
    expected = {4: 6, 5: 21, 6: 112}
    count_ok = True
    for n, want in expected.items():
        _, oracle_connected = labeled_rejection_counts(n)
        generated = sum(1 for g in representatives(n) if is_connected(g))
        count_ok = count_ok and oracle_connected == generated == want
    bad_round_trips = sum(
        1 for g in all_graphs_8 if decode_graph6(encode_graph6(g)) != g)
    ok = count_ok and bad_round_trips == 0
    _report_line(10, ok,
                 f"connected counts 6/21/112 confirmed: {count_ok}, "
                 f"{len(all_graphs_8)} round trips at n<=8, {bad_round_trips} failures")


def test_criterion_11_deterministic_reports(monkeypatch):
    pairs = []
    for target, cap in (("lemma-5.2", 6), ("observation-2.1", 9)):
        a = verify(target, n_max=cap).to_json()
        b = verify(target, n_max=cap).to_json()
        monkeypatch.setattr(enumeration, "_GEN_CACHE", {})
        cold = verify(target, n_max=cap).to_json()
        monkeypatch.undo()
        pairs.append(a == b == cold)
        json.loads(a)
    ok = all(pairs)
    _report_line(11, ok, f"byte-identical JSON run to run and cold vs warm cache: {pairs}")
