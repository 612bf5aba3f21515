"""Exact clique number, independence number, chromatic number, and perfect divisions.

These are the ground-truth engines the class-specific claims are checked
against.  Everything is exact; subset-indexed tables make the divisibility
scan affordable at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterator

from .errors import PreconditionError, StructureAssertionError
from .graphs import Graph, VertexSet, bits_of, complement, induced
from .patterns import _holes


@dataclass(frozen=True)
class Coloring:
    """Vertex colouring with its palette size; colours are ``0..k-1``."""

    colors: tuple[int, ...]
    k: int

    def used(self) -> int:
        return len(set(self.colors))


@dataclass(frozen=True)
class PerfectDivision:
    """Bipartition ``(a, b)`` with ``G[a]`` perfect and a clique-number drop on ``b``."""

    a: VertexSet
    b: VertexSet
    omega_g: int
    omega_b: int


def is_proper_coloring(g: Graph, coloring: Coloring) -> bool:
    if len(coloring.colors) != g.n:
        return False
    if any(not 0 <= c < max(coloring.k, 1) for c in coloring.colors) and g.n:
        return False
    return all(coloring.colors[u] != coloring.colors[v] for u, v in g.edges())


def _greedy_color_bound(adj: tuple[int, ...], cand: int) -> int:
    classes: list[int] = []
    for v in bits_of(cand):
        for i, cl in enumerate(classes):
            if not adj[v] & cl:
                classes[i] = cl | (1 << v)
                break
        else:
            classes.append(1 << v)
    return len(classes)


def clique_number_mask(adj: tuple[int, ...], sub: int) -> int:
    """Maximum clique size inside ``sub`` by branch and bound."""
    best = 0

    def expand(cand: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        while cand:
            if size + cand.bit_count() <= best:
                return
            v = (cand & -cand).bit_length() - 1
            cand ^= 1 << v
            nxt = cand & adj[v]
            if size + 1 + nxt.bit_count() > best:
                if nxt and size + 1 + _greedy_color_bound(adj, nxt) <= best:
                    continue
                expand(nxt, size + 1)

    expand(sub, 0)
    return best


def clique_number(g: Graph) -> int:
    return clique_number_mask(g.adj, (1 << g.n) - 1)


def independence_number(g: Graph) -> int:
    return clique_number(complement(g))


def cliques(adj: tuple[int, ...], sub: int, size: int) -> Iterator[int]:
    """Every clique of exactly ``size`` vertices inside ``sub``, as a mask, in
    ascending lexicographic order of the sorted members."""

    def grow(cand: int, chosen: int, need: int) -> Iterator[int]:
        if not need:
            yield chosen
            return
        for v in bits_of(cand):
            nxt = cand & adj[v] & ~((2 << v) - 1)
            if nxt.bit_count() >= need - 1:
                yield from grow(nxt, chosen | (1 << v), need - 1)

    return grow(sub, 0, size)


def maximum_clique(g: Graph) -> VertexSet:
    """Lexicographically least maximum clique."""
    mask = next(cliques(g.adj, (1 << g.n) - 1, clique_number(g)), None)
    if mask is None:
        raise StructureAssertionError("maximum clique search lost its own optimum")
    return VertexSet(mask, g.n)


def omega_table(adj: tuple[int, ...], n: int) -> list[int]:
    """Clique number of every induced subgraph, indexed by vertex mask."""
    table = [0] * (1 << n)
    for s in range(1, 1 << n):
        low = s & -s
        v = low.bit_length() - 1
        rest = s ^ low
        table[s] = max(table[rest], 1 + table[rest & adj[v]])
    return table


def greedy_saturation_coloring(g: Graph) -> Coloring:
    """Deterministic saturation-order greedy colouring (upper bound seed)."""
    n = g.n
    if n == 0:
        return Coloring((), 0)
    colors = [-1] * n
    neighbor_colors: list[set[int]] = [set() for _ in range(n)]
    for _ in range(n):
        pick = -1
        key = (-1, -1, 0)
        for v in range(n):
            if colors[v] >= 0:
                continue
            cand = (len(neighbor_colors[v]), g.degree(v), -v)
            if pick < 0 or cand > key:
                pick, key = v, cand
        c = 0
        while c in neighbor_colors[pick]:
            c += 1
        colors[pick] = c
        for u in bits_of(g.adj[pick]):
            neighbor_colors[u].add(c)
    return Coloring(tuple(colors), max(colors) + 1)


def _solve_k_coloring(g: Graph, k: int) -> Coloring | None:
    """Deterministic backtracking k-colouring; vertex order is degree-descending."""
    n = g.n
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    colors = [-1] * n

    def assign(idx: int, used: int) -> bool:
        if idx == n:
            return True
        v = order[idx]
        seen = {colors[u] for u in bits_of(g.adj[v]) if colors[u] >= 0}
        limit = min(used + 1, k)
        for c in range(limit):
            if c in seen:
                continue
            colors[v] = c
            if assign(idx + 1, max(used, c + 1)):
                return True
        colors[v] = -1
        return False

    if assign(0, 0):
        return Coloring(tuple(colors), k)
    return None


def chromatic_number(g: Graph) -> tuple[int, Coloring]:
    """Exact chromatic number with a deterministic optimal colouring."""
    if g.n == 0:
        return 0, Coloring((), 0)
    lo = clique_number(g)
    hi = greedy_saturation_coloring(g).k
    chi = hi
    for k in range(lo, hi):
        if _solve_k_coloring(g, k) is not None:
            chi = k
            break
    coloring = _solve_k_coloring(g, chi)
    if coloring is None:
        raise StructureAssertionError("chromatic search lost its own optimum")
    return chi, coloring


def perfection_table(adj: tuple[int, ...], comp_adj: tuple[int, ...], n: int) -> list[bool]:
    """Perfection of every induced subgraph, by the odd hole and antihole
    criterion: a subset is imperfect exactly when it contains the vertex set
    of some induced odd cycle of either the graph or its complement."""
    full = (1 << n) - 1
    witnesses = {sum(1 << v for v in hole)
                 for view in (adj, comp_adj)
                 for length in range(5, n + 1, 2)
                 for hole in _holes(view, full, length)}
    imperfect = [False] * (1 << n)
    for s in range(1, 1 << n):
        if s in witnesses:
            imperfect[s] = True
            continue
        m = s
        while m:
            low = m & -m
            m ^= low
            if imperfect[s ^ low]:
                imperfect[s] = True
                break
    return [not b for b in imperfect]


def _division_tables(g: Graph) -> tuple[list[int], list[bool]]:
    return omega_table(g.adj, g.n), perfection_table(g.adj, complement(g).adj, g.n)


def _first_division(omega: list[int], perfect: list[bool], mask: int) -> int | None:
    """Perfect side ``A`` of the first division of ``G[mask]``, scanning the
    submasks of ``mask`` in ascending popcount-then-mask order, or None."""
    subs = [mask]
    a = mask
    while a:
        a = (a - 1) & mask
        subs.append(a)
    w = omega[mask]
    for a in sorted(subs, key=lambda m: (m.bit_count(), m)):
        if omega[mask & ~a] < w and perfect[a]:
            return a
    return None


def _perfect_division(omega: list[int], perfect: list[bool], n: int) -> PerfectDivision | None:
    full = (1 << n) - 1
    a = _first_division(omega, perfect, full)
    if a is None:
        return None
    return PerfectDivision(VertexSet(a, n), VertexSet(full & ~a, n), omega[full], omega[full & ~a])


def _divisible(omega: list[int], perfect: list[bool], n: int) -> bool:
    """Subset dynamic program: every nonempty induced subgraph admits a division."""
    for h in range(1, 1 << n):
        if perfect[h]:
            continue
        wh = omega[h]
        a = (h - 1) & h
        while a:
            if perfect[a] and omega[h & ~a] < wh:
                break
            a = (a - 1) & h
        else:
            return False
    return True


def _check_divisibility_cap(g: Graph) -> None:
    if g.n > 13:
        raise PreconditionError("divisibility scan supports at most 13 vertices")


def find_perfect_division(g: Graph) -> PerfectDivision | None:
    """First valid division in ascending popcount-then-mask order over ``A``.

    The empty part is perfect and has clique number zero, so perfect graphs
    always admit a division and edgeless graphs yield ``(V, empty)``.
    """
    if g.n > 16:
        raise PreconditionError("perfect-division scan supports at most 16 vertices")
    return _perfect_division(*_division_tables(g), g.n)


def is_perfectly_divisible(g: Graph) -> bool:
    """Every nonempty induced subgraph admits a perfect division."""
    _check_divisibility_cap(g)
    return _divisible(*_division_tables(g), g.n)


def divisibility(g: Graph) -> tuple[bool, PerfectDivision | None]:
    """:func:`is_perfectly_divisible` and :func:`find_perfect_division`
    together, from one pair of subset tables."""
    _check_divisibility_cap(g)
    omega, perfect = _division_tables(g)
    return _divisible(omega, perfect, g.n), _perfect_division(omega, perfect, g.n)


def chi_bound_divisible(g: Graph) -> tuple[int, Coloring]:
    """Colour a perfectly divisible graph by peeling perfect parts.

    Each round takes a perfect division, colours the perfect side exactly with
    fresh colours, and recurses on the rest; the clique number drops every
    round, so the palette stays within ``comb(omega+1, 2)``.  The subset
    tables of ``g`` serve every round: a round's graph is induced on the
    remaining vertex set, and scanning its submasks in popcount-then-mask
    order visits them in the order a relabelled copy would.
    """
    n = g.n
    if n == 0:
        return 0, Coloring((), 0)
    _check_divisibility_cap(g)
    omega, perfect = _division_tables(g)
    if not _divisible(omega, perfect, n):
        raise PreconditionError("input graph is not perfectly divisible")
    mask = (1 << n) - 1
    w_top = omega[mask]
    colors = [-1] * n
    offset = 0
    prev_omega = w_top + 1
    while mask:
        if omega[mask] >= prev_omega:
            raise StructureAssertionError("clique number failed to drop between rounds")
        prev_omega = omega[mask]
        a = _first_division(omega, perfect, mask)
        if a is None:
            raise StructureAssertionError("divisible graph yielded no division")
        part = induced(g, VertexSet(a, n))
        chi, sub_coloring = chromatic_number(part)
        if chi != omega[a]:
            raise StructureAssertionError("perfect side coloured above its clique number")
        for local, v in enumerate(bits_of(a)):
            colors[v] = offset + sub_coloring.colors[local]
        offset += chi
        mask &= ~a
    if offset > comb(w_top + 1, 2):
        raise StructureAssertionError("divisible colouring exceeded its palette budget")
    return offset, Coloring(tuple(colors), offset)
