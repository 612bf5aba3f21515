"""Exact clique number, independence number, chromatic number, and perfect divisions.

These are the ground-truth engines the class-specific claims are checked
against.  Everything is exact.  The clique search
(:func:`least_maximum_clique`) and the k-colouring search
(:func:`_solve_k_coloring`) are each one flat loop over per-depth arrays,
with no recursion; the clique search bounds a branch by the number of
colour classes that greedy independent-set extraction takes from its
candidates, which is the first-fit count in ascending vertex order.
Perfect divisions come from one direct search over the subsets of a vertex
set, capped at 16 vertices; it serves :func:`find_perfect_division` and
every peeling round of :func:`_peeled_map`.  Only the divisibility dynamic
program of :func:`is_perfectly_divisible` builds the subset-indexed
``omega_table`` and ``perfection_table``, and it is capped at 13 vertices.
:func:`clique_number` keeps omega in the graph's declared ``_omega`` field
after its one search, and :func:`chromatic_number` keeps chi with its
optimal colouring in ``_chi``; every layer then shares them, and a perfect
pipeline leaf that is the whole checked graph reuses the harness's exact
chi.  A ``Graph`` never changes, so the kept values cannot go stale.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterator

from .errors import PreconditionError, StructureAssertionError
from .graphs import Graph, VertexSet, bits_of, complement, induced, require_graph
from .patterns import _holes, has_odd_hole_mask


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
    """Every colour is in range and no vertex sees its own colour class.

    After the range test, one pass in vertex order: each vertex is tested
    against the class masks of the vertices before it, so every
    monochromatic edge is met at its later end, and the first one ends the
    pass."""
    if not (isinstance(g, Graph) and isinstance(coloring, Coloring)):
        require_graph(g, "g")
        raise PreconditionError(f"expected a Coloring for coloring, not {coloring!r}")
    colors = coloring.colors
    if len(colors) != g.n:
        return False
    if not colors:
        return True
    try:
        top = max(colors)
        if min(colors) < 0 or top >= max(coloring.k, 1):
            return False
        classes = [0] * (top + 1)
        for v, (row, c) in enumerate(zip(g.adj, colors)):
            cl = classes[c]
            if row & cl:
                return False
            classes[c] = cl | 1 << v
    except TypeError:
        raise PreconditionError(f"coloring must hold int colours and an int k, not {coloring!r}") from None
    return True


def least_maximum_clique(adj: tuple[int, ...], sub: int) -> int:
    """The least maximum clique inside ``sub``, as a mask, by branch and bound.

    One flat depth-first loop, as in :func:`cliques`: ``cand[d]`` holds the
    untried choices for member ``d``, the common neighbours of the members
    before it that lie above them, and ``base[d]`` those members.  Members
    are added in ascending order, so cliques are met in the order of
    :func:`cliques`, and one is kept only when it is larger than every clique
    met before; so the clique kept at the end is the first of the largest
    size, the least one.

    A branch stops when its members and its candidates cannot beat the best,
    and a child is entered only when its candidates need more colour classes
    than the room left.  The classes are taken by greedy independent-set
    extraction: each pass sweeps the remaining candidates in ascending order
    and takes every one with no neighbour among those taken, which gives the
    classes of first-fit colouring in that order.  Counting stops as soon as
    the count passes the room."""
    best = 0
    best_mask = 0
    cand = [0] * (sub.bit_count() + 1)
    base = [0] * len(cand)
    cand[0] = sub
    d = 0
    while d >= 0:
        m = cand[d]
        if not m or d + m.bit_count() <= best:
            d -= 1
            continue
        low = m & -m
        m ^= low
        cand[d] = m
        nxt = m & adj[low.bit_length() - 1]
        room = best - d - 1
        if nxt.bit_count() <= room:
            continue
        # kept: without the colour bound cocktail-party graphs K2,...,2 cost ~6x per 4 vertices
        rest = nxt
        count = 0
        while rest and count <= room:
            count += 1
            q = rest
            while q:
                b = q & -q
                rest ^= b
                q = (q ^ b) & ~adj[b.bit_length() - 1]
        if count <= room:
            continue
        d += 1
        cand[d] = nxt
        base[d] = base[d - 1] | low
        if d > best:
            best = d
            best_mask = base[d]
    return best_mask


def clique_number_mask(adj: tuple[int, ...], sub: int) -> int:
    """Maximum clique size inside ``sub``."""
    return least_maximum_clique(adj, sub).bit_count()


def clique_number(g: Graph) -> int:
    """The clique number, searched once per graph and kept on it; graphs are immutable."""
    require_graph(g, "g")
    if g._omega is None:
        object.__setattr__(g, "_omega", clique_number_mask(g.adj, (1 << g.n) - 1))
    return g._omega


def independence_number(g: Graph) -> int:
    require_graph(g, "g")
    return clique_number(complement(g))


def cliques(adj: tuple[int, ...], sub: int, size: int) -> Iterator[int]:
    """Every clique of exactly ``size`` vertices inside ``sub``, as a mask, in
    ascending lexicographic order of the sorted members; callers rely on
    that order (the first clique found is the least one).

    One flat depth-first loop in one generator frame: ``cand[d]`` holds the
    untried choices for member ``d``, the common neighbours of the members
    before it that lie above them, and a branch stops when it holds fewer
    than the members still to place."""
    if not size:
        yield 0
        return
    top = size - 1
    cand = [0] * size
    base = [0] * size  # base[d]: the members before member d
    cand[0] = sub
    d = 0
    while d >= 0:
        m = cand[d]
        if not m:
            d -= 1
            continue
        low = m & -m
        m ^= low
        cand[d] = m
        if d == top:
            yield base[d] | low
            continue
        m &= adj[low.bit_length() - 1]
        if m.bit_count() >= top - d:
            d += 1
            cand[d] = m
            base[d] = base[d - 1] | low


def omega_table(adj: tuple[int, ...], n: int) -> list[int]:
    """Clique number of every induced subgraph, indexed by vertex mask."""
    table = [0] * (1 << n)
    for s in range(1, 1 << n):
        low = s & -s
        v = low.bit_length() - 1
        rest = s ^ low
        table[s] = max(table[rest], 1 + table[rest & adj[v]])
    return table


def _solve_k_coloring(g: Graph, k: int) -> Coloring | None:
    """Deterministic backtracking k-colouring; vertex order is degree-descending.

    Each vertex takes the least colour whose class mask holds none of its
    neighbours, among the colours used so far and one fresh colour.  One
    flat loop over the order: ``tried[i]`` is one more than the colour the
    ``i``-th vertex holds (0 before its first try), and ``used[i]`` the
    number of colours the vertices before it use."""
    n, adj = g.n, g.adj
    if not n:
        return Coloring((), k)
    # a stable sort of ascending vertices, so ties stay ascending
    order = sorted(range(n), key=[-row.bit_count() for row in adj].__getitem__)
    rows = [adj[v] for v in order]
    colors = [-1] * n
    classes = [0] * k
    tried = [0] * n
    used = [0] * n
    last = n - 1
    i = 0
    while i >= 0:
        v = order[i]
        bit = 1 << v
        c = tried[i]
        if c:
            classes[c - 1] ^= bit
        row = rows[i]
        top = used[i] + 1
        if top > k:
            top = k
        while c < top and row & classes[c]:
            c += 1
        if c == top:
            i -= 1
            continue
        classes[c] |= bit
        colors[v] = c
        tried[i] = c + 1
        if i == last:
            return Coloring(tuple(colors), k)
        used[i + 1] = used[i] if c < used[i] else c + 1
        i += 1
        tried[i] = 0
    return None


def chromatic_number(g: Graph) -> tuple[int, Coloring]:
    """Exact chromatic number with a deterministic optimal colouring, searched
    once per graph and kept on it; graphs are immutable."""
    require_graph(g, "g")
    if g._chi is None:
        for k in range(clique_number(g), g.n + 1):
            coloring = _solve_k_coloring(g, k)
            if coloring is not None:
                object.__setattr__(g, "_chi", (k, coloring))
                break
        else:
            raise StructureAssertionError("chromatic search lost its own optimum")
    return g._chi


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


def _first_division(adj: tuple[int, ...], comp_adj: tuple[int, ...], mask: int,
                    w: int) -> int | None:
    """Perfect side ``A`` of the first division of ``G[mask]``, or None: the
    first ``A`` by ascending popcount, then mask (Gosper's hack over the
    compressed index of ``mask``) whose rest holds no ``w = omega(G[mask])``
    clique and whose two views have no odd hole.  The empty ``A`` never qualifies."""
    verts = list(bits_of(mask))
    m = len(verts)
    for k in range(1, m + 1):
        x = (1 << k) - 1
        while x >> m == 0:
            a = 0
            for i in bits_of(x):
                a |= 1 << verts[i]
            if (next(cliques(adj, mask & ~a, w), None) is None
                    and not has_odd_hole_mask(adj, a) and not has_odd_hole_mask(comp_adj, a)):
                return a
            low = x & -x
            r = x + low
            x = (((r ^ x) >> 2) // low) | r
    return None


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


def _check_division_cap(n: int) -> None:
    if n > 16:
        raise PreconditionError("perfect-division scan supports at most 16 vertices")


def find_perfect_division(g: Graph) -> PerfectDivision | None:
    """First valid division in ascending popcount-then-mask order over ``A``.

    The empty part is perfect and has clique number zero, so perfect graphs
    always admit a division and edgeless graphs yield ``(V, empty)``.
    """
    require_graph(g, "g")
    _check_division_cap(g.n)
    full = (1 << g.n) - 1
    a = _first_division(g.adj, complement(g).adj, full, clique_number(g))
    if a is None:
        return None
    return PerfectDivision(VertexSet(a, g.n), VertexSet(full & ~a, g.n),
                           clique_number(g), clique_number_mask(g.adj, full & ~a))


def is_perfectly_divisible(g: Graph) -> bool:
    """Every nonempty induced subgraph admits a perfect division."""
    require_graph(g, "g")
    if g.n > 13:
        raise PreconditionError("divisibility scan supports at most 13 vertices")
    return _divisible(omega_table(g.adj, g.n),
                      perfection_table(g.adj, complement(g).adj, g.n), g.n)


def _optimal_map(g: Graph, mask: int) -> tuple[int, int, dict[int, int]]:
    """``(chi, omega, cmap)``: the chromatic number of ``G[mask]``, its clique
    number and an optimal colouring of it keyed by host vertex.  With
    ``mask`` the whole graph, ``induced`` gives ``g`` itself back, and so
    its kept chi."""
    part = induced(g, VertexSet(mask, g.n))
    chi, coloring = chromatic_number(part)
    return chi, clique_number(part), dict(zip(bits_of(mask), coloring.colors))


def _perfect_map(g: Graph, mask: int) -> dict[int, int]:
    """An optimal colouring of the perfect set ``mask``, asserted to use
    omega colours."""
    chi, w, cmap = _optimal_map(g, mask)
    if chi != w:
        raise StructureAssertionError("perfect set coloured above its clique number")
    return cmap


def _peeled_map(g: Graph, mask: int, w: int) -> dict[int, int] | None:
    """Colour ``G[mask]`` (clique number ``w``, at most 16 vertices) by
    peeling perfect divisions, keyed by host vertex, or None when a round
    finds no division.

    Each round takes the first division of the remaining vertices, colours
    the perfect side exactly with fresh colours, and goes on with the rest;
    the clique number drops every round, so the palette stays within
    ``comb(w+1, 2)`` by construction.  Divisibility itself is not checked:
    a graph that is not perfectly divisible is still coloured when every
    round finds a division."""
    _check_division_cap(mask.bit_count())
    comp_adj = complement(g).adj
    w_top = w
    cmap: dict[int, int] = {}
    offset = 0
    while mask:
        a = _first_division(g.adj, comp_adj, mask, w)
        if a is None:
            return None
        for v, c in _perfect_map(g, a).items():
            cmap[v] = offset + c
        offset = max(cmap.values()) + 1
        mask &= ~a
        prev_omega, w = w, clique_number_mask(g.adj, mask)
        if w >= prev_omega:
            raise StructureAssertionError("clique number failed to drop between rounds")
    if offset > comb(w_top + 1, 2):
        raise StructureAssertionError("divisible colouring exceeded its palette budget")
    return cmap
