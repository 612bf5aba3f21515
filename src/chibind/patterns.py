"""Forbidden-pattern catalog, induced-subgraph search, and the perfection test.

Every "does G induce P?" question, for every pattern, goes through one
search, :func:`_embed`.  It places the pattern vertices along a fixed
connectivity-first order and tries host vertices in ascending order.  It
keeps one candidate mask ("domain") per unplaced position: placing a vertex
narrows every later domain to its neighbours or its non-neighbours, and a
branch stops as soon as a domain empties (forward checking).  Copies that a
pattern automorphism maps onto each other are searched once: symmetry
conditions from the stabiliser chain of the automorphism group, taken along
the search order, keep only the copy whose images, read in search order, are
lexicographically least.  That copy is the least one overall, the one plain
backtracking meets first, so the witness embeddings do not depend on the
pruning.  The chain's orbits come from pinned searches of the pattern into
itself, one per pair of vertices that might share an orbit, so the group,
which grows as k! for a complete or edgeless pattern, is never listed.
Odd-hole and odd-antihole search provide the perfection test, and both
searches use a canonical cycle ordering (least start vertex, smaller second
neighbour first) so certificates are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator

from .errors import PreconditionError
from .graphs import (
    Graph,
    VertexSet,
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


@dataclass(frozen=True)
class Pattern:
    """A named small graph from the catalog, or a user-supplied one."""

    name: str
    graph: Graph


@dataclass(frozen=True)
class Embedding:
    """Injective map pattern vertex -> host vertex witnessing an induced copy."""

    map: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.map)

    def image(self, n_host: int) -> VertexSet:
        return VertexSet.of(self.map, n_host)


def _build_catalog() -> dict[str, Pattern]:
    k1 = complete_graph(1)
    k2 = complete_graph(2)
    k3 = complete_graph(3)
    diamond = join(k1, path_graph(3))
    graphs: dict[str, Graph] = {}
    for t in range(2, 8):
        graphs[f"P{t}"] = path_graph(t)
    for t in range(4, 10):
        graphs[f"C{t}"] = cycle_graph(t)
    for t in range(1, 7):
        graphs[f"K{t}"] = complete_graph(t)
    graphs["K1,3"] = from_edge_list(4, [(0, 1), (0, 2), (0, 3)])
    graphs["K2,3"] = join(empty_graph(2), empty_graph(3))
    graphs["2K2"] = disjoint_union(k2, k2)
    graphs["K1+2K2"] = join(k1, disjoint_union(k2, k2))
    graphs["K1uK3"] = disjoint_union(k1, k3)
    graphs["K1+(K1uK3)"] = join(k1, disjoint_union(k1, k3))
    graphs["bull"] = from_edge_list(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4)])
    graphs["cricket"] = from_edge_list(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4)])
    graphs["diamond"] = diamond
    # pendant on a degree-2 vertex of the diamond (vertex 1 below)
    graphs["cochair"] = from_edge_list(5, list(diamond.edges()) + [(1, 4)])
    graphs["dart"] = join(k1, disjoint_union(k1, path_graph(3)))
    graphs["hammer"] = from_edge_list(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
    graphs["house"] = complement(path_graph(5))
    graphs["gem"] = join(k1, path_graph(4))
    graphs["gem+"] = join(k1, disjoint_union(k1, path_graph(4)))
    # diamond apex 0, path 1-2-3; new vertex joined to the degree-2 vertices 1 and 3
    graphs["paraglider"] = from_edge_list(5, list(diamond.edges()) + [(4, 1), (4, 3)])
    # standard banner: a 4-cycle with one pendant vertex; named but not drawn
    # alongside the rest of the catalog, so treated as externally defined
    graphs["banner"] = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])
    return {name: Pattern(name, g.relabel(name)) for name, g in graphs.items()}


PATTERN_CATALOG: dict[str, Pattern] = _build_catalog()

_NORMALIZED = {name.lower().replace("_", "").replace("{", "").replace("}", ""): name
               for name in PATTERN_CATALOG}


def pattern(name: str) -> Pattern:
    """Resolve a catalog pattern by name; lookup is case- and brace-insensitive."""
    key = name.strip().lower().replace(" ", "").replace("_", "").replace("{", "").replace("}", "")
    if key not in _NORMALIZED:
        raise KeyError(f"unknown pattern {name!r}")
    return PATTERN_CATALOG[_NORMALIZED[key]]


def parse_pattern_list(text: str) -> list[Pattern]:
    """Parse a comma-separated pattern list.

    Names like ``K2,3`` contain a comma, so a purely numeric token is glued
    back onto its predecessor: ``"P5,K2,3"`` -> ``[P5, K2,3]``.
    """
    tokens: list[str] = []
    for raw in text.split(","):
        tok = raw.strip()
        if not tok:
            continue
        if tok.isdigit() and tokens:
            tokens[-1] += "," + tok
        else:
            tokens.append(tok)
    return [pattern(tok) for tok in tokens]


def _as_graph(p: Pattern | Graph | str) -> Graph:
    if isinstance(p, Pattern):
        return p.graph
    if isinstance(p, Graph):
        return p
    return pattern(p).graph


def _candidate_masks(host_adj: tuple[int, ...], padj: tuple[int, ...]) -> list[int] | None:
    """Per pattern vertex, the host vertices of at least its degree; None
    when some pattern vertex has no candidate."""
    # thresh[d] = vertices of degree at least d
    maxdeg = max((r.bit_count() for r in padj), default=0)
    thresh = [0] * (maxdeg + 1)
    bit = 1
    for row in host_adj:
        d = row.bit_count()
        thresh[d if d < maxdeg else maxdeg] |= bit
        bit <<= 1
    acc = 0
    for d in range(maxdeg, -1, -1):
        acc |= thresh[d]
        thresh[d] = acc
    cand = [thresh[r.bit_count()] for r in padj]
    if not all(cand):
        return None
    return cand


@lru_cache(maxsize=4096)
def _connectivity_order(padj: tuple[int, ...], k: int, start: int) -> tuple[int, ...]:
    """Assignment order growing from ``start`` along pattern edges, so host
    candidates shrink to neighbourhoods as early as possible."""
    order = [start]
    seen = 1 << start
    while len(order) < k:
        nxt = -1
        for i in order:
            fresh = padj[i] & ~seen
            if fresh:
                nxt = (fresh & -fresh).bit_length() - 1
                break
        if nxt < 0:
            for i in range(k):
                if not seen >> i & 1:
                    nxt = i
                    break
        order.append(nxt)
        seen |= 1 << nxt
    return tuple(order)


def _chain(padj: tuple[int, ...], order: tuple[int, ...], keep: int) -> tuple[tuple, ...]:
    """The search plan along ``order``: per position, the pattern vertex v
    placed there and one code per later position, bit 0 set when the later
    vertex w is adjacent to v, bit 1 set when w must get a larger host vertex
    than v.

    The conditions are those of the stabiliser chain along ``order`` of the
    automorphisms that map the vertex set ``keep`` onto itself: w must exceed
    v when one of them fixes the vertices placed before v and sends v to w,
    which a pinned search of the pattern into itself decides
    (:func:`_moves`).  For every automorphism s, f o s is an embedding when
    f is one, and the member of the class ``{f o s}`` whose images, read in
    search order, are lexicographically least meets every condition
    (Grochow and Kellis).
    """
    return tuple((v, tuple((padj[v] >> w & 1) | 2 * _moves(padj, order, idx, keep, w)
                           for w in order[idx + 1:]))
                 for idx, v in enumerate(order))


def _moves(padj: tuple[int, ...], order: tuple[int, ...], idx: int, keep: int, w: int) -> bool:
    """True iff some automorphism of the pattern fixes the vertices before
    position ``idx`` of ``order``, maps the vertex set ``keep`` onto itself
    and sends the vertex at ``idx`` to w.

    An induced copy of the pattern in itself is an automorphism, so one
    search along ``order`` answers it: the earlier vertices are pinned to
    themselves and the vertex at ``idx`` to w, and every other vertex may go
    to the vertices of its degree on its side of ``keep``.  The group is
    never listed.
    """
    kind = [(row.bit_count(), keep >> x & 1) for x, row in enumerate(padj)]
    if kind[order[idx]] != kind[w]:
        return False
    same: dict[tuple[int, int], int] = {}
    for x, key in enumerate(kind):
        same[key] = same.get(key, 0) | 1 << x
    plan = tuple((x, tuple(padj[x] >> u & 1 for u in order[i + 1:])) for i, x in enumerate(order))
    dom = [1 << x for x in order[:idx]] + [1 << w] + [same[kind[x]] for x in order[idx + 1:]]
    return _embed(padj, plan, dom, [0] * len(padj), 0)


def _place_last(image: list[int], vertex: int, dom: int,
                visit: Callable[[list[int]], bool] | None) -> bool:
    """Give the last pattern vertex each host vertex of its domain in turn."""
    while dom:
        low = dom & -dom
        dom ^= low
        image[vertex] = low.bit_length() - 1
        if visit is None or visit(image):
            return True
    return False


def _embed(host_adj: tuple[int, ...], plan: tuple[tuple, ...], dom: list[int],
           image: list[int], idx: int, visit: Callable[[list[int]], bool] | None = None) -> bool:
    """Forward-checking search for an induced copy, least host vertices first.

    ``dom`` holds the candidate masks ("domains") of positions ``idx``
    onwards of ``plan``.  Placing host vertex h ANDs every later domain with
    N(h), or with the non-neighbours of h other than h, and, for a later
    vertex that must exceed this one, with the vertices above h; a branch
    whose later domain empties is dropped at once (Haralick and Elliott).
    The last position is read off its domain.  ``image`` is indexed by
    pattern vertex.  Stops at the first complete ``image`` when ``visit`` is
    None; otherwise hands every complete image that meets the symmetry
    conditions to ``visit`` and stops once it returns True.
    """
    vertex, codes = plan[idx]
    allowed = dom[0]
    if not codes:
        return _place_last(image, vertex, allowed, visit)
    if len(codes) == 1:
        last, code, final = plan[idx + 1][0], codes[0], dom[1]
        while allowed:
            low = allowed & -allowed
            allowed ^= low
            nbrs = host_adj[low.bit_length() - 1]
            left = final & (nbrs if code & 1 else ~(nbrs | low))
            if code & 2:
                left &= -(low << 1)
            if left:
                image[vertex] = low.bit_length() - 1
                if _place_last(image, last, left, visit):
                    return True
        return False
    rest = dom[1:]
    while allowed:
        low = allowed & -allowed
        allowed ^= low
        nbrs = host_adj[low.bit_length() - 1]
        off = ~(nbrs | low)
        above = -(low << 1)
        masks = (off, nbrs, off & above, nbrs & above)
        nxt = [d & masks[c] for d, c in zip(rest, codes)]
        if 0 not in nxt:
            image[vertex] = low.bit_length() - 1
            if _embed(host_adj, plan, nxt, image, idx + 1, visit):
                return True
    return False


@lru_cache(maxsize=4096)
def _plan(padj: tuple[int, ...], k: int, start: int, keep: int) -> tuple[tuple, ...]:
    """The plan of the search that places ``start`` first, with the symmetry
    conditions of the automorphisms that map the vertex set ``keep`` onto
    itself: all of them for :func:`find_induced`, the stabiliser of a pinned
    position for :func:`has_induced_using`, and for a card of
    :func:`mark_forbidden_traces` those that keep the neighbours of the
    removed vertex.  Building it takes at most k(k-1)/2 pinned searches of
    the pattern into itself (:func:`_moves`), once per process."""
    return _chain(padj, _connectivity_order(padj, k, start), keep)


def find_induced(host: Graph, pat: Pattern | Graph | str) -> Embedding | None:
    """Least induced embedding of ``pat`` in ``host`` under the deterministic
    search order, or None.

    Pattern vertices are assigned along a fixed connectivity-first order with
    host candidates tried ascending, so the embedding returned is the one
    whose images, read in that order, are lexicographically least.  The
    search skips every copy that is not the least of its class under the
    pattern's automorphisms; the least copy overall is the least of its
    class, so the witness is the one a plain backtracking search finds.
    A result of None is kept in ``host._free_of`` and never searched again.
    """
    pg = _as_graph(pat)
    k, n = pg.n, host.n
    if k == 0:
        return Embedding(())
    if pg.adj in host._free_of:
        return None
    cand = _candidate_masks(host.adj, pg.adj) if k <= n else None
    if cand is not None:
        plan = _plan(pg.adj, k, 0, 0)
        image = [0] * k
        if _embed(host.adj, plan, [cand[v] for v, _ in plan], image, 0):
            return Embedding(tuple(image))
    object.__setattr__(host, "_free_of", host._free_of + (pg.adj,))
    return None


@lru_cache(maxsize=1024)
def _pin_orbit_reps(padj: tuple[int, ...], k: int) -> tuple[int, ...]:
    """The least pattern vertex of each automorphism orbit, p when no
    automorphism sends it to a smaller vertex; pinning only these loses
    nothing because an automorphism moves a pinned copy onto any orbit
    mate."""
    return tuple(p for p in range(k)
                 if not any(_moves(padj, _connectivity_order(padj, k, p), 0, 0, q) for q in range(p)))


def has_induced_using(host_adj: tuple[int, ...], n: int, pg: Graph, vertex: int) -> bool:
    """True iff some induced copy of ``pg`` uses ``vertex``.

    The one-vertex test for growing a single class member (the benchmark's
    seeded growth calls it per added vertex): a freshly added vertex is the
    only place a new forbidden copy can appear.  Exhaustive generation tests
    all neighbour sets of a parent at once with :func:`mark_forbidden_traces`.
    The pinned position's domain is ``vertex`` alone, so the symmetry
    conditions come from the automorphisms that fix that position.
    """
    k = pg.n
    if k == 0 or k > n:
        return k == 0
    padj = pg.adj
    cand = _candidate_masks(host_adj, padj)
    if cand is None:
        return False
    image = [0] * k
    for pos in _pin_orbit_reps(padj, k):
        plan = _plan(padj, k, pos, 1 << pos)
        dom = [cand[v] for v, _ in plan]
        dom[0] &= 1 << vertex
        if _embed(host_adj, plan, dom, image, 0):
            return True
    return False


@lru_cache(maxsize=1024)
def _cards(padj: tuple[int, ...], k: int) -> tuple[tuple, ...]:
    """Per pinned position x (one per automorphism orbit): the adjacency of
    the card P - x, its search plan, and the card positions adjacent to x.

    The plan's symmetry conditions come from the card automorphisms that map
    x's neighbour positions onto themselves, so every copy they skip has the
    image and neighbour image of a copy that is kept.
    """
    out = []
    for x in _pin_orbit_reps(padj, k):
        rest = [v for v in range(k) if v != x]
        pos = {v: i for i, v in enumerate(rest)}
        cadj = tuple(sum(1 << pos[u] for u in bits_of(padj[v]) if u != x) for v in rest)
        nbrs = tuple(pos[u] for u in bits_of(padj[x]))
        out.append((cadj, _plan(cadj, k - 1, 0, sum(1 << i for i in nbrs)), nbrs))
    return tuple(out)


def mark_forbidden_traces(host_adj: tuple[int, ...], n: int, pg: Graph, blocked: bytearray) -> None:
    """Set ``blocked[sub]`` for every neighbour set ``sub`` of a vertex added
    to the ``n``-vertex host that would complete an induced copy of ``pg``.

    The new vertex plays some pattern vertex x, up to automorphism a pinned
    one.  The rest of the copy is an induced copy of the card P - x in the
    host, with image S, and the new vertex sees exactly the image T of x's
    neighbours there: so the copy forbids every ``sub`` with
    ``sub & S == T``.  One search lists the copies of every card, one per
    class of copies with the same S and T, which replaces one
    :func:`has_induced_using` call per neighbour set.
    """
    k = pg.n
    if k <= 1:
        # the new vertex alone is a copy of K1, and every graph has the empty one
        blocked[:] = b"\x01" * len(blocked)
        return
    if k > n + 1:
        return
    full = (1 << n) - 1
    for cadj, plan, nbrs in _cards(pg.adj, k):
        cand = _candidate_masks(host_adj, cadj)
        if cand is None:
            continue

        def visit(image: list[int]) -> bool:
            s = t = 0
            for v in image:
                s |= 1 << v
            for i in nbrs:
                t |= 1 << image[i]
            free = full & ~s
            r = free
            while True:
                blocked[t | r] = 1
                if not r:
                    return False
                r = (r - 1) & free

        _embed(host_adj, plan, [cand[v] for v, _ in plan], [0] * (k - 1), 0, visit)


def is_free(host: Graph, patterns: list[Pattern | Graph | str] | tuple) -> bool:
    """True iff ``host`` induces none of the listed patterns."""
    return all(find_induced(host, p) is None for p in patterns)


def _holes(adj: tuple[int, ...], sub: int, length: int) -> Iterator[tuple[int, ...]]:
    """Every induced cycle of exactly ``length`` vertices inside ``sub``.

    Canonical ordering: each cycle starts at its least vertex and runs toward
    the smaller of the two neighbours; tuples are produced in ascending
    lexicographic order, so the first one is the least.
    """
    if length > sub.bit_count():
        return
    path = [0] * length

    def grow(depth: int, avail: int) -> Iterator[tuple[int, ...]]:
        # avail: vertices of sub above path[0] that are off the path and not
        # adjacent to path[1 .. depth-2]; prune when too few are left
        if avail.bit_count() < length - depth:
            return
        last = path[depth - 1]
        if depth == length - 1:
            # closing vertex: adjacent to both ends, independent of the middle,
            # and larger than path[1] to fix the traversal direction
            allowed = adj[last] & adj[path[0]] & avail & ~((2 << path[1]) - 1)
            for v in bits_of(allowed):
                path[depth] = v
                yield tuple(path)
            return
        allowed = adj[last] & avail
        if depth >= 2:
            allowed &= ~adj[path[0]]
            avail &= ~adj[last]
        for v in bits_of(allowed):
            path[depth] = v
            yield from grow(depth + 1, avail & ~(1 << v))

    for s in bits_of(sub):
        path[0] = s
        yield from grow(1, sub & ~((2 << s) - 1))


def has_odd_hole_mask(adj: tuple[int, ...], sub: int) -> bool:
    return any(next(_holes(adj, sub, length), None) is not None
               for length in range(5, sub.bit_count() + 1, 2))


def find_odd_hole(g: Graph) -> VertexSet | None:
    """Vertex set of the least induced odd cycle of length >= 5, or None."""
    full = (1 << g.n) - 1
    for length in range(5, g.n + 1, 2):
        tup = next(_holes(g.adj, full, length), None)
        if tup is not None:
            return VertexSet.of(tup, g.n)
    return None


def find_odd_antihole(g: Graph) -> VertexSet | None:
    """Vertex set of the least odd hole of the complement, or None."""
    return find_odd_hole(complement(g))


def is_perfect(g: Graph) -> bool:
    """No odd hole and no odd antihole, which characterises perfection."""
    full = (1 << g.n) - 1
    comp = complement(g)
    return not has_odd_hole_mask(g.adj, full) and not has_odd_hole_mask(comp.adj, full)


def is_odd_antihole(g: Graph) -> bool:
    """True iff ``g`` is the complement of a single odd cycle on >= 5 vertices."""
    if g.n < 5 or g.n % 2 == 0:
        return False
    comp = complement(g)
    if any(comp.degree(v) != 2 for v in range(g.n)):
        return False
    return is_connected(comp)


def odd_antihole_not_two_cliques(g: Graph) -> bool:
    """Exhaustively confirm no bipartition of an odd antihole into two cliques.

    The scan tries every bipartition; a True result certifies impossibility.
    """
    if not is_odd_antihole(g):
        raise PreconditionError("input is not an odd antihole on >= 5 vertices")
    full = (1 << g.n) - 1
    for a in range(0, 1 << (g.n - 1)):
        if is_clique_mask(g.adj, a) and is_clique_mask(g.adj, full & ~a):
            return False
    return True
