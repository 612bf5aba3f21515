"""Immutable bitmask graphs on at most 64 vertices and the basic constructions.

A graph stores one adjacency word per vertex, so every subset of vertices fits
in a single machine word and subset-indexed dynamic programs stay cheap.  A
graph never changes after construction; nothing here mutates its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

MAX_VERTICES = 64


class GraphError(ValueError):
    """Malformed graph construction or operation input."""


class CapacityError(GraphError):
    """Vertex count beyond the 64-vertex budget."""


class BindingError(GraphError):
    """A VertexSet was used with a graph of a different order."""


def bits_of(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class VertexSet:
    """Subset of ``0..n-1`` packed into one word, bound to graphs of order ``n``."""

    mask: int
    n: int

    def __post_init__(self) -> None:
        if not 0 <= self.n <= MAX_VERTICES:
            raise CapacityError(f"vertex count {self.n} outside 0..{MAX_VERTICES}")
        if self.mask < 0 or self.mask >> self.n:
            raise GraphError(f"mask {self.mask:#x} has bits outside 0..{self.n - 1}")

    @classmethod
    def of(cls, vertices: Iterable[int], n: int) -> VertexSet:
        mask = 0
        for v in vertices:
            if not 0 <= v < n:
                raise GraphError(f"vertex {v} outside 0..{n - 1}")
            mask |= 1 << v
        return cls(mask, n)

    @classmethod
    def full(cls, n: int) -> VertexSet:
        return cls((1 << n) - 1, n)

    def members(self) -> tuple[int, ...]:
        return tuple(bits_of(self.mask))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[int]:
        return bits_of(self.mask)

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n and bool(self.mask >> v & 1)

    def __bool__(self) -> bool:
        return self.mask != 0

    def _check_binding(self, other: VertexSet) -> None:
        if self.n != other.n:
            raise BindingError(f"vertex sets bound to different orders {self.n} and {other.n}")

    def __or__(self, other: VertexSet) -> VertexSet:
        self._check_binding(other)
        return VertexSet(self.mask | other.mask, self.n)

    def __and__(self, other: VertexSet) -> VertexSet:
        self._check_binding(other)
        return VertexSet(self.mask & other.mask, self.n)

    def __sub__(self, other: VertexSet) -> VertexSet:
        self._check_binding(other)
        return VertexSet(self.mask & ~other.mask, self.n)

    def complement(self) -> VertexSet:
        return VertexSet(~self.mask & ((1 << self.n) - 1), self.n)


@dataclass(frozen=True, slots=True)
class Graph:
    """Simple undirected graph with dense adjacency rows.

    Vertices are ``0..n-1``.  ``adj[v]`` is the neighbour mask of ``v``; the
    matrix is symmetric with a zero diagonal.  The label is a display tag and
    does not take part in equality.  Neither do the facts kept after their one
    search, which cannot go stale as a graph never changes: ``_omega``, the
    clique number, ``_chi``, the chromatic number with its optimal colouring,
    and ``_free_of``, the rows of the patterns it is free of.
    """

    n: int
    adj: tuple[int, ...]
    label: str | None = field(default=None, compare=False)
    # declared slots: an undeclared attribute would cost every graph a dictionary
    _omega: int | None = field(default=None, init=False, compare=False, repr=False)
    _chi: tuple | None = field(default=None, init=False, compare=False, repr=False)
    _free_of: tuple = field(default=(), init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        _check_order(self.n)
        try:
            object.__setattr__(self, "adj", tuple(self.adj))
        except TypeError:
            raise GraphError(f"adjacency rows must be iterable, not {self.adj!r}") from None
        if len(self.adj) != self.n:
            raise GraphError("adjacency row count does not match vertex count")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if not isinstance(row, int) or isinstance(row, bool):
                raise GraphError(f"adjacency row {v} must be an int, not {row!r}")
            if row < 0 or row & ~full:
                raise GraphError(f"adjacency row {v} has bits outside the vertex range")
            if row >> v & 1:
                raise GraphError(f"loop at vertex {v}")
            for u in bits_of(row):
                if not self.adj[u] >> v & 1:
                    raise GraphError(f"asymmetric adjacency between {u} and {v}")

    @classmethod
    def _trusted(cls, n: int, adj: tuple[int, ...], label: str | None = None,
                 free_of: tuple = ()) -> Graph:
        """A graph on rows known to be valid, such as rows of a validated graph,
        free of the patterns with rows ``free_of``; skips ``__post_init__``."""
        g = object.__new__(cls)
        _set_n(g, n)
        _set_adj(g, adj)
        _set_label(g, label)
        _set_omega(g, None)
        _set_chi(g, None)
        _set_free_of(g, free_of)
        return g

    def vertices(self) -> VertexSet:
        return VertexSet.full(self.n)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted((row.bit_count() for row in self.adj), reverse=True))

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for v in range(self.n):
            higher = self.adj[v] >> (v + 1) << (v + 1)
            for u in bits_of(higher):
                yield (v, u)

    def neighbors(self, v: int) -> VertexSet:
        return VertexSet(self.adj[v], self.n)

    def relabel(self, label: str | None) -> Graph:
        return Graph(self.n, self.adj, label)

    def __repr__(self) -> str:
        tag = f" {self.label!r}" if self.label else ""
        return f"Graph(n={self.n}, m={self.edge_count()}{tag})"


# the setters of the slots, for ``Graph._trusted``: a frozen graph refuses
# plain assignment, and ``object.__setattr__`` would look each slot up by name
_set_n = Graph.n.__set__
_set_adj = Graph.adj.__set__
_set_label = Graph.label.__set__
_set_omega = Graph._omega.__set__
_set_chi = Graph._chi.__set__
_set_free_of = Graph._free_of.__set__


def _check_order(n: int) -> None:
    """Reject a vertex count that no graph may have, before anything is
    built for it."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise GraphError(f"vertex count must be an int, not {n!r}")
    if not 0 <= n <= MAX_VERTICES:
        raise CapacityError(f"vertex count {n} outside 0..{MAX_VERTICES}")


def from_edge_list(n: int, edges: Iterable[tuple[int, int]], label: str | None = None) -> Graph:
    """Build a graph from an edge list; duplicate pairs collapse."""
    _check_order(n)
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise GraphError(f"loop edge ({u},{v})")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows), label)


def empty_graph(n: int, label: str | None = None) -> Graph:
    _check_order(n)
    return Graph(n, (0,) * n, label)


def complete_graph(n: int, label: str | None = None) -> Graph:
    _check_order(n)
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)), label)


def path_graph(n: int, label: str | None = None) -> Graph:
    return from_edge_list(n, ((i, i + 1) for i in range(n - 1)), label)


def cycle_graph(n: int, label: str | None = None) -> Graph:
    if n < 3:
        raise GraphError("a cycle needs at least 3 vertices")
    return from_edge_list(n, ((i, (i + 1) % n) for i in range(n)), label)


def _bind(g: Graph, s: VertexSet) -> int:
    if s.n != g.n:
        raise BindingError(f"vertex set of order {s.n} used with graph of order {g.n}")
    return s.mask


def induced(g: Graph, s: VertexSet) -> Graph:
    """Induced subgraph on ``s``, relabelled by ascending original index (``g`` if ``s`` is all);
    it keeps the patterns ``g`` is proved free of, as freeness is hereditary."""
    mask = _bind(g, s)
    if mask == (1 << g.n) - 1:
        return g
    old = list(bits_of(mask))
    pos = {v: i for i, v in enumerate(old)}
    rows = []
    for v in old:
        row = 0
        for u in bits_of(g.adj[v] & mask):
            row |= 1 << pos[u]
        rows.append(row)
    return Graph._trusted(len(old), tuple(rows), g.label, g._free_of)


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph._trusted(g.n, tuple(~row & full & ~(1 << v) for v, row in enumerate(g.adj)),
                          g.label)


def disjoint_union(g1: Graph, g2: Graph, label: str | None = None) -> Graph:
    """Union on disjoint vertex sets; ``g2`` vertices are shifted by ``g1.n``."""
    if g1.n + g2.n > MAX_VERTICES:
        raise CapacityError(f"union of {g1.n}+{g2.n} vertices exceeds {MAX_VERTICES}")
    rows = list(g1.adj) + [row << g1.n for row in g2.adj]
    return Graph(g1.n + g2.n, tuple(rows), label)


def join(g1: Graph, g2: Graph, label: str | None = None) -> Graph:
    """Disjoint union plus all cross edges."""
    if g1.n + g2.n > MAX_VERTICES:
        raise CapacityError(f"join of {g1.n}+{g2.n} vertices exceeds {MAX_VERTICES}")
    left = (1 << g1.n) - 1
    right = ((1 << g2.n) - 1) << g1.n
    rows = [row | right for row in g1.adj]
    rows += [(row << g1.n) | left for row in g2.adj]
    return Graph(g1.n + g2.n, tuple(rows), label)


def components_masks(adj: tuple[int, ...], sub: int) -> list[int]:
    """Connected component masks of the subgraph induced on ``sub``."""
    out = []
    remaining = sub
    while remaining:
        seed = remaining & -remaining
        comp = seed
        frontier = seed
        while frontier:
            grow = 0
            for v in bits_of(frontier):
                grow |= adj[v]
            grow &= sub & ~comp
            comp |= grow
            frontier = grow
        out.append(comp)
        remaining &= ~comp
    return out


def components(g: Graph) -> list[VertexSet]:
    """Connected components, ordered by least member."""
    return [VertexSet(m, g.n) for m in components_masks(g.adj, (1 << g.n) - 1)]


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(components_masks(g.adj, (1 << g.n) - 1)) == 1


def distances_from(g: Graph, s: VertexSet) -> tuple[int | None, ...]:
    """Hop distance of every vertex to ``s``; ``None`` marks unreachable."""
    source = _bind(g, s)
    dist: list[int | None] = [None] * g.n
    for v in bits_of(source):
        dist[v] = 0
    frontier = source
    seen = source
    d = 0
    while frontier:
        d += 1
        grow = 0
        for v in bits_of(frontier):
            grow |= g.adj[v]
        grow &= ~seen & ((1 << g.n) - 1)
        for v in bits_of(grow):
            dist[v] = d
        seen |= grow
        frontier = grow
    return tuple(dist)


def is_clique_mask(adj: tuple[int, ...], mask: int) -> bool:
    for v in bits_of(mask):
        if mask & ~adj[v] & ~(1 << v):
            return False
    return True


def is_independent_mask(adj: tuple[int, ...], mask: int) -> bool:
    for v in bits_of(mask):
        if adj[v] & mask:
            return False
    return True


def is_clique(g: Graph, s: VertexSet) -> bool:
    """Empty and singleton sets count as cliques."""
    return is_clique_mask(g.adj, _bind(g, s))


def is_independent(g: Graph, s: VertexSet) -> bool:
    return is_independent_mask(g.adj, _bind(g, s))


def is_complete_to(g: Graph, x: VertexSet, y: VertexSet) -> bool:
    """Every vertex of ``x`` adjacent to every vertex of ``y``; vacuous on empties."""
    xm, ym = _bind(g, x), _bind(g, y)
    if xm & ym:
        raise GraphError("complete-to requires disjoint vertex sets")
    return all(g.adj[v] & ym == ym for v in bits_of(xm))


def is_anticomplete_to(g: Graph, x: VertexSet, y: VertexSet) -> bool:
    """No edges between ``x`` and ``y``; vacuous on empties."""
    xm, ym = _bind(g, x), _bind(g, y)
    if xm & ym:
        raise GraphError("anticomplete-to requires disjoint vertex sets")
    return all(not g.adj[v] & ym for v in bits_of(xm))


def neighborhood_mask(adj: tuple[int, ...], mask: int) -> int:
    """Vertices outside ``mask`` with a neighbour inside it."""
    out = 0
    for v in bits_of(mask):
        out |= adj[v]
    return out & ~mask
