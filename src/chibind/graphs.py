"""Immutable bitmask graphs on at most 64 vertices and the basic constructions.

A graph is its order, one adjacency word per vertex and the facts kept after
their one search (clique number, chromatic number, patterns it is proved free
of).  Every subset of vertices fits in a single machine word, so
subset-indexed dynamic programs stay cheap.  A graph never changes after
construction; nothing here mutates its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import PreconditionError

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
        if type(self.mask) is not int or type(self.n) is not int:
            name, value = ("mask", self.mask) if type(self.mask) is not int else ("n", self.n)
            raise GraphError(f"vertex set {name} must be an int, not {value!r}")
        if not 0 <= self.n <= MAX_VERTICES:
            raise CapacityError(f"vertex count {self.n} outside 0..{MAX_VERTICES}")
        if self.mask < 0 or self.mask >> self.n:
            raise GraphError(f"mask {self.mask:#x} has bits outside 0..{self.n - 1}")

    @classmethod
    def of(cls, vertices: Iterable[int], n: int) -> VertexSet:
        _check_order(n)
        try:
            vertices = iter(vertices)
        except TypeError:
            raise GraphError(f"vertices must be iterable, not {vertices!r}") from None
        mask = 0
        for v in vertices:
            if type(v) is not int or not 0 <= v < n:
                raise GraphError(f"vertex {v!r} is not one of 0..{n - 1}")
            mask |= 1 << v
        return cls(mask, n)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[int]:
        return bits_of(self.mask)

    def __bool__(self) -> bool:
        return self.mask != 0


@dataclass(frozen=True, slots=True)
class Graph:
    """Simple undirected graph with dense adjacency rows.

    Vertices are ``0..n-1``.  ``adj[v]`` is the neighbour mask of ``v``; the
    matrix is symmetric with a zero diagonal.  Equality compares ``n`` and
    ``adj`` only, not the facts kept after their one search, which cannot go
    stale as a graph never changes: ``_omega``, the clique number, ``_chi``,
    the chromatic number with its optimal colouring, and ``_free_of``, the
    rows of the patterns it is free of.  A graph carries no name; a pattern's
    name is ``Pattern.name``.
    """

    n: int
    adj: tuple[int, ...]
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
    def _trusted(cls, n: int, adj: tuple[int, ...], free_of: tuple = ()) -> Graph:
        """A graph on rows known to be valid, such as rows of a validated graph,
        free of the patterns with rows ``free_of``; skips ``__post_init__``."""
        g = object.__new__(cls)
        _set_n(g, n)
        _set_adj(g, adj)
        _set_omega(g, None)
        _set_chi(g, None)
        _set_free_of(g, free_of)
        return g

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted((row.bit_count() for row in self.adj), reverse=True))

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for v in range(self.n):
            higher = self.adj[v] >> (v + 1) << (v + 1)
            for u in bits_of(higher):
                yield (v, u)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"


# the setters of the slots, for ``Graph._trusted``: a frozen graph refuses
# plain assignment, and ``object.__setattr__`` would look each slot up by name
_set_n = Graph.n.__set__
_set_adj = Graph.adj.__set__
_set_omega = Graph._omega.__set__
_set_chi = Graph._chi.__set__
_set_free_of = Graph._free_of.__set__


def require_graph(g, name: str) -> None:
    """Reject an argument ``name`` of a public entry point that is not a
    Graph, before anything reads it."""
    if not isinstance(g, Graph):
        raise PreconditionError(f"expected a Graph for {name}, not {g!r}")


def _check_order(n: int) -> None:
    """Reject a vertex count that no graph may have, before anything is
    built for it."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise GraphError(f"vertex count must be an int, not {n!r}")
    if not 0 <= n <= MAX_VERTICES:
        raise CapacityError(f"vertex count {n} outside 0..{MAX_VERTICES}")


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list; duplicate pairs collapse."""
    _check_order(n)
    try:
        pairs = [(u, v) for u, v in edges]
    except (TypeError, ValueError):
        raise GraphError(f"edges must be pairs of vertices, not {edges!r}") from None
    rows = [0] * n
    for u, v in pairs:
        if type(u) is not int or type(v) is not int or not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u!r},{v!r}) has an endpoint that is not one of 0..{n - 1}")
        if u == v:
            raise GraphError(f"loop edge ({u},{v})")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def empty_graph(n: int) -> Graph:
    _check_order(n)
    return Graph(n, (0,) * n)


def complete_graph(n: int) -> Graph:
    _check_order(n)
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def path_graph(n: int) -> Graph:
    return from_edge_list(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError("a cycle needs at least 3 vertices")
    return from_edge_list(n, ((i, (i + 1) % n) for i in range(n)))


def _bind(g: Graph, s: VertexSet) -> int:
    if not (isinstance(g, Graph) and isinstance(s, VertexSet)):
        require_graph(g, "g")
        raise PreconditionError(f"expected a VertexSet for s, not {s!r}")
    if s.n != g.n:
        raise BindingError(f"vertex set of order {s.n} used with graph of order {g.n}")
    return s.mask


def induced(g: Graph, s: VertexSet) -> Graph:
    """Induced subgraph on ``s``, relabelled by ascending original index (``g`` if ``s`` is all);
    it keeps the patterns ``g`` is proved free of, as freeness is hereditary."""
    mask = _bind(g, s)
    if mask == (1 << g.n) - 1:
        return g
    adj = g.adj
    old = []
    new_bit = [0] * g.n  # new_bit[v]: the bit of kept vertex v in the copy
    m = mask
    while m:
        low = m & -m
        v = low.bit_length() - 1
        new_bit[v] = 1 << len(old)
        old.append(v)
        m ^= low
    rows = []
    for v in old:
        row = 0
        m = adj[v] & mask
        while m:
            low = m & -m
            row |= new_bit[low.bit_length() - 1]
            m ^= low
        rows.append(row)
    return Graph._trusted(len(old), tuple(rows), g._free_of)


def complement(g: Graph) -> Graph:
    require_graph(g, "g")
    full = (1 << g.n) - 1
    return Graph._trusted(g.n, tuple(~row & full & ~(1 << v) for v, row in enumerate(g.adj)))


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """Union on disjoint vertex sets; ``g2`` vertices are shifted by ``g1.n``."""
    require_graph(g1, "g1")
    require_graph(g2, "g2")
    if g1.n + g2.n > MAX_VERTICES:
        raise CapacityError(f"union of {g1.n}+{g2.n} vertices exceeds {MAX_VERTICES}")
    rows = list(g1.adj) + [row << g1.n for row in g2.adj]
    return Graph(g1.n + g2.n, tuple(rows))


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus all cross edges."""
    require_graph(g1, "g1")
    require_graph(g2, "g2")
    if g1.n + g2.n > MAX_VERTICES:
        raise CapacityError(f"join of {g1.n}+{g2.n} vertices exceeds {MAX_VERTICES}")
    left = (1 << g1.n) - 1
    right = ((1 << g2.n) - 1) << g1.n
    rows = [row | right for row in g1.adj]
    rows += [(row << g1.n) | left for row in g2.adj]
    return Graph(g1.n + g2.n, tuple(rows))


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
            while frontier:
                low = frontier & -frontier
                grow |= adj[low.bit_length() - 1]
                frontier ^= low
            grow &= sub & ~comp
            comp |= grow
            frontier = grow
        out.append(comp)
        remaining &= ~comp
    return out


def is_connected(g: Graph) -> bool:
    require_graph(g, "g")
    return g.n <= 1 or len(components_masks(g.adj, (1 << g.n) - 1)) == 1


def is_clique_mask(adj: tuple[int, ...], mask: int) -> bool:
    m = mask
    while m:
        low = m & -m
        if mask & ~adj[low.bit_length() - 1] & ~low:
            return False
        m ^= low
    return True


def is_independent_mask(adj: tuple[int, ...], mask: int) -> bool:
    m = mask
    while m:
        low = m & -m
        if adj[low.bit_length() - 1] & mask:
            return False
        m ^= low
    return True


def is_clique(g: Graph, s: VertexSet) -> bool:
    """Empty and singleton sets count as cliques."""
    mask = _bind(g, s)
    return is_clique_mask(g.adj, mask)


def neighborhood_mask(adj: tuple[int, ...], mask: int) -> int:
    """Vertices outside ``mask`` with a neighbour inside it."""
    out = 0
    m = mask
    while m:
        low = m & -m
        out |= adj[low.bit_length() - 1]
        m ^= low
    return out & ~mask
