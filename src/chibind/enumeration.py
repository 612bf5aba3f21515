"""Non-isomorphic graph generation, canonical forms, and graph6 interchange.

Generation extends each (n-1)-vertex representative, the parent, by one
vertex over its neighbour subsets and keeps one representative per canonical
form.  A forbidden copy in a child must use the new vertex, so one search per
parent lists the induced copies of every card P - x of every forbidden P and
marks the neighbour subsets they rule out.  A child is kept only if its new
vertex has maximum degree in it, the first step of canonical augmentation
(McKay, "Isomorph-free exhaustive generation", J. Algorithms 1998).  That loses
no class: every member G has a vertex v of maximum degree, and G - v is a
member, so G arises from the representative of G - v by a new vertex of
maximum degree.  Of the subsets left, only the least of each orbit under the
parent's automorphisms is canonicalised: the others give isomorphic children.
Canonical forms come from equitable-partition refinement with an
individualise-and-refine search, taking the minimum adjacency string over the
explored orderings; cells of pairwise twins collapse to a single ordering.  The
same search yields the automorphisms.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator

from .errors import PreconditionError
from .graphs import CapacityError, Graph, GraphError, bits_of
from .patterns import Pattern, _as_graph, _require_pattern_list, mark_forbidden_traces

GENERATION_CAP = 10


# ---------------------------------------------------------------------------
# canonical forms


def _refine(adj: tuple[int, ...], cells: list[list[int]], fresh: list[int]) -> list[list[int]]:
    """Split cells by their vertices' neighbour counts per cell, in place of
    each cell its parts in ascending count order, until nothing splits.

    ``fresh`` holds, in cell order, the masks of the cells that are new since
    the partition was last equitable.  Vertices of one cell agree on their
    counts into every other cell, so comparing counts into the fresh cells
    alone splits and orders each cell as comparing all counts would.
    """
    while True:
        new_cells: list[list[int]] = []
        split: list[int] = []
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            buckets: dict[int, list[int]] = {}
            for v in cell:
                row = adj[v]
                # packed neighbour counts; 7 bits per cell suffice
                sig = 0
                for m in fresh:
                    sig = sig << 7 | (row & m).bit_count()
                got = buckets.get(sig)
                if got is None:
                    buckets[sig] = [v]
                else:
                    got.append(v)
            if len(buckets) == 1:
                new_cells.append(cell)
                continue
            for sig in sorted(buckets):
                part = buckets[sig]
                new_cells.append(part)
                m = 0
                for v in part:
                    m |= 1 << v
                split.append(m)
        if not split:
            return new_cells
        cells, fresh = new_cells, split


def _pairwise_twins(adj: tuple[int, ...], cell: list[int]) -> bool:
    for i in range(len(cell)):
        for j in range(i + 1, len(cell)):
            u, w = cell[i], cell[j]
            if adj[u] == adj[w]:
                continue
            if adj[u] ^ adj[w] == (1 << u) | (1 << w):
                continue
            return False
    return True


def _bits_under(n: int, adj: tuple[int, ...], perm: list[int]) -> int:
    bits = 0
    for j in range(1, n):
        row = adj[perm[j]]
        for i in range(j):
            bits = bits << 1 | (row >> perm[i] & 1)
    return bits


def _canon(n: int, adj: tuple[int, ...]) -> tuple[int, tuple[int, ...], set[tuple[int, ...]]]:
    """Canonical bit string, a permutation achieving it (position -> vertex),
    and automorphisms read off the same search (vertex -> image).

    Two leaves with equal bits differ by an automorphism, and so does any
    permutation of a collapsed twin cell.  The search records every leaf that
    ties with the best one so far and a transposition per twin pair, which
    generates the automorphism group.  Generation only skips extensions with
    them, so a missing generator would cost time, never a graph.
    """
    if n == 0:
        return 0, (), set()
    best_bits = -1
    best_perm: tuple[int, ...] = ()
    gens: set[tuple[int, ...]] = set()

    def descend(cells: list[list[int]], fresh: list[int]) -> None:
        nonlocal best_bits, best_perm
        cells = _refine(adj, cells, fresh)
        while True:
            for idx, cell in enumerate(cells):
                if len(cell) > 1:
                    break
            else:
                perm = [c[0] for c in cells]
                bits = _bits_under(n, adj, perm)
                if best_bits < 0 or bits < best_bits:
                    best_bits = bits
                    best_perm = tuple(perm)
                elif bits == best_bits:
                    gen = [0] * n
                    for p, v in enumerate(best_perm):
                        gen[v] = perm[p]
                    gens.add(tuple(gen))
                return
            if not _pairwise_twins(adj, cell):
                break
            # every other vertex sees all of a twin cell or none of it, so
            # splitting the cell into singletons leaves the partition equitable
            split = sorted(cell)
            for w in split[1:]:
                gen = list(range(n))
                gen[split[0]], gen[w] = w, split[0]
                gens.add(tuple(gen))
            cells = cells[:idx] + [[v] for v in split] + cells[idx + 1:]
        cell_mask = sum(1 << u for u in cell)
        for v in cell:
            rest = [u for u in cell if u != v]
            descend(cells[:idx] + [[v], rest] + cells[idx + 1:], [1 << v, cell_mask ^ 1 << v])

    descend([list(range(n))], [(1 << n) - 1])
    return best_bits, best_perm, gens


def _apply_perm(n: int, adj: tuple[int, ...], perm: tuple[int, ...]) -> tuple[int, ...]:
    pos = [0] * n
    for p, v in enumerate(perm):
        pos[v] = p
    rows = []
    for p in range(n):
        out = 0
        for v in bits_of(adj[perm[p]]):
            out |= 1 << pos[v]
        rows.append(out)
    return tuple(rows)


def canonical_key(g: Graph) -> tuple[int, int]:
    """Isomorphism-invariant key: vertex count plus canonical adjacency bits."""
    bits, _, _ = _canon(g.n, g.adj)
    return g.n, bits


def canonical_form(g: Graph) -> Graph:
    """The canonically labelled copy of ``g``."""
    _, perm, _ = _canon(g.n, g.adj)
    return Graph._trusted(g.n, _apply_perm(g.n, g.adj, perm), g.label)


# ---------------------------------------------------------------------------
# generation


_GEN_CACHE: dict[tuple, list[tuple[int, ...]]] = {}


def _pattern_cache_key(free_graphs: tuple[Graph, ...]) -> tuple:
    return tuple(sorted(canonical_key(pg) for pg in free_graphs))


def _representatives(n: int, free_graphs: tuple[Graph, ...]) -> list[tuple[int, ...]]:
    key = (n, _pattern_cache_key(free_graphs))
    cached = _GEN_CACHE.get(key)
    if cached is not None:
        return cached
    if n == 0:
        out = [()]
    else:
        parents = _representatives(n - 1, free_graphs)
        m = n - 1
        newbit = 1 << m
        seen: set[int] = set()
        out_pairs: list[tuple[int, tuple[int, ...]]] = []
        for padj in parents:
            # done[sub]: forbidden, or an orbit mate of a smaller sub; the
            # parent's automorphisms keep the forbidden subs forbidden and map
            # a child onto an isomorphic one
            done = bytearray(1 << m)
            for pg in free_graphs:
                mark_forbidden_traces(padj, m, pg, done)
            gens = _canon(m, padj)[2]
            # keep a child only if its new vertex has maximum degree there (a
            # parent vertex of degree top ends at top + 1 if sub holds it);
            # automorphisms keep degrees, so orbit mates fail together
            top = max((row.bit_count() for row in padj), default=0)
            hubs = sum(1 << v for v in range(m) if padj[v].bit_count() == top)
            for sub in range(1 << m):
                if done[sub]:
                    continue
                size = sub.bit_count()
                if size < top or size == top and sub & hubs:
                    continue
                if gens:
                    stack = [sub]
                    while stack:
                        s = stack.pop()
                        for gen in gens:
                            t = 0
                            for v in bits_of(s):
                                t |= 1 << gen[v]
                            if not done[t]:
                                done[t] = 1
                                stack.append(t)
                child = tuple(
                    padj[v] | newbit if sub >> v & 1 else padj[v] for v in range(m)
                ) + (sub,)
                bits, perm, _ = _canon(n, child)
                if bits in seen:
                    continue
                seen.add(bits)
                out_pairs.append((bits, _apply_perm(n, child, perm)))
        out_pairs.sort()
        out = [adj for _, adj in out_pairs]
    _GEN_CACHE[key] = out
    return out


def _check_generation_size(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool):
        raise PreconditionError(f"vertex count must be an int, not {n!r}")
    if n < 0:
        raise PreconditionError(f"vertex count {n} is negative")
    if n > GENERATION_CAP:
        raise PreconditionError(f"generation supports at most {GENERATION_CAP} vertices")


def representatives(n: int, free_of: Iterable[Pattern | Graph | str] = ()) -> list[Graph]:
    """Canonically labelled representatives on exactly ``n`` vertices, in
    canonical-string order, restricted to the hereditary class avoiding
    ``free_of`` as induced subgraphs; generation proves that, so each graph
    records ``free_of`` as patterns it is free of."""
    _check_generation_size(n)
    _require_pattern_list(free_of)
    free_graphs = tuple(_as_graph(p) for p in free_of)
    proved = tuple(pg.adj for pg in free_graphs)
    return [Graph._trusted(n, adj, free_of=proved) for adj in _representatives(n, free_graphs)]


# ---------------------------------------------------------------------------
# graph6


def encode_graph6(g: Graph) -> str:
    """Standard short-form graph6 text for a graph on at most 62 vertices."""
    if g.n > 62:
        raise CapacityError("short-form graph6 supports at most 62 vertices")
    chunks = [chr(63 + g.n)]
    acc = 0
    nbits = 0
    for j in range(1, g.n):
        for i in range(j):
            acc = acc << 1 | (g.adj[i] >> j & 1)
            nbits += 1
            if nbits == 6:
                chunks.append(chr(63 + acc))
                acc = 0
                nbits = 0
    if nbits:
        acc <<= 6 - nbits
        chunks.append(chr(63 + acc))
    return "".join(chunks)


def decode_graph6(text: str) -> Graph:
    """Inverse of :func:`encode_graph6`; rejects long forms and malformed input."""
    if not isinstance(text, str):
        raise GraphError(f"graph6 input must be a str, not {text!r}")
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise GraphError("empty graph6 string")
    if not s.isascii():
        raise GraphError("graph6 input must be ASCII")
    first = ord(s[0])
    if first == 126:
        raise GraphError("long-form graph6 (more than 62 vertices) is not supported")
    n = first - 63
    if not 0 <= n <= 62:
        raise GraphError(f"graph6 header byte {first} outside the short-form range")
    payload = s[1:]
    need = (n * (n - 1) // 2 + 5) // 6
    if len(payload) != need:
        raise GraphError(f"graph6 payload has {len(payload)} bytes, expected {need}")
    bits = 0
    for ch in payload:
        b = ord(ch)
        if not 63 <= b <= 126:
            raise GraphError(f"graph6 payload byte {b} out of range")
        bits = bits << 6 | (b - 63)
    # the padding bits are ignored
    bits >>= need * 6 - n * (n - 1) // 2
    pairs = _graph6_pairs(n)
    rows = [0] * n
    while bits:
        low = bits & -bits
        bits ^= low
        i, j = pairs[low.bit_length() - 1]
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    # symmetric and loop-free by construction, on at most 62 vertices
    return Graph._trusted(n, tuple(rows))


@lru_cache(maxsize=None)
def _graph6_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The vertex pair ``(i, j)`` of every pair bit of an ``n``-vertex graph6
    payload read as one integer without its padding, indexed from the least
    significant bit: the payload lists the pairs by column ``j``, then row
    ``i``, most significant first."""
    return tuple(reversed([(i, j) for j in range(1, n) for i in range(j)]))


def iter_graph6_file(path: str) -> Iterator[Graph]:
    """One graph per nonblank line; a malformed or non-ASCII line raises
    ``GraphError`` naming the file and the line number."""
    # a non-ASCII byte decodes to U+FFFD, which decode_graph6 rejects
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                g = decode_graph6(line)
            except GraphError as exc:
                raise GraphError(f"{path}, line {lineno}: {exc}") from None
            yield g


def write_graph6_file(path: str, graphs: Iterable[Graph]) -> int:
    count = 0
    with open(path, "w", encoding="ascii") as fh:
        for g in graphs:
            fh.write(encode_graph6(g) + "\n")
            count += 1
    return count

