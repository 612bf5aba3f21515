"""Independent oracles for the test suite.

Everything here recomputes facts by a different route than the package:
labeled enumeration with explicit isomorphism rejection, subset dynamic
programming over independent sets for chromatic numbers, the definitional
perfection check, plain subset scans, and the five-hole decomposition with
frozenset class keys, which also reads a decomposition's class by its hole
positions.  These stay deliberately naive.
"""

from __future__ import annotations

import itertools
import random

from chibind.errors import PreconditionError
from chibind.graphs import (
    Graph,
    GraphError,
    VertexSet,
    bits_of,
    complement,
    components_masks,
    distances_from,
    from_edge_list,
    induced,
)
from chibind.invariants import Coloring, PerfectDivision, chromatic_number, clique_number, cliques


def _pair_index(n: int) -> dict[tuple[int, int], int]:
    idx = {}
    k = 0
    for j in range(1, n):
        for i in range(j):
            idx[(i, j)] = k
            k += 1
    return idx


def labeled_rejection_counts(n: int) -> tuple[int, int]:
    """(all, connected) isomorphism-class counts by labeled enumeration.

    Every labeled graph is visited; the first member of each permutation
    orbit is counted and the whole orbit is marked seen.
    """
    idx = _pair_index(n)
    nbits = n * (n - 1) // 2
    perms = list(itertools.permutations(range(n)))
    remaps = []
    for perm in perms:
        remaps.append([idx[tuple(sorted((perm[i], perm[j])))] for (i, j), b in
                       sorted(idx.items(), key=lambda kv: kv[1])])
    seen = bytearray(1 << nbits)
    total = 0
    connected = 0
    for mask in range(1 << nbits):
        if seen[mask]:
            continue
        total += 1
        if _mask_connected(mask, n, idx):
            connected += 1
        for remap in remaps:
            out = 0
            m = mask
            while m:
                low = m & -m
                m ^= low
                out |= 1 << remap[low.bit_length() - 1]
            seen[out] = 1
    return total, connected


def _mask_connected(mask: int, n: int, idx: dict[tuple[int, int], int]) -> bool:
    adj = [0] * n
    for (i, j), b in idx.items():
        if mask >> b & 1:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return n <= 1 or len(components_masks(tuple(adj), (1 << n) - 1)) == 1


def graph_from_pair_mask(n: int, mask: int) -> Graph:
    idx = _pair_index(n)
    edges = [(i, j) for (i, j), b in idx.items() if mask >> b & 1]
    return from_edge_list(n, edges)


def chromatic_table_dp(adj: tuple[int, ...], n: int) -> list[int]:
    """Exact chromatic number of every induced subgraph, by peeling one
    independent set containing the lowest vertex at a time."""
    table = [0] * (1 << n)
    for s in range(1, 1 << n):
        low = s & -s
        v = low.bit_length() - 1
        best = n + 1
        # independent subsets of s containing v
        stack = [(low, s & ~low & ~adj[v])]
        while stack:
            chosen, avail = stack.pop()
            cand = 1 + table[s & ~chosen]
            if cand < best:
                best = cand
            while avail:
                w = avail & -avail
                avail ^= w
                u = w.bit_length() - 1
                stack.append((chosen | w, avail & ~adj[u]))
        table[s] = best
    return table


def chromatic_dp(g: Graph) -> int:
    return chromatic_table_dp(g.adj, g.n)[(1 << g.n) - 1]


def omega_table_brute(adj: tuple[int, ...], n: int) -> list[int]:
    table = [0] * (1 << n)
    for s in range(1, 1 << n):
        low = s & -s
        v = low.bit_length() - 1
        rest = s ^ low
        table[s] = max(table[rest], 1 + table[rest & adj[v]])
    return table


def is_perfect_definitional(g: Graph) -> bool:
    """Perfection straight from the definition: chromatic equals clique on
    every induced subgraph."""
    chi = chromatic_table_dp(g.adj, g.n)
    omega = omega_table_brute(g.adj, g.n)
    return all(chi[s] == omega[s] for s in range(1 << g.n))


def perfection_table_definitional(g: Graph) -> list[bool]:
    """Perfection of every induced subgraph, indexed by vertex mask: chromatic
    equals clique number on the subgraph and on all of its subgraphs."""
    n = g.n
    chi = chromatic_table_dp(g.adj, n)
    omega = omega_table_brute(g.adj, n)
    perfect = [True] * (1 << n)
    for s in range(1 << n):
        if chi[s] != omega[s]:
            perfect[s] = False
            continue
        m = s
        ok = True
        while m:
            low = m & -m
            m ^= low
            if not perfect[s ^ low]:
                ok = False
                break
        perfect[s] = ok
    return perfect


def perfectly_divisible_definitional(g: Graph) -> bool:
    """Divisibility by subset scan using only the definitional machinery."""
    n = g.n
    omega = omega_table_brute(g.adj, n)
    perfect = perfection_table_definitional(g)
    for h in range(1, 1 << n):
        wh = omega[h]
        a = h
        found = False
        while True:
            if perfect[a] and omega[h & ~a] < wh:
                found = True
                break
            if a == 0:
                break
            a = (a - 1) & h
        if not found:
            return False
    return True


def homogeneous_sets_brute(g: Graph) -> list[int]:
    """All homogeneous set masks by exhaustive subset scan."""
    n = g.n
    full = (1 << n) - 1
    out = []
    for x in range(1, full):
        if x.bit_count() < 2 or x.bit_count() > n - 1:
            continue
        ok = True
        for z in bits_of(full & ~x):
            hit = g.adj[z] & x
            if hit and hit != x:
                ok = False
                break
        if ok:
            out.append(x)
    return out


def induced_copy_exists(host: Graph, pat: Graph) -> bool:
    k = pat.n
    if k > host.n:
        return False
    for perm in itertools.permutations(range(host.n), k):
        if all((pat.adj[i] >> j & 1) == (host.adj[perm[i]] >> perm[j] & 1)
               for i in range(k) for j in range(i)):
            return True
    return False


def _embed_plain(host_adj: tuple[int, ...], padj: tuple[int, ...], order: tuple[int, ...],
                 image: list[int], idx: int, used: int, forced: int) -> bool:
    # plain backtracking: each pattern vertex is checked against the placed
    # ones only when it is reached; ``forced`` pins the first one
    if idx == len(order):
        return True
    i = order[idx]
    if idx == 0 and forced >= 0:
        allowed = 1 << forced
    else:
        allowed = ((1 << len(host_adj)) - 1) & ~used
        if forced >= 0:
            allowed &= ~(1 << forced)
    for q in range(idx):
        j = order[q]
        allowed &= host_adj[image[j]] if padj[i] >> j & 1 else ~host_adj[image[j]]
    for h in bits_of(allowed):
        image[i] = h
        if _embed_plain(host_adj, padj, order, image, idx + 1, used | 1 << h, forced):
            return True
    return False


def least_embedding_plain(host: Graph, pat: Graph) -> tuple[int, ...] | None:
    """The induced embedding of ``pat`` whose host vertices, read in the
    package's connectivity order, are lexicographically least: plain
    backtracking with no domains and no symmetry conditions."""
    from chibind.patterns import _connectivity_order

    k = pat.n
    if k > host.n:
        return None
    image = [0] * k
    if k == 0 or _embed_plain(host.adj, pat.adj, _connectivity_order(pat.adj, k, 0), image, 0, 0, -1):
        return tuple(image)
    return None


def uses_vertex_plain(host_adj: tuple[int, ...], pat: Graph, vertex: int) -> bool:
    """True iff some induced copy of ``pat`` uses ``vertex``: every pattern
    vertex is pinned to it in turn."""
    from chibind.patterns import _connectivity_order

    k = pat.n
    return k <= len(host_adj) and any(
        _embed_plain(host_adj, pat.adj, _connectivity_order(pat.adj, k, p), [0] * k, 0, 0, vertex)
        for p in range(k))


def induced_cycles_brute(adj: tuple[int, ...], n: int, length: int) -> list[tuple[int, ...]]:
    """Every induced cycle on ``length`` vertices by scanning all subsets in
    ``combinations`` order.  Each cycle is written from its least vertex
    toward the smaller of its two neighbours."""
    out = []
    for combo in itertools.combinations(range(n), length):
        mask = sum(1 << v for v in combo)
        if any((adj[v] & mask).bit_count() != 2 for v in combo):
            continue
        # two-regular: walk the component of the least vertex
        order = [combo[0]]
        prev, cur = combo[0], min(bits_of(adj[combo[0]] & mask))
        while cur != combo[0]:
            order.append(cur)
            prev, cur = cur, (adj[cur] & mask & ~(1 << prev)).bit_length() - 1
        if len(order) == length:
            out.append(tuple(order))
    return out


def decode_graph6_plain(text: str) -> Graph:
    """graph6 decoding that reads every pair bit of the payload in turn."""
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
    total = need * 6
    rows = [0] * n
    pos = 0
    for j in range(1, n):
        for i in range(j):
            bit = bits >> (total - 1 - pos) & 1
            pos += 1
            if bit:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph(n, tuple(rows))


def seeded_random_graphs(seed: int, sizes: range, per_size: int) -> list[Graph]:
    """``per_size`` random graphs on each of ``sizes`` vertices, with edge
    densities 0.3, 0.5 and 0.7 in turn; the same list for the same seed."""
    rng = random.Random(seed)
    out = []
    for n in sizes:
        pairs = list(itertools.combinations(range(n), 2))
        for i in range(per_size):
            density = (0.3, 0.5, 0.7)[i % 3]
            out.append(from_edge_list(n, [e for e in pairs if rng.random() < density]))
    return out


def views_and_sub_masks(graphs: list[Graph], seed: int):
    """``(adj, n, subs)`` for both adjacency views of every graph (the graph
    and its complement), where ``subs`` holds the full vertex mask and two
    seeded random sub masks."""
    rng = random.Random(seed)
    for g in graphs:
        for adj in (g.adj, complement(g).adj):
            yield adj, g.n, ((1 << g.n) - 1, rng.getrandbits(g.n), rng.getrandbits(g.n))


def five_hole_decomposition_plain(
    g: Graph, hole: tuple[int, ...]
) -> tuple[dict[frozenset[int], VertexSet], tuple[VertexSet, ...], VertexSet]:
    """The five-hole decomposition keyed by frozensets of 1-based hole
    positions, with validated vertex sets and levels read off one
    breadth-first search: ``(classes, levels, unreachable)``, where
    ``classes`` maps every nonempty position set to its class."""
    if len(hole) != 5 or len(set(hole)) != 5:
        raise PreconditionError("a five-hole needs five distinct vertices")
    for i in range(5):
        a, b = hole[i], hole[(i + 1) % 5]
        c = hole[(i + 2) % 5]
        if not g.has_edge(a, b):
            raise PreconditionError(f"hole vertices {a},{b} are not adjacent")
        if g.has_edge(a, c):
            raise PreconditionError(f"hole chord {a},{c}: cycle is not induced")
    n = g.n
    hole_mask = 0
    for v in hole:
        hole_mask |= 1 << v
    dist = distances_from(g, VertexSet(hole_mask, n))
    depth = max((d for d in dist if d is not None), default=0)
    level_masks = [0] * depth
    unreachable = 0
    for v in range(n):
        d = dist[v]
        if d is None:
            unreachable |= 1 << v
        elif d >= 1:
            level_masks[d - 1] |= 1 << v
    classes: dict[frozenset[int], int] = {}
    if depth >= 1:
        for x in bits_of(level_masks[0]):
            key = frozenset(i + 1 for i in range(5) if g.has_edge(x, hole[i]))
            classes[key] = classes.get(key, 0) | (1 << x)
    class_sets = {}
    for r in range(1, 6):
        for combo in itertools.combinations(range(1, 6), r):
            key = frozenset(combo)
            class_sets[key] = VertexSet(classes.get(key, 0), n)
    return class_sets, tuple(VertexSet(m, n) for m in level_masks), VertexSet(unreachable, n)


def neighbor_class(dec, *positions: int) -> int:
    """The class of a five-hole decomposition whose vertices see exactly the
    hole vertices at the 1-based, cyclic ``positions``: the one entry of
    ``dec.classes`` whose index, decoded bit by bit, names that position set."""
    want = frozenset((i - 1) % 5 + 1 for i in positions)
    (mask,) = [m for p, m in enumerate(dec.classes)
               if frozenset(k + 1 for k in range(5) if p >> k & 1) == want]
    return mask


def cliques_brute(adj: tuple[int, ...], n: int, size: int) -> list[int]:
    """Masks of every clique on ``size`` vertices, in ``combinations`` order."""
    out = []
    for combo in itertools.combinations(range(n), size):
        if all(adj[u] >> v & 1 for u, v in itertools.combinations(combo, 2)):
            out.append(sum(1 << v for v in combo))
    return out


def first_division_brute(g: Graph) -> PerfectDivision | None:
    """First division by a sorted scan of all vertex subsets, ascending
    popcount then mask, against definitional subset tables."""
    n = g.n
    full = (1 << n) - 1
    omega = omega_table_brute(g.adj, n)
    perfect = perfection_table_definitional(g)
    for a in sorted(range(1 << n), key=lambda m: (m.bit_count(), m)):
        if omega[full & ~a] < omega[full] and perfect[a]:
            return PerfectDivision(VertexSet(a, n), VertexSet(full & ~a, n),
                                   omega[full], omega[full & ~a])
    return None


def chi_bound_divisible_per_round(g: Graph) -> tuple[int, Coloring]:
    """The divisibility colourer with each peeling round as its own graph:
    relabel the remaining vertices and take the first division of the
    relabelled copy from :func:`first_division_brute`."""
    n = g.n
    if n == 0:
        return 0, Coloring((), 0)
    colors = [-1] * n
    offset = 0
    mask = (1 << n) - 1
    while mask:
        verts = list(bits_of(mask))
        h = induced(g, VertexSet(mask, n))
        division = first_division_brute(h)
        assert division is not None
        part = induced(h, division.a)
        chi, sub_coloring = chromatic_number(part)
        assert chi == clique_number(part)
        for local, i in enumerate(division.a):
            colors[verts[i]] = offset + sub_coloring.colors[local]
        offset += chi
        mask = 0
        for i in division.b:
            mask |= 1 << verts[i]
    return offset, Coloring(tuple(colors), offset)


def clique_cutset_brute(g: Graph) -> tuple[int, list[int]] | None:
    """Least clique cutset of a connected graph, by size then sorted members,
    with the components it leaves: every clique of every size is tried, in
    lexicographic order of its sorted members, by the depth-first clique
    generator (itself checked against ``cliques_brute``)."""
    full = (1 << g.n) - 1
    for size in range(1, g.n - 1):
        for mask in cliques(g.adj, full, size):
            comps = components_masks(g.adj, full & ~mask)
            if len(comps) >= 2:
                return mask, comps
    return None


def minimal_cutsets_brute(g: Graph) -> list[tuple[int, list[int]]]:
    """Inclusion-minimal separating sets of a connected graph, by size then
    mask, each with the components it leaves: every separating subset is
    collected, then those containing an earlier one are dropped."""
    full = (1 << g.n) - 1
    cutsets = sorted((m for m in range(1, full) if len(components_masks(g.adj, full & ~m)) >= 2),
                     key=lambda m: (m.bit_count(), m))
    minimal: list[int] = []
    for mask in cutsets:
        if not any(kept & mask == kept for kept in minimal):
            minimal.append(mask)
    return [(m, components_masks(g.adj, full & ~m)) for m in minimal]


def cutset_splits_oracle(g: Graph) -> list[tuple[int, int]]:
    """The (cut, side) splits of the clique-cutset recursion, as host masks in
    the order they are made: every component, and every piece after it, is
    copied, its least clique cutset is taken by ``clique_cutset_brute`` on the
    copy, and it splits into its first side plus the cut and the rest."""
    splits: list[tuple[int, int]] = []

    def split(mask: int) -> None:
        verts = list(bits_of(mask))
        found = clique_cutset_brute(induced(g, VertexSet(mask, g.n)))
        if found is None:
            return
        cut, side = (sum(1 << verts[i] for i in bits_of(m)) for m in (found[0], found[1][0]))
        splits.append((cut, side))
        split(side | cut)
        split(mask & ~side)

    for comp in components_masks(g.adj, (1 << g.n) - 1):
        split(comp)
    return splits
