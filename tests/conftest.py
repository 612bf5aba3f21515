"""Session fixtures: generated universes with a disk cache.

Generation is deterministic, so universes are cached as graph6 files under
``tests/_cache`` keyed by the class filter and size; delete the directory to
force regeneration.  The generation machinery itself is exercised fresh by the
enumeration tests (counts against the labeled-rejection oracle, round trips),
so a warm cache cannot mask a generator regression there.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from chibind import enumeration as en
from chibind.graphs import Graph

CACHE_DIR = Path(__file__).parent / "_cache"
CACHE_VERSION = "v1"


def _chain_key(names: tuple[str, ...]) -> str:
    safe = "-".join(n.replace(",", "").replace("+", "p").replace("(", "").replace(")", "")
                    for n in names) or "all"
    return safe


def warm_universe(names: tuple[str, ...], n_max: int) -> list[Graph]:
    """Representatives of sizes 1..n_max for the hereditary class, cached."""
    from chibind.patterns import pattern
    from chibind.graphs import empty_graph

    free_graphs = tuple(
        empty_graph(3) if name == "3K1" else pattern(name).graph for name in names
    )
    cache_key = en._pattern_cache_key(free_graphs)
    out: list[Graph] = []
    CACHE_DIR.mkdir(exist_ok=True)
    for n in range(1, n_max + 1):
        mem_key = (n, cache_key)
        path = CACHE_DIR / f"{CACHE_VERSION}-{_chain_key(names)}-{n}.g6"
        if mem_key not in en._GEN_CACHE and path.exists():
            graphs = list(en.iter_graph6_file(str(path)))
            en._GEN_CACHE[mem_key] = [g.adj for g in graphs]
            out.extend(graphs)
            continue
        graphs = en.representatives(n, free_of=free_graphs)
        if not path.exists():
            en.write_graph6_file(str(path), graphs)
        out.extend(graphs)
    return out


@pytest.fixture(scope="session")
def all_graphs_7() -> list[Graph]:
    return warm_universe((), 7)


@pytest.fixture(scope="session")
def all_graphs_8() -> list[Graph]:
    return warm_universe((), 8)


@pytest.fixture(scope="session")
def p5_free_9() -> list[Graph]:
    return warm_universe(("P5",), 9)


@pytest.fixture(scope="session")
def p5_k23_free_9() -> list[Graph]:
    return warm_universe(("P5", "K2,3"), 9)


@pytest.fixture(scope="session")
def p5_c5_k23_free_9() -> list[Graph]:
    return warm_universe(("P5", "C5", "K2,3"), 9)


@pytest.fixture(scope="session")
def p5_k1_2k2_free_9() -> list[Graph]:
    return warm_universe(("P5", "K1+2K2"), 9)


@pytest.fixture(scope="session")
def p5_k1_k1uk3_free_9() -> list[Graph]:
    return warm_universe(("P5", "K1+(K1uK3)"), 9)


@pytest.fixture(scope="session")
def p5_k3_free_9() -> list[Graph]:
    return warm_universe(("P5", "K3"), 9)


@pytest.fixture(scope="session")
def p5_k1uk3_free_9() -> list[Graph]:
    return warm_universe(("P5", "K1uK3"), 9)


@pytest.fixture(scope="session")
def two_k2_free_8() -> list[Graph]:
    return warm_universe(("2K2",), 8)


@pytest.fixture(scope="session")
def alpha_le2_9() -> list[Graph]:
    return warm_universe(("3K1",), 9)
