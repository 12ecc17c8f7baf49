"""Maximum bipartite matching via Hopcroft-Karp, from scratch.

The polygamous-Hall machinery (Theorem 2.1) reduces k-matchings to ordinary
bipartite matchings on a graph with k clones of every left vertex; this
module supplies the matching engine. Left and right vertices are arbitrary
hashable objects.

:func:`hopcroft_karp` is one dict-of-set implementation operating
directly on hashable vertices; it always returns a *valid maximum*
matching (``tests/indist/test_matching.py`` checks its size against
brute force).

The copying accessors (``left``/``right``/``neighbors``) hand external
callers defensive copies. Hot loops -- Hopcroft-Karp and the
Hall-condition checks -- use the non-copying ``iter_*`` /
``left_count``-style paths so that a BFS visit does not allocate a
fresh set per vertex.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, Iterable, Iterator, Mapping, Optional, Set

from repro.obs.spans import span

INF = float("inf")

#: Shared empty neighborhood for vertices with no edges (never mutated).
_EMPTY: frozenset = frozenset()


class BipartiteGraph:
    """An explicit bipartite graph with adjacency from the left side."""

    __slots__ = ("_left", "_right", "_adj")

    def __init__(self) -> None:
        self._left: Set[Hashable] = set()
        self._right: Set[Hashable] = set()
        self._adj: Dict[Hashable, Set[Hashable]] = {}

    def add_left(self, v: Hashable) -> None:
        self._left.add(v)
        self._adj.setdefault(v, set())

    def add_right(self, v: Hashable) -> None:
        self._right.add(v)

    def add_edge(self, left: Hashable, right: Hashable) -> None:
        self.add_left(left)
        self.add_right(right)
        self._adj[left].add(right)

    @property
    def left(self) -> Set[Hashable]:
        """A defensive *copy* of the left vertex set (external callers)."""
        return set(self._left)

    @property
    def right(self) -> Set[Hashable]:
        """A defensive *copy* of the right vertex set (external callers)."""
        return set(self._right)

    def neighbors(self, left: Hashable) -> Set[Hashable]:
        """A defensive *copy* of N(left) (external callers)."""
        return set(self._adj.get(left, set()))

    # -- non-copying paths (hot loops; do NOT mutate what they yield) --

    def iter_left(self) -> Iterator[Hashable]:
        """Iterate left vertices without copying the set."""
        return iter(self._left)

    def iter_right(self) -> Iterator[Hashable]:
        """Iterate right vertices without copying the set."""
        return iter(self._right)

    def iter_neighbors(self, left: Hashable) -> Iterable[Hashable]:
        """N(left) by reference -- no copy. Treat as read-only."""
        return self._adj.get(left, _EMPTY)

    def left_count(self) -> int:
        return len(self._left)

    def right_count(self) -> int:
        return len(self._right)

    def neighborhood(self, subset: Iterable[Hashable]) -> Set[Hashable]:
        """N(S) for a set of left vertices."""
        out: Set[Hashable] = set()
        for v in subset:
            out |= self._adj.get(v, set())
        return out

    def degree(self, left: Hashable) -> int:
        return len(self._adj.get(left, set()))

    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values())

    def __repr__(self) -> str:
        return (
            f"BipartiteGraph(|L|={len(self._left)}, |R|={len(self._right)}, "
            f"m={self.edge_count()})"
        )


def hopcroft_karp(graph: BipartiteGraph) -> Dict[Hashable, Hashable]:
    """Maximum matching; returns a left-vertex -> right-vertex map."""
    with span(
        "indist.hopcroft_karp",
        left=graph.left_count(),
        right=graph.right_count(),
        edges=graph.edge_count(),
    ):
        return _hopcroft_karp_impl(graph)


def _hopcroft_karp_impl(graph: BipartiteGraph) -> Dict[Hashable, Hashable]:
    left = sorted(graph.iter_left(), key=repr)
    match_l: Dict[Hashable, Optional[Hashable]] = {v: None for v in left}
    match_r: Dict[Hashable, Optional[Hashable]] = {}

    def bfs() -> bool:
        dist: Dict[Hashable, float] = {}
        queue: deque = deque()
        for v in left:
            if match_l[v] is None:
                dist[v] = 0
                queue.append(v)
            else:
                dist[v] = INF
        found = False
        while queue:
            v = queue.popleft()
            for r in graph.iter_neighbors(v):
                nxt = match_r.get(r)
                if nxt is None:
                    found = True
                elif dist.get(nxt, INF) == INF:
                    dist[nxt] = dist[v] + 1
                    queue.append(nxt)
        bfs.dist = dist  # type: ignore[attr-defined]
        return found

    def dfs(v: Hashable) -> bool:
        dist = bfs.dist  # type: ignore[attr-defined]
        for r in graph.iter_neighbors(v):
            nxt = match_r.get(r)
            if nxt is None or (dist.get(nxt, INF) == dist[v] + 1 and dfs(nxt)):
                match_l[v] = r
                match_r[r] = v
                return True
        dist[v] = INF
        return False

    while bfs():
        for v in left:
            if match_l[v] is None:
                dfs(v)
    return {v: r for v, r in match_l.items() if r is not None}


def maximum_matching_size(graph: BipartiteGraph) -> int:
    """Size of a maximum matching."""
    return len(hopcroft_karp(graph))


def is_valid_matching(graph: BipartiteGraph, matching: Mapping[Hashable, Hashable]) -> bool:
    """Check that a left->right map is a matching along edges of the graph."""
    rights = list(matching.values())
    if len(set(rights)) != len(rights):
        return False
    return all(r in graph.iter_neighbors(v) for v, r in matching.items())
