"""Simple graphs and the constructions used throughout: joins, divisor
graphs, clique-replaced graphs and closed-twin quotients.

Graphs are immutable, kept as closed neighbourhoods (frozensets holding their
vertex); dense matrices are only materialized at determinant time (linalg).
Files and the small builders pass an edge list, checked edge by edge.  The
large builders (clique_replaced, the group power graph, a clique expression's
graph) form the closed neighbourhood of a block of twins once and pass that
set for each vertex of the block.  Equal sets are one object, so a graph costs
one set per distinct neighbourhood, not O(edges), and twins are found by
identity.  `components` and its complement twin `co_components` are the
package's searches: connectivity checks and the matrix-tree peel split a
vertex set by the first, the quotient and `audits.graph_expr` by both.
"""

from __future__ import annotations

from .numth import Value, divisors_desc


class SimpleGraph:
    """Undirected simple graph on vertices 0..n-1; closed[v] is v and its
    neighbours.  The open sets `adj` are derived on first use and stay only
    because perfbench reads them: dropping them needs a benchmark change."""

    __slots__ = ("n", "closed", "labels", "edge_count", "_adj")

    def __init__(self, n: int, edges=(), labels=None, *, closed=None):
        """Files and the small builders give edges, checked edge by edge.  A
        builder that forms the closed sets itself passes them as closed, taken
        as they are: it makes them symmetric, each holding its vertex, and
        equal sets one object (a lookup compares distinct ones in full)."""
        if n < 0:
            raise ValueError("vertex count must be >= 0")
        if labels is not None and len(labels) != n:
            raise ValueError("label count must match vertex count")
        if closed is None:
            sets = [{v} for v in range(n)]
            for u, v in edges:
                if not (0 <= u < n and 0 <= v < n):
                    raise ValueError(f"edge ({u},{v}) out of range for n={n}")
                if u == v:
                    raise ValueError(f"self-loop at vertex {u}")
                sets[u].add(v)
                sets[v].add(u)
            interned = {}
            closed = [interned.setdefault(c, c) for c in map(frozenset, sets)]
        self.n = n
        self.closed = tuple(closed)
        if len(self.closed) != n:
            raise ValueError("one neighbour set per vertex required")
        self.labels = tuple(labels) if labels is not None else None
        self.edge_count = (sum(map(len, self.closed)) - n) // 2
        self._adj = None

    @property
    def adj(self) -> tuple[frozenset, ...]:
        if self._adj is None:  # the open neighbourhoods, closed[v] less v
            self._adj = tuple(c - {v} for v, c in enumerate(self.closed))
        return self._adj

    def degree(self, v: int) -> int:
        return len(self.closed[v]) - 1

    def edges(self):
        for u in range(self.n):
            for v in sorted(self.closed[u]):
                if u < v:
                    yield (u, v)

    def label(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else str(v)

    def is_connected(self) -> bool:
        return len(components(self.closed, set(range(self.n)))) == 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimpleGraph):
            return NotImplemented
        return self.n == other.n and self.closed == other.closed

    def __hash__(self):
        return hash((self.n, self.closed))

    def __repr__(self):
        return f"SimpleGraph(n={self.n}, edges={self.edge_count})"


def components(closed, rest: set) -> list[list[int]]:
    """Connected components of the subgraph induced on the vertex set `rest`,
    given the whole graph's closed neighbourhoods; `rest` is emptied.  A
    component lists its vertices in the order the search reaches them.

    Each visited vertex u (no longer in rest) costs one intersection
    closed[u] & rest, min(deg u, |rest|) set probes.  rest is compacted each
    time it halves, as a set keeps its table and iterating it scans the old
    one.  The matrix-tree peel calls it once per level, on what is left."""
    comps, size = [], len(rest)
    while rest:
        comp = [rest.pop()]
        for u in comp:
            fresh = closed[u] & rest
            rest -= fresh
            comp.extend(fresh)
            if 2 * len(rest) < size:
                rest &= rest  # a fresh table, sized to what is left
                size = len(rest)
        comps.append(comp)
    return comps


def co_components(closed, rest: set) -> list[list[int]]:
    """`components` of the complement of the subgraph induced on `rest`,
    given the closed neighbourhoods (u has left rest when closed[u] is read).
    The unvisited set is rebuilt as it shrinks: a set keeps its table size,
    and iterating a shrunken one would cost its old size."""
    comps = []
    while rest:
        comp = [rest.pop()]
        for u in comp:
            comp.extend(rest - closed[u])
            rest = rest & closed[u]
        comps.append(comp)
    return comps


def complete_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, [(i, i + 1) for i in range(n - 1)])


def join(g1: SimpleGraph, g2: SimpleGraph) -> SimpleGraph:
    """Disjoint union plus every edge between the two sides; g2's vertices
    are shifted past g1's."""
    off = g1.n
    edges = [*g1.edges(), *((u + off, v + off) for u, v in g2.edges())]
    edges.extend((u, off + v) for u in range(off) for v in range(g2.n))
    return SimpleGraph(off + g2.n, edges)


def universal_vertices(g: SimpleGraph) -> list[int]:
    """Vertices adjacent to every other vertex."""
    return [v for v in range(g.n) if len(g.closed[v]) == g.n]


def divisor_graph(n: int) -> SimpleGraph:
    """Graph on the divisors of n (decreasing order), adjacency = divisibility.

    Vertex 0 is n itself and the last vertex is 1; both are universal.
    """
    divs = divisors_desc(n)
    edges = [
        (i, j)
        for i in range(len(divs))
        for j in range(i + 1, len(divs))
        if divs[i] % divs[j] == 0
    ]
    return SimpleGraph(len(divs), edges, [str(d) for d in divs])


class CliqueReplacedSpec(Value):
    """A connected base graph plus one positive clique size per base vertex."""

    __slots__ = ("base", "sizes")

    def __init__(self, base: SimpleGraph, sizes: tuple[int, ...]):
        super().__init__(base, sizes)
        if len(sizes) != base.n:
            raise ValueError("one size per base vertex required")
        if any(x < 1 for x in sizes):
            raise ValueError("all clique sizes must be >= 1")
        if not base.is_connected():
            raise ValueError("base graph must be connected")

    @property
    def k(self) -> int:
        return self.base.n

    @property
    def n(self) -> int:
        return sum(self.sizes)

    @property
    def m(self) -> tuple[int, ...]:
        """m_i per block i: the sizes over its closed neighbourhood, one more than its degree."""
        sizes = self.sizes
        return tuple(sum(sizes[j] for j in c) for c in self.base.closed)


def twin_quotient(g: SimpleGraph) -> CliqueReplacedSpec | None:
    """The graph as a clique-replaced graph: vertices with the same closed
    neighbourhood form one block (a clique), numbered by first vertex, and
    two blocks are adjacent iff their vertices are.  None if g is disconnected."""
    block: dict[frozenset, int] = {}
    member = [block.setdefault(c, len(block)) for c in g.closed]
    sizes = [0] * len(block)
    for b in member:
        sizes[b] += 1
    # one vertex per block gives its closed set in the base, where none repeats
    base = SimpleGraph(len(block), closed=[frozenset(member[w] for w in c) for c in block])
    try:  # the spec searches the base's components; no second search here
        return CliqueReplacedSpec(base, tuple(sizes))
    except ValueError:  # sizes fit by construction, so the base is disconnected
        return None


def clique_replaced(spec: CliqueReplacedSpec) -> SimpleGraph:
    """Blow each base vertex i up into a clique of size x_i; base edges become
    complete bipartite connections between blocks.

    Blocks are laid out consecutively in base-vertex order.  Block i's
    vertices share the closed neighbourhood made of the intervals of the
    blocks in i's closed neighbourhood, formed once per block.
    """
    base, sizes = spec.base, spec.sizes
    starts = [0]
    for x in sizes:
        starts.append(starts[-1] + x)
    blocks = [range(starts[i], starts[i + 1]) for i in range(base.n)]
    closed, interned = [], {}
    for c, x in zip(base.closed, sizes):
        shared = frozenset().union(*(blocks[j] for j in c))
        closed += [interned.setdefault(shared, shared)] * x
    labels = [
        f"{base.label(i)}.{t}" for i in range(base.n) for t in range(sizes[i])
    ]
    return SimpleGraph(len(closed), labels=labels, closed=closed)


# --- file formats (the writers are in `export`) ---


def from_edge_list_text(text: str) -> SimpleGraph:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty edge-list input")
    try:
        n = int(lines[0])
    except ValueError:
        raise ValueError(f"bad vertex count line: {lines[0]!r}") from None
    if n < 1:
        raise ValueError(f"a graph needs at least one vertex, got {n}")
    edges = {}  # kept in file order; a repeated line would describe a multigraph
    for ln in lines[1:]:
        try:
            u, v = ln.split()
            u, v = int(u), int(v)
        except ValueError:  # a field count other than 2 or a field that is no integer
            raise ValueError(f"bad edge line: {ln!r}") from None
        if not 0 <= u < v < n:
            raise ValueError(f"edge ({u},{v}) violates 0 <= u < v < n")
        if (u, v) in edges:
            raise ValueError(f"edge ({u},{v}) is listed twice")
        edges[u, v] = None
    return SimpleGraph(n, edges)
