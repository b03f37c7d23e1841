"""Integer Laplacian spectra for graphs built from cliques by unions and joins.

Power graphs with a cataloged clique expression (`groups.family_expr`)
decompose this way, so their spectra (and hence spanning-tree counts) stay in
exact integer arithmetic; not all with a closed form do (Z_12's power graph
has the induced P4 3-6-2-4, though `kappa_cyclic` counts it).  An
expression is a tree with one node per run of unions or of joins: a `Union`
or `Join` holds its parts in order and flattens in a part of its own kind, so
`c#x` is one union of c parts and every walker loops over a node's parts.
Recursion goes only as deep as the nesting of unions inside joins, which
`parse_expr` bounds.  `graph_expr` inverts `expr_to_graph`: it reads the
canonical expression off any graph with no induced P4 (a cograph).  Spectra
are stored as run-length pairs because the interesting examples have a few
distinct eigenvalues with huge multiplicities.
"""

from __future__ import annotations

from collections import Counter

from . import graphs
from .numth import FactoredNat, Value, factored_ratio


# --- expression trees ---


class Clique(Value):
    __slots__ = ("size",)

    def __init__(self, size: int):
        object.__setattr__(self, "size", size)
        if size < 1:
            raise ValueError("clique size must be >= 1")

    @property
    def n(self) -> int:
        return self.size

    def __str__(self):
        """Text that parse_expr reads back to this identical tree."""
        return f"K({self.size})"


class _Run(Value):
    """Two or more parts under one operator, in order.  A part of the same
    kind is flattened in, so equality holds up to associativity.  n and the
    hash are stored at construction, so hashing a node reads no subtree;
    equality, the hash and pickling read the parts alone."""

    __slots__ = ("parts", "n", "_hash")

    def __init__(self, *parts: "CliqueExpr"):
        flat = []
        for part in parts:
            flat.extend(part.parts if type(part) is type(self) else (part,))
        if len(flat) < 2:
            raise ValueError(f"a {type(self).__name__} needs at least two parts, got {len(flat)}")
        object.__setattr__(self, "parts", tuple(flat))
        object.__setattr__(self, "n", sum(part.n for part in flat))
        object.__setattr__(self, "_hash", hash(self.parts))

    def __eq__(self, other):
        return self.parts == other.parts if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return type(self), self.parts


class Union(_Run):
    """Vertex-disjoint union of its parts."""

    __slots__ = ()

    def __str__(self):
        """Text that parse_expr reads back to this tree; no part is a union."""
        return "+".join(map(str, self.parts))


class Join(_Run):
    """Union of its parts plus every edge between two different parts."""

    __slots__ = ()

    def __str__(self):
        """Text that parse_expr reads back to this tree; no part is a join."""
        return "*".join(f"({p})" if isinstance(p, Union) else str(p) for p in self.parts)


CliqueExpr = Clique | Union | Join


def union_of(exprs) -> CliqueExpr:
    """The union of a nonempty list of expressions; one expression is itself."""
    exprs = list(exprs)
    return exprs[0] if len(exprs) == 1 else Union(*exprs)


def copies(count: int, expr: CliqueExpr) -> CliqueExpr:
    return union_of([expr] * count)


def epo_expr(counts: dict[int, int]) -> CliqueExpr:
    """K(1) joined to c_p copies of K(p-1) per prime p: the power graph of a
    group whose non-identity elements all have prime order, with c_p cyclic
    subgroups of order p."""
    blocks = []
    for p in sorted(counts):
        blocks.extend([Clique(p - 1)] * counts[p])
    return Join(Clique(1), union_of(blocks))


# --- spectra ---


class IntSpectrum(Value):
    """Multiset of integer Laplacian eigenvalues as (value, multiplicity) pairs,
    sorted by decreasing eigenvalue."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: tuple[tuple[int, int], ...]):
        object.__setattr__(self, "pairs", pairs)
        last = None
        for value, mult in pairs:
            if value < 0 or mult < 1:
                raise ValueError("eigenvalues must be >= 0 with multiplicity >= 1")
            if last is not None and value >= last:
                raise ValueError("pairs must be sorted by strictly decreasing value")
            last = value

    @property
    def n(self) -> int:
        return sum(m for _, m in self.pairs)

    def multiplicity(self, value: int) -> int:
        for v, m in self.pairs:
            if v == value:
                return m
        return 0

    def eigenvalue_sum(self) -> int:
        return sum(v * m for v, m in self.pairs)

    def __str__(self):
        return "{" + ", ".join(f"{v}^{m}" if m > 1 else str(v) for v, m in self.pairs) + "}"


def spectrum(expr: CliqueExpr) -> IntSpectrum:
    """Laplacian spectrum of a clique expression.

    K(n) has eigenvalue n with multiplicity n-1 plus a zero; a union takes
    the multiset union of its parts' spectra.  A join of r parts, n_i
    vertices in part i and N in all, has 0 once, N with multiplicity r-1, and
    each part's spectrum less one zero, shifted by N - n_i (the binary rule
    applied r-1 times).  Its Laplacian is L_i + (N - n_i)I on block i and -1
    between blocks, so an eigenvector of L_i orthogonal to the ones vector
    gains N - n_i, and on the vectors constant on each block it is N*I minus
    a rank-one map onto the ones vector.  Equal parts are evaluated once.
    """
    counts = _spectrum_counts(expr)
    return IntSpectrum(tuple(sorted(counts.items(), reverse=True)))


def _spectrum_counts(expr: CliqueExpr) -> Counter:
    if isinstance(expr, Clique):
        k = expr.size
        return Counter({k: k - 1, 0: 1} if k > 1 else {0: 1})
    if not isinstance(expr, (Union, Join)):
        raise TypeError(f"not a clique expression: {expr!r}")
    join = isinstance(expr, Join)
    out = Counter({expr.n: len(expr.parts) - 1, 0: 1}) if join else Counter()
    for part, copies_of_part in Counter(expr.parts).items():
        counts = _spectrum_counts(part)
        shift = expr.n - part.n if join else 0
        if join:
            if counts[0] < 1:
                raise RuntimeError("part spectrum lacks a zero eigenvalue")  # pragma: no cover
            counts[0] -= 1  # the join consumes one zero from each part
        for v, mult in counts.items():
            if mult:
                out[v + shift] += mult * copies_of_part
    return out


def kappa_from_spectrum(spec: IntSpectrum) -> FactoredNat:
    """Spanning-tree count from an integer spectrum: product of the nonzero
    eigenvalues divided by the vertex count, returned in factored form.

    A spectrum with several zero eigenvalues is disconnected: returns 0.
    """
    zeros = spec.multiplicity(0)
    if zeros == 0:
        raise ValueError("a Laplacian spectrum must contain 0")
    if zeros > 1:
        return FactoredNat.zero()
    powers = Counter({value: mult for value, mult in spec.pairs if value})
    powers[spec.n] -= 1
    return factored_ratio(powers, {}, spec.n)


def universal_count(expr: CliqueExpr) -> int:
    """Universal vertices of the expression's graph, without building it: all
    of K(s), none of a union of nonempty graphs, and for a join those
    universal within their own part."""
    if isinstance(expr, Clique):
        return expr.size
    if isinstance(expr, Union):
        return 0
    if isinstance(expr, Join):
        return sum(map(universal_count, expr.parts))
    raise TypeError(f"not a clique expression: {expr!r}")


def expr_to_graph(expr: CliqueExpr) -> graphs.SimpleGraph:
    """Materialize a clique expression as an explicit graph (for oracles).

    The tree is laid out in one pass: each node's vertices form one interval
    and its parts' intervals follow each other in order.  The vertices of a
    clique leaf are closed twins: their closed neighbourhood is the leaf's
    interval plus, for each join above it, the join's interval less that of
    the part on the way down, at most two ranges.  It is formed once per
    leaf and shared by the leaf's vertices, and equal sets are one object.
    """
    closed, interned = [], {}

    def lay_out(node, start, outside):
        stop = start + node.n
        if isinstance(node, Clique):
            shared = frozenset(range(start, stop)).union(*outside)
            closed.extend([interned.setdefault(shared, shared)] * node.n)
            return
        if not isinstance(node, (Union, Join)):
            raise TypeError(f"not a clique expression: {node!r}")
        lo = start
        for part in node.parts:
            hi = lo + part.n
            if isinstance(node, Join):
                lay_out(part, lo, outside + [range(start, lo), range(hi, stop)])
            else:
                lay_out(part, lo, outside)
            lo = hi

    lay_out(expr, 0, [])
    return graphs.SimpleGraph(expr.n, closed=closed)


def graph_expr(g: graphs.SimpleGraph) -> CliqueExpr | None:
    """The canonical clique expression of a graph with n >= 1, or None when it
    has an induced P4: the inverse of expr_to_graph, up to isomorphism.

    A vertex set splits into its components, a union, or if connected into
    its co-components, a join; a set that splits neither way is prime.  Below
    the top each set tries only the search its parent did not.  A join's
    single vertices form one clique, and every node's parts are sorted by
    (n, str(part)), so two graphs give equal expressions iff they are
    isomorphic cographs.  Recursion goes only as deep as the cotree.
    """

    def node(vertices, union):
        if len(vertices) == 1:
            return Clique(1)
        groups = (graphs.components if union else graphs.co_components)(g.closed, set(vertices))
        if len(groups) == 1:
            return None
        parts = [node(group, not union) for group in groups if union or len(group) > 1]
        if None in parts:
            return None
        if len(parts) < len(groups):
            parts.append(Clique(len(groups) - len(parts)))
        parts.sort(key=lambda part: (part.n, str(part)))
        return parts[0] if len(parts) == 1 else (Union if union else Join)(*parts)

    return node(range(g.n), not g.is_connected())


# --- expression string syntax: K(n), + union, * join, c#expr copies ---

MAX_DEPTH = 100  # parentheses nested deeper than this are a usage error
MAX_COPIES = 10**6  # union parts that the c#x in one text may expand to
_TOKEN_NAMES = {"int": "a number", "hash": "'#'"}  # the kinds take() can find missing


def parse_expr(text: str) -> CliqueExpr:
    """Parse the CLI expression syntax, e.g. 'K(2)*(K(6)+4#K(2))'.

    '*' (join) binds tighter than '+' (union).  A run of '+' or of '*' is one
    node with a part per operand, so '(a*b)*c' and 'a*(b*c)' parse to the
    same tree.  'c#x' binds tightest and stands for c copies of the factor x,
    unioned left to right, and 'c#d#x' for c*d copies.  For every expression
    e, parse_expr(str(e)) == e.

    Parentheses nested more than MAX_DEPTH deep, which keeps every walker
    within Python's default recursion limit, and c#x copies of more than
    MAX_COPIES parts in all, which would have to be held in memory, raise
    ValueError.  A position in an error message is the 0-based character
    offset of the token it names in the text, or the text's length at its end.
    """
    tokens, offsets = _tokenize(text)
    pos = 0
    copied = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else (None, None)

    def take(kind):
        nonlocal pos
        tok = peek()
        if tok[0] != kind:
            raise ValueError(f"expected {_TOKEN_NAMES[kind]} at position {offsets[pos]} in {text!r}")
        pos += 1
        return tok[1]

    def parse_union(depth):
        parts = [parse_join(depth)]
        while peek() == ("op", "+"):
            take("op")
            parts.append(parse_join(depth))
        return union_of(parts)

    def parse_join(depth):
        parts = [parse_factor(depth)]
        while peek() == ("op", "*"):
            take("op")
            parts.append(parse_factor(depth))
        return parts[0] if len(parts) == 1 else Join(*parts)

    def parse_factor(depth):
        nonlocal copied
        count, start = 1, pos
        while peek()[0] == "int":
            count *= take("int")
            take("hash")
        if count == 0:
            raise ValueError(f"c#x needs c >= 1, at position {offsets[start]} in {text!r}")
        tok = peek()
        if tok == ("op", "("):
            if depth == MAX_DEPTH:
                raise ValueError(
                    f"parentheses nested more than {MAX_DEPTH} deep at position {offsets[pos]}"
                )
            take("op")
            node = parse_union(depth + 1)
            if peek() != ("op", ")"):
                raise ValueError(f"missing ')' at position {offsets[pos]} in {text!r}")
            take("op")
        elif tok[0] == "K":
            take("K")
            if peek() != ("op", "("):
                raise ValueError(
                    f"K must be followed by (n) at position {offsets[pos]} in {text!r}"
                )
            take("op")
            node = Clique(take("int"))
            if peek() != ("op", ")"):
                raise ValueError(f"missing ')' after K( at position {offsets[pos]} in {text!r}")
            take("op")
        elif tok[0] is None:
            raise ValueError(f"unexpected end of expression at position {offsets[pos]} in {text!r}")
        else:
            raise ValueError(f"unexpected token {tok[1]!r} at position {offsets[pos]} in {text!r}")
        if count != 1:
            copied += count * (len(node.parts) if isinstance(node, Union) else 1)
            if copied > MAX_COPIES:
                raise ValueError(f"c#x copies expand to more than {MAX_COPIES} parts in {text!r}")
        return copies(count, node)

    node = parse_union(0)
    if pos != len(tokens):
        raise ValueError(f"trailing input at position {offsets[pos]} in {text!r}")
    return node


def _tokenize(text: str):
    """The tokens of the text and their character offsets, with the text's
    length appended as the offset of its end."""
    tokens, offsets = [], []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        offsets.append(i)
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j])))
            i = j
        elif ch in "+*()":
            tokens.append(("op", ch))
            i += 1
        elif ch == "#":
            tokens.append(("hash", "#"))
            i += 1
        elif ch == "K":
            tokens.append(("K", "K"))
            i += 1
        else:
            raise ValueError(f"bad character {ch!r} at position {i} in expression {text!r}")
    offsets.append(len(text))
    return tokens, offsets
