"""Integer Laplacian spectra for graphs built from cliques by unions and joins.

Power graphs with a cataloged clique expression (`groups.family_expr`)
decompose this way, so their spectra (and hence spanning-tree counts) stay in
exact integer arithmetic; not all with a closed form do (Z_12's power graph
has the induced P4 3-6-2-4, though `kappa_cyclic` counts it).  An
expression is a tree with one node per run of unions or of joins: a `Union`
or `Join` holds its parts in order and flattens in a part of its own kind, so
`c#x` is one union of c parts and every walker loops over a node's parts.
Recursion goes only as deep as the nesting of unions inside joins, which
`parse_expr` bounds.  `parse_expr` reads back what `str` writes, from tokens
that are runs of decimal digits or one of '+*()#K'.  `audits.graph_expr`
inverts `expr_to_graph`: it reads the canonical expression off any graph
with no induced P4 (a cograph).  A spectrum is a Counter of eigenvalue to
multiplicity because the interesting examples have a few distinct
eigenvalues with huge multiplicities.
"""

from __future__ import annotations

import re
from collections import Counter

from . import graphs
from .numth import FactoredNat, Value, factored_ratio


# --- expression trees ---


class Clique(Value):
    __slots__ = ("size",)

    def __init__(self, size: int):
        super().__init__(size)
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


def spectrum(expr: CliqueExpr) -> Counter:
    """Laplacian spectrum of a clique expression, as a Counter of eigenvalue
    to multiplicity with no zero counts.

    K(n) has eigenvalue n with multiplicity n-1 plus a zero; a union takes
    the multiset union of its parts' spectra.  A join of r parts, n_i
    vertices in part i and N in all, has 0 once, N with multiplicity r-1, and
    each part's spectrum less one zero, shifted by N - n_i (the binary rule
    applied r-1 times).  Its Laplacian is L_i + (N - n_i)I on block i and -1
    between blocks, so an eigenvector of L_i orthogonal to the ones vector
    gains N - n_i, and on the vectors constant on each block it is N*I minus
    a rank-one map onto the ones vector.  Equal parts are evaluated once.
    """
    if isinstance(expr, Clique):
        k = expr.size
        return Counter({k: k - 1, 0: 1} if k > 1 else {0: 1})
    if not isinstance(expr, (Union, Join)):
        raise TypeError(f"not a clique expression: {expr!r}")
    join = isinstance(expr, Join)
    out = Counter({expr.n: len(expr.parts) - 1, 0: 1}) if join else Counter()
    for part, copies_of_part in Counter(expr.parts).items():
        counts = spectrum(part)
        shift = expr.n - part.n if join else 0
        if join:
            if counts[0] < 1:
                raise RuntimeError("part spectrum lacks a zero eigenvalue")  # pragma: no cover
            counts[0] -= 1  # the join consumes one zero from each part
        for v, mult in counts.items():
            if mult:
                out[v + shift] += mult * copies_of_part
    return out


def kappa_from_spectrum(spec: Counter) -> FactoredNat:
    """Spanning-tree count from an integer spectrum, a Counter of eigenvalue
    to multiplicity: product of the nonzero eigenvalues divided by the vertex
    count spec.total(), returned in factored form.

    A spectrum with several zero eigenvalues is disconnected: returns 0.
    """
    if spec[0] == 0:
        raise ValueError("a Laplacian spectrum must contain 0")
    if spec[0] > 1:
        return FactoredNat.zero()
    n = spec.total()
    powers = spec - Counter({0: 1})
    powers[n] -= 1
    return factored_ratio(powers, {}, n)


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


# --- expression string syntax: K(n), + union, * join, c#expr copies ---

MAX_DEPTH = 100  # parentheses nested deeper than this are a usage error
MAX_COPIES = 10**6  # union parts that the c#x in one text may expand to


def parse_expr(text: str) -> CliqueExpr:
    """Parse the CLI expression syntax, e.g. 'K(2)*(K(6)+4#K(2))'.

    A token is a run of decimal digits (what int reads) or one of '+*()#K';
    whitespace between tokens is skipped, and any other character is an
    error, raised before any other.  '*' (join) binds tighter than '+'
    (union).  A run of '+' or of '*' is one node with a part per operand, so
    '(a*b)*c' and 'a*(b*c)' parse to the same tree.  'c#x' binds tightest and
    stands for c copies of the factor x, unioned left to right, and 'c#d#x'
    for c*d copies.  For every expression e, parse_expr(str(e)) == e.

    Parentheses nested more than MAX_DEPTH deep, which keeps every walker
    within Python's default recursion limit, and c#x copies of more than
    MAX_COPIES parts in all, which would have to be held in memory, raise
    ValueError.  A position in an error message is the 0-based character
    offset of the token it names in the text, or the text's length at its end.
    """
    # (token, offset) pairs: a number is an int, the end is None
    tokens = []
    for m in re.finditer(r"\d+|\S", text):
        tok, at = m[0], m.start()
        if tok not in "+*()#K" and not tok.isdecimal():
            raise ValueError(f"bad character {tok!r} at position {at} in expression {text!r}")
        tokens.append((int(tok) if tok.isdecimal() else tok, at))
    tokens.append((None, len(text)))
    pos = copied = 0

    def fail(message, at):
        raise ValueError(f"{message} at position {at} in {text!r}")

    def take(want, message=None):
        """The next token, which must be `want` (any number for want=int)."""
        nonlocal pos
        tok, at = tokens[pos]
        if tok != want and type(tok) is not want:
            fail(message, at)
        pos += 1
        return tok

    def run(op, part, build):
        """The parser of a run of `part`s joined by `op`, built into one node."""
        def parse(depth):
            parts = [part(depth)]
            while tokens[pos][0] == op:
                take(op)
                parts.append(part(depth))
            return parts[0] if len(parts) == 1 else build(*parts)
        return parse

    def factor(depth):
        nonlocal copied
        count, start = 1, tokens[pos][1]
        while type(tokens[pos][0]) is int:
            count *= take(int)
            take("#", "expected '#'")
        if count == 0:
            fail("c#x needs c >= 1,", start)
        tok, at = tokens[pos]
        if tok not in ("(", "K"):
            fail("unexpected end of expression" if tok is None else f"unexpected token {tok!r}", at)
        take(tok)
        if tok == "(":
            if depth == MAX_DEPTH:
                raise ValueError(f"parentheses nested more than {MAX_DEPTH} deep at position {at}")
            node = union(depth + 1)
            take(")", "missing ')'")
        else:
            take("(", "K must be followed by (n)")
            size, at = tokens[pos]
            if take(int, "expected a number") < 1:
                fail("clique size must be >= 1,", at)
            node = Clique(size)
            take(")", "missing ')' after K(")
        if count != 1:
            copied += count * (len(node.parts) if isinstance(node, Union) else 1)
            if copied > MAX_COPIES:
                raise ValueError(f"c#x copies expand to more than {MAX_COPIES} parts in {text!r}")
        return copies(count, node)

    union = run("+", run("*", factor, Join), Union)
    node = union(0)
    take(None, "trailing input")
    return node
