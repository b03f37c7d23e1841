"""Integer Laplacian spectra for graphs built from cliques by unions and joins.

All power graphs with known closed forms decompose this way, so their spectra
(and hence spanning-tree counts) stay in exact integer arithmetic.  Spectra
are stored as run-length pairs because the interesting examples have a few
distinct eigenvalues with huge multiplicities.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from . import graphs
from .numth import FactoredNat, factored_ratio


# --- expression trees ---


@dataclass(frozen=True)
class Clique:
    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("clique size must be >= 1")

    @property
    def n(self) -> int:
        return self.size

    def __str__(self):
        """Text that parse_expr reads back to this identical tree."""
        return f"K({self.size})"


@dataclass(frozen=True)
class Union:
    left: "CliqueExpr"
    right: "CliqueExpr"

    @property
    def n(self) -> int:
        return self.left.n + self.right.n

    def __str__(self):
        """Text that parse_expr reads back to this identical tree: '+' is
        left-associative, so a right-hand Union is parenthesised."""
        return f"{self.left}+{_wrap(self.right, Union)}"


@dataclass(frozen=True)
class Join:
    left: "CliqueExpr"
    right: "CliqueExpr"

    @property
    def n(self) -> int:
        return self.left.n + self.right.n

    def __str__(self):
        """Text that parse_expr reads back to this identical tree: '*' binds
        tighter than '+' and is left-associative, so a Union operand and a
        right-hand Join are parenthesised."""
        return f"{_wrap(self.left, Union)}*{_wrap(self.right, (Union, Join))}"


CliqueExpr = Clique | Union | Join


def _wrap(expr: CliqueExpr, kinds) -> str:
    return f"({expr})" if isinstance(expr, kinds) else str(expr)


def union_of(exprs) -> CliqueExpr:
    exprs = list(exprs)
    if not exprs:
        raise ValueError("empty union")
    out = exprs[0]
    for e in exprs[1:]:
        out = Union(out, e)
    return out


def copies(count: int, expr: CliqueExpr) -> CliqueExpr:
    if count < 1:
        raise ValueError("copy count must be >= 1")
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


@dataclass(frozen=True)
class IntSpectrum:
    """Multiset of integer Laplacian eigenvalues as (value, multiplicity) pairs,
    sorted by decreasing eigenvalue."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        last = None
        for value, mult in self.pairs:
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

    K(n) has eigenvalue n with multiplicity n-1 plus a zero; a union takes the
    multiset union; a join of an m-vertex and an n-vertex graph keeps m+n, the
    two side spectra shifted by the other side's size with one zero dropped
    from each, and one final zero.
    """
    counts = _spectrum_counts(expr)
    return IntSpectrum(tuple(sorted(counts.items(), reverse=True)))


def _spectrum_counts(expr: CliqueExpr) -> dict[int, int]:
    if isinstance(expr, Clique):
        k = expr.size
        return {k: k - 1, 0: 1} if k > 1 else {0: 1}
    if isinstance(expr, Union):
        left = _spectrum_counts(expr.left)
        right = _spectrum_counts(expr.right)
        for v, m in right.items():
            left[v] = left.get(v, 0) + m
        return left
    if isinstance(expr, Join):
        m, n = expr.left.n, expr.right.n
        out = {m + n: 1}
        for side, shift in ((expr.left, n), (expr.right, m)):
            counts = _spectrum_counts(side)
            if counts.get(0, 0) < 1:
                raise RuntimeError("operand spectrum lacks a zero eigenvalue")  # pragma: no cover
            counts[0] -= 1  # the join consumes one zero from each operand
            for v, mult in counts.items():
                if mult:
                    key = v + shift
                    out[key] = out.get(key, 0) + mult
        out[0] = out.get(0, 0) + 1
        return out
    raise TypeError(f"not a clique expression: {expr!r}")


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
    return factored_ratio(powers, (), spec.n)


def universal_count(expr: CliqueExpr) -> int:
    """Universal vertices of the expression's graph, without building it: all
    of K(s), none of a union of two nonempty graphs, and for a join those
    universal within their own side."""
    if isinstance(expr, Clique):
        return expr.size
    if isinstance(expr, Union):
        return 0
    if isinstance(expr, Join):
        return universal_count(expr.left) + universal_count(expr.right)
    raise TypeError(f"not a clique expression: {expr!r}")


def expr_to_graph(expr: CliqueExpr) -> graphs.SimpleGraph:
    """Materialize a clique expression as an explicit graph (for oracles)."""
    if isinstance(expr, Clique):
        return graphs.complete_graph(expr.size)
    if isinstance(expr, Union):
        return graphs.union(expr_to_graph(expr.left), expr_to_graph(expr.right))
    if isinstance(expr, Join):
        return graphs.join(expr_to_graph(expr.left), expr_to_graph(expr.right))
    raise TypeError(f"not a clique expression: {expr!r}")


# --- expression string syntax: K(n), + union, * join, c#expr copies ---


def parse_expr(text: str) -> CliqueExpr:
    """Parse the CLI expression syntax, e.g. 'K(2)*(K(6)+4#K(2))'.

    '*' (join) binds tighter than '+' (union), and both are left-associative:
    'a+b+c' is Union(Union(a, b), c) and 'a*b*c' is Join(Join(a, b), c).
    'c#x' binds tightest and stands for c copies of the factor x, unioned
    left to right.  For every expression e, parse_expr(str(e)) == e.
    """
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take(kind):
        nonlocal pos
        tok = peek()
        if tok is None or tok[0] != kind:
            raise ValueError(f"expected {kind} at position {pos} in {text!r}")
        pos += 1
        return tok[1]

    def parse_union():
        node = parse_join()
        while peek() == ("op", "+"):
            take("op")
            node = Union(node, parse_join())
        return node

    def parse_join():
        node = parse_factor()
        while peek() == ("op", "*"):
            take("op")
            node = Join(node, parse_factor())
        return node

    def parse_factor():
        tok = peek()
        if tok is None:
            raise ValueError(f"unexpected end of expression in {text!r}")
        if tok[0] == "int":
            count = take("int")
            take("hash")
            return copies(count, parse_factor())
        if tok == ("op", "("):
            take("op")
            node = parse_union()
            if peek() != ("op", ")"):
                raise ValueError(f"missing ')' in {text!r}")
            take("op")
            return node
        if tok[0] == "K":
            take("K")
            if peek() != ("op", "("):
                raise ValueError(f"K must be followed by (n) in {text!r}")
            take("op")
            size = take("int")
            if peek() != ("op", ")"):
                raise ValueError(f"missing ')' after K( in {text!r}")
            take("op")
            return Clique(size)
        raise ValueError(f"unexpected token {tok} in {text!r}")

    node = parse_union()
    if pos != len(tokens):
        raise ValueError(f"trailing input after position {pos} in {text!r}")
    return node


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
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
            raise ValueError(f"bad character {ch!r} in expression {text!r}")
    return tokens
