"""Finite groups: the registry of named families (construction, closed forms
and clique forms), Cayley-table ingestion, cyclic subgroups, power graphs and
their clique specs.

Every group is its list of elements in a concrete representation plus the
multiply on that representation: residues, vectors over GF(p), normal forms,
matrices over GF(q) or, for the dihedral, Frobenius and exponent-p^2
extraspecial groups, the affine maps t -> a^i*t + b of one Z_n x| Z_m
constructor; a Cayley-table input multiplies by table lookup.  Downstream
code sees element indices, and element 0 is always the identity.  No order x
order table is built: the cyclic subgroups come from repeated
multiplication, and a power graph is built only when asked for.
"""

from __future__ import annotations

from collections.abc import Callable
from itertools import product
from math import gcd

from . import formulas as F
from .gf import Gf
from .graphs import CliqueReplacedSpec, SimpleGraph
from .numth import FactoredNat, Value, euler_phi, is_prime, is_prime_power
from .spectra import Clique, CliqueExpr, Join, copies, epo_expr, union_of


class GroupConstructionError(ValueError):
    """Invalid family parameters or an input table that is not a group."""


class GroupSpec(Value):
    """A named group family plus parameters, e.g. cyclic(12) or psl2(3, 2)."""

    __slots__ = ("family", "params")

    def __init__(self, family: str, params: tuple = ()):
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "params", params)
        known = FAMILIES.get(family)
        if known is None:
            raise GroupConstructionError(f"unknown family {family!r}; known: {FAMILY_USAGE}")
        if len(params) != len(known.params):
            raise GroupConstructionError(
                f"{known.usage} takes {len(known.params)} parameter(s), got {len(params)}"
            )
        known.validate(*params)

    @classmethod
    def parse(cls, text: str) -> "GroupSpec":
        """Parse the flat CLI grammar family:param[:param], e.g. 'psl2:3:2'.

        A family is named by its name or its alias (FAMILY_USAGE lists them).
        Parameters are integers, except the file path of 'table:PATH'.
        """
        name, _, rest = text.partition(":")
        name = _ALIASES.get(name, name)
        if name in FAMILIES and FAMILIES[name].params == ("PATH",):
            return cls(name, (rest,) if rest else ())
        try:
            params = tuple(int(x) for x in rest.split(":")) if rest else ()
        except ValueError as exc:
            raise GroupConstructionError(f"bad group spec {text!r}: {exc}") from None
        return cls(name, params)

    def __str__(self) -> str:
        return ":".join([self.family, *map(str, self.params)])


def _need_prime(p, what="p"):
    if not isinstance(p, int) or not is_prime(p):
        raise GroupConstructionError(f"{what} = {p!r} must be prime")


def _need_odd_prime(p):
    _need_prime(p)
    if p == 2:
        raise GroupConstructionError("p must be an odd prime")


def _v_cyclic(n):
    if not isinstance(n, int) or n < 1:
        raise GroupConstructionError(f"cyclic(n) needs an integer n >= 1, got {n!r}")


def _v_elementary(p, n):
    _need_prime(p)
    if not isinstance(n, int) or n < 1:
        raise GroupConstructionError("elementary(p, n) needs n >= 1")


def _v_dihedral(n):
    if not isinstance(n, int) or n < 2:
        raise GroupConstructionError("dihedral(n) needs n >= 2 (order 2n)")


def _v_quaternion(n):
    if not isinstance(n, int) or n < 3:
        raise GroupConstructionError("quaternion(n) needs n >= 3 (order 2^n)")


def _v_psl2(p, n):
    _need_prime(p)
    if not isinstance(n, int) or n < 1:
        raise GroupConstructionError("psl2(p, n) needs n >= 1")
    if p**n < 4:
        raise GroupConstructionError(f"psl2 needs q = p^n >= 4, got q = {p ** n}")


def _v_frobenius(p, q):
    _need_prime(p)
    _need_prime(q, "q")
    if not p < q:
        raise GroupConstructionError(f"frobenius_pq needs p < q, got p={p}, q={q}")
    if (q - 1) % p != 0:
        raise GroupConstructionError(f"frobenius_pq needs p | q-1, got p={p}, q={q}")


def _v_cayley(path):
    if not isinstance(path, str) or not path:
        raise GroupConstructionError("cayley_table needs a file path")


class FiniteGroup:
    """A finite group given by its concrete elements and their multiply, with
    each element's cyclic subgroup cached; its size is the element's order.

    Elements are addressed by their index; element 0 is the identity.
    """

    identity = 0

    def __init__(self, name, elements, op, names=None):
        self.name = name
        self.elements = tuple(elements)
        self.order = n = len(self.elements)
        self.op = op
        self._index = {e: i for i, e in enumerate(self.elements)}
        self.element_names = tuple(names) if names is not None else tuple(map(str, range(n)))
        subgroups = [None] * n
        for g in range(n):
            if subgroups[g] is not None:
                continue
            powers = [0]  # g^0 .. g^(k-1), k the order of g
            x = g
            while x != 0:
                powers.append(x)
                x = self.mul(x, g)
            # <g> is enumerated once and shared by its generators g^j, gcd(j, k) = 1
            members = frozenset(powers)
            for j, h in enumerate(powers):
                if gcd(j, len(powers)) == 1:
                    subgroups[h] = members
        self.cyclic_subgroups = tuple(subgroups)

    def mul(self, a: int, b: int) -> int:
        return self._index[self.op(self.elements[a], self.elements[b])]

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


def _build_cyclic(n: int) -> FiniteGroup:
    return FiniteGroup(f"cyclic:{n}", range(n), lambda a, b: (a + b) % n)


def _build_elementary(p: int, n: int) -> FiniteGroup:
    # coefficient vectors, the first coordinate varying fastest
    elements = [c[::-1] for c in product(range(p), repeat=n)]
    names = ["(" + ",".join(map(str, c)) + ")" for c in elements]
    return FiniteGroup(
        f"elementary:{p}:{n}",
        elements,
        lambda u, v: tuple((a + b) % p for a, b in zip(u, v)),
        names,
    )


def _build_semidirect(name: str, n: int, a: int, m: int, names=None) -> FiniteGroup:
    # t -> a^i*t + b on Z_n as (b, i), i varying slowest, a^m = 1 mod n:
    # (b1,i1)(b2,i2) = t -> a^i1*(a^i2*t + b2) + b1
    powers = [pow(a, i, n) for i in range(m)]

    def op(u, v):
        b1, i1 = u
        b2, i2 = v
        return ((powers[i1] * b2 + b1) % n, (i1 + i2) % m)

    elements = [(b, i) for i in range(m) for b in range(n)]
    if names is None:
        names = [f"t->{powers[i]}t+{b}" for b, i in elements]
    return FiniteGroup(name, elements, op, names)


def _build_dihedral(n: int) -> FiniteGroup:
    # r^b s^i is t -> (-1)^i*t + b
    return _build_semidirect(f"dihedral:{n}", n, -1, 2,
                             [f"{'s' * i}r{b}" for i in (0, 1) for b in range(n)])


def _build_quaternion(n: int) -> FiniteGroup:
    # x^a y^b with a mod 2^(n-1), b in {0,1}; y^2 = x^(2^(n-2)), y x = x^-1 y
    half = 2 ** (n - 1)
    central = 2 ** (n - 2)

    def op(u, v):
        a1, b1 = u
        a2, b2 = v
        a = (a1 + (a2 if b1 == 0 else -a2)) % half
        if b1 and b2:
            return ((a + central) % half, 0)
        return (a, b1 ^ b2)

    elements = [(a, b) for b in (0, 1) for a in range(half)]
    names = [f"x{a}" if b == 0 else f"x{a}y" for a, b in elements]
    return FiniteGroup(f"quaternion:{n}", elements, op, names)


def _build_heisenberg(p: int) -> FiniteGroup:
    # lower unitriangular 3x3 over GF(p): (x, y, z) * (x', y', z') =
    # (x+x', y+y', z+z'+y*x')
    def op(u, v):
        return ((u[0] + v[0]) % p, (u[1] + v[1]) % p, (u[2] + v[2] + u[1] * v[0]) % p)

    elements = [(x, y, z) for x in range(p) for y in range(p) for z in range(p)]
    names = [f"({x},{y},{z})" for x, y, z in elements]
    return FiniteGroup(f"heisenberg:{p}", elements, op, names)


def _build_extraspecial_exp_p2(p: int) -> FiniteGroup:
    # t -> (1+p)^i*t + b on Z_(p^2), with (1+p)^i = 1 + i*p
    return _build_semidirect(f"extraspecial_exp_p2:{p}", p * p, 1 + p, p)


def _psl2_order(q: int) -> int:
    return q * (q * q - 1) // gcd(2, q - 1)


def _build_psl2(p: int, n: int) -> FiniteGroup:
    field = Gf(p, n)
    q = field.q
    add, mul, neg = field.add_table, field.mul_table, field.neg_table

    def canonical(m):
        # m or -m, whichever is smaller at the first nonzero entry, the first
        # place where they differ (in characteristic 2, m = -m)
        for x in m:
            if x:
                return m if x <= neg[x] else (neg[m[0]], neg[m[1]], neg[m[2]], neg[m[3]])
        return m

    one = 1  # encoding of the field unit
    inv = [0] + [field.inv(x) for x in range(1, q)]
    # SL(2, q) in O(q^3): ad - bc = 1 fixes d = (1 + bc)/a when a != 0, and
    # c = -1/b (d free) when a = 0
    seen = set()
    for a in range(q):
        for b in range(q):
            if a:
                for c in range(q):
                    seen.add(canonical((a, b, c, mul[add[one][mul[b][c]]][inv[a]])))
            elif b:
                c = neg[inv[b]]
                for d in range(q):
                    seen.add(canonical((a, b, c, d)))
    identity = canonical((one, 0, 0, one))
    elements = [identity] + sorted(seen - {identity})

    def op(m1, m2):
        a1, b1, c1, d1 = m1
        a2, b2, c2, d2 = m2
        ra, rb, rc, rd = mul[a1], mul[b1], mul[c1], mul[d1]
        return canonical(
            (
                add[ra[a2]][rb[c2]],
                add[ra[b2]][rb[d2]],
                add[rc[a2]][rd[c2]],
                add[rc[b2]][rd[d2]],
            )
        )

    names = [f"[{a},{b};{c},{d}]" for a, b, c, d in elements]
    group = FiniteGroup(f"psl2:{p}:{n}", elements, op, names)
    expected = _psl2_order(q)
    if group.order != expected:
        raise GroupConstructionError(
            f"psl2({p},{n}) built {group.order} elements, expected {expected}"
        )
    return group


def _build_frobenius_pq(p: int, q: int) -> FiniteGroup:
    # a is the smallest c > 1 with c^p = 1 mod q, of order p as p is prime
    a = next(c for c in range(2, q) if pow(c, p, q) == 1)
    return _build_semidirect(f"frobenius_pq:{p}:{q}", q, a, p)


def _parse_cayley_text(text: str) -> list[list[int]]:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise GroupConstructionError("empty Cayley-table input")
    n = int(lines[0])
    if n < 1:
        raise GroupConstructionError(
            f"a group needs at least one element, got a table of order {n}"
        )
    if len(lines) != n + 1:
        raise GroupConstructionError(f"expected {n} table rows, got {len(lines) - 1}")
    table = []
    for ln in lines[1:]:
        row = [int(x) for x in ln.split()]
        if len(row) != n:
            raise GroupConstructionError(f"row has {len(row)} entries, expected {n}")
        if any(not 0 <= x < n for x in row):
            raise GroupConstructionError("closure violated: entry out of range")
        table.append(row)
    return table


def validate_cayley_table(table: list[list[int]]) -> None:
    """Check the group axioms, naming the failed axiom on error.

    Associativity is checked exhaustively for n <= 256 and by seeded sampling
    of 10*n^2 triples above that.
    """
    n = len(table)
    e = 0
    for g in range(n):
        if table[e][g] != g or table[g][e] != g:
            raise GroupConstructionError(
                f"identity axiom violated: element 0 is not an identity for {g}"
            )
    for g in range(n):
        if not any(table[g][h] == e and table[h][g] == e for h in range(n)):
            raise GroupConstructionError(f"inverse axiom violated: {g} has no inverse")
    if n <= 256:
        triples = (
            (a, b, c) for a in range(n) for b in range(n) for c in range(n)
        )
    else:
        import random  # only here: keeps it off the CLI's start-up
        rng = random.Random(0)
        triples = (
            (rng.randrange(n), rng.randrange(n), rng.randrange(n))
            for _ in range(10 * n * n)
        )
    for a, b, c in triples:
        if table[table[a][b]][c] != table[a][table[b][c]]:
            raise GroupConstructionError(
                f"associativity violated at ({a}, {b}, {c})"
            )


def _build_cayley_table(path: str) -> FiniteGroup:
    with open(path, "r", encoding="utf-8") as fh:
        table = _parse_cayley_text(fh.read())
    validate_cayley_table(table)
    return FiniteGroup(f"cayley_table:{path}", range(len(table)), lambda a, b: table[a][b])


class Family(Value):
    """Everything the program knows about one named group family.

    closed_form and clique_expr take the family's parameters and return the
    spanning-tree count and the clique expression of the power graph; either
    may be missing.  `auto` takes the closed form when there is one.  `verify`
    audits the closed form against the determinant oracle, or the clique form
    where there is no closed form.

    counts takes the parameters and returns (order, universal count) of the
    power graph without building the group; `verify` audits it against the
    built power graph.  cayley_table, which every route builds, has none.

    examples are small parameter tuples (orders up to 168), the groups on
    which `verify` checks the family: its counts, its clique form where it
    also has a closed form, and the twin-quotient route.  validate is the
    one statement of the parameter range; the closed forms assume it.
    """

    __slots__ = ("name", "params", "validate", "build", "closed_form", "clique_expr", "counts",
                 "examples", "alias")

    def __init__(self, name: str, params: tuple[str, ...], validate: Callable[..., None],
                 build: Callable[..., FiniteGroup],
                 closed_form: Callable[..., FactoredNat] | None = None,
                 clique_expr: Callable[..., CliqueExpr] | None = None,
                 counts: Callable[..., tuple[int, int]] | None = None,
                 examples: tuple[tuple, ...] = (), alias: str | None = None):
        super().__init__(name, params, validate, build, closed_form, clique_expr, counts,
                         examples, alias)

    @property
    def usage(self) -> str:
        return ":".join([self.alias or self.name, *self.params])


def _elementary_counts(p, n):
    return {p: (p**n - 1) // (p - 1)}


def _cyclic_counts(n):
    # prime-power order: all of Z_n is universal; else the identity and generators
    return n, n if n == 1 or is_prime_power(n) else 1 + euler_phi(n)


# Closed forms look their function up on the formulas module at call time, so
# a wrapper installed there later sees the call.
FAMILIES = {
    f.name: f
    for f in (
        Family("cyclic", ("n",), _v_cyclic, _build_cyclic,
               closed_form=lambda n: F.kappa_cyclic(n),
               counts=_cyclic_counts, examples=tuple((n,) for n in (*range(3, 10), 12, 25, 30))),
        Family("elementary", ("p", "n"), _v_elementary, _build_elementary,
               closed_form=lambda p, n: F.kappa_epo(_elementary_counts(p, n)),
               clique_expr=lambda p, n: epo_expr(_elementary_counts(p, n)),
               counts=lambda p, n: (p**n, p if n == 1 else 1),
               examples=((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 1))),
        Family("dihedral", ("n",), _v_dihedral, _build_dihedral,
               counts=lambda n: (2 * n, 1), examples=tuple((n,) for n in range(3, 9))),
        Family("quaternion", ("n",), _v_quaternion, _build_quaternion,
               closed_form=lambda n: F.kappa_quaternion(n),
               clique_expr=lambda n: Join(
                   Clique(2), union_of([Clique(2 ** (n - 1) - 2)] + [Clique(2)] * 2 ** (n - 2))
               ),
               counts=lambda n: (2**n, 2), examples=((3,), (4,), (5,))),
        Family("heisenberg", ("p",), _need_odd_prime, _build_heisenberg,
               closed_form=lambda p: F.kappa_heisenberg(p),
               clique_expr=lambda p: epo_expr({p: p * p + p + 1}),
               counts=lambda p: (p**3, 1), examples=((3,),)),
        # no closed form.  The clique form is the published K(p)*(p+1)#K(p^2-p),
        # whose count p^(2p^3-5) matches neither published exponent, 2p^3-p-5
        # nor 2p^3-p-4; verify's audit row refutes all three at p = 3 with
        # the determinant oracle (3^49 against 3^37 * 7^2)
        Family("extraspecial_exp_p2", ("p",), _need_odd_prime, _build_extraspecial_exp_p2,
               clique_expr=lambda p: Join(Clique(p), copies(p + 1, Clique(p * p - p))),
               counts=lambda p: (p**3, 1),
               examples=((3,),), alias="extraspecial"),
        Family("psl2", ("p", "n"), _v_psl2, _build_psl2,
               closed_form=lambda p, n: F.kappa_psl2(p, n),
               counts=lambda p, n: (_psl2_order(p**n), 1), examples=((2, 2), (5, 1), (7, 1))),
        Family("frobenius_pq", ("p", "q"), _v_frobenius, _build_frobenius_pq,
               closed_form=lambda p, q: F.kappa_frobenius_pq(p, q),
               clique_expr=lambda p, q: epo_expr({p: q, q: 1}),
               counts=lambda p, q: (p * q, 1),
               examples=((2, 3), (2, 5), (2, 7), (3, 7), (5, 11)), alias="frobenius"),
        Family("cayley_table", ("PATH",), _v_cayley, _build_cayley_table, alias="table"),
    )
}
_ALIASES = {f.alias: f.name for f in FAMILIES.values() if f.alias}
FAMILY_USAGE = ", ".join(f.usage for f in FAMILIES.values())


def build_group(spec: GroupSpec) -> FiniteGroup:
    return FAMILIES[spec.family].build(*spec.params)


def family_expr(spec: GroupSpec) -> CliqueExpr:
    """The clique expression of the power graph, for families that have one.

    For extraspecial_exp_p2 it is the published decomposition
    K(p) * (p+1)#K(p^2-p), which the verify audit row
    extraspecial-27-structural-vs-oracle refutes.
    """
    family = FAMILIES[spec.family]
    if family.clique_expr is None:
        raise ValueError(f"no cataloged clique expression for family {spec.family!r}")
    return family.clique_expr(*spec.params)


def power_graph(group: FiniteGroup) -> SimpleGraph:
    """Power graph: distinct u, v are adjacent iff one lies in the cyclic
    subgroup generated by the other.

    v is adjacent to u iff v lies in C = <u> or <v> contains C, so all the
    generators of C share the closed neighbourhood C together with the
    generators of every cyclic D containing C.  The elements are grouped by
    their cyclic subgroup; each distinct D is walked once to find the cyclic
    subgroups it contains, and each closed neighbourhood is formed once per
    subgroup.  Of the group's structure only group.cyclic_subgroups is read,
    so the graph stays an oracle independent of the group's clique spec.
    """
    cyclic = group.cyclic_subgroups
    generators: dict[frozenset, list[int]] = {}
    for u, c in enumerate(cyclic):
        generators.setdefault(c, []).append(u)
    containing: dict[frozenset, list[frozenset]] = {c: [] for c in generators}
    for d in generators:
        for c in {cyclic[x] for x in d}:
            containing[c].append(d)
    closed, interned = [None] * group.order, {}
    for c, gens in generators.items():
        shared = c.union(*(generators[d] for d in containing[c]))
        shared = interned.setdefault(shared, shared)  # equal sets are one object
        for u in gens:
            closed[u] = shared
    return SimpleGraph(group.order, labels=group.element_names, closed=closed)


def clique_spec(group: FiniteGroup) -> CliqueReplacedSpec:
    """The power graph as a clique-replaced graph, without building it.

    The generators of one cyclic subgroup C are closed twins, so the power
    graph is the containment graph of the cyclic subgroups with C blown up to
    a clique of phi(|C|) vertices.  C is cyclic: its subgroups are the <x>
    for one x in C of each order e dividing |C|, and they give C's edges.
    """
    vertex: dict[frozenset, int] = {}
    for c in group.cyclic_subgroups:
        vertex.setdefault(c, len(vertex))
    cyclic = group.cyclic_subgroups
    edges = []
    for c, i in vertex.items():
        below = {len(cyclic[x]): x for x in c if len(cyclic[x]) < len(c)}
        edges.extend((i, vertex[cyclic[x]]) for x in below.values())
    sizes = tuple(euler_phi(len(c)) for c in vertex)
    return CliqueReplacedSpec(SimpleGraph(len(vertex), edges), sizes)
