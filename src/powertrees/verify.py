"""Formula-vs-oracle verification suites behind `powertrees verify`.

Every case compares a closed form against an independent exact computation
(usually the matrix-tree oracle on an explicitly constructed graph, or
det(J+L)/n^2 where the oracle's reduction at the universal vertices makes a
claim hold by construction).  The group families' closed forms are read
through the registry (`groups.FAMILIES`) into one audit table, `_AUDITS`,
whose rows may also pin a value; the family sweeps take their groups from
each row's `examples` too.  A claimed integer Laplacian spectrum is
proved exactly by a certificate: n integer eigenvectors read off the
cotree, each checked against L and for independence.  Reports are
deterministic for a fixed seed: no timings, case lines sorted by name.
Large randomized sweeps aggregate into a single line; the named constant
regressions print both values.
"""

from __future__ import annotations

import os
import random
from collections import Counter, defaultdict
from functools import cache, partial
from itertools import chain, islice

from . import formulas as F
from .graphs import (
    CliqueReplacedSpec,
    SimpleGraph,
    clique_replaced,
    co_components,
    complete_graph,
    components,
    join,
    path_graph,
    twin_quotient,
    universal_vertices,
)
from .groups import FAMILIES, GroupSpec, build_group, family_expr, power_graph
from .linalg import kappa_matrix_tree, kappa_via_jl, laplacian_char_poly
from .linalg import shifted_product_integer_check
from .numth import FactoredNat, Value, product
from .spectra import (
    Clique,
    CliqueExpr,
    Join,
    Union,
    expr_to_graph,
    graph_expr,
    kappa_from_spectrum,
    parse_expr,
    spectrum,
)


class CaseResult(Value):
    __slots__ = ("name", "ok", "detail")


@cache
def kappa_det_of_group(spec_text: str) -> int:
    """Matrix-tree count of the power graph of the named group (memoized)."""
    return kappa_matrix_tree(power_graph(build_group(GroupSpec.parse(spec_text))))


def _vs(expected: int, actual: int) -> str:
    return f"expected {expected}, got {actual}"


def _examples(*claims: str) -> list[str]:
    """The example groups (`Family.examples`), in the CLI grammar, of every
    registry family that has each named claim, e.g. 'counts'."""
    return [":".join([f.alias or f.name, *map(str, params)]) for f in FAMILIES.values()
            if all(getattr(f, claim) for claim in claims) for params in f.examples]


# --- named constant regressions ---


def cases_complete_graphs() -> list[CaseResult]:
    """Cayley's n^(n-2) from both routes: the oracle's reduction at the
    universal set gives it without a determinant, det(J+L)/n^2 does not."""
    out = []
    for n in range(2, 13):
        g = complete_graph(n)
        actual = kappa_matrix_tree(g)
        expected = n ** (n - 2)
        ok = actual == kappa_via_jl(g) == expected
        out.append(CaseResult(f"cayley-complete-n{n:02d}", ok, _vs(expected, actual)))
    return out


_PSL_CONSTANTS = {
    (2, 2): FactoredNat(((3, 10), (5, 18))),
    (7, 1): FactoredNat(((2, 84), (3, 28), (7, 40))),
    (3, 2): FactoredNat(((2, 180), (3, 40), (5, 108))),
}

_pp = FactoredNat.prime_power

# The families' closed forms as audited claims: registry group -> rows of
# (case name, group spec, pinned value or None).  A row's claim is its
# family's closed form in FAMILIES, else its clique form, when it has one.
_AUDITS = {
    # Z_(p^m) has a complete power graph: Cayley's (p^m)^(p^m - 2)
    "prime-power-cyclic": [
        (f"cyclic-prime-power-n{p ** m:02d}", f"cyclic:{p ** m}", _pp(p, m * (p**m - 2)))
        for p, m in ((2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3))
    ],
    "small-2groups": [
        ("extraspecial-2-quaternion8", "quaternion:3", _pp(2, 11)),
        ("extraspecial-2-dihedral8", "dihedral:4", _pp(2, 4)),
    ],
    "psl2-quick": [
        ("psl2-q04", "psl2:2:2", _PSL_CONSTANTS[(2, 2)]),
        ("psl2-q07", "psl2:7:1", _PSL_CONSTANTS[(7, 1)]),
    ],
    "psl2-a6": [("psl2-q09", "psl2:3:2", _PSL_CONSTANTS[(3, 2)])],
    "quaternion-family": [
        (f"quaternion-order-{2 ** n:03d}", f"quaternion:{n}", None) for n in (3, 4, 5)
    ],
    "frobenius": [
        (f"frobenius-{p}-{q:02d}", f"frobenius:{p}:{q}", None)
        for p, q in ((2, 3), (3, 7), (5, 11))
    ],
    "heisenberg": [("extraspecial-heisenberg-27", "heisenberg:3", _pp(3, 13))],
    # the exponent-p^2 group has no closed form; its published clique form
    # gives 3^49 here, not the oracle's 3^37 * 7^2: the case records the mismatch
    "extraspecial-oracle": [("extraspecial-27-structural-vs-oracle", "extraspecial:3", None)],
    "elementary": [
        ("elementary-order-025", "elementary:5:2", _pp(5, 18)),
        ("elementary-order-027", "elementary:3:3", _pp(3, 13)),
    ],
}


def cases_audit(group: str) -> list[CaseResult]:
    """The rows of one audit group: the family's claim, looked up in the
    registry at call time, and the pinned value, whichever the row has, must
    each equal the determinant oracle.  The claim is the closed form, or the
    clique form's spectral count when the family has no closed form."""
    out = []
    for name, text, pinned in _AUDITS[group]:
        spec = GroupSpec.parse(text)
        family = FAMILIES[spec.family]
        formula = None
        if family.closed_form:
            label, formula = "closed form", family.closed_form(*spec.params)
        elif family.clique_expr:
            label, formula = "clique form", kappa_from_spectrum(spectrum(family_expr(spec)))
        det = kappa_det_of_group(text)
        detail = f"determinant {FactoredNat.from_int(det)}"
        if formula is not None:
            detail = f"{label} {formula}, {detail}"
        if pinned is not None:
            detail += f", expected {pinned}"
        ok = all(v.value() == det for v in (formula, pinned) if v is not None)
        out.append(CaseResult(name, ok, detail))
    return out


def cases_ti_cover_assembly() -> list[CaseResult]:
    # order-60 simple group assembled from its trivially-intersecting cover,
    # whose count is the product of its parts' counts: 5 Sylow-2 parts,
    # 10 order-3 parts, 6 order-5 parts
    assembled = product([F.kappa_epo({2: 3}) ** 5, F.kappa_cyclic(3) ** 10,
                         F.kappa_cyclic(5) ** 6])
    expected = _PSL_CONSTANTS[(2, 2)]
    return [
        CaseResult(
            "ti-cover-assembly-order060",
            assembled == expected,
            f"assembled {assembled}, expected {expected}",
        )
    ]


_EPO_CATALOG = (
    "elementary:2:2",
    "elementary:2:3",
    "elementary:3:2",
    "elementary:5:1",
    "heisenberg:3",
    "frobenius:2:3",
    "frobenius:3:7",
    "psl2:2:2",
)


def cases_epo_catalog() -> list[CaseResult]:
    """kappa_epo of the counts of cyclic subgroups by order, the identity's
    left out, against the oracle; kappa_epo rejects a composite order."""
    out = []
    for text in _EPO_CATALOG:
        group = build_group(GroupSpec.parse(text))
        counts = Counter(len(c) for c in set(group.cyclic_subgroups) if len(c) > 1)
        formula = F.kappa_epo(counts).value()
        det = kappa_det_of_group(text)
        out.append(
            CaseResult(
                f"epo-catalog-{text.replace(':', '-')}",
                formula == det,
                _vs(formula, det),
            )
        )
    return out


def cases_dihedral_vs_cyclic() -> list[CaseResult]:
    out = []
    for (n,) in FAMILIES["dihedral"].examples:
        kd = kappa_det_of_group(f"dihedral:{n}")
        kc = kappa_det_of_group(f"cyclic:{n}")
        out.append(
            CaseResult(
                f"dihedral-pendants-n{n}",
                kd == kc,
                f"dihedral({n}) gives {kd}, cyclic({n}) gives {kc}",
            )
        )
    return out


def cases_quotient_vs_oracle(seed: int) -> list[CaseResult]:
    """The twin-quotient route, which `auto` takes for groups without a
    closed form and for graphs, against the determinant oracle: every example
    group of every family in the registry (the oracle values are memoized
    across cases), and seeded random graphs with n <= 9, disconnected ones
    included."""
    rng = random.Random(seed + 5)
    groups = ((text, power_graph(build_group(GroupSpec.parse(text))), kappa_det_of_group(text))
              for text in _examples())
    drawn = (_random_graph(rng, rng.randint(1, 9)) for _ in range(300))
    graphs = ((f"graph {i} edges={list(g.edges())}", g, kappa_matrix_tree(g))
              for i, g in enumerate(drawn))

    def why(item):
        label, g, det = item
        spec = twin_quotient(g)  # None for a disconnected graph
        quotient = F.kappa_quotient(spec).value() if spec else 0
        return "" if quotient == det else f"{label}: quotient {quotient}, determinant {det}"

    return _sweep("quotient-vs-oracle", chain(groups, graphs), why)


# --- sweeps and randomized suites (aggregate reporting) ---


def _sweep(name: str, items, why) -> list[CaseResult]:
    """One aggregate line over items, which may be a generator: why(item)
    is '' for a pass, else the failure, and the first failure is shown."""
    texts = [why(item) for item in items]
    failures = [text for text in texts if text]
    total = len(texts)
    if failures:
        detail = f"{total - len(failures)}/{total} ok; first failure: {failures[0]}"
        return [CaseResult(name, False, detail)]
    return [CaseResult(name, True, f"{total}/{total} ok")]


def cases_cyclic_sweep() -> list[CaseResult]:
    """cyclic:1..120, closed form vs oracle."""
    def why(n):
        formula = F.kappa_cyclic(n).value()
        det = kappa_det_of_group(f"cyclic:{n}")
        return "" if formula == det else f"n={n}: closed form {formula}, determinant {det}"

    return _sweep("cyclic-sweep-001-120", range(1, 121), why)


def connected_labeled_graphs(k: int) -> list[SimpleGraph]:
    """All labeled connected graphs on k vertices (no isomorphism reduction)."""
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    out = []
    for bits in range(1 << len(pairs)):
        g = SimpleGraph(k, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])
        if g.is_connected():
            out.append(g)
    return out


def cases_triangle(seed: int) -> list[CaseResult]:
    """Three-way agreement on every labeled connected base with k <= 5 and
    seeded size vectors: formula == contraction matrix == determinant."""
    rng = random.Random(seed)
    specs = (CliqueReplacedSpec(base, tuple(rng.randint(1, 4) for _ in range(k)))
             for k in range(1, 6) for base in connected_labeled_graphs(k) for _ in range(5))

    def why(spec):
        v_formula = F.kappa_clique_replaced_formula(spec).value()
        v_smatrix = F.kappa_clique_replaced_smatrix(spec).value()
        v_det = kappa_matrix_tree(clique_replaced(spec))
        if v_formula == v_smatrix == v_det:
            return ""
        return (f"k={spec.base.n} edges={list(spec.base.edges())} sizes={spec.sizes}: "
                f"formula {v_formula}, smatrix {v_smatrix}, determinant {v_det}")

    return _sweep("triangle-k1-5", specs, why)


def _random_graph(rng: random.Random, n: int) -> SimpleGraph:
    prob = rng.uniform(0.2, 0.9)
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < prob
    ]
    return SimpleGraph(n, edges)


def cases_shifted_product_suite(seed: int) -> list[CaseResult]:
    """sigma(-m)/((-1)^n m) is an integer for every graph and nonzero integer m;
    checked both by the direct determinant route and by evaluating the
    characteristic polynomial."""
    rng = random.Random(seed + 1)
    cases = ((_random_graph(rng, rng.randint(1, 8)), rng.choice([x for x in range(-5, 6) if x]))
             for _ in range(200))

    def why(case):
        i, (g, m) = case
        try:
            direct = shifted_product_integer_check(g, m)
        except Exception as exc:  # exactness assertion must never fire
            return f"case {i} (n={g.n}, m={m}): raised {exc}"
        sigma = sum(c * (-m) ** k for k, c in enumerate(laplacian_char_poly(g)))
        via_poly, rem = divmod((-1) ** g.n * sigma, m)
        if rem or via_poly != direct:
            return f"case {i} (n={g.n}, m={m}): direct {direct}, char-poly {via_poly} rem {rem}"
        return ""

    return _sweep("shifted-eigenvalue-product-suite", enumerate(cases), why)


def cases_universal_divisibility_suite(seed: int) -> list[CaseResult]:
    """n**(m-1) divides the spanning-tree count of every connected graph with
    m < n universal vertices.  The oracle's reduction at the universal set
    makes this hold by construction, so the count is det(J+L)/n^2."""
    def why(case):
        g, m = case
        kappa = kappa_via_jl(g)
        divides = kappa % g.n ** (m - 1) == 0
        return "" if divides else f"n={g.n} m={m} edges={list(g.edges())}: kappa={kappa}"

    return _sweep("universal-count-divisibility-suite", islice(_universal_graphs(seed), 200), why)


def _universal_graphs(seed: int):
    """Seeded graphs (g, m) with 1 <= m < n universal vertices (so connected)."""
    rng = random.Random(seed + 2)
    for _ in range(20000):
        core = _random_graph(rng, rng.randint(1, 6))
        extra = rng.randint(0, 2)
        g = join(complete_graph(extra), core) if extra else core
        m = len(universal_vertices(g))
        if 1 <= m < g.n:
            yield g, m


def cases_universal_classification() -> list[CaseResult]:
    """Each family's counts (order, universal count), which the CLI reports
    without building the group, against the built power graph of each of
    its examples."""
    def why(text):
        spec = GroupSpec.parse(text)
        group = build_group(spec)
        actual = (group.order, len(universal_vertices(power_graph(group))))
        expected = FAMILIES[spec.family].counts(*spec.params)
        if actual == expected:
            return ""
        return f"{text}: counts say {expected}, the power graph has {actual}"

    return _sweep("universal-set-classification", _examples("counts"), why)


def _random_expr(rng: random.Random, budget: int):
    if budget <= 2 or rng.random() < 0.35:
        return Clique(rng.randint(1, budget))
    left = _random_expr(rng, rng.randint(1, budget - 1))
    right = _random_expr(rng, budget - left.n)
    return Union(left, right) if rng.random() < 0.5 else Join(left, right)


def _spectrum_exprs(seed: int):
    """The clique forms of the families' examples plus seeded random ones,
    200 in all."""
    rng = random.Random(seed + 3)
    texts = _examples("clique_expr")
    yield from (family_expr(GroupSpec.parse(t)) for t in texts)
    for _ in range(200 - len(texts)):
        yield _random_expr(rng, rng.randint(1, 40))


def _cotree_vectors(g: SimpleGraph):
    """Integer Laplacian eigenvectors read off g's cotree, as (lam, vector,
    pivot), a vector a {vertex: coefficient} dict (Merris 1998).

    Each component C gives its indicator, lam = 0.  A node splits into parts
    P_1..P_c, by components at a union and co-components at a join, and
    gives |P_j|*1_(P_(j-1)) - |P_(j-1)|*1_(P_j) for j >= 2, pivot in P_j.  A
    node's vertices all have the same `shift` neighbours outside it, so
    these have lam = shift at a union and shift + h at a join of h vertices,
    which passes shift + h - |P| down to each part P.  That is n vectors on
    a cograph; a set that splits neither way has an induced P4, a
    ValueError."""
    closed = g.closed
    work = []
    for comp in components(closed, set(range(g.n))):
        yield 0, dict.fromkeys(comp, 1), comp[0]
        work.append((comp, False, 0))
    while work:
        vertices, union, shift = work.pop()
        if len(vertices) == 1:
            continue
        parts = (components if union else co_components)(closed, set(vertices))
        if len(parts) == 1:
            raise ValueError(f"{len(vertices)} vertices at {vertices[0]} have an induced P4")
        lam = shift if union else shift + len(vertices)
        for prev, part in zip(parts, parts[1:]):
            vec = dict.fromkeys(prev, len(part)) | dict.fromkeys(part, -len(prev))
            yield lam, vec, part[0]
        work.extend((part, not union, lam - (0 if union else len(part))) for part in parts)


def _certified_counts(closed, vectors) -> Counter:
    """How many of `vectors` ((lam, vector, pivot) as `_cotree_vectors`
    gives them) are proved independent eigenvectors, per lam.  L v = lam v
    is checked exactly by scattering v's entries over the closed sets (x's
    own term takes back the c its diagonal |closed(x)| - lam adds).  Each vector must
    be nonzero at its pivot, and no earlier vector of its lam nonzero there,
    so each lam's vectors are triangular, hence independent.  The first
    vector that fails is a ValueError."""
    counts, touched = Counter(), {}
    for lam, vec, pivot in vectors:
        residual = defaultdict(int)  # (L - lam*I) v
        for x, c in vec.items():
            residual[x] += (len(closed[x]) - lam) * c
            for y in closed[x]:
                residual[y] -= c
        if any(residual.values()):
            raise ValueError(f"a vector claimed for {lam} is no eigenvector")
        seen = touched.setdefault(lam, set())
        if not vec.get(pivot) or pivot in seen:
            raise ValueError(f"a vector claimed for {lam} is not independent of the earlier ones")
        seen.update(vec)
        counts[lam] += 1
    return counts


def spectrum_mismatch(g: SimpleGraph, spec) -> str:
    """Why spec is not the Laplacian spectrum of g, or '' when it is proved.

    The proof is a certificate (McConnell et al. 2011): the n eigenvectors
    of `_cotree_vectors`, each checked by `_certified_counts`.  Eigenvectors
    of distinct eigenvalues are independent, so n of them make each
    certified count the nullity of L - mu*I; the counts are compared with
    spec in ascending mu.  The checker takes nothing on trust from the
    cotree walk, so a fault there can only fail a true claim."""
    if spec.n != g.n:
        return f"spectrum claims {spec.n} eigenvalues for {g.n} vertices"
    try:
        certified = _certified_counts(g.closed, _cotree_vectors(g))
    except ValueError as why:
        return f"no eigenvector certificate: {why}"
    if certified.total() != g.n:
        return f"the certificate proves {certified.total()} eigenvectors, not {g.n}"
    claimed = dict(spec.pairs)
    for mu in sorted(certified.keys() | claimed.keys()):
        if certified[mu] != claimed.get(mu, 0):
            return f"nullity of L - {mu}I is {certified[mu]}, spectrum claims {claimed.get(mu, 0)}"
    return ""


def cases_spectrum_charpoly(seed: int) -> list[CaseResult]:
    """spectrum(e) is the Laplacian spectrum of the realized graph, proved by
    a certificate of n checked integer eigenvectors read off its cotree (see
    `spectrum_mismatch`), and it gives the same spanning-tree count as the
    determinant; the families' clique forms plus seeded random ones."""
    def why(case):
        i, expr = case
        g = expr_to_graph(expr)
        spec = spectrum(expr)
        if spec.n != g.n or spec.eigenvalue_sum() != 2 * g.edge_count:
            return f"expr {i} ({expr}): spectrum totals wrong"
        mismatch = spectrum_mismatch(g, spec)
        if mismatch:
            return f"expr {i} ({expr}): {spec}: {mismatch}"
        kappa_spectral = kappa_from_spectrum(spec).value()
        kappa_det = kappa_matrix_tree(g)
        if kappa_spectral != kappa_det:
            return f"expr {i} ({expr}): spectral {kappa_spectral}, determinant {kappa_det}"
        return ""

    return _sweep("spectrum-vs-charpoly-suite", enumerate(_spectrum_exprs(seed)), why)


def clique_form_mismatch(expr: CliqueExpr, group: str) -> str:
    """'' when the expression's graph is isomorphic to the named group's power
    graph, else both canonical clique forms (`graph_expr`), which are equal
    iff the two graphs are isomorphic cographs, at any depth."""
    claimed = graph_expr(expr_to_graph(expr))
    built = graph_expr(power_graph(build_group(GroupSpec.parse(group))))
    return "" if claimed == built else f"clique form {claimed}, power graph {built}"


def cases_family_expr_realization() -> list[CaseResult]:
    """For the examples of every family with a clique form and a closed
    form, the realized expression is isomorphic to the constructed power
    graph: both have the same canonical clique form.  Where the clique form
    is a family's only claim, its `_AUDITS` row audits it."""
    def why(text):
        mismatch = clique_form_mismatch(family_expr(GroupSpec.parse(text)), text)
        return f"{text}: {mismatch}" if mismatch else ""

    return _sweep("family-clique-forms", _examples("clique_expr", "closed_form"), why)


def cases_path_audit(seed: int) -> list[CaseResult]:
    """Clique-replaced paths: the published closed form evaluated verbatim
    against the matrix-tree oracle, one table row per instance.  The table is
    the deliverable; disagreements are expected and recorded, not patched."""
    rng = random.Random(seed + 4)
    rows = ["sizes | closed form | oracle | agree"]
    for k in (3, 4, 5, 6):
        for _ in range(5):
            sizes = tuple(rng.randint(1, 5) for _ in range(k))
            formula = F.kappa_clique_replaced_path(sizes).value()
            oracle = kappa_matrix_tree(clique_replaced(CliqueReplacedSpec(path_graph(k), sizes)))
            rows.append(
                f"{sizes} | {formula} | {oracle} | {'yes' if formula == oracle else 'NO'}"
            )
    return [CaseResult("path-closed-form-audit", True, "\n    ".join(rows))]


def cases_smatrix_convention() -> list[CaseResult]:
    """The two circulating entry conventions for the contraction matrix: the
    arc-weight reading must match the determinant oracle; the alternative
    -x_max(p,q) table is recorded as disagreeing on asymmetric sizes."""
    spec = CliqueReplacedSpec(complete_graph(2), (2, 3))
    oracle = kappa_matrix_tree(clique_replaced(spec))
    arcs = F.kappa_clique_replaced_smatrix(spec, "arcs").value()
    table = F.kappa_clique_replaced_smatrix(spec, "table").value()
    ok = arcs == oracle and table != oracle
    return [
        CaseResult(
            "smatrix-entry-conventions",
            ok,
            f"two-block (2,3) expansion: oracle {oracle}, arc convention {arcs}, "
            f"-x_max table convention {table} (recorded mismatch)",
        )
    ]


def cases_expr_syntax() -> list[CaseResult]:
    checks = (
        ("K(2)*(K(6)+4#K(2))", 2**31),
        ("K(1)*(3#K(1)+K(2))", 3),
        ("K(4)", 16),
    )
    def why(check):
        text, expected = check
        got = kappa_from_spectrum(spectrum(parse_expr(text))).value()
        return "" if got == expected else f"{text}: {_vs(expected, got)}"

    return _sweep("expression-syntax", checks, why)


def cases_jl_route() -> list[CaseResult]:
    """det(J+L)/n^2 equals the reduced-Laplacian cofactor on small graphs."""
    def why(base):
        agree = kappa_via_jl(base) == kappa_matrix_tree(base)
        return "" if agree else f"k={base.n} edges={list(base.edges())}"

    bases = (base for k in range(1, 5) for base in connected_labeled_graphs(k))
    return _sweep("ones-plus-laplacian-route", bases, why)


# --- suite assembly ---


_REGISTRY = {
    "complete-graphs": (cases_complete_graphs, False),
    **{group: (partial(cases_audit, group), False) for group in _AUDITS},
    "ti-cover": (cases_ti_cover_assembly, False),
    "epo-catalog": (cases_epo_catalog, False),
    "dihedral-vs-cyclic": (cases_dihedral_vs_cyclic, False),
    "quotient-vs-oracle": (cases_quotient_vs_oracle, True),
    "cyclic-sweep": (cases_cyclic_sweep, False),
    "triangle": (cases_triangle, True),
    "shifted-product": (cases_shifted_product_suite, True),
    "universal-divisibility": (cases_universal_divisibility_suite, True),
    "universal-classification": (cases_universal_classification, False),
    "spectrum-charpoly": (cases_spectrum_charpoly, True),
    "family-exprs": (cases_family_expr_realization, False),
    "path-audit": (cases_path_audit, True),
    "smatrix-convention": (cases_smatrix_convention, False),
    "expr-syntax": (cases_expr_syntax, False),
    "jl-route": (cases_jl_route, False),
}

QUICK_GROUPS = (
    "complete-graphs",
    "prime-power-cyclic",
    "small-2groups",
    "psl2-quick",
    "heisenberg",
    "expr-syntax",
    "smatrix-convention",
)

FULL_GROUPS = tuple(_REGISTRY)


def _run_group(name: str, seed: int) -> list[CaseResult]:
    fn, needs_seed = _REGISTRY[name]
    return fn(seed) if needs_seed else fn()


def default_seed() -> int:
    text = os.environ.get("KAPPA_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"KAPPA_SEED must be an integer, got {text!r}") from None


def run_suite(suite: str, seed: int | None = None, jobs: int = 1) -> tuple[str, int]:
    """Run the named suite ('quick' or 'full'); returns (report, exit_code).

    exit code 0 when every case passes, 1 on any mismatch.  The report is a
    deterministic function of the seed.
    """
    if suite not in ("quick", "full"):
        raise ValueError(f"unknown suite {suite!r} (expected 'quick' or 'full')")
    if seed is None:
        seed = default_seed()
    groups = QUICK_GROUPS if suite == "quick" else FULL_GROUPS
    results: list[CaseResult] = []
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # not loaded by a serial run

        # a pool starts all its workers at once; a suite has only len(groups)
        with ProcessPoolExecutor(max_workers=min(jobs, len(groups))) as pool:
            for batch in pool.map(_run_group, groups, [seed] * len(groups)):
                results.extend(batch)
    else:
        for name in groups:
            results.extend(_run_group(name, seed))
    results.sort(key=lambda r: r.name)
    lines = [f"verify suite: {suite} (seed {seed})", ""]
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        lines.append(f"[{status}] {r.name}: {r.detail}")
    failures = sum(not r.ok for r in results)
    lines.append("")
    lines.append(f"{len(results) - failures}/{len(results)} cases passed")
    return "\n".join(lines) + "\n", 1 if failures else 0

