"""Closed-form spanning-tree counts for clique-replaced graphs and for the
power graphs of the cataloged group families, each cross-checkable against
the exact matrix-tree determinant.  A family's closed form assumes the
parameter range that its `groups.FAMILIES` row states: its parameter kinds
and `needs`.

All arithmetic is in exact integers; every division is asserted exact,
never rounded.
"""

from __future__ import annotations

from collections import Counter
from math import gcd

from .graphs import CliqueReplacedSpec, co_components, components, divisor_graph
from .linalg import IntMatrix, InternalConsistencyError, det_bareiss
from .numth import (
    FactoredNat,
    divisors_desc,
    euler_phi,
    factored_ratio,
    is_prime,
    is_prime_power,
    product,
)


def kappa_cayley(n: int) -> FactoredNat:
    """Spanning trees of the complete graph: n**(n-2), and 1 for n <= 2."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return factored_ratio({n: max(n - 2, 0)}, {}, n)


def kappa_quaternion(n: int) -> FactoredNat:
    """Generalized quaternion group of order 2**n: 2**((2**(n-2)-1)*(2n+1)+4)."""
    return FactoredNat.prime_power(2, (2 ** (n - 2) - 1) * (2 * n + 1) + 4)


def kappa_epo(counts: dict[int, int]) -> FactoredNat:
    """Groups whose non-identity elements all have prime order: with c_p cyclic
    subgroups of order p, the count is prod_p p**((p-2)*c_p)."""
    parts = []
    for p in sorted(counts):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        c = counts[p]
        if c < 1:
            raise ValueError(f"subgroup count for {p} must be >= 1")
        parts.append(FactoredNat.prime_power(p, (p - 2) * c))
    return product(parts)


def _det_int(rows: list[list[int]]) -> int:
    return det_bareiss(IntMatrix.from_rows(rows))


def kappa_clique_replaced_formula(spec: CliqueReplacedSpec) -> FactoredNat:
    """Exact spanning-tree count of the clique-replaced graph by the
    ratio-product formula

        prod m_i**x_i * (Psi + subset sum) / (Psi * n^2),

    where lambda_i = m_i / x_i, Psi = prod lambda_i and the subset sum runs
    over the induced subgraphs S of the base complement, each weighted
    det(A_complement[S]) * prod_{i not in S} lambda_i.  By the principal-minor
    expansion det(D + A) = sum_S det(A[S]) prod_{i not in S} d_i, that bracket
    is the single determinant det(diag(lambda) + A_complement) (S = {} gives
    Psi, singletons give 0).  Scaling row i by x_i makes it integer:
    M = diag(m) + diag(x) * A_complement, det(M) = prod x_i * (Psi + sum), and
    kappa = prod m_i**x_i * det(M) / (prod m_i * n^2).  Universal base vertices
    drop out: each is isolated in the base complement, so its row of M is m_i
    on the diagonal, which cancels against its m_i in the denominator.  So one
    |V| x |V| determinant, V the non-universal base vertices, gives

        kappa = prod m_i**x_i * det(M[V]) / (prod_{i in V} m_i * n^2),

    factored from its parts (factored_ratio): the primes of m_i and n are
    certified, det(M[V]) is trial-divided up to max(n, 1000), and the division
    is checked exact in exponent space.
    """
    closed, sizes, m = spec.base.closed, spec.sizes, spec.m
    kept = [i for i in range(spec.k) if len(closed[i]) != spec.k]
    rows = [[m[i] if i == j else sizes[i] * (j not in closed[i]) for j in kept] for i in kept]
    powers = Counter()
    for i, x in enumerate(sizes):
        powers[m[i]] += x
    for i in kept:
        powers[m[i]] -= 1
    powers[spec.n] -= 2
    return factored_ratio(powers, {_det_int(rows): 1}, spec.n)


def kappa_quotient(spec: CliqueReplacedSpec) -> FactoredNat:
    """Exact spanning-tree count of the clique-replaced graph, its base taken
    apart by components and co-components.  For a connected set T of blocks
    (h vertices, each with s neighbours outside T), f(T, s) = det L[T] / s,
    L the Laplacian, is
    - (x + s)**(x - 1) for one block of x vertices;
    - (h + s)**(r - 1) * prod t_i**(c_i - 1) * prod f(C, t_i) for r >= 2
      co-components T_i (n_i vertices, c_i components C, t_i = h - n_i + s);
    - prod m_j**(x_j - 1) * det Q[T] / s for T prime, Q the base Laplacian
      with weight x_j on the arc i -> j (block j adds x_j - 1 eigenvalues m_j).
    kappa = f(V, 0)/n; for a prime V, det(Q + sI)/s at s = 0 is n det Q[V - 0]
    / x_0, one determinant per component of V - 0.  A cograph base takes
    none.  Equal components (the reflections of a dihedral group, the
    conjugate subgroups of a simple group) give equal rows once their blocks
    are sorted by (x_i, m_i), and are taken apart once.  Factored by
    factored_ratio, each distinct determinant once, with its multiplicity.
    """
    closed, sizes, m = spec.base.closed, spec.sizes, spec.m

    def rows(c):  # Q[c]
        return [[m[i] - sizes[i] if i == j else -sizes[j] * (j in closed[i]) for j in c] for i in c]

    def distinct(comps):  # [component, count] per distinct Q[component]
        found, lengths = {}, Counter(map(len, comps))
        for comp in comps:
            comp.sort(key=lambda i: (sizes[i], m[i]))
            # only components of one length can have equal rows
            key = tuple(map(tuple, rows(comp))) if lengths[len(comp)] > 1 else len(comp)
            found.setdefault(key, [comp, 0])[1] += 1
        return found.values()

    powers = Counter()
    for j, x in enumerate(sizes):
        powers[m[j]] += x - 1
    dets, work = Counter(), [(list(range(spec.k)), 0, 1)]  # (node, s, count)
    while work:
        node, s, mult = work.pop()
        parts = co_components(closed, set(node))
        if len(parts) == 1:  # prime or one block; at the root, the cofactor over x_0
            for comp, count in distinct(components(closed, set(node[1:])) if s == 0 else [node]):
                dets[_det_int(rows(comp))] += count * mult
            powers[s or sizes[node[0]]] -= mult
            continue
        h = s + sum(sizes[i] for i in node)
        powers[h] += (len(parts) - 1) * mult - (s == 0)  # at the root h = n, and kappa = f/n
        for part in parts:
            t = h - sum(sizes[i] for i in part)
            comps = components(closed, set(part))
            powers[t] += (len(comps) - 1) * mult
            work.extend((c, t, mult * count) for c, count in distinct([c for c in comps if len(c) > 1]))
    return factored_ratio(powers, dets, spec.n)


def smatrix(spec: CliqueReplacedSpec, convention: str = "arcs") -> list[list[int]]:
    """The k x k contraction matrix whose principal minors sum to the
    spanning-tree factor of the clique-replaced graph.

    convention='arcs': the off-diagonal entry s_pq for adjacent base vertices
    is -x_q (the arc p->q weighs the head block), the reading under which the
    directed matrix-tree interpretation is consistent.  Then
    S_arcs = diag(x)^-1 * L_W, L_W the base Laplacian with edge weights
    x_p * x_q, so sum_j det S_jj = n * tau_W / prod x_j and
    kappa_clique_replaced_smatrix equals kappa_quotient.  It is kept as an
    audited claim, checked against the oracle by the verification suite,
    not as a production route.  convention='table' uses -x_max(p,q) instead;
    it is retained because it circulates in written form, and the
    verification suite records that it disagrees with the determinant oracle
    on asymmetric size vectors.  Diagonals make row sums zero either way.
    """
    if convention not in ("arcs", "table"):
        raise ValueError(f"unknown S-matrix convention {convention!r}")
    k, sizes = spec.k, spec.sizes
    rows = [[0] * k for _ in range(k)]
    for p in range(k):
        for q in spec.base.closed[p]:
            rows[p][q] = -sizes[q] if convention == "arcs" else -sizes[max(p, q)]
        rows[p][p] -= sum(rows[p])  # the row sum becomes 0
    return rows


def kappa_clique_replaced_smatrix(spec: CliqueReplacedSpec, convention: str = "arcs") -> FactoredNat:
    """Spanning trees of the clique-replaced graph via the contraction matrix:

        prod m_j**(x_j - 1) * sum_j det(S with row/col j removed) / n

    The minor sum is one determinant, det(S + 1 e_0^T): S with 1 added to
    every entry of column 0.  S has zero row sums, S1 = 0, under both
    conventions.  Since S adj(S) = det(S) I = 0, every column of adj(S) lies
    in ker S: when S has rank k - 1 that kernel is spanned by 1, so each
    column is constant, and when its rank is lower adj(S) = 0.  Either way
    adj(S)[0][j] = adj(S)[j][j] = det S_jj.  The matrix determinant lemma,
    with det S = 0, gives det(S + 1 e_0^T) = e_0^T adj(S) 1 =
    sum_j adj(S)[0][j] = sum_j det S_jj.  It is factored by factored_ratio,
    trial-divided as one number.
    """
    rows = smatrix(spec, convention)
    for row in rows:
        row[0] += 1
    powers = Counter()
    for m, x in zip(spec.m, spec.sizes):
        powers[m] += x - 1
    powers[spec.n] -= 1
    return factored_ratio(powers, {_det_int(rows): 1}, spec.n)


def divisor_clique_spec(n: int) -> CliqueReplacedSpec:
    """The divisor graph of n with block sizes phi(d_i): the clique-replaced
    description of the power graph of the cyclic group of order n."""
    return CliqueReplacedSpec(
        divisor_graph(n), tuple(euler_phi(d) for d in divisors_desc(n))
    )


def kappa_cyclic(n: int) -> FactoredNat:
    """Power graph of the cyclic group of order n.

    For n = 1 and prime powers the power graph is complete: kappa_cayley,
    without a divisor graph.  Otherwise the clique-replaced formula on
    divisor_clique_spec(n) takes the divisors other than 1 and n (universal).
    The formula gives the same there (its determinant is empty), but the
    branch is faster: 5-18 us a call against 40-55 us (n = 3, 7, 8, 13, 27,
    101; Python 3.11, x86_64), and each frobenius:p:q closed form calls it twice.
    """
    if n == 1 or is_prime_power(n):
        return kappa_cayley(n)
    return kappa_clique_replaced_formula(divisor_clique_spec(n))


def kappa_psl2(p: int, n: int) -> FactoredNat:
    """The simple groups PSL(2, q), q = p**n >= 4:

        p**((q^2-1)(p-2)/(p-1)) * kappa_cyclic((q-1)/k)**(q(q+1)/2)
                                * kappa_cyclic((q+1)/k)**(q(q-1)/2)

    with k = gcd(q-1, 2).
    """
    q = p**n
    k = gcd(q - 1, 2)
    num = (q * q - 1) * (p - 2)
    exp, rem = divmod(num, p - 1)
    if rem:
        raise InternalConsistencyError("(q^2-1)(p-2) must be divisible by p-1")
    return product(
        [
            FactoredNat.prime_power(p, exp),
            kappa_cyclic((q - 1) // k) ** (q * (q + 1) // 2),
            kappa_cyclic((q + 1) // k) ** (q * (q - 1) // 2),
        ]
    )


def kappa_heisenberg(p: int) -> FactoredNat:
    """Order-p^3 extraspecial group of exponent p: p**((p-2)(p^2+p+1))."""
    return FactoredNat.prime_power(p, (p - 2) * (p * p + p + 1))


def kappa_frobenius(kappa_kernel: FactoredNat, kappa_complement: FactoredNat, kernel_order: int) -> FactoredNat:
    """Frobenius group G = FH: kappa(G) = kappa_G(F) * kappa_G(H)**|F|."""
    if kernel_order < 1:
        raise ValueError("kernel order must be >= 1")
    return kappa_kernel * kappa_complement**kernel_order


def kappa_frobenius_pq(p: int, q: int) -> FactoredNat:
    """Nonabelian group of order p*q (p < q primes, p | q-1): the Frobenius
    rule with kernel Z_q and complement Z_p, q**(q-2) * p**((p-2)*q)."""
    return kappa_frobenius(kappa_cyclic(q), kappa_cyclic(p), q)

