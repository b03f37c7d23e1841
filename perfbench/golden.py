"""An independent exact route to spanning-tree counts, used to make and audit
the benchmark's golden values.

It shares no code with the program's routes.  A graph is collapsed onto its
closed-twin classes: vertices with the same closed neighbourhood form a clique
block, and the graph is the clique-replaced graph of the class graph with
block sizes x_j.  Then

    kappa = prod_j m_j^(x_j - 1) * tau_W / prod_j x_j

where m_j is x_j plus the sizes of the neighbouring blocks and tau_W is any
cofactor of the class graph's Laplacian with edge weights x_i * x_j.  The
cofactor is taken at a universal class when there is one, which makes the
reduced matrix block-diagonal over the components that remain.
"""

from __future__ import annotations


def det_int(rows: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[k][k] * a[i][j] - a[i][k] * a[k][j]
                q, r = divmod(num, prev)
                if r:
                    raise ArithmeticError("inexact fraction-free division")
                a[i][j] = q
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def kappa_blocks(adj: list[set[int]], sizes: list[int]) -> int:
    """Spanning trees of the clique-replaced graph of a base graph.

    `adj[i]` holds the neighbours of base vertex i; `sizes[i]` >= 1 is its
    clique size.  Returns 0 when the base is disconnected.
    """
    k = len(sizes)
    if k == 1:
        x = sizes[0]
        return x ** (x - 2) if x > 2 else 1
    m = [sizes[i] + sum(sizes[j] for j in adj[i]) for i in range(k)]
    root = next((i for i in range(k) if len(adj[i]) == k - 1), 0)
    seen = {root}
    tau = 1
    for s in range(k):
        if s in seen:
            continue
        comp, stack = [s], [s]
        seen.add(s)
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    stack.append(w)
        if root not in set().union(*(adj[v] for v in comp)):
            return 0
        pos = {v: t for t, v in enumerate(comp)}
        rows = [[0] * len(comp) for _ in comp]
        for v in comp:
            row = rows[pos[v]]
            for w in adj[v]:
                wt = sizes[v] * sizes[w]
                row[pos[v]] += wt
                if w in pos:
                    row[pos[w]] -= wt
        tau *= det_int(rows)
    num = tau
    den = 1
    for j in range(k):
        num *= m[j] ** (sizes[j] - 1)
        den *= sizes[j]
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError("twin-quotient count is not an integer")
    return q


def kappa_twin_quotient(adj: list[set[int]]) -> int:
    """Spanning trees of an explicit graph through its closed-twin classes."""
    classes: dict[frozenset, int] = {}
    member = []
    for v, nb in enumerate(adj):
        key = frozenset(nb | {v})
        member.append(classes.setdefault(key, len(classes)))
    sizes = [0] * len(classes)
    for c in member:
        sizes[c] += 1
    qadj = [set() for _ in classes]
    for v, nb in enumerate(adj):
        for w in nb:
            if member[v] != member[w]:
                qadj[member[v]].add(member[w])
    return kappa_blocks(qadj, sizes)


def divisor_blocks(n: int) -> tuple[list[set[int]], list[int]]:
    """Divisor graph of n (adjacency = divisibility) with block sizes phi(d):
    the power graph of the cyclic group of order n, collapsed."""
    divs = [d for d in range(1, n + 1) if n % d == 0]
    adj = [
        {j for j, e in enumerate(divs) if j != i and (d % e == 0 or e % d == 0)}
        for i, d in enumerate(divs)
    ]
    return adj, [_phi(d) for d in divs]


def _phi(n: int) -> int:
    out, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            out -= out // p
        p += 1
    if m > 1:
        out -= out // m
    return out


def factor(n: int, bound: int = 10000) -> dict:
    """{"factors": [[p, e], ...], "residual": r} by trial division up to
    `bound`; the residual is the unfactored cofactor (1 when fully factored)."""
    if n == 0:
        return {"factors": [], "residual": 0}
    out = []
    p = 2
    while p <= bound and p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append([p, e])
        p += 1 if p == 2 else 2
    if n > 1 and p * p > n:
        out.append([n, 1])
        n = 1
    return {"factors": out, "residual": n}


def unfactor(golden: dict) -> int:
    v = golden["residual"]
    for p, e in golden["factors"]:
        v *= p**e
    return v
