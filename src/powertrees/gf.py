"""Arithmetic in GF(p^n) backed by addition and multiplication tables.

Field elements are encoded as integers 0..q-1 whose base-p digits are the
polynomial coefficients, least-significant digit = constant coefficient.
The modulus is the lexicographically smallest monic irreducible polynomial
of degree n over GF(p) (coefficient tuples ordered low-degree-first), which
makes the encoding reproducible.

No polynomial is factored: each monic tail is tried in that order, its
multiplication table built, and the first whose table has no zero product
of two nonzero elements is kept.  A finite commutative ring without zero
divisors is a field, and GF(p)[x]/(f) is one exactly when f is irreducible.
"""

from __future__ import annotations

from itertools import product as iproduct

from .numth import is_prime


class Gf:
    """The field GF(p^n) with precomputed addition/multiplication tables."""

    def __init__(self, p: int, n: int):
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if n < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.n = n
        self.q = q = p**n
        # a + b: the low digits add mod p, the rest is a // p + b // p one place up
        add = [list(range(q))]
        for a in range(1, q):
            add.append([p * add[a // p][b // p] + (a + b) % p for b in range(q)])
        self.add_table = add
        self.neg_table = [row.index(0) for row in add]
        # the first tail, in lexicographic order, whose table is a field's
        tables = ((tail, self._mul_table(tail)) for tail in iproduct(range(p), repeat=n))
        tail, self.mul_table = next(t for t in tables if t[1])
        self.modulus = (*tail, 1)

    def _mul_table(self, tail: tuple[int, ...]) -> list[list[int]] | None:
        """The multiplication table modulo x^n + tail, or None at its first
        zero product of two nonzero elements."""
        p, q, add = self.p, self.q, self.add_table
        top = q // p
        minus_tail = sum((-c) % p * p**i for i, c in enumerate(tail))
        # x*e moves e's digits up one place; each unit of its top digit adds x^n = -tail
        shift = [e * p for e in range(top)]
        for e in range(top, q):
            shift.append(add[shift[e - top]][minus_tail])
        # row a is row a-1 plus b when a % p != 0, and x times row a // p else
        mul = [[0] * q]
        for a in range(1, q):
            if a % p:
                row = [add[r][b] for b, r in enumerate(mul[a - 1])]
            else:
                row = [shift[r] for r in mul[a // p]]
            if 0 in row[1:]:
                return None
            mul.append(row)
        return mul

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in a field")
        return self.mul_table[a].index(1)
