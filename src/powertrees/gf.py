"""Arithmetic in GF(p^n) backed by addition and multiplication tables.

Field elements are encoded as integers 0..q-1 whose base-p digits are the
polynomial coefficients, least-significant digit = constant coefficient.
The modulus is the lexicographically smallest monic irreducible polynomial
of degree n over GF(p) (coefficient tuples ordered low-degree-first), which
makes the encoding reproducible.
"""

from __future__ import annotations

from itertools import product as iproduct

from .numth import is_prime


def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mod(num: list[int], den: list[int], p: int) -> list[int]:
    """Remainder of num / den over GF(p); den monic-normalizable, low-first coeffs."""
    num = _poly_trim(num[:])
    dd = len(den) - 1
    inv_lead = pow(den[-1], p - 2, p) if den[-1] != 1 else 1
    while num and len(num) - 1 >= dd:
        shift = len(num) - 1 - dd
        factor = num[-1] * inv_lead % p
        for i, c in enumerate(den):
            num[shift + i] = (num[shift + i] - factor * c) % p
        _poly_trim(num)
    return num


def _is_irreducible(poly: list[int], p: int) -> bool:
    """Brute irreducibility for a monic polynomial over GF(p), low degrees only."""
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for tail in iproduct(range(p), repeat=d):
            divisor = list(tail) + [1]
            if not _poly_trim(_poly_mod(poly[:], divisor, p)):
                return False
    return True


def smallest_irreducible(p: int, n: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree n over GF(p)."""
    for tail in iproduct(range(p), repeat=n):
        poly = list(tail) + [1]
        if _is_irreducible(poly, p):
            return tuple(poly)
    raise RuntimeError(f"no irreducible polynomial of degree {n} over GF({p})")  # pragma: no cover


class Gf:
    """The field GF(p^n) with precomputed addition/multiplication tables."""

    def __init__(self, p: int, n: int):
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if n < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.n = n
        self.q = p**n
        self.modulus = smallest_irreducible(p, n) if n > 1 else (0, 1)
        coeffs = [self._decode(v) for v in range(self.q)]
        self.add_table = [
            [self._encode([(a + b) % p for a, b in zip(ca, cb)]) for cb in coeffs]
            for ca in coeffs
        ]
        mod = list(self.modulus)
        mul = []
        for ca in coeffs:
            row = []
            for cb in coeffs:
                prod = [0] * (2 * n - 1)
                for i, a in enumerate(ca):
                    if a:
                        for j, b in enumerate(cb):
                            prod[i + j] = (prod[i + j] + a * b) % p
                rem = _poly_mod(prod, mod, p) if n > 1 else [prod[0] % p]
                row.append(self._encode(rem))
            mul.append(row)
        self.mul_table = mul
        self.neg_table = [self._encode([(-a) % p for a in c]) for c in coeffs]

    def _decode(self, v: int) -> list[int]:
        out = []
        for _ in range(self.n):
            out.append(v % self.p)
            v //= self.p
        return out

    def _encode(self, coeffs: list[int]) -> int:
        v = 0
        for c in reversed(coeffs[: self.n] + [0] * (self.n - len(coeffs))):
            v = v * self.p + c
        return v

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in a field")
        return self.pow(a, self.q - 2)

    def pow(self, a: int, e: int) -> int:
        out = 1
        base = a
        while e:
            if e & 1:
                out = self.mul_table[out][base]
            base = self.mul_table[base][base]
            e >>= 1
        return out
