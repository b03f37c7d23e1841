"""Elementary number theory (primality, trial division, FactoredNat) and Value.

Everything here is exact integer arithmetic.  Primality is certified
deterministically (Miller-Rabin with a witness set proven complete below
3.3e24); values outside that range are never claimed prime.

Value is the base of every record type: its fields are its class's
__slots__, and it is immutable, equal only to an instance of its own class
with equal fields, hashed by them, printed as Name(field=value, ...) and
pickled through its constructor, which checks the fields again.
"""

from __future__ import annotations

import functools
import math
from operator import attrgetter

# Deterministic Miller-Rabin witnesses, complete for n < 3317044064679887385961981.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 3317044064679887385961981


class Value:
    """Immutable record (see the module docstring); a slot named _x is no field."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.__slots__:
            cls._fields = tuple(name for name in cls.__slots__ if name[0] != "_")
            cls._key = attrgetter(*cls._fields)  # one field alone, or a tuple of them

    def __init__(self, *values, **named):
        """Every field, in order or by name; a class with checks calls this first."""
        if named:
            values += tuple(named.pop(f) for f in self._fields[len(values):] if f in named)
        if named or len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(self._fields)}")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self._key(self) == self._key(other) if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def _values(self) -> tuple:
        return self._key(self) if len(self._fields) > 1 else (self._key(self),)

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"


class PrimalityRangeError(ValueError):
    """Raised when asked to certify primality beyond the deterministic range."""


class InternalConsistencyError(RuntimeError):
    """An exactness invariant failed (inexact division); signals a bug."""


@functools.lru_cache(maxsize=4096)
def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 3.3e24, memoized: a
    FactoredNat checks each of its primes again whenever it is built."""
    if n >= _MR_LIMIT:
        raise PrimalityRangeError(f"cannot certify primality of {n}: out of deterministic range")
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def trial_division(n: int, bound: int) -> tuple[list[tuple[int, int]], int]:
    """Factor n by trial division with primes <= bound.

    Returns (factors, residual) with factors a sorted list of (prime, exponent)
    and n == residual * prod(p**e).  residual == 1 means fully factored.
    """
    if n < 1:
        raise ValueError(f"trial_division expects n >= 1, got {n}")
    if bound < 2:
        raise ValueError(f"trial_division expects bound >= 2, got {bound}")
    factors = []
    for p in (2, 3):
        if p > bound:
            break
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            factors.append((p, e))
    # remaining candidates are 6k +/- 1
    p = 5
    step = 2
    while p <= bound and p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            factors.append((p, e))
        p += step
        step = 6 - step
    if n > 1 and (n <= bound * bound or _certifiable_prime(n)):
        # no factor <= bound, so n <= bound^2 forces primality; otherwise certify
        factors.append((n, 1))
        n = 1
    return factors, n


def _certifiable_prime(n: int) -> bool:
    try:
        return is_prime(n)
    except PrimalityRangeError:
        return False


@functools.lru_cache(maxsize=4096)
def factor_completely(n: int) -> tuple[tuple[int, int], ...]:
    """Full factorization of n >= 1, memoized: intended for small n (bases of
    an exact ratio, group orders), which recur."""
    factors, residual = trial_division(n, max(2, math.isqrt(n)))
    if residual != 1:
        raise ValueError(f"failed to factor {n} completely")
    return tuple(factors)


def is_prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, m) with n == p**m, m >= 1, or None if n is not a prime power."""
    if n < 2:
        return None
    factors = factor_completely(n)
    if len(factors) == 1:
        return factors[0]
    return None


def euler_phi(n: int) -> int:
    """Euler totient of n >= 1."""
    if n < 1:
        raise ValueError(f"euler_phi expects n >= 1, got {n}")
    result = n
    for p, _ in factor_completely(n):
        result = result // p * (p - 1)
    return result


def divisors_desc(n: int) -> list[int]:
    """All divisors of n in strictly decreasing order (n first, 1 last)."""
    if n < 1:
        raise ValueError(f"divisors_desc expects n >= 1, got {n}")
    divs = [1]
    for p, e in factor_completely(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs, reverse=True)


class FactoredNat(Value):
    """Exact natural number as a product of certified prime powers times a residual.

    value == residual * prod(p**e); primes strictly increasing, each certified by
    a deterministic test.  residual is 1 when fully factored; a residual > 1 is
    an unfactored (and uncertified) leftover cofactor.  The number 0 is
    represented by residual == 0 with no prime factors.
    """

    __slots__ = ("factors", "residual")

    def __init__(self, factors: tuple[tuple[int, int], ...] = (), residual: int = 1):
        super().__init__(factors, residual)
        if residual < 0:
            raise ValueError("residual must be >= 0")
        if residual == 0 and factors:
            raise ValueError("zero must carry no prime factors")
        last = 1
        for p, e in factors:
            if p <= last:
                raise ValueError(f"primes must be strictly increasing, got {p} after {last}")
            if e < 1:
                raise ValueError(f"exponent of {p} must be >= 1, got {e}")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            last = p

    @classmethod
    def one(cls) -> "FactoredNat":
        return cls((), 1)

    @classmethod
    def zero(cls) -> "FactoredNat":
        return cls((), 0)

    @classmethod
    def prime_power(cls, p: int, e: int) -> "FactoredNat":
        if e == 0:
            return cls.one()
        return cls(((p, e),), 1)

    @classmethod
    def from_int(cls, n: int, bound: int = 1000) -> "FactoredNat":
        """Factor n by trial division with primes <= bound; leftover goes to residual."""
        if n == 0:
            return cls.zero()
        factors, residual = trial_division(n, bound)
        return cls(tuple(factors), residual)

    def value(self) -> int:
        v = self.residual
        for p, e in self.factors:
            v *= p**e
        return v

    def __mul__(self, other: "FactoredNat") -> "FactoredNat":
        if self.residual == 0 or other.residual == 0:
            return FactoredNat.zero()
        merged = dict(self.factors)
        for p, e in other.factors:
            merged[p] = merged.get(p, 0) + e
        return FactoredNat(tuple(sorted(merged.items())), self.residual * other.residual)

    def __pow__(self, k: int) -> "FactoredNat":
        if k < 0:
            raise ValueError("negative exponent")
        if k == 0:
            return FactoredNat.one()
        if self.residual == 0:
            return FactoredNat.zero()
        return FactoredNat(
            tuple((p, e * k) for p, e in self.factors), self.residual**k
        )

    def __str__(self) -> str:
        if self.residual == 0:
            return "0"
        parts = [f"{p}^{e}" if e > 1 else f"{p}" for p, e in self.factors]
        if self.residual > 1 or not parts:
            parts.append(str(self.residual))
        return " * ".join(parts)


def product(values: list[FactoredNat] | tuple[FactoredNat, ...]) -> FactoredNat:
    """Product of factored naturals (exponent addition per prime)."""
    result = FactoredNat.one()
    for v in values:
        result = result * v
    return result


def factored_ratio(powers: dict[int, int], dets: dict[int, int], n: int) -> FactoredNat:
    """prod base**k over powers times prod det**count over dets, factored
    without being multiplied out: the shape of every structured count.

    Each base (at most n) is factored completely and may carry a negative
    exponent; each det is trial-divided once, up to max(n, 1000), so its
    residual has no prime that a base has, and its count (>= 1) multiplies
    its exponents and raises its residual.  The division is therefore exact
    iff no prime's exponent falls below 0, which is asserted, as is every
    det > 0.  With {det: 1} the result equals FactoredNat.from_int of det
    times the bases under that bound; each det's cofactor is certified on
    its own.
    """
    bound = max(n, 1000)
    exponents: dict[int, int] = {}
    residual = 1
    for det, count in dets.items():
        if det <= 0:
            raise InternalConsistencyError(f"non-positive determinant {det}")
        factors, rest = trial_division(det, bound)
        for p, e in factors:
            exponents[p] = exponents.get(p, 0) + e * count
        residual *= rest**count
    for base, k in powers.items():
        for p, e in factor_completely(base):
            exponents[p] = exponents.get(p, 0) + e * k
    negative = {p: e for p, e in exponents.items() if e < 0}
    if negative:
        raise InternalConsistencyError(
            f"inexact division: primes with negative exponents {negative}"
        )
    return FactoredNat(tuple(sorted((p, e) for p, e in exponents.items() if e)), residual)
