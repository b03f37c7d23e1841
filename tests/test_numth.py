import copy
import math
import pickle
import random
from collections import Counter

import pytest

from powertrees.cli import Request, ResultRecord
from powertrees.graphs import CliqueReplacedSpec, path_graph
from powertrees.groups import FAMILIES, Family, GroupSpec
from powertrees.linalg import IntMatrix
from powertrees.numth import (
    FactoredNat,
    InternalConsistencyError,
    PrimalityRangeError,
    Value,
    divisors_desc,
    euler_phi,
    factor_completely,
    factored_ratio,
    is_prime,
    is_prime_power,
    product,
    trial_division,
)
from powertrees.spectra import Clique, Join, Union, parse_expr
from powertrees.verify import CaseResult


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41}
    for n in range(0, 42):
        assert is_prime(n) == (n in primes)


def test_is_prime_carmichael_and_big():
    assert not is_prime(561)  # Carmichael
    assert not is_prime(3215031751)  # strong pseudoprime to first four bases
    assert is_prime(2**61 - 1)
    for _ in range(2):  # is_prime is memoized, but no error is cached
        with pytest.raises(PrimalityRangeError):
            is_prime(3317044064679887385961981)


def test_trial_division_residual():
    factors, residual = trial_division(2**5 * 10007, 100)
    assert factors == [(2, 5), (10007, 1)]  # 10007 < 100^2, so it is certified
    assert residual == 1
    big_prime = 1000003
    factors, residual = trial_division(4 * big_prime**2, 100)
    assert factors[0] == (2, 2)
    # 10^12-ish residual is certified prime-squared... not prime, stays residual
    assert residual == big_prime**2 or factors[-1][0] == big_prime
    # a bound below 2 would make "no factor <= bound" certify 16 as prime
    for bound in (-4, 0, 1):
        with pytest.raises(ValueError):
            trial_division(16, bound)


def test_factor_completely():
    assert factor_completely(540) == ((2, 2), (3, 3), (5, 1))
    assert factor_completely(1) == ()
    with pytest.raises(ValueError):
        factor_completely(0)


def test_is_prime_power():
    assert is_prime_power(8) == (2, 3)
    assert is_prime_power(27) == (3, 3)
    assert is_prime_power(7) == (7, 1)
    assert is_prime_power(12) is None
    assert is_prime_power(1) is None


def test_euler_phi_and_divisors():
    assert [euler_phi(n) for n in (1, 2, 6, 12, 30)] == [1, 1, 2, 4, 8]
    assert divisors_desc(6) == [6, 3, 2, 1]
    assert divisors_desc(1) == [1]
    # phi sums to n over the divisors
    for n in (6, 12, 28, 30, 120):
        assert sum(euler_phi(d) for d in divisors_desc(n)) == n


def test_factored_nat_roundtrip():
    v = FactoredNat.from_int(540)
    assert v.factors == ((2, 2), (3, 3), (5, 1))
    assert v.value() == 540
    assert str(v) == "2^2 * 3^3 * 5"
    assert str(FactoredNat.one()) == "1"
    assert str(FactoredNat.zero()) == "0"


def test_factored_nat_residual_formatting():
    # leftover cofactor appears as a trailing bare factor
    v = FactoredNat.from_int(4 * 1000003**2, bound=10)
    assert v.value() == 4 * 1000003**2
    assert v.residual > 1
    assert str(v).startswith("2^2 * ")


def test_factored_nat_rejects_bad_input():
    with pytest.raises(ValueError):
        FactoredNat(((4, 1),))  # 4 is not prime
    with pytest.raises(ValueError):
        FactoredNat(((3, 1), (2, 1)))  # wrong order
    with pytest.raises(ValueError):
        FactoredNat(((2, 0),))  # zero exponent


def test_factored_nat_arithmetic():
    a = FactoredNat.prime_power(2, 3) * FactoredNat.prime_power(3, 2)
    assert a.value() == 72
    assert (a**2).value() == 72**2
    assert product([FactoredNat.prime_power(7, 1)] * 3).value() == 343
    assert FactoredNat.prime_power(5, 0) == FactoredNat.one()


def test_factored_ratio_checks_the_division():
    # 2^3 * 3 * det / 6 with det = 5
    assert factored_ratio({2: 3, 3: 1, 6: -1}, {5: 1}, 6).value() == 20
    with pytest.raises(InternalConsistencyError, match="negative exponents"):
        factored_ratio({2: 1, 6: -1}, {5: 1}, 6)
    with pytest.raises(InternalConsistencyError, match="negative exponents"):
        factored_ratio({4: -1}, {}, 4)
    for det in (0, -9):
        with pytest.raises(InternalConsistencyError, match="non-positive"):
            factored_ratio({3: -2}, {det: 1}, 3)


def test_factored_ratio_of_one_det_equals_trial_division_of_the_value():
    rng = random.Random(1806)
    # cofactors with primes near or past the bound; a square of a prime and a
    # product of two primes leave a composite residual past bound^2
    big = (1, 1009, 1000003, 1000003**2, 1009 * 1013, 10007 * 100003)
    for _ in range(300):
        n = rng.randint(1, 3000)
        powers = {rng.randint(1, n): rng.randint(-3, 6) for _ in range(rng.randint(0, 4))}
        den = 1
        num = 1
        for base, k in powers.items():
            if k < 0:
                den *= base**-k
            else:
                num *= base**k
        det = den * rng.randint(1, 10**6) * rng.choice(big)
        value = num * det // den
        assert factored_ratio(powers, {det: 1}, n) == FactoredNat.from_int(value, max(n, 1000))


def test_factored_ratio_with_repeated_determinants():
    # fully factored below the bound: the same as factoring the product
    dets = [12, 35, 12, 2**10 * 997, 35, 12]
    assert factored_ratio({}, Counter(dets), 10) == FactoredNat.from_int(math.prod(dets))
    powers = {6: 3, 35: -2, 4: -1}
    assert factored_ratio(powers, Counter(dets), 10) == FactoredNat.from_int(
        math.prod(dets) * 6**3 // (35**2 * 4)
    )
    # a composite cofactor beyond the bound is raised to its count, and each
    # det's cofactor is certified on its own, as if the dets were distinct
    big = 1009 * 1013 * 4
    got = factored_ratio({}, {big: 3, 3: 1}, 10)
    assert got == FactoredNat(((2, 6), (3, 1)), (1009 * 1013) ** 3)
    assert got == product([FactoredNat.from_int(d) for d in (big, 3, big, big)])
    assert factored_ratio({}, {2018: 3}, 10) == FactoredNat(((2, 3), (1009, 3)))
    with pytest.raises(InternalConsistencyError):
        factored_ratio({}, {4: 2, 0: 1}, 10)


# --- Value, the base of every record type ---

RECORDS = [
    Request("zn", "12", None, "auto", "decimal"),
    ResultRecord("zn 12", "formula", FactoredNat(((2, 3),), 5), 12, 5, 0.25),
    CliqueReplacedSpec(path_graph(3), (1, 2, 1)),
    GroupSpec("psl2", (2, 2)),
    FAMILIES["psl2"],
    IntMatrix(2, 2, (1, 2, 3, 4)),
    FactoredNat(((2, 3),), 1),
    Clique(3),
    Union(Clique(1), Clique(2)),
    Join(Clique(1), Union(Clique(2), Clique(3))),
    CaseResult("case", True, "1/1 ok"),
]


def test_every_record_type_is_a_value():
    types = {type(r) for r in RECORDS}
    assert len(types) == 11 and all(issubclass(t, Value) for t in types)
    assert {Family, Union, Join} <= types


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_equal_fields_give_equal_values_and_hashes(record):
    twin = copy.copy(record)  # rebuilt through the constructor
    assert twin is not record and type(twin) is type(record)
    assert twin == record and not twin != record and hash(twin) == hash(record)


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_assigning_or_deleting_any_field_raises(record):
    assert type(record)._fields
    for name in type(record)._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert copy.copy(record) == record


def test_equal_fields_under_another_class_are_unequal():
    a, b = Clique(1), Clique(2)
    assert Union(a, b).parts == Join(a, b).parts and Union(a, b).n == Join(a, b).n
    assert Union(a, b) != Join(a, b) and not Union(a, b) == Join(a, b)
    assert FactoredNat(((2, 3),), 1) != (((2, 3),), 1)
    assert Clique(3) != 3


def test_pickle_round_trips_to_equal_values():
    expr = parse_expr("K(1)*(K(2)+K(1)*(K(3)+K(4))+K(2))")
    assert isinstance(expr, Join) and any(isinstance(p, Union) for p in expr.parts)
    for value in (CaseResult("case", False, "expected 1, got 2"), FactoredNat(((2, 3),), 35),
                  GroupSpec("psl2", (2, 2)), expr):
        back = pickle.loads(pickle.dumps(value))
        assert back == value and type(back) is type(value) and repr(back) == repr(value)
        assert hash(back) == hash(value)


def test_repr_is_the_dataclass_form():
    assert repr(FactoredNat(((2, 3),), 1)) == "FactoredNat(factors=((2, 3),), residual=1)"
    assert repr(Clique(3)) == "Clique(size=3)"
    assert repr(Join(Clique(1), Union(Clique(2), Clique(3)))) == (
        "Join(parts=(Clique(size=1), Union(parts=(Clique(size=2), Clique(size=3)), n=5)), n=6)"
    )
    assert repr(CaseResult("case", True, "ok")) == "CaseResult(name='case', ok=True, detail='ok')"


def test_constructors_take_fields_in_order_or_by_name():
    req = Request("zn", "12", None, "auto", "json")
    assert Request(kind="zn", target="12", sizes=None, method="auto", output="json") == req
    assert Request("zn", "12", None, output="json", method="auto") == req
    assert CaseResult("case", detail="ok", ok=True) == CaseResult("case", True, "ok")
    assert FactoredNat(residual=5) == FactoredNat((), 5) and FactoredNat() == FactoredNat.one()
    assert GroupSpec(params=(12,), family="cyclic") == GroupSpec.parse("cyclic:12")
    for bad in ((("case", True), {}), (("case", True, "ok", "extra"), {}),
                (("case", True), {"details": "ok"}), (("case", True, "ok"), {"ok": False})):
        with pytest.raises(TypeError):
            CaseResult(*bad[0], **bad[1])
    # the checks still run after the fields are set
    with pytest.raises(ValueError, match="4 is not prime"):
        FactoredNat(((4, 1),))
    with pytest.raises(ValueError, match="clique size must be >= 1"):
        Clique(0)
