"""Laws and examples for the exact meadow arithmetic."""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from threadalg import meadow
from threadalg.errors import OutOfRange, ParseError
from threadalg.meadow import (
    ONE,
    ZERO,
    add,
    as_probability,
    div,
    inv,
    is_probability,
    leq,
    lt,
    mul,
    neg,
    rat,
    signum,
    sub,
)

rationals = st.builds(
    Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**4)
)


# ring laws


@given(rationals, rationals, rationals)
def test_addition_associative(x, y, z):
    assert add(add(x, y), z) == add(x, add(y, z))


@given(rationals, rationals)
def test_addition_commutative(x, y):
    assert add(x, y) == add(y, x)


@given(rationals)
def test_additive_identity(x):
    assert add(x, ZERO) == x


@given(rationals)
def test_additive_inverse(x):
    assert add(x, neg(x)) == ZERO


@given(rationals, rationals, rationals)
def test_multiplication_associative(x, y, z):
    assert mul(mul(x, y), z) == mul(x, mul(y, z))


@given(rationals, rationals)
def test_multiplication_commutative(x, y):
    assert mul(x, y) == mul(y, x)


@given(rationals)
def test_multiplicative_identity(x):
    assert mul(x, ONE) == x


@given(rationals, rationals, rationals)
def test_distributivity(x, y, z):
    assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))


# the two inverse laws


@given(rationals)
def test_inverse_involution(x):
    assert inv(inv(x)) == x


@given(rationals)
def test_restricted_inverse(x):
    assert mul(x, mul(x, inv(x))) == x


def test_inverse_of_zero_is_zero():
    assert inv(ZERO) == ZERO
    assert div(ONE, ZERO) == ZERO
    assert div(ZERO, ZERO) == ZERO


def test_inverse_example():
    assert inv(rat(2, 3)) == rat(3, 2)


# signum laws


@given(rationals)
def test_signum_of_self_quotient(x):
    assert signum(div(x, x)) == div(x, x)


@given(rationals)
def test_signum_of_complement_quotient(x):
    assert signum(ONE - div(x, x)) == ONE - div(x, x)


def test_signum_of_minus_one():
    assert signum(rat(-1)) == rat(-1)


@given(rationals)
def test_signum_of_inverse(x):
    assert signum(inv(x)) == signum(x)


@given(rationals, rationals)
def test_signum_multiplicative(x, y):
    assert signum(mul(x, y)) == mul(signum(x), signum(y))


@given(rationals, rationals)
def test_signum_guarded_addition(x, y):
    # when the signs agree the sign of a sum is their shared sign; the
    # guard is expressed totally, with the zero quotient reading 0/0 = 0
    guard = ONE - div(signum(x) - signum(y), signum(x) - signum(y))
    assert mul(guard, signum(add(x, y)) - signum(x)) == ZERO


def test_signum_examples():
    assert signum(ZERO) == ZERO
    assert signum(rat(7, 3)) == ONE


@given(rationals, rationals, rationals)
def test_cancellation(x, y, z):
    # for x != 0, equal products force equal factors
    if x != 0 and mul(x, y) == mul(x, z):
        assert y == z
    if x != 0:
        assert div(mul(x, y), x) == y


# order predicates


def test_order_examples():
    assert lt(ZERO, ONE)
    assert leq(rat(1, 2), rat(1, 2))
    assert not lt(rat(2, 3), rat(1, 2))


@given(rationals, rationals)
def test_order_agrees_with_fractions(x, y):
    assert lt(x, y) == (x < y)
    assert leq(x, y) == (x <= y)


# probabilities


def test_probability_range():
    assert as_probability(rat(1, 2)) == rat(1, 2)
    assert as_probability(ZERO) == ZERO
    assert as_probability(ONE) == ONE
    with pytest.raises(OutOfRange):
        as_probability(rat(3, 2))
    with pytest.raises(OutOfRange):
        as_probability(rat(-1, 10))


@given(rationals)
def test_probability_predicate_matches_bounds(x):
    assert is_probability(x) == (0 <= x <= 1)


# textual format


@pytest.mark.parametrize(
    "text,value",
    [("1/2", Fraction(1, 2)), ("0", Fraction(0)), ("1", Fraction(1)),
     ("-3/4", Fraction(-3, 4)), ("6/4", Fraction(3, 2)), ("7", Fraction(7))],
)
def test_parse_rational(text, value):
    assert meadow.parse_rational(text) == value


@pytest.mark.parametrize("text", ["1/0", "", "a", "1.5", "--1", "1/-2", "1e3"])
def test_parse_rational_rejects(text):
    with pytest.raises(ParseError):
        meadow.parse_rational(text)


@given(rationals)
def test_format_roundtrip(x):
    assert meadow.parse_rational(meadow.format_rational(x)) == x


def test_format_examples():
    assert meadow.format_rational(Fraction(-3, 4)) == "-3/4"
    assert meadow.format_rational(Fraction(0)) == "0"
    assert meadow.format_rational(Fraction(2, 4)) == "1/2"


@pytest.mark.parametrize(
    "value",
    [
        Fraction(10**6000),
        Fraction(-(10**6000) - 1, 3),
        Fraction(7, 10**9000 + 3),
        Fraction(10**4300 - 1, 10**4300),
        Fraction(2**40000 + 1, 10**5000),
        Fraction(3**20000 * 10**3000 + 1, 2**15001),
    ],
    ids=["zero-halves", "negative", "denominator", "both", "odd", "zero-run"],
)
def test_format_spells_rationals_of_any_length(value):
    # `Decimal` turns an int of any length into digits
    num, den = Decimal(value.numerator), Decimal(value.denominator)
    expected = f"{num}" if den == 1 else f"{num}/{den}"
    assert meadow.format_rational(value) == expected


def test_subtraction():
    assert sub(rat(1, 2), rat(1, 3)) == rat(1, 6)


def test_addition_example():
    assert add(rat(1, 2), rat(1, 3)) == rat(5, 6)
