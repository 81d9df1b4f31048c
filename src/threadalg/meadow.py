"""Exact rational arithmetic with a totalized inverse and a signum.

The values form a signed cancellation meadow: the field of rational
numbers with the multiplicative inverse made total by stipulating that
the inverse of zero is zero, expanded with a signum operation.  The
order predicates and the probability range check are expressed through
signum, so every operation stays total and exact.  All probabilities
used by the thread modules are values from this module.

Values are plain `fractions.Fraction` objects, which already keep the
canonical invariants (lowest terms, positive denominator, arbitrary
precision).  This module adds the totalized operations and the textual
format used by every parser and printer in the package: `num/den` in
lowest terms, denominator omitted when it is 1, sign on the numerator.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import OutOfRange, ParseError

MeadowValue = Fraction

#: A meadow value additionally satisfying 0 <= p <= 1 (see `as_probability`).
Probability = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

#: A rational as the text formats spell it: `num` or `num/den`.
RATIONAL = r"-?\d+(?:/\d+)?"
_RATIONAL_RE = re.compile(RATIONAL)


def rat(num: int, den: int = 1) -> MeadowValue:
    """Rational num/den in lowest terms with a positive denominator."""
    return Fraction(num, den)


def add(a: MeadowValue, b: MeadowValue) -> MeadowValue:
    return a + b


def mul(a: MeadowValue, b: MeadowValue) -> MeadowValue:
    return a * b


def neg(a: MeadowValue) -> MeadowValue:
    return -a


def sub(a: MeadowValue, b: MeadowValue) -> MeadowValue:
    return a + (-b)


def inv(a: MeadowValue) -> MeadowValue:
    """Multiplicative inverse, totalized: the inverse of zero is zero."""
    if a == 0:
        return ZERO
    return 1 / a


def div(a: MeadowValue, b: MeadowValue) -> MeadowValue:
    """Meadow division `a * inv(b)`; dividing by zero yields zero."""
    return a * inv(b)


def signum(a: MeadowValue) -> MeadowValue:
    """-1, 0 or 1 as a meadow value, matching the sign of `a`."""
    return Fraction((a > 0) - (a < 0))


def lt(a: MeadowValue, b: MeadowValue) -> bool:
    """a < b, defined as signum(b - a) == 1."""
    return signum(b - a) == ONE


def leq(a: MeadowValue, b: MeadowValue) -> bool:
    """a <= b, defined as signum(signum(b - a) + 1) == 1."""
    return signum(signum(b - a) + ONE) == ONE


def is_probability(v: MeadowValue) -> bool:
    """Whether 0 <= v <= 1, written in the signum encoding of the range."""
    return signum(signum(v) + ONE) * signum(signum(ONE - v) + ONE) == ONE


def as_probability(v: MeadowValue) -> Probability:
    """Check 0 <= v <= 1 and return the value unchanged."""
    v = Fraction(v)
    if not is_probability(v):
        raise OutOfRange(f"{format_rational(v)} is not a probability in [0, 1]")
    return v


def parse_int(digits: str, position=None) -> int:
    """The integer `digits` spells; one longer than Python converts
    (`sys.get_int_max_str_digits`) is a ParseError at `position`."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"integer of {len(digits)} characters is too long", position) from None


def parse_rational(text: str, position=None) -> MeadowValue:
    """Parse `num` or `num/den`; a zero denominator is rejected."""
    s = text.strip()
    if not _RATIONAL_RE.fullmatch(s):
        raise ParseError(f"malformed rational {text!r}", position)
    num, slash, den = s.partition("/")
    if slash:
        d = parse_int(den, position)
        if d == 0:
            raise ParseError(f"zero denominator in rational {text!r}", position)
        return Fraction(parse_int(num, position), d)
    return Fraction(parse_int(num, position))


def format_rational(v: MeadowValue) -> str:
    """`num/den` in lowest terms, denominator omitted when it is 1."""
    return str(v)
