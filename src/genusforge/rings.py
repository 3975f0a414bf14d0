"""Exact rationals and Laurent polynomials, two of the coefficient kinds of a series.

Rationals are Fractions; LaurentZ is a Laurent polynomial in one formal
variable over the rationals (charclass adds GradedPoly, the graded
classes).  Every kind is exact, so a series tests its coefficients for
zero by truthiness and compares them with ==.  The helpers here also read
exact rationals and integers out of JSON payloads, and payload_fields is
the one reader of a payload object's fields for every from_json.

laurent_mul and laurent_add are the one product and sum of sparse Laurent
maps {exponent: nonzero coefficient}, for LaurentZ and the exact rows alike.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from genusforge._kernels import convolve_full
from genusforge.errors import RingMismatchError, SchemaError


# the documented rational literals: an optional sign, digits and an optional /digits
_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to an exact rational.

    A JSON boolean is refused, although Python counts bool as an int.  A
    string is read only in the documented form, before Fraction() sees it:
    Fraction() also reads decimals and exponents, and '1e10000000' would
    spend seconds building its integer.  Digits past the int() limit of
    sys.get_int_max_str_digits() are refused by Fraction() itself.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise SchemaError(f"{value!r} is a boolean, not an exact rational")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if _RATIONAL.fullmatch(value) is None:
            raise SchemaError(f"bad rational literal {value[:40]!r}: write an integer or 'p/q'")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"bad rational literal {value[:40]!r}: {exc}") from None
    raise RingMismatchError(f"cannot treat {value!r} as an exact rational")


def as_int(value, what: str) -> int:
    """Coerce an integer payload field, raising SchemaError for anything else.

    A JSON boolean is refused, although Python counts bool as an int.
    """
    if isinstance(value, bool):
        raise SchemaError(f"{what} must be an integer, not {value!r}")
    try:
        out = int(value)
    except (TypeError, ValueError, OverflowError):
        raise SchemaError(f"{what} must be an integer, not {value!r}") from None
    if not isinstance(value, str) and out != value:
        raise SchemaError(f"{what} must be an integer, not {value!r}")
    return out


def payload_fields(obj, what: str, required, **defaults) -> dict:
    """A constructor's keyword arguments from a JSON payload object: every
    required key, and each key of defaults or, where it is absent, its
    default, handed on as it is (so a default is never a mutable object).
    Other keys are ignored.  A payload that is not an object or lacks a
    required key is a SchemaError."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{what} payload must be an object")
    for key in required:
        if key not in obj:
            raise SchemaError(f"{what} payload is missing {key!r}")
    return {**{key: obj[key] for key in required},
            **{key: obj.get(key, value) for key, value in defaults.items()}}


def fraction_str(x: Fraction) -> str:
    """x as 'p/q', the one renderer of exact report values.

    A numerator or denominator of more digits than str(int) writes
    (sys.get_int_max_str_digits()) is a SchemaError: valid inputs can
    reach one, as a number near the limit times a tower coefficient, or
    the lcm of many long denominators.
    """
    try:
        return f"{x.numerator}/{x.denominator}"
    except ValueError:
        raise SchemaError(f"an exact value has more digits than the limit "
                          f"{sys.get_int_max_str_digits()} of a printed integer") from None


def laurent_strings(lz) -> dict:
    """A LaurentZ as {exponent: fraction string} over its nonzero terms."""
    return {str(e): fraction_str(c) for e, c in lz.items()}


_QZERO = Fraction(0)


def laurent_mul(a: dict, b: dict) -> dict:
    """Product of two sparse Laurent polynomials, in ascending exponent order.

    Convolved dense over their spans, or term by term where those spans
    hold more slots than there are term pairs (a wide gap such as in
    w^s - w^-s would cost memory in the span, not in the terms).
    """
    if not a or not b:
        return {}
    lo_a, hi_a, lo_b, hi_b = min(a), max(a), min(b), max(b)
    if hi_a - lo_a + hi_b - lo_b + 2 > len(a) * len(b):
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = ea + eb
                out[e] = out.get(e, 0) + ca * cb
        return {e: out[e] for e in sorted(out) if out[e]}
    out = convolve_full([a.get(e, 0) for e in range(lo_a, hi_a + 1)],
                        [b.get(e, 0) for e in range(lo_b, hi_b + 1)], 0)
    lo = lo_a + lo_b
    return {lo + i: c for i, c in enumerate(out) if c}


def laurent_add(a: dict, b: dict) -> dict:
    """Sum of two sparse Laurent polynomials, zeros dropped."""
    out = dict(a)
    for e, c in b.items():
        x = out.get(e, 0) + c
        if x:
            out[e] = x
        else:
            del out[e]
    return out


class LaurentZ:
    """Laurent polynomial in z with exact rational coefficients.

    Stored sparse: terms maps each exponent with a nonzero coefficient (an
    int or a Fraction) to that coefficient, in ascending exponent order.
    The zero polynomial has no terms.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        for e, c in sorted((terms or {}).items()):
            c = as_fraction(c)
            if c:
                self.terms[e] = c.numerator if c.denominator == 1 else c

    @classmethod
    def _trusted(cls, terms: dict) -> "LaurentZ":
        """A LaurentZ over a row already clean: nonzero ints or Fractions."""
        out = object.__new__(cls)
        out.terms = dict(sorted(terms.items()))
        return out

    @classmethod
    def monomial(cls, exponent: int, coeff=1) -> "LaurentZ":
        return cls({exponent: coeff})

    def items(self):
        return iter(self.terms.items())

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentZ({0: other})
        if not isinstance(other, LaurentZ):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(tuple(self.terms.items()))

    def __neg__(self):
        return LaurentZ._trusted({e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentZ({0: other})
        if not isinstance(other, LaurentZ):
            return NotImplemented
        return LaurentZ._trusted(laurent_add(self.terms, other.terms))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentZ({0: other})
        if not isinstance(other, LaurentZ):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = as_fraction(other)
            if not q:
                return LaurentZ()
            return LaurentZ._trusted({e: c * q for e, c in self.terms.items()})
        if not isinstance(other, LaurentZ):
            return NotImplemented
        return LaurentZ._trusted(laurent_mul(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers")
        out = LaurentZ.monomial(0)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def subst_pow(self, k: int) -> "LaurentZ":
        """Substitute z -> z**k.  k == 0 collapses to the coefficient sum."""
        if k == 0:
            return LaurentZ({0: sum(self.terms.values(), _QZERO)})
        return LaurentZ._trusted({k * e: c for e, c in self.terms.items()})

    def __call__(self, z):
        acc = 0
        for e, c in self.terms.items():
            acc += complex(c) * z**e
        return acc

    def constant(self):
        return self.terms.get(0, _QZERO)

    def __repr__(self):
        if not self.terms:
            return "LaurentZ(0)"
        bits = []
        for e, c in self.terms.items():
            bits.append(f"{c}*z^{e}" if e else f"{c}")
        return "LaurentZ(" + " + ".join(bits) + ")"
