"""Exact coefficient rings for truncated series.

Two variants live here: rationals, and Laurent polynomials in one formal
variable over the rationals (charclass adds the graded ring of classes).
Every ring is exact, so a series tests its coefficients for zero by
truthiness and compares them with ==.
"""

from __future__ import annotations

from fractions import Fraction

from genusforge._kernels import convolve_full
from genusforge.errors import NonUnitError, RingMismatchError, SchemaError


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to an exact rational.

    A JSON boolean is refused, although Python counts bool as an int.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise SchemaError(f"{value!r} is a boolean, not an exact rational")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"bad rational literal {value!r}") from exc
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


def fraction_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def laurent_strings(lz) -> dict:
    """A LaurentZ as {exponent: fraction string} over its nonzero terms."""
    return {str(e): fraction_str(c) for e, c in lz.items()}


_QZERO = Fraction(0)


class LaurentZ:
    """Laurent polynomial in z with exact rational coefficients.

    Stored dense: coeffs[i] multiplies z**(lo+i).  Construction strips
    zero ends; the zero polynomial is lo == 0 with no coefficients.
    """

    __slots__ = ("lo", "coeffs")

    def __init__(self, lo=0, coeffs=()):
        cs = [as_fraction(c) for c in coeffs]
        i, j = 0, len(cs)
        while i < j and not cs[i]:
            i += 1
        while j > i and not cs[j - 1]:
            j -= 1
        if i == j:
            self.lo = 0
            self.coeffs = ()
        else:
            self.lo = lo + i
            self.coeffs = tuple(cs[i:j])

    @classmethod
    def monomial(cls, exponent: int, coeff=1) -> "LaurentZ":
        return cls(exponent, (coeff,))

    @classmethod
    def from_dict(cls, d) -> "LaurentZ":
        if not d:
            return cls()
        lo = min(d)
        hi = max(d)
        # gaps are already Fractions, so __init__ converts each entry once
        cs = [_QZERO] * (hi - lo + 1)
        for e, c in d.items():
            cs[e - lo] = c
        return cls(lo, cs)

    def items(self):
        for i, c in enumerate(self.coeffs):
            if c:
                yield self.lo + i, c

    @property
    def max_exp(self):
        if not self.coeffs:
            return 0
        return self.lo + len(self.coeffs) - 1

    def is_monomial(self) -> bool:
        return sum(1 for c in self.coeffs if c) == 1

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentZ(0, (other,))
        if not isinstance(other, LaurentZ):
            return NotImplemented
        return self.lo == other.lo and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.lo, self.coeffs))

    def __neg__(self):
        return LaurentZ(self.lo, tuple(-c for c in self.coeffs))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentZ(0, (other,))
        if not isinstance(other, LaurentZ):
            return NotImplemented
        if not self:
            return other
        if not other:
            return self
        lo = min(self.lo, other.lo)
        hi = max(self.max_exp, other.max_exp)
        cs = [_QZERO] * (hi - lo + 1)
        for e, c in self.items():
            cs[e - lo] += c
        for e, c in other.items():
            cs[e - lo] += c
        return LaurentZ(lo, cs)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentZ(0, (other,))
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
            return LaurentZ(self.lo, tuple(c * q for c in self.coeffs))
        if not isinstance(other, LaurentZ):
            return NotImplemented
        if not self or not other:
            return LaurentZ()
        cs = convolve_full(list(self.coeffs), list(other.coeffs), _QZERO)
        return LaurentZ(self.lo + other.lo, cs)

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
            return LaurentZ(0, (sum(self.coeffs, _QZERO),))
        return LaurentZ.from_dict({k * e: c for e, c in self.items()})

    def __call__(self, z):
        acc = 0
        for e, c in self.items():
            acc += complex(c) * z**e
        return acc

    def constant(self) -> Fraction:
        if not self.coeffs:
            return _QZERO
        if self.lo <= 0 <= self.max_exp:
            return self.coeffs[-self.lo]
        return _QZERO

    def __repr__(self):
        if not self.coeffs:
            return "LaurentZ(0)"
        bits = []
        for e, c in self.items():
            bits.append(f"{c}*z^{e}" if e else f"{c}")
        return "LaurentZ(" + " + ".join(bits) + ")"


class CoefficientRing:
    """Descriptor with the construction and inversion hooks of a coefficient ring."""

    kind = "abstract"
    allows_transcendental = False

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def coerce(self, value):
        raise NotImplementedError

    def inv(self, x):
        raise NotImplementedError

    def div_int(self, x, n: int):
        raise NotImplementedError

    def __eq__(self, other):
        return type(self) is type(other)

    def __hash__(self):
        return hash(type(self))

    def __repr__(self):
        return f"<ring {self.kind}>"


class RationalRing(CoefficientRing):
    kind = "rational"
    allows_transcendental = True

    def zero(self):
        return _QZERO

    def one(self):
        return Fraction(1)

    def coerce(self, value):
        return as_fraction(value)

    def inv(self, x):
        if not x:
            raise NonUnitError("division by zero rational")
        return 1 / as_fraction(x)

    def div_int(self, x, n):
        return x / n


class LaurentRing(CoefficientRing):
    kind = "laurent"

    def zero(self):
        return LaurentZ()

    def one(self):
        return LaurentZ.monomial(0)

    def coerce(self, value):
        if isinstance(value, LaurentZ):
            return value
        return LaurentZ(0, (as_fraction(value),))

    def inv(self, x):
        x = self.coerce(x)
        if not x.is_monomial():
            raise NonUnitError("only monomials are units in the Laurent ring")
        e, c = next(x.items())
        return LaurentZ.monomial(-e, 1 / c)

    def div_int(self, x, n):
        return x * Fraction(1, n)


RATIONAL = RationalRing()
LAURENT = LaurentRing()


def check_same_ring(a: CoefficientRing, b: CoefficientRing):
    if a != b:
        raise RingMismatchError(f"incompatible coefficient rings {a!r} and {b!r}")
