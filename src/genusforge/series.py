"""Truncated formal series on the half-integer exponent grid.

A series stores coefficients at exponents offset + k/2 for 0 <= k < order
and treats everything below the offset as identically zero.  Coefficients
at or past offset + order/2 are unknown: arithmetic never fabricates them,
so a product is only known to the shorter of the two input windows.
Coefficients are exact values of one kind, named by the series' zero:
rationals (Fraction(0)), Laurent polynomials in w (LaurentZ()) or graded
classes (GradedPoly({}, top)).  They are kept as given and combined by
their own arithmetic, so zero tests and equality are exact.
Slot n of a truncated product depends only on slots <= n, so prefix_rows
holds the numbers-free row tables of both exact paths without their order.
"""

from __future__ import annotations

from collections import OrderedDict
from fractions import Fraction

from genusforge._kernels import convolve_trunc, series_inv
from genusforge.errors import GridError, NonUnitError, RingMismatchError, TruncationError
from genusforge.rings import LaurentZ, as_fraction

STEP = Fraction(1, 2)

# The numbers-free row tables of the exact paths, keyed by a tag and the
# table's arguments without the order: ("tower", top, exact, entries) for
# ktheory.tower_rows and ("moving", speed signature) for theta.quotient_rows,
# the moving theta products of an equivariant component.  A table is held at
# the largest order asked so far, rebuilt from slot 0 when a call asks for
# more slots and sliced otherwise (slot n depends only on slots <= n).  Tables
# leave least recently used first once the held coefficients pass PREFIX_CAP;
# a table of more coefficients than that is returned but not held.  At their
# largest orders the benchmark's whole genus-towers pool holds 132 tower keys
# of 18.2k coefficients and its equivariant-exact pool 51 moving keys of
# 17.5k, so both mixes fit together.  At the CLI caps (dim 24 with 129 slots;
# order 64 with w-width 64) the largest tower key holds 8.4k coefficients
# (0.37 MB), the widest moving key 64.9k (7.8 MB), and a full memo 2.2-7.8 MB
# (tracemalloc, Python 3.11.7).
PREFIX_CAP = 2**16
_PREFIX_ROWS = OrderedDict()


def prefix_rows(key, order: int, build, *args):
    """build(*args, order)'s table, which build returns with its coefficient
    count; a held table is shared (so tuples) and may run past `order` slots."""
    held = _PREFIX_ROWS.get(key)
    if held is not None and held[0] >= order:
        _PREFIX_ROWS.move_to_end(key)
        return held[1]
    table, size = build(*args, order)
    _PREFIX_ROWS.pop(key, None)
    if size <= PREFIX_CAP:
        _PREFIX_ROWS[key] = (order, table, size)
        total = sum(entry[2] for entry in _PREFIX_ROWS.values())
        while total > PREFIX_CAP:
            total -= _PREFIX_ROWS.popitem(last=False)[1][2]
    return table


def _same_kind(a: "QSeries", b: "QSeries"):
    if type(a.zero) is not type(b.zero):
        raise RingMismatchError(f"cannot combine {type(a.zero).__name__} and "
                                f"{type(b.zero).__name__} coefficients")


def _unit_inverse(lead):
    """1 / lead for a nonzero rational or a Laurent monomial, the units inverted here."""
    if isinstance(lead, LaurentZ):
        if not lead.is_monomial():
            raise NonUnitError("only monomials are units among Laurent polynomials")
        ((e, c),) = lead.items()
        return LaurentZ.monomial(-e, 1 / Fraction(c))
    if isinstance(lead, (int, Fraction)):
        return 1 / Fraction(lead)
    raise NonUnitError(f"cannot invert a series with leading coefficient {lead!r}")


class QSeries:
    """Truncated series sum_k c[k] q**(offset + k/2) + O(q**(offset + order/2)).

    zero is the zero of the coefficients' kind; missing slots are padded with it.
    """

    __slots__ = ("zero", "offset", "coeffs", "order")

    def __init__(self, zero, offset, coeffs, order: int | None = None):
        self.zero = zero
        self.offset = as_fraction(offset)
        cs = tuple(coeffs)
        if order is None:
            order = len(cs)
        if order < 0:
            raise ValueError("order must be non-negative")
        if len(cs) > order:
            raise ValueError("more coefficients than the truncation order admits")
        self.coeffs = cs + (zero,) * (order - len(cs)) if len(cs) < order else cs
        self.order = order

    # -- constructors ---------------------------------------------------

    @classmethod
    def one(cls, zero, order):
        return cls(zero, 0, (zero + 1,), order)

    # -- structure ------------------------------------------------------

    @property
    def end_exponent(self) -> Fraction:
        """First unknown exponent."""
        return self.offset + self.order * STEP

    def exponent(self, k: int) -> Fraction:
        return self.offset + k * STEP

    def terms(self):
        for k, c in enumerate(self.coeffs):
            if c:
                yield self.exponent(k), c

    def coefficient(self, expo):
        """Coefficient at an exact exponent; off-grid exponents are zero."""
        expo = as_fraction(expo)
        if expo >= self.end_exponent:
            raise TruncationError(f"coefficient at {expo} is beyond the known window")
        idx = (expo - self.offset) / STEP
        if idx < 0 or idx.denominator != 1:
            return self.zero
        return self.coeffs[int(idx)]

    def leading_index(self):
        for k, c in enumerate(self.coeffs):
            if c:
                return k
        return None

    def is_zero(self) -> bool:
        return self.leading_index() is None

    def __bool__(self):
        return not self.is_zero()

    def normalized(self) -> "QSeries":
        """Move known-zero leading slots into the offset (window end is kept)."""
        k = self.leading_index()
        if k is None:
            return QSeries(self.zero, self.end_exponent, (), 0)
        if k == 0:
            return self
        return QSeries(self.zero, self.exponent(k), self.coeffs[k:], self.order - k)

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        if type(self.zero) is not type(other.zero) or (
                getattr(self.zero, "top", None) != getattr(other.zero, "top", None)):
            return False
        a, b = self.normalized(), other.normalized()
        if a.order != b.order or a.offset != b.offset:
            return False
        return a.coeffs == b.coeffs

    def __hash__(self):
        raise TypeError("truncated series are not hashable")

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        _same_kind(self, other)
        delta = (other.offset - self.offset) / STEP
        if delta.denominator != 1:
            raise GridError(
                f"offsets {self.offset} and {other.offset} do not share a grid"
            )
        offset = min(self.offset, other.offset)
        end = min(self.end_exponent, other.end_exponent)
        order = max(int((end - offset) / STEP), 0)
        out = [self.zero] * order
        sh_self = int((self.offset - offset) / STEP)
        sh_other = sh_self + int(delta)
        for k, c in enumerate(self.coeffs):
            if sh_self + k < order:
                out[sh_self + k] = out[sh_self + k] + c
        for k, c in enumerate(other.coeffs):
            if sh_other + k < order:
                out[sh_other + k] = out[sh_other + k] + c
        return QSeries(self.zero, offset, out, order)

    def __neg__(self):
        return QSeries(self.zero, self.offset, [-c for c in self.coeffs], self.order)

    def __sub__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, QSeries):
            # a scalar: an int, a Fraction or a value of the coefficients' kind
            if isinstance(other, bool) or not isinstance(other, (int, Fraction, type(self.zero))):
                return NotImplemented
            return QSeries(self.zero, self.offset, [c * other for c in self.coeffs], self.order)
        _same_kind(self, other)
        order = min(self.order, other.order)
        cs = convolve_trunc(list(self.coeffs), list(other.coeffs), order, self.zero)
        return QSeries(self.zero, self.offset + other.offset, cs, order)

    def __rmul__(self, other):
        return self.__mul__(other)

    def inv(self) -> "QSeries":
        """Multiplicative inverse; the leading coefficient must be a nonzero
        rational or a Laurent monomial."""
        a = self.normalized()
        if a.order == 0:
            raise NonUnitError("cannot invert a series with no known coefficients")
        cs = series_inv(list(a.coeffs), a.order, _unit_inverse(a.coeffs[0]), self.zero)
        return QSeries(self.zero, -a.offset, cs, a.order)

    def _rebased_integral(self):
        # Shift to offset 0, erroring when the grid cannot reach exponent 0.
        if (self.offset / STEP).denominator != 1:
            raise GridError("offset must sit on the half-integer grid for exp/log")
        shift = int(self.offset / STEP)
        if shift >= 0:
            return [self.zero] * shift + list(self.coeffs), self.order + shift
        for k in range(min(-shift, self.order)):
            if self.coeffs[k]:
                raise ValueError("series has terms at non-positive exponents")
        return list(self.coeffs[-shift:]), self.order + shift

    def exp(self) -> "QSeries":
        """exp of a series with strictly positive exponents.

        exp and log divide only by the slot index, so they are exact for every kind.
        """
        a, order = self._rebased_integral()
        if order <= 0:
            return QSeries(self.zero, 0, (), 0)
        if a[0]:
            raise ValueError("exp needs a zero constant term")
        zero = self.zero
        out = [zero] * order
        out[0] = zero + 1
        for k in range(1, order):
            acc = zero
            for j in range(1, k + 1):
                if a[j]:
                    acc = acc + (a[j] * j) * out[k - j]
            out[k] = acc * Fraction(1, k)
        return QSeries(zero, 0, out, order)

    def log(self) -> "QSeries":
        """log of a series with constant term one."""
        a, order = self._rebased_integral()
        if order <= 0:
            raise ValueError("log needs a known constant term")
        zero = self.zero
        if a[0] != zero + 1:
            raise ValueError("log needs constant term one")
        out = [zero] * order
        for k in range(1, order):
            acc = zero
            for j in range(1, k):
                if out[j]:
                    acc = acc + (out[j] * j) * a[k - j]
            out[k] = a[k] - acc * Fraction(1, k)
        return QSeries(zero, 0, out, order)

    # -- reshaping ------------------------------------------------------

    def truncated(self, order: int) -> "QSeries":
        if order > self.order:
            raise TruncationError("cannot extend a truncated series")
        return QSeries(self.zero, self.offset, self.coeffs[:order], order)

    def shifted(self, delta) -> "QSeries":
        """Multiply by q**delta."""
        return QSeries(self.zero, self.offset + as_fraction(delta), self.coeffs, self.order)

    def map_coefficients(self, fn) -> "QSeries":
        """fn applied to every coefficient; fn must keep the coefficients' kind."""
        return QSeries(self.zero, self.offset, [fn(c) for c in self.coeffs], self.order)

    def alternate_half_signs(self) -> "QSeries":
        """Apply q**(1/2) -> -q**(1/2): negate coefficients at half-integer exponents."""
        out = []
        for k, c in enumerate(self.coeffs):
            e2 = 2 * self.exponent(k)
            if e2.denominator != 1:
                raise GridError("exponents must be half-integral for the sign flip")
            out.append(c if int(e2) % 2 == 0 else -c)
        return QSeries(self.zero, self.offset, out, self.order)

    def __repr__(self):
        parts = []
        for expo, c in list(self.terms())[:6]:
            parts.append(f"({c!r})*q^{expo}")
        body = " + ".join(parts) if parts else "0"
        return f"QSeries[{type(self.zero).__name__}]({body} + O(q^{self.end_exponent}))"
