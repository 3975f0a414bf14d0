"""Power operations on virtual bundles and their Chern characters.

A KClass is a formal integer combination of root-pair bundles plus a rank
shift.  Sym/Lambda towers are computed through their character logarithms:
for a line with root a,

    log ch Sym_t = -log(1 - t e^a),   log ch Lambda_t = log(1 + t e^a),

so for a full root-pair bundle E the log series has, at the q-slot i*g of
t = +-q^g, the coefficient +-(1/i) * ch_i(E) where ch_i(E) evaluates every
root at i times its value.  The splitting rule Sym_q(A - B) =
Sym_q(A) Lambda_{-q}(B) is automatic because the log is linear in the class.

ch_i has the power-sum coefficients 2 i^(2k) / (2k)!, so the log of a whole
tower on E - rank E is sum_k 2 h_k(q) s_k(E) / (2k)! with integer Lambert
rows h_k; for the Witten element h_k = sum_n sigma_(2k-1)(n) q^n, the
q-part of the Eisenstein series G_2k.  Towers are expanded from that
closed form by charclass.power_sum_exp: exp of a sum linear in the s_k is
a sum over the monomials in the s_k of products of rational q-series;
tower_values sums the same rows at one q, every factor in closed form.
Those products do not depend on any characteristic number: power_rows
sums them per monomial, for a genus factor, a tower or both per bundle,
and tower_rows keeps them per (degree, bundles, factors, towers) in the
bounded prefix memo of series.prefix_rows, where a call at any order
reads a prefix of them.
sym_total and lambda_total keep the per-factor recursion (an exp over
GradedPoly coefficients), which the tests use as the independent referee.
"""

from __future__ import annotations

import math
from fractions import Fraction

from genusforge.charclass import (
    BundleRoots,
    GradedPoly,
    bundle_power_sums,
    factor_moments,
    graded_slots,
    power_sum_exp,
)
from genusforge.errors import DimensionError
from genusforge.series import STEP, QSeries, prefix_rows


class KClass:
    """Virtual bundle: sum of mult * BundleRoots plus an integer shift."""

    __slots__ = ("parts", "shift", "top")

    def __init__(self, parts=(), shift: int = 0, top: int = 0):
        merged = {}
        for bundle, mult in parts:
            if not isinstance(bundle, BundleRoots):
                raise TypeError("KClass parts must be BundleRoots")
            merged[bundle] = merged.get(bundle, 0) + int(mult)
        self.parts = tuple(sorted(
            ((b, m) for b, m in merged.items() if m),
            key=lambda bm: (str(bm[0].name), bm[0].pair_count),
        ))
        self.shift = int(shift)
        self.top = int(top)

    @classmethod
    def bundle(cls, roots: BundleRoots, top: int) -> "KClass":
        return cls(((roots, 1),), 0, top)

    @classmethod
    def constant(cls, shift: int, top: int) -> "KClass":
        return cls((), shift, top)

    @property
    def rank(self) -> int:
        return self.shift + sum(m * b.rank for b, m in self.parts)

    def reduced(self) -> "KClass":
        """Subtract the rank, as in the tower arguments E - rank E."""
        return KClass(self.parts, self.shift - self.rank, self.top)

    def __add__(self, other):
        if not isinstance(other, KClass):
            return NotImplemented
        if other.top != self.top:
            raise DimensionError("mixing truncation degrees")
        return KClass(self.parts + other.parts, self.shift + other.shift, self.top)

    def __neg__(self):
        return KClass(tuple((b, -m) for b, m in self.parts), -self.shift, self.top)

    def __sub__(self, other):
        if not isinstance(other, KClass):
            return NotImplemented
        return self + (-other)

    def __eq__(self, other):
        if not isinstance(other, KClass):
            return NotImplemented
        return (
            self.parts == other.parts
            and self.shift == other.shift
            and self.top == other.top
        )

    def __hash__(self):
        raise TypeError("KClass is not hashable")

    def __repr__(self):
        bits = [f"{m}*{b!r}" for b, m in self.parts]
        if self.shift or not bits:
            bits.append(str(self.shift))
        return "KClass(" + " + ".join(bits) + f"; top={self.top})"


def ch_scaled(E: KClass, scale: int) -> GradedPoly:
    """ch of E with every root multiplied by the integer scale.

    Per root pair the character is e^(s a) + e^(-s a) = 2 cosh(s a), so the
    degree-4m part is 2 s^(2m) s_m / (2m)!.
    """
    top = E.top
    out = GradedPoly.constant(E.rank, top)
    for bundle, mult in E.parts:
        acc = GradedPoly({}, top)
        for m, s in enumerate(bundle_power_sums(bundle, top), 1):
            acc = acc + s * Fraction(2 * scale ** (2 * m), math.factorial(2 * m))
        out = out + acc * mult
    return out


def ch(E: KClass) -> GradedPoly:
    """Chern character of a complexified root-pair class, to E.top."""
    return ch_scaled(E, 1)


def ch_tensor_pair(A: BundleRoots, B: BundleRoots, top: int) -> GradedPoly:
    """ch of the tensor product of two single-pair bundles.

    Characters multiply: (e^a + e^-a)(e^b + e^-b) has root pairs a+b and
    a-b, so the power sums of the product are sums of binomial mixes of
    the factors' power sums.  Only single-pair factors are supported.
    """
    if A.pair_count != 1 or B.pair_count != 1:
        raise DimensionError("tensor characters are implemented for single pairs")
    out = GradedPoly.constant(4, top)
    sa = [GradedPoly.constant(1, top)] + bundle_power_sums(A, top)
    sb = [GradedPoly.constant(1, top)] + bundle_power_sums(B, top)
    for m in range(1, top // 4 + 1):
        # (a+b)^(2m) + (a-b)^(2m): odd cross terms cancel
        acc = GradedPoly({}, top)
        for k in range(0, m + 1):
            weight = 2 * math.comb(2 * m, 2 * k)
            acc = acc + sa[m - k] * sb[k] * weight
        out = out + acc * Fraction(2, math.factorial(2 * m))
    return out


def _grid_slots(exponent: Fraction) -> int:
    idx = exponent / STEP
    if idx.denominator != 1 or idx <= 0:
        raise ValueError(f"tower exponent {exponent} must be a positive grid point")
    return int(idx)


def _log_tower(E: KClass, exponent, order: int, sign: int, exterior: bool) -> QSeries:
    """log ch of Sym_t(E) or Lambda_t(E) at t = sign * q**exponent."""
    zero = GradedPoly({}, E.top)
    expo = Fraction(exponent)
    stride = _grid_slots(expo)
    out = [zero] * order
    i = 1
    while i * stride < order:
        coeff = ch_scaled(E, i) * Fraction(1, i)
        if sign < 0 and i % 2:
            coeff = -coeff
        if exterior and i % 2 == 0:
            coeff = -coeff
        out[i * stride] = coeff
        i += 1
    return QSeries(zero, 0, out, order)


def sym_total(E: KClass, exponent, order: int, sign: int = 1) -> QSeries:
    """ch Sym_t(E) as a q-series over GradedPoly, t = sign*q**exponent."""
    return _log_tower(E, exponent, order, sign, exterior=False).exp()


def lambda_total(E: KClass, exponent, order: int, sign: int = 1) -> QSeries:
    """ch Lambda_t(E) as a q-series over GradedPoly, t = sign*q**exponent."""
    return _log_tower(E, exponent, order, sign, exterior=True).exp()


# ---------------------------------------------------------------------------
# whole towers from the power-sum closed form

# Lambda factors of the twist towers: the offset in grid slots of their
# exponent from the Sym exponent's slot 2m, and the sign of t
_R_LAMBDA = {"R": (0, 1), "R1": (-1, 1), "R2": (-1, -1)}


def _tower_factors(tower, order: int) -> list:
    """(stride, sign, exterior) of every factor that starts inside the window.

    None  : no factor, the tower 1;
    witten: Sym_{q^j} for j >= 1;
    R     : Sym_{q^m} and Lambda_{q^m} for m >= 1;
    R1    : Sym_{q^m} and Lambda at q^(m - 1/2);
    R2    : as R1 with Lambda at t = -q^(m - 1/2).
    """
    if tower is None:
        return []
    if tower == "witten":
        return [(2 * j, 1, False) for j in range(1, (order + 1) // 2)]
    shift, sign = _R_LAMBDA[tower]
    out = []
    m = 1
    while 2 * m + shift < order:
        if 2 * m < order:
            out.append((2 * m, 1, False))
        out.append((2 * m + shift, sign, True))
        m += 1
    return out


def tower_log(tower, order: int, top: int) -> list:
    """Integer Lambert rows h_1 .. h_(top//4) of a tower.

    log ch of the tower on E - rank E is sum_k 2 h_k(q) s_k(E) / (2k)!,
    each h_k a list of `order` slot values.
    """
    rows = [[0] * order for _ in range(top // 4)]
    for stride, sign, exterior in _tower_factors(tower, order):
        for i in range(1, (order - 1) // stride + 1):
            flip = (sign < 0 and i % 2 == 1) != (exterior and i % 2 == 0)
            x, i2 = (-i if flip else i), i * i
            for row in rows:
                row[i * stride] += x
                x *= i2
    return rows


def _eulerian(n: int) -> list:
    """Coefficients of the Eulerian polynomial A_n, n >= 1.

    sum_(i >= 1) i^n v^i = v A_n(v) / (1 - v)^(n + 1) for |v| < 1.  The
    list is a palindrome, so it reads the same lowest or highest first.
    """
    row = [1]
    for m in range(2, n + 1):
        row = [(j + 1) * (row[j] if j < m - 1 else 0) + (m - j) * (row[j - 1] if j else 0)
               for j in range(m)]
    return row


def _poly_value(coeffs, v):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * v + c
    return acc


def tower_slots(r: float, top: int, tol: float) -> int:
    """The window N of tower_values at |x| = r: see the bound stated there."""
    if not 0 <= r < 1:
        raise ValueError("the Lambert sums need |q| < 1")
    if top < 4 or r == 0:
        return 1
    n = 2 * (top // 4) - 1
    poly = _eulerian(n)
    # the bound is at least 2 r^N / (1 - r): no window below this one fits
    slots = max(1, math.ceil(math.log(tol * (1 - r) / 2) / math.log(r)))
    p = r**slots
    while 2 * p * _poly_value(poly, p) > tol * (1 - r) * (1 - p) ** (n + 1):
        slots, p = slots + 1, p * r
    return slots


def tower_values(tower: str, x: complex, top: int, tol: float) -> list:
    """The Lambert sums h_1 .. h_(top//4) of a tower at x = q^(1/2), |x| < 1.

    These are tower_log's rows summed at q without truncating any factor:
    a factor (stride, sign, exterior) adds sum_i +-i^n u^i with n = 2k - 1
    and u = x^stride.  With v = -u when sign < 0 and exterior differ, and
    v = u otherwise, that sum is +-v A_n(v) / (1 - v)^(n + 1), with minus
    for the Lambda factors (A_n the Eulerian polynomial).

    Only the factors of _tower_factors(tower, N) are summed.  With r = |x|,
    a factor of stride s >= N adds at most
    sum_i i^n r^(s i) = r^s A_n(r^s) / (1 - r^s)^(n + 1), which is at most
    r^s A_n(r^N) / (1 - r^N)^(n + 1), and no stride holds more than two
    factors.  So the factors left out add at most

        2 r^N A_n(r^N) / ((1 - r) (1 - r^N)^(n + 1)),

    which grows with n.  N is the first window where this bound at the top
    k is at most tol, so leaving those factors out moves no value by more
    than tol.  Rounding comes on top: a few units in the last place of the
    largest factor summed.
    """
    count = top // 4
    slots = tower_slots(abs(x), top, tol)
    polys = [_eulerian(2 * k - 1) for k in range(1, count + 1)]
    powers = [1]
    for _ in range(slots):
        powers.append(powers[-1] * x)
    out = [0j] * count
    for stride, sign, exterior in _tower_factors(tower, slots):
        v = powers[stride]
        if (sign < 0) != exterior:
            v = -v
        w = 1 - v
        inv2 = 1 / (w * w)
        scale = -v if exterior else v
        for k, poly in enumerate(polys):
            scale *= inv2
            acc = 0
            for c in poly:  # Horner's rule inline: this loop is the hot one
                acc = acc * v + c
            out[k] += scale * acc
    return out


def ch_denominator(k: int) -> int:
    """(2k)!/2: ch has s_k coefficient 2/(2k)! per root pair."""
    return math.factorial(2 * k) // 2


def power_rows(top: int, exact: bool, entries, rows, order: int):
    """prod over the entries of (genus(factor) ch(tower))^mult, per p-monomial.

    entries are (pair_count, bundle name, factor, tower, mult): factor is
    a genus factor as charclass.factor_moments takes it, or None for the
    tower alone, and tower a tower name, or None for the factor alone.
    rows[i] are entry i's Lambert rows h_1 .. h_(top//4) over `order`
    slots: tower_log rows (all zero without a tower), or one slot of
    tower_values numbers.  Per bundle the log is
    mult (c_k + h_k / ((2k)!/2)) s_k, c_k the factor's moments, over one
    integer denominator; power_sum_exp expands its exp, in degree top
    alone when exact, and returns the (((mono, row), ...), den) given here:
    slot n of the product is sum row[n] / den * mono.
    """
    logs = []
    for (pairs, name, factor, _, mult), hs in zip(entries, rows):
        bundle = BundleRoots(pairs, name)
        moments = None if factor is None else factor_moments(factor, top)
        for k, h in enumerate(hs, 1):
            cden = ch_denominator(k)
            c = Fraction(0) if moments is None else moments[k]
            den = math.lcm(cden, c.denominator)
            row = [mult * (den // cden) * v for v in h]
            if row:
                row[0] += mult * c.numerator * (den // c.denominator)
            logs.append((bundle, k, row, den))
    return power_sum_exp(logs, order, top, exact)


def _tower_table(top: int, exact: bool, entries: tuple, order: int):
    """power_rows over the tower_log rows of the entries, as tuples, and its size."""
    rows, den = power_rows(top, exact, entries,
                           [tower_log(entry[3], order, top) for entry in entries], order)
    rows = tuple((mono, tuple(row)) for mono, row in rows)
    return (rows, den), sum(len(row) for _, row in rows)


def tower_rows(top: int, exact: bool, entries: tuple, order: int):
    """power_rows over the tower_log rows of the entries, memoized.

    Returns (rows, den) as power_rows does, with every row a tuple of at
    least `order` integers: read the first `order` of them.  The rows are
    held in series.prefix_rows under ("tower", top, exact, entries).
    """
    return prefix_rows(("tower", top, exact, entries), order, _tower_table,
                       top, exact, entries)


def _tower_series(E: KClass, tower: str, order: int) -> QSeries:
    """ch of the tower on E - rank E over `order` slots.

    The rows come from tower_rows, built once per (top, bundles, tower)
    and sliced to the order; a call only builds fresh per-slot GradedPoly
    coefficients from them.
    """
    top = E.top
    entries = tuple((bundle.pair_count, bundle.name, None, tower, mult)
                    for bundle, mult in E.parts)
    rows, den = tower_rows(top, False, entries, order)
    return QSeries(GradedPoly({}, top), 0, graded_slots(rows, den, order, top), order)


def witten_element(E: KClass, order: int) -> QSeries:
    """ch of the tensor of Sym_{q^j}(E - rank E) over j >= 1.

    Its log is sum_k 2 G_2k(q)^+ s_k(E) / (2k)!, G_2k^+ the q-part of the
    Eisenstein series; factors whose first contribution lies past the
    truncation order are identically 1.
    """
    return _tower_series(E, "witten", order)


def r_variants(E: KClass, variant: str, order: int) -> QSeries:
    """ch of the twist towers built on E - rank E.

    R  : tensor over m >= 1 of Sym_{q^m} x Lambda_{q^m}
    R1 : Lambda factors at exponent m - 1/2
    R2 : Lambda factors at exponent m - 1/2 with alternating signs
    """
    if variant not in _R_LAMBDA:
        raise ValueError(f"unknown twist variant {variant!r}")
    return _tower_series(E, variant, order)
