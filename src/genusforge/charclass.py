"""Pontryagin-class calculus for even-rank real bundles.

Bundles enter through formal root pairs +-a_j with p(E) = prod(1 + a_j^2),
so p_i is the i-th elementary symmetric polynomial in the squares a_j^2
and carries cohomological degree 4i.  The power sums s_k of the a_j^2
are written in the p_i by the Newton identities (bundle_power_sums), with
a bundle's pair cap imposed on the p_i alone.

power_sum_exp is the one expansion of an exponential of a form linear in
the s_k, summed per monomial over one integer denominator; graded_slots
turns its rows into a GradedPoly per q-slot.  A multiplicative sequence
is exp(sum_k c_k s_k) with c_k the moments of log of its factor series;
the K-theory towers and the genus pairings expand their own linear forms
the same way.

The expansion has a symbolic half and a numeric one.  The symbolic half,
exp_walk, depends only on the degree and the (bundle, k) of the s_k: it
lists the multisets lambda of power sums and the p-expansion of each
product s^lambda.  It is built once per key and kept in a bounded cache,
as are the factor series, their log moments and the Newton power sums;
the walk and the factor series are tuples, and bundle_power_sums returns
fresh copies, so no caller can change what is cached.  The numeric
half convolves the integer series rows along the walk, one convolution
per multiset, each from the row of its prefix.  For the exact towers and
genera it runs once per key of ktheory.tower_rows, which keeps its
result; the values at one q run it on every call.  genus_sequence and
pair_fundamental, the whole sequence as a GradedPoly and its pairing,
are the referee of those pairings.
Nothing is built at import.

Roots are normalized so that no 2*pi*i factors appear anywhere: every
density produced here is an exact rational polynomial.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction

from genusforge._kernels import convolve_trunc, series_inv
from genusforge.errors import (
    DimensionError,
    MissingNumberError,
    RingMismatchError,
    SchemaError,
)
from genusforge.rings import as_fraction, as_int, fraction_str, payload_fields

_Q0 = Fraction(0)
_Q1 = Fraction(1)


# ---------------------------------------------------------------------------
# graded polynomials


def _sym(kind: str, bundle, index: int):
    return (kind, bundle, index)


def _sym_degree(sym) -> int:
    return 4 * sym[2]


def _mono_degree(mono) -> int:
    return sum(_sym_degree(s) * e for s, e in mono)


def _mono_mul(m1, m2):
    d = dict(m1)
    for s, e in m2:
        d[s] = d.get(s, 0) + e
    return tuple(sorted(d.items()))


def _sym_str(sym) -> str:
    kind, bundle, index = sym
    if bundle is None:
        return f"{kind}{index}"
    return f"{kind}{index}({bundle})"


def mono_str(mono) -> str:
    if not mono:
        return "1"
    bits = []
    for s, e in mono:
        bits.append(_sym_str(s) if e == 1 else f"{_sym_str(s)}^{e}")
    return "*".join(bits)


_FACTOR_RE = re.compile(r"^([ps])(\d+)(?:\(([^)]+)\))?(?:\^(\d+))?$")


def parse_monomial(text: str):
    """Parse 'p1', 'p1(F)^2*p2(Fperp)' or '1' into the internal key."""
    text = text.strip()
    if text == "1":
        return ()
    factors = {}
    for chunk in text.split("*"):
        m = _FACTOR_RE.match(chunk.strip())
        if not m:
            raise SchemaError(f"cannot parse monomial factor {chunk!r}")
        kind, index, bundle, power = m.groups()
        index = int(index)
        if index < 1:
            raise SchemaError(f"symbol index must be positive in {chunk!r}")
        if power is not None and int(power) == 0:
            raise SchemaError(f"exponent must be positive in {chunk!r}")
        sym = _sym(kind, bundle, index)
        factors[sym] = factors.get(sym, 0) + (int(power) if power else 1)
    return tuple(sorted(factors.items()))


class GradedPoly:
    """Polynomial in graded symbols with exact rational coefficients.

    Terms of cohomological degree above top_degree are dropped on every
    operation, which makes the ring nilpotent and exp/log finite.
    """

    __slots__ = ("terms", "top")

    def __init__(self, terms=None, top: int = 0):
        self.top = int(top)
        clean = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = as_fraction(coeff)
                if coeff and _mono_degree(mono) <= self.top:
                    clean[mono] = clean.get(mono, _Q0) + coeff
        self.terms = {m: c for m, c in clean.items() if c}

    @classmethod
    def _trusted(cls, terms: dict, top: int) -> "GradedPoly":
        """A GradedPoly over terms already clean: nonzero Fractions of degree <= top."""
        out = object.__new__(cls)
        out.terms = terms
        out.top = top
        return out

    @classmethod
    def constant(cls, value, top):
        return cls({(): as_fraction(value)}, top)

    @classmethod
    def generator(cls, kind, bundle, index, top, coeff=1):
        return cls({((_sym(kind, bundle, index), 1),): as_fraction(coeff)}, top)

    def symbols(self):
        out = set()
        for mono in self.terms:
            for s, _ in mono:
                out.add(s)
        return out

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GradedPoly.constant(other, self.top)
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        raise TypeError("graded polynomials are not hashable")

    def __neg__(self):
        return GradedPoly._trusted({m: -c for m, c in self.terms.items()}, self.top)

    def _coerced(self, other):
        if isinstance(other, (int, Fraction)):
            return GradedPoly.constant(other, self.top)
        if isinstance(other, GradedPoly):
            if other.top != self.top:
                raise DimensionError(
                    f"mixing truncation degrees {self.top} and {other.top}"
                )
            return other
        return None

    def __add__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, _Q0) + c
        return GradedPoly._trusted({m: c for m, c in out.items() if c}, self.top)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = as_fraction(other)
            terms = {m: c * q for m, c in self.terms.items()} if q else {}
            return GradedPoly._trusted(terms, self.top)
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        out = {}
        for m1, c1 in self.terms.items():
            d1 = _mono_degree(m1)
            for m2, c2 in other.terms.items():
                if d1 + _mono_degree(m2) > self.top:
                    continue
                m = _mono_mul(m1, m2)
                out[m] = out.get(m, _Q0) + c1 * c2
        return GradedPoly._trusted({m: c for m, c in out.items() if c}, self.top)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined here")
        out = GradedPoly.constant(1, self.top)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def substitute(self, mapping) -> "GradedPoly":
        """Replace symbols via mapping[sym] -> GradedPoly; others are kept."""
        out = GradedPoly({}, self.top)
        for mono, coeff in self.terms.items():
            piece = GradedPoly.constant(coeff, self.top)
            for s, e in mono:
                rep = mapping.get(s)
                if rep is None:
                    rep = GradedPoly.generator(s[0], s[1], s[2], self.top)
                piece = piece * rep**e
            out = out + piece
        return out

    def __repr__(self):
        if not self.terms:
            return "GradedPoly(0)"
        bits = [f"{c}*{mono_str(m)}" for m, c in sorted(self.terms.items())]
        return "GradedPoly(" + " + ".join(bits) + f"; top={self.top})"


class BundleRoots:
    """Even-rank real bundle presented by formal root pairs +-a_j.

    pair_count is the number of pairs, so the real rank is 2*pair_count.
    name tags the bundle's symbols (p1(F), s2(F), ...); None is the bare
    p1, p2, ... family used for a tangent bundle.
    """

    __slots__ = ("pair_count", "name")

    def __init__(self, pair_count: int, name=None):
        self.pair_count = int(pair_count)
        if self.pair_count < 0:
            raise DimensionError("pair count cannot be negative")
        self.name = name

    @property
    def rank(self) -> int:
        return 2 * self.pair_count

    def pontryagin(self, i: int, top: int) -> GradedPoly:
        """p_i of this bundle; vanishes above the pair count."""
        if i > self.pair_count:
            return GradedPoly({}, top)
        return GradedPoly.generator("p", self.name, i, top)

    def __eq__(self, other):
        if not isinstance(other, BundleRoots):
            return NotImplemented
        return self.pair_count == other.pair_count and self.name == other.name

    def __hash__(self):
        return hash((BundleRoots, self.pair_count, self.name))

    def __repr__(self):
        tag = "" if self.name is None else f", {self.name!r}"
        return f"BundleRoots({self.pair_count}{tag})"


# ---------------------------------------------------------------------------
# one-variable exact series (coefficient lists over powers of the root a)

# the caches below hold symbolic data only, keyed by degrees, pair counts
# and factor names: finitely many keys up to any dimension cap
_CACHE_SMALL = 64
_CACHE_LARGE = 512


def ser_mul(a, b, n):
    return convolve_trunc(list(a), list(b), n, _Q0)


def ser_inv(a, n):
    if not a or not a[0]:
        raise ValueError("series inversion needs a unit constant term")
    return series_inv(list(a), n, 1 / a[0], _Q0)


def ahat_factor(top_degree: int) -> tuple:
    """Taylor coefficients of (a/2)/sinh(a/2) up to a**(top_degree//2)."""
    n = top_degree // 2 + 1
    # sinh(a/2)/(a/2) = sum a^(2m) / (4^m (2m+1)!)
    den = [_Q0] * n
    for m in range(0, (n + 1) // 2):
        if 2 * m < n:
            den[2 * m] = Fraction(1, 4**m * math.factorial(2 * m + 1))
    return tuple(ser_inv(den, n))


def l_factor(top_degree: int) -> tuple:
    """Taylor coefficients of a/tanh(a) up to a**(top_degree//2)."""
    n = top_degree // 2 + 1
    cosh = [_Q0] * n
    sinh_over_a = [_Q0] * n
    for m in range(0, (n + 1) // 2):
        if 2 * m < n:
            cosh[2 * m] = Fraction(1, math.factorial(2 * m))
            sinh_over_a[2 * m] = Fraction(1, math.factorial(2 * m + 1))
    return tuple(ser_mul(cosh, ser_inv(sinh_over_a, n), n))


def _even_to_moment_log(factor, top_degree: int):
    """log f as coefficients c_m of a^(2m), m >= 1; f must be even, f(0)=1."""
    n_a = top_degree // 2 + 1
    f = [as_fraction(c) for c in factor]
    if len(f) < n_a:
        raise DimensionError(
            f"factor series known to a^{len(f) - 1} but degree {top_degree} needs a^{n_a - 1}"
        )
    f = f[:n_a]
    if f[0] != 1:
        raise ValueError("factor series must have constant term 1")
    for k in range(1, len(f), 2):
        if f[k]:
            raise ValueError("factor series must be even in the root variable")
    # view as series g(u) with u = a^2, then log g termwise
    g = [f[2 * m] for m in range(0, (len(f) + 1) // 2)]
    n = len(g)
    out = [_Q0] * n
    for k in range(1, n):
        acc = _Q0
        for j in range(1, k):
            acc += j * out[j] * g[k - j]
        out[k] = g[k] - acc / k
    return out  # out[m] multiplies a^(2m)


@functools.lru_cache(maxsize=_CACHE_SMALL)
def _named_moments(name: str, top_degree: int) -> tuple:
    factor = ahat_factor(top_degree) if name == "ahat" else l_factor(top_degree)
    return tuple(_even_to_moment_log(factor, top_degree))


def factor_moments(factor, top_degree: int) -> tuple:
    """The moments c_m of log f, as _even_to_moment_log gives them.

    factor is an even series with f(0) = 1, or the name "ahat" or "l" of
    ahat_factor or l_factor; a named factor's moments are cached.
    """
    if factor in ("ahat", "l"):
        return _named_moments(factor, top_degree)
    if isinstance(factor, str):
        raise ValueError(f"unknown genus factor {factor!r}")
    return tuple(_even_to_moment_log(factor, top_degree))


# ---------------------------------------------------------------------------
# Newton identities


def power_sums(elementary):
    """Power sums s_1..s_k from elementary symmetric values e_1..e_k.

    Entries may be rationals or GradedPoly; the Newton recursion
    s_k = e_1 s_(k-1) - e_2 s_(k-2) + ... + (-1)^(k-1) k e_k needs +,*
    and integer scaling only.
    """
    e = list(elementary)
    s = []
    for k in range(1, len(e) + 1):
        acc = e[k - 1] * ((-1) ** (k - 1) * k)
        for i in range(1, k):
            term = e[i - 1] * s[k - i - 1]
            acc = acc + term * ((-1) ** (i - 1))
        s.append(acc)
    return s


@functools.lru_cache(maxsize=_CACHE_LARGE)
def _bundle_power_sums(bundle: BundleRoots, top: int) -> tuple:
    # shared GradedPoly values: read them, never change them
    return tuple(power_sums([bundle.pontryagin(i, top) for i in range(1, top // 4 + 1)]))


def bundle_power_sums(bundle: BundleRoots, top: int) -> list:
    """s_1 .. s_(top//4) of the bundle in its Pontryagin classes, with its pair cap."""
    return [GradedPoly._trusted(dict(s.terms), top) for s in _bundle_power_sums(bundle, top)]


def power_sum_in_pontryagin(m: int, bundle, top: int) -> GradedPoly:
    """s_m (power sum of squared roots) as a polynomial in p_1..p_m."""
    sums = bundle_power_sums(BundleRoots(m, bundle), top)
    return sums[m - 1] if m <= len(sums) else GradedPoly({}, top)


def to_pontryagin(poly: GradedPoly, caps=None) -> GradedPoly:
    """Rewrite every power-sum symbol via the Newton identities.

    caps maps a bundle name to its root-pair count; bundles listed there
    have p_i = 0 imposed above that count.
    """
    mapping = {}
    for s in poly.symbols():
        kind, bundle, m = s
        if kind == "s":
            pairs = (caps or {}).get(bundle, m)
            mapping[s] = bundle_power_sums(BundleRoots(pairs, bundle), poly.top)[m - 1]
    if not mapping:
        return poly
    return poly.substitute(mapping)


# ---------------------------------------------------------------------------
# exponentials of forms linear in the power sums


class ExpWalk:
    """The symbolic half of power_sum_exp for one (top, exact, entries) key.

    entries lists the (bundle, k) of the forms' power sums s_k(bundle).
    The walk visits every multiset {v^m_v} of entries of total degree at
    most top, and keeps in `steps`, in walk order, those that are needed:
    all of them, or with exact those of degree top and the prefixes that
    lead to one.  A step is (v, base, m, terms): its series is the series
    of step `base` (-1: the constant 1) times L_v, m is the multiplicity
    of v, and terms is None for a prefix, else the p-expansion of
    prod s^lambda as (index into monos, integer coefficient) pairs.
    root_terms is that of the empty multiset, or None when exact excludes
    it.  Everything is a tuple.
    """

    __slots__ = ("monos", "steps", "root_terms")

    def __init__(self, top: int, exact: bool, entries: tuple):
        xs = [_bundle_power_sums(bundle, top)[k - 1] for bundle, k in entries]
        ks = [k for _, k in entries]
        index = {}

        def terms(poly):
            # the Newton identities have integer coefficients, so prod s^lambda does
            assert all(c.denominator == 1 for c in poly.terms.values())
            return tuple((index.setdefault(mono, len(index)), c.numerator)
                         for mono, c in poly.terms.items())

        # fill[v][left]: the entries v.. can make up degree 4*left exactly
        units = top // 4
        fill = [[True] * (units + 1) for _ in range(len(ks) + 1)]
        if exact:
            fill[-1] = [left == 0 for left in range(units + 1)]
            for v in range(len(ks) - 1, -1, -1):
                fill[v] = [any(fill[v + 1][left - m * ks[v]] for m in range(left // ks[v] + 1))
                           for left in range(units + 1)]
        steps = []

        def walk(start, left, parent, poly):
            for v in range(start, len(ks)):
                k = ks[v]
                last = max((m for m in range(1, left // k + 1) if fill[v + 1][left - m * k]),
                           default=0)
                base, p = parent, poly
                for m in range(1, last + 1):
                    p = p * xs[v]
                    here = len(steps)
                    steps.append((v, base, m, terms(p) if not exact or left == m * k else None))
                    walk(v + 1, left - m * k, here, p)
                    base = here

        one = GradedPoly.constant(1, top)
        self.root_terms = terms(one) if not exact or units == 0 else None
        if units:
            walk(0, units, -1, one)
        self.steps = tuple(steps)
        self.monos = tuple(index)


@functools.lru_cache(maxsize=_CACHE_LARGE)
def exp_walk(top: int, exact: bool, entries: tuple) -> ExpWalk:
    """The cached ExpWalk of a key: built once, shared by every call."""
    return ExpWalk(top, exact, entries)


def power_sum_exp(logs, order: int, top: int, exact: bool = False):
    """Expand exp(sum_v L_v(q) s_(k_v)(bundle_v)) monomial by monomial.

    logs holds (bundle_v, k_v, row_v, den_v): the power sum s_k of a
    BundleRoots, of degree 4 k, and the truncated series L_v = row_v / den_v
    with integer row_v, or with a one-slot row_v holding the value of L_v
    at one q.  Every multiset {v^m_v} of total degree at most top (exactly
    top when exact) contributes prod L_v^m_v / m_v! times the p-expansion
    of prod s_(k_v)^m_v.  Returns (((mono, row), ...), den), summed per
    p-monomial over one integer denominator in the order the monomials
    first occur: slot n of the exponential is sum row[n] / den * mono.

    The symbolic half, the multisets and their expansions, is the cached
    exp_walk of the entries; only the series are convolved here, one per
    step (v, base, m, terms), each from the series of its prefix.  A
    series that vanishes adds no part, so the denominator is the lcm over
    the nonzero ones.
    """
    if exact and top % 4:
        return (), 1
    logs = [entry for entry in logs if entry[0].pair_count and any(entry[2])]
    walk = exp_walk(top, exact, tuple((bundle, k) for bundle, k, _, _ in logs))
    parts = []
    if walk.root_terms is not None:
        parts.append(([1] + [0] * (order - 1) if order > 0 else [], 1, walk.root_terms))
    rows, dens = [], []
    for v, base, m, terms in walk.steps:
        _, _, lrow, lden = logs[v]
        if base < 0:
            row, den = list(lrow[:order]) + [0] * (order - len(lrow)), lden
        else:
            row, den = convolve_trunc(rows[base], lrow, order, 0), dens[base] * lden * m
        rows.append(row)
        dens.append(den)
        if terms is not None and any(row):
            parts.append((row, den, terms))
    den = math.lcm(*(d for _, d, _ in parts))
    totals = {}
    for row, d, terms in parts:
        if d != den:
            row = [den // d * v for v in row]
        for idx, c in terms:
            t = totals.get(idx)
            if t is None:
                totals[idx] = [c * v for v in row]
            else:
                totals[idx] = [a + c * v for a, v in zip(t, row)]
    return tuple((walk.monos[idx], row) for idx, row in totals.items()), den


def graded_slots(rows, den: int, order: int, top: int) -> list:
    """One fresh GradedPoly per slot n < order: sum row[n] / den * mono over (mono, row)."""
    slots = [{} for _ in range(order)]
    for mono, row in rows:
        for n, v in zip(range(order), row):
            if v:
                slots[n][mono] = Fraction(v, den)
    return [GradedPoly._trusted(slot, top) for slot in slots]


def genus_sequence(factor, top_degree: int, bundle=None, pairs=None) -> GradedPoly:
    """Multiplicative sequence of an even factor series f with f(0) = 1.

    Returns the universal polynomial in p_i(bundle) of degree <= top_degree
    equal to prod_j f(a_j) after symmetric reduction: exp(sum_k c_k s_k)
    with c_k the moments of log f and s_k the power sums of the bundle in
    its p_i.  A finite pair count truncates the p_i accordingly; without
    one the bundle has pairs enough for every p_i up to top_degree.
    factor may also be the name "ahat" or "l" (factor_moments).
    """
    moments = factor_moments(factor, top_degree)
    roots = BundleRoots(top_degree // 4 if pairs is None else pairs, bundle)
    logs = [(roots, k, [c.numerator], c.denominator)
            for k, c in enumerate(moments[1:top_degree // 4 + 1], 1)]
    rows, den = power_sum_exp(logs, 1, top_degree)
    return graded_slots(rows, den, 1, top_degree)[0]


# ---------------------------------------------------------------------------
# characteristic numbers


class CharNumbers:
    """Top-degree Pontryagin numbers of a closed oriented manifold.

    numbers maps monomial keys of cohomological degree == dim to exact
    rationals.  A pairing that needs a missing monomial is an error, not
    an implicit zero.
    """

    def __init__(self, dim: int, numbers, spin: bool | None = None):
        self.dim = int(dim)
        if self.dim < 0:
            raise DimensionError("negative dimension")
        if spin is not None and not isinstance(spin, bool):
            raise SchemaError(f"spin must be a JSON boolean or absent, not {spin!r}")
        self.spin = spin
        if not isinstance(numbers, dict):
            raise SchemaError("'numbers' must be an object of monomial keys")
        self.numbers = {}
        keys = {}
        for key, val in numbers.items():
            mono = parse_monomial(key) if isinstance(key, str) else key
            if mono in keys:
                raise SchemaError(
                    f"numbers {keys[mono]!r} and {key!r} name the same monomial {mono_str(mono)}"
                )
            keys[mono] = key
            deg = _mono_degree(mono)
            if deg != self.dim:
                raise DimensionError(
                    f"monomial {mono_str(mono)} has degree {deg}, expected {self.dim}"
                )
            for s, _ in mono:
                if s[0] != "p":
                    raise SchemaError("characteristic numbers are indexed by p-monomials")
            self.numbers[mono] = as_fraction(val)

    def __getitem__(self, mono) -> Fraction:
        if isinstance(mono, str):
            mono = parse_monomial(mono)
        try:
            return self.numbers[mono]
        except KeyError:
            raise MissingNumberError(
                f"characteristic number {mono_str(mono)} was not supplied"
            ) from None

    def __contains__(self, mono):
        if isinstance(mono, str):
            mono = parse_monomial(mono)
        return mono in self.numbers

    def to_json(self) -> dict:
        out = {
            "dim": self.dim,
            "numbers": {mono_str(m): fraction_str(c) for m, c in sorted(self.numbers.items())},
        }
        if self.spin is not None:
            out["spin"] = self.spin
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "CharNumbers":
        return cls.from_fields(**payload_fields(obj, "characteristic numbers",
                                                ("dim", "numbers"), spin=None))

    @classmethod
    def from_fields(cls, dim: int, numbers, spin: bool | None = None) -> "CharNumbers":
        """CharNumbers from payload fields, raising SchemaError for any fault in them.

        A dim that is not an integer or is negative, a monomial of the wrong
        degree or a number that is not an exact rational is bad input here,
        not a bookkeeping error.
        """
        try:
            return cls(as_int(dim, "dim"), numbers, spin)
        except (DimensionError, RingMismatchError) as exc:
            raise SchemaError(str(exc)) from None

    def __repr__(self):
        return f"CharNumbers(dim={self.dim}, {self.to_json()['numbers']})"


def pair_fundamental(density: GradedPoly, numbers: CharNumbers) -> Fraction:
    """Evaluate <density, [M]>: the top-degree part against the numbers."""
    if density.top != numbers.dim:
        raise DimensionError(
            f"density truncated at degree {density.top}, manifold dimension {numbers.dim}"
        )
    acc = _Q0
    for mono, coeff in density.terms.items():
        if _mono_degree(mono) != numbers.dim:
            continue
        acc += coeff * numbers[mono]
    return acc
