"""Index densities and genera for manifolds with a split tangent bundle.

The data is a formal splitting TM = F + Fperp with p and r root pairs and
a table of Pontryagin numbers.  The sub-Dirac density is

    Ahat(F) ch(psi) L(Fperp)

with psi one q-series of classes (the Witten element of F in the paper),
paired against the fundamental class coefficient by coefficient.  The
Witten genus and the three twisted genera pair the Witten tower of F with
a genus factor and one of the twist towers of Fperp.

Those genera, and the classical Ahat and L genera (a genus factor with
no tower), are paired from the power-sum closed form.  Per bundle the
log of genus factor times tower is linear in the power sums,
sum_k (c_k + 2 h_k(q) / (2k)!) s_k, with c_k the moments of the factor
series and h_k the tower's Lambert rows.  The pairing reads only the top
degree, so each slot is sum over the monomials s^lambda of degree dim of
<s^lambda, [M]> times a product of rational q-series.  split_genus_value
pairs the same towers summed at one tau, for the static parts of the
fixed-point genus functions.

The symbolic half of that pairing, the multisets lambda and the
p-expansions of s^lambda, is charclass.exp_walk's: built once per
(dim, splitting) and shared by every order, variant, tau and numbers
table.  The rational q-series that multiplies each number depends on the
dimension, the splitting and the towers alone: ktheory.power_rows builds
it, and ktheory.tower_rows keeps it per (dim, splitting, towers) for
every order to read a prefix of (series.prefix_rows); split_genus_value
folds one-slot rows at every tau.  Every pairing reads only the numbers
whose rows are nonzero within its order, through _paired, and sums them.
subdirac_index pairs its twist, one QSeries of degree-dim classes or
none, through the top degree alone: the base class Ahat(F) L(Fperp) is
slot 0 of tower_rows' no-tower key, and per twist monomial only its
products of degree dim are formed, kept in one bounded cache
(_top_products).  A static class is the one-slot series of that class,
and two twists are their product.  index_density still builds the whole
density from ahat_poly and l_poly (charclass.genus_sequence), the
referee of these pairings.
"""

from __future__ import annotations

import functools
import math
import warnings
from fractions import Fraction

from genusforge.charclass import (
    BundleRoots,
    CharNumbers,
    GradedPoly,
    _mono_degree,
    _mono_mul,
    genus_sequence,
)
from genusforge.errors import SchemaError
from genusforge.ktheory import power_rows, tower_rows, tower_values
from genusforge.rings import as_int, payload_fields
from genusforge.series import QSeries
from genusforge.theta import Nome


class IntegralityWarning(UserWarning):
    """An index that should (or cannot be shown to) be an integer."""


def ahat_poly(bundle: BundleRoots, top: int) -> GradedPoly:
    return genus_sequence("ahat", top, bundle=bundle.name, pairs=bundle.pair_count)


def l_poly(bundle: BundleRoots, top: int) -> GradedPoly:
    return genus_sequence("l", top, bundle=bundle.name, pairs=bundle.pair_count)


class SplitManifoldSpec:
    """Split tangent data: F with p pairs, Fperp with r pairs, numbers."""

    __slots__ = ("dim", "F", "Fperp", "numbers", "F_spin", "M_spin")

    def __init__(self, dim, f_pairs, fperp_pairs, numbers, f_spin=False, m_spin=False):
        self.dim = as_int(dim, "dim")
        p, r = as_int(f_pairs, "f_pairs"), as_int(fperp_pairs, "fperp_pairs")
        if p < 0 or r < 0:
            raise SchemaError(f"root pair counts {p} and {r} cannot be negative")
        if self.dim != 2 * (p + r):
            raise SchemaError(
                f"dimension {self.dim} does not match {p} + {r} root pairs"
            )
        self.F = BundleRoots(p, "F")
        self.Fperp = BundleRoots(r, "Fperp")
        if not isinstance(numbers, CharNumbers):
            numbers = CharNumbers.from_fields(self.dim, numbers)
        if numbers.dim != self.dim:
            raise SchemaError("characteristic numbers live in the wrong degree")
        for mono in numbers.numbers:
            for (kind, bundle, index), _ in mono:
                if bundle == "F" and index <= p:
                    continue
                if bundle == "Fperp" and index <= r:
                    continue
                tag = f"({bundle})" if bundle else ""
                raise SchemaError(
                    f"number key uses {kind}{index}{tag}, not supported by the splitting"
                )
        self.numbers = numbers
        if not (isinstance(f_spin, bool) and isinstance(m_spin, bool)):
            raise SchemaError(f"f_spin and m_spin must be JSON booleans: {f_spin!r}, {m_spin!r}")
        self.F_spin, self.M_spin = f_spin, m_spin

    @property
    def p(self) -> int:
        return self.F.pair_count

    @property
    def r(self) -> int:
        return self.Fperp.pair_count

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "f_pairs": self.p,
            "fperp_pairs": self.r,
            "numbers": self.numbers.to_json()["numbers"],
            "f_spin": self.F_spin,
            "m_spin": self.M_spin,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SplitManifoldSpec":
        return cls(**payload_fields(obj, "split manifold",
                                    ("dim", "f_pairs", "fperp_pairs", "numbers"),
                                    f_spin=False, m_spin=False))

    def __repr__(self):
        return (
            f"SplitManifoldSpec(dim={self.dim}, p={self.p}, r={self.r}, "
            f"F_spin={self.F_spin}, M_spin={self.M_spin})"
        )


def _check_twist(psi, top: int):
    """Refuse a twist that is not one QSeries of degree-top GradedPoly classes."""
    if psi is not None and not (isinstance(psi, QSeries) and isinstance(psi.zero, GradedPoly)
                                and psi.zero.top == top):
        raise SchemaError(f"the twist of a degree-{top} density is a QSeries of degree-{top} "
                          f"GradedPoly classes, not this {type(psi).__name__}")


def index_density(spec: SplitManifoldSpec, psi=None):
    """Ahat(F) ch(psi) L(Fperp): a GradedPoly without a twist, a QSeries of them with one."""
    _check_twist(psi, spec.dim)
    base = ahat_poly(spec.F, spec.dim) * l_poly(spec.Fperp, spec.dim)
    return base if psi is None else psi.map_coefficients(lambda c: c * base)


def _integrality(values, guaranteed: bool, label: str):
    if not guaranteed:
        warnings.warn(
            f"{label}: integrality is not guaranteed by the spin flags",
            IntegralityWarning,
            stacklevel=3,
        )
        return
    broken = [v for v in values if Fraction(v).denominator != 1]
    if broken:
        warnings.warn(
            f"{label}: expected integers but found {broken[:3]}; "
            "the supplied characteristic numbers are inconsistent with the spin flags",
            IntegralityWarning,
            stacklevel=3,
        )


def _base_entries(p: int, r: int) -> tuple:
    """The no-tower ktheory.tower_rows entries of the base class Ahat(F) L(Fperp)."""
    return ((p, "F", "ahat", None, 1), (r, "Fperp", "l", None, 1))


@functools.lru_cache(maxsize=4096)
def _top_products(dim: int, p: int, r: int, m1) -> tuple:
    """(m1 * m2, integer coefficient of m2) for the base monomials m2 of degree dim - deg m1.

    The coefficients are slot 0 of the no-tower key, over its denominator;
    the key may be held at a larger order, and slot 0 is the same at every
    order.
    """
    rows, _ = tower_rows(dim, False, _base_entries(p, r), 1)
    degree = dim - _mono_degree(m1)
    return tuple((_mono_mul(m1, m2), row[0]) for m2, row in rows
                 if row[0] and _mono_degree(m2) == degree)


def _pair_top(spec: SplitManifoldSpec, slots) -> list:
    """<c Ahat(F) L(Fperp), [M]> for every GradedPoly c of slots.

    Only the products of degree dim are formed (_top_products), collected
    per monomial across the slots, and paired by _paired.
    """
    _, den = tower_rows(spec.dim, False, _base_entries(spec.p, spec.r), 1)
    acc, slot_dens = {}, []
    for n, c in enumerate(slots):
        sden = math.lcm(*(q.denominator for q in c.terms.values()))
        slot_dens.append(sden)
        for m1, c1 in c.terms.items():
            a1 = c1.numerator * (sden // c1.denominator)
            for mono, a2 in _top_products(spec.dim, spec.p, spec.r, m1):
                row = acc.get(mono)
                if row is None:
                    row = acc[mono] = [0] * len(slots)
                row[n] += a1 * a2
    total, den = _paired(spec.numbers, len(slots), acc.items(), den)
    return [Fraction(t, den * sden) for t, sden in zip(total, slot_dens)]


def subdirac_index(spec: SplitManifoldSpec, psi=None):
    """Pair the index density against the fundamental class.

    Returns a rational without a twist, a QSeries of rationals with one.
    Integrality is guaranteed by a spin F (the operator exists); with r = 0
    a spin M means the same thing.  Otherwise a warning is attached.

    The value is index_density's, paired slot by slot by _pair_top, which
    forms only the top-degree products with the base class.
    """
    _check_twist(psi, spec.dim)
    slots = [GradedPoly.constant(1, spec.dim)] if psi is None else psi.coeffs
    values = _pair_top(spec, slots)
    _integrality(values, spec.F_spin or (spec.r == 0 and spec.M_spin), "subdirac index")
    return values[0] if psi is None else QSeries(Fraction(0), psi.offset, values, psi.order)


def ahat_genus(numbers: CharNumbers) -> Fraction:
    """<Ahat(TM), [M]> for untagged Pontryagin numbers."""
    return _classical(numbers, "ahat")


def l_genus(numbers: CharNumbers) -> Fraction:
    """<L(TM), [M]>, the signature for closed oriented manifolds."""
    return _classical(numbers, "l")


def _classical(numbers: CharNumbers, factor: str) -> Fraction:
    """<genus(factor)(TM), [M]>: one slot of the pairing with no tower."""
    return _paired_series(numbers, 1, ((BundleRoots(numbers.dim // 2), factor, None),)).coeffs[0]


def _entries(towers) -> tuple:
    """ktheory.tower_rows entries of (BundleRoots, genus factor, tower name) triples.

    A named factor is kept as it is and a factor sequence becomes a tuple,
    so every factor takes the memoized path.
    """
    return tuple((bundle.pair_count, bundle.name,
                  factor if isinstance(factor, str) else tuple(factor), tower, 1)
                 for bundle, factor, tower in towers)


def _paired(numbers: CharNumbers, order: int, rows, den: int):
    """sum over (mono, row) of <mono, [M]> row[:order] / den, as (row, integer den).

    rows are (mono, integer row) pairs, as ktheory.power_rows gives them.
    A number is read only when its monomial's row is nonzero in one of the
    first `order` slots, so a missing number raises exactly when the
    density needs it.
    """
    paired = [(numbers[mono], row) for mono, row in rows if any(row[:order])]
    nden = math.lcm(*(x.denominator for x, _ in paired))
    total = [0] * order
    for x, row in paired:
        scale = x.numerator * (nden // x.denominator)
        total = [t + scale * v for t, v in zip(total, row)]
    return total, nden * den


def _paired_series(numbers: CharNumbers, order: int, towers) -> QSeries:
    """<prod over towers of genus(factor) ch(tower), [M]> as a q-series of rationals.

    towers lists (BundleRoots, genus factor, tower name); the factor is a
    genus factor as charclass.factor_moments takes it.  The rows come
    from ktheory.tower_rows, built once per splitting; only the pairing
    runs here.
    """
    rows, den = tower_rows(numbers.dim, True, _entries(towers), order)
    total, den = _paired(numbers, order, rows, den)
    return QSeries(Fraction(0), 0, [Fraction(v, den) for v in total], order)


def witten_genus(numbers: CharNumbers, order: int) -> QSeries:
    """<Ahat(TM) ch(Psi_q(TM)), [M]> as a q-series of exact rationals."""
    dim = numbers.dim
    tangent = BundleRoots(dim // 2, None)
    return _paired_series(numbers, order, ((tangent, "ahat", "witten"),))


_VARIANTS = ("R", "R1", "R2")


def _split_towers(spec: SplitManifoldSpec, variant: str):
    """(bundle, genus factor, tower name) of the F and Fperp blocks of a variant."""
    if variant not in _VARIANTS:
        raise ValueError(f"unknown twist variant {variant!r}")
    return ((spec.F, "ahat", "witten"), (spec.Fperp, "l" if variant == "R" else "ahat", variant))


def split_genus(spec: SplitManifoldSpec, variant: str, order: int) -> QSeries:
    """The three twisted genera of the splitting.

    variant R pairs Ahat(F) L(Fperp) ch(Psi_q(F)) ch(R-tower(Fperp));
    variants R1/R2 replace L(Fperp) by Ahat(Fperp), so the base class is
    Ahat(TM), and use the half-grid Lambda towers.
    """
    return _paired_series(spec.numbers, order, _split_towers(spec, variant))


def split_genus_value(spec: SplitManifoldSpec, variant: str, nome: Nome) -> complex:
    """split_genus summed at the nome's tau rather than truncated.

    Each tower is summed at x = e^(pi i tau), the nome's first half power,
    to within nome.tol (ktheory.tower_values), and paired as in split_genus.
    """
    (x,) = nome.powers(1, half=True)
    entries = _entries(_split_towers(spec, variant))
    values = [[[v] for v in tower_values(entry[3], x, spec.dim, nome.tol)] for entry in entries]
    rows, den = power_rows(spec.dim, True, entries, values, 1)
    (value,), den = _paired(spec.numbers, 1, rows, den)
    return value / den
