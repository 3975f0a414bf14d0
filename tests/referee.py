"""Towers and paired genera by the per-factor recursion.

The library builds the Witten element, the twist towers and the paired
genera from the power-sum closed form.  The referee here multiplies the
towers out factor by factor instead: every Sym/Lambda factor is the exp of
its own log series over GradedPoly coefficients (ktheory.sym_total and
lambda_total), the base classes are the multiplicative sequences, and
every slot is paired with pair_fundamental.  Factors that start past the
truncation window are identically 1, so the products simply run over
m = 1 .. order.
"""

from fractions import Fraction

from genusforge.charclass import BundleRoots, GradedPoly, pair_fundamental
from genusforge.genus import ahat_poly, l_poly
from genusforge.ktheory import KClass, lambda_total, sym_total
from genusforge.series import QSeries

# exponent shift from m and sign of t of the Lambda factors
TWIST_LAMBDA = {"R": (Fraction(0), 1), "R1": (Fraction(-1, 2), 1), "R2": (Fraction(-1, 2), -1)}


def product(factors, top, order):
    out = QSeries.one(GradedPoly({}, top), order)
    for factor in factors:
        out = out * factor
    return out


def witten_tower(E: KClass, order: int) -> QSeries:
    """prod_j ch Sym_{q^j}(E - rank E)."""
    red = E.reduced()
    return product((sym_total(red, j, order) for j in range(1, order + 1)), E.top, order)


def twist_tower(E: KClass, variant: str, order: int) -> QSeries:
    """prod_m ch Sym_{q^m}(E - rank E) ch Lambda_t(E - rank E) for the variant's t."""
    red = E.reduced()
    shift, sign = TWIST_LAMBDA[variant]
    factors = []
    for m in range(1, order + 1):
        factors.append(sym_total(red, m, order))
        factors.append(lambda_total(red, m + shift, order, sign=sign))
    return product(factors, E.top, order)


def witten_density(dim: int, order: int) -> QSeries:
    """Ahat(TM) ch(Psi_q(TM)) with graded coefficients."""
    tangent = BundleRoots(dim // 2, None)
    base = ahat_poly(tangent, dim)
    return witten_tower(KClass.bundle(tangent, dim), order).map_coefficients(lambda c: c * base)


def split_density(front: BundleRoots, back: BundleRoots, variant: str, top: int,
                  order: int) -> QSeries:
    """Ahat(F) L(Fperp) (R) or Ahat(F) Ahat(Fperp) (R1, R2) times both towers."""
    psi = witten_tower(KClass.bundle(front, top), order)
    twist = twist_tower(KClass.bundle(back, top), variant, order)
    second = l_poly(back, top) if variant == "R" else ahat_poly(back, top)
    base = ahat_poly(front, top) * second
    return (psi * twist).map_coefficients(lambda c: c * base)


def paired(density: QSeries, numbers) -> list:
    """Every slot of the density paired against the numbers."""
    return [pair_fundamental(c, numbers) for c in density.coeffs]
