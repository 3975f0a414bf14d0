"""Every series the library hands out holds coefficients of its zero's kind.

A QSeries keeps its coefficients as given, so nothing turns an int 0 into
a Fraction or a LaurentZ on the way out; a producer that leaks one would
break readers such as bench/workloads.py, which call LaurentZ.items() on
every coefficient of an exact series.
"""

import warnings
from fractions import Fraction

import pytest

from genusforge.catalog import get
from genusforge.charclass import BundleRoots, GradedPoly
from genusforge.equivariant import g_series, h_series
from genusforge.genus import (
    IntegralityWarning,
    SplitManifoldSpec,
    index_density,
    split_genus,
    subdirac_index,
    witten_genus,
)
from genusforge.ktheory import KClass, lambda_total, r_variants, sym_total, witten_element
from genusforge.rings import LaurentZ
from genusforge.series import QSeries
from genusforge.theta import KINDS, euler_product, theta_prime0_series, theta_qseries


def assert_own_kind(series, kind=None):
    assert isinstance(series, QSeries)
    zero = series.zero
    if kind is not None:
        assert type(zero) is kind
    for n, c in enumerate(series.coeffs):
        assert type(c) is type(zero), (n, c)
        if isinstance(zero, GradedPoly):
            assert c.top == zero.top, n


def _producers():
    """(name, series, its coefficients' kind) for every library producer."""
    k3 = get("k3").build()
    spec = SplitManifoldSpec(8, 2, 2, {})
    E = KClass.bundle(BundleRoots(2, "F"), 8)
    psi = witten_element(KClass.bundle(BundleRoots(1, "F"), 4), 6)
    k3_split = get("k3_split").build()
    out = [("witten_genus", witten_genus(k3, 8), Fraction)]
    out += [(f"split_genus {v}", split_genus(k3_split, v, 8), Fraction) for v in ("R", "R1", "R2")]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegralityWarning)
        out.append(("subdirac_index", subdirac_index(k3_split, psi=psi), Fraction))
    out.append(("index_density", index_density(spec, psi=witten_element(E, 5)), GradedPoly))
    for name in ("free_point", "s2_rotation", "s2rot_x_t2"):
        out.append((f"h_series {name}", h_series(get(name).build(), 6).num, LaurentZ))
    model = get("free_split_point").build()
    for variant in ("G", "G1", "G2"):
        out.append((f"g_series {variant}", g_series(model, variant, 6).num, LaurentZ))
    for kind in KINDS:
        theta = theta_qseries(kind, 7)
        out += [(f"theta {kind} body", theta.body, LaurentZ),
                (f"theta {kind} expanded", theta.expanded(), LaurentZ)]
    prime = theta_prime0_series(5)
    out += [("theta_prime0 body", prime.body, LaurentZ),
            ("theta_prime0 expanded", prime.expanded(), LaurentZ),
            ("euler_product", euler_product(9), LaurentZ),
            ("witten_element", witten_element(E, 6), GradedPoly)]
    out += [(f"r_variants {v}", r_variants(E, v, 6), GradedPoly) for v in ("R", "R1", "R2")]
    out += [("sym_total", sym_total(E, 1, 5), GradedPoly),
            ("lambda_total", lambda_total(E, Fraction(1, 2), 5, sign=-1), GradedPoly)]
    return out


PRODUCERS = _producers()


@pytest.mark.parametrize("name, series, kind", PRODUCERS, ids=[p[0] for p in PRODUCERS])
def test_library_series_hold_their_own_kind(name, series, kind):
    assert_own_kind(series, kind)


def _units():
    """One series of each kind with a unit lead (the graded ones have no inverse)."""
    rational = QSeries(Fraction(0), 0, [Fraction(c) for c in (1, -3, 0, 0, Fraction(1, 4))], 8)
    laurent = theta_qseries("theta1", 8).body
    graded = witten_element(KClass.bundle(BundleRoots(2, "F"), 8), 6)
    return {"rational": rational, "laurent": laurent, "graded": graded}


@pytest.mark.parametrize("which", ["rational", "laurent", "graded"])
def test_series_operations_keep_the_kind(which):
    a = _units()[which]
    b = a.shifted(Fraction(1, 2)) * 3
    results = {
        "+": a + b, "-": a - b, "neg": -a, "*": a * b, "scalar *": a * Fraction(2, 3),
        "kind scalar *": a * a.coeffs[2], "truncated": a.truncated(3), "shifted": a.shifted(1),
        "normalized": (a - QSeries.one(a.zero, a.order)).normalized(),
        "alternate_half_signs": a.alternate_half_signs(),
    }
    log = a.log()
    results.update({"log": log, "exp": log.exp()})
    assert results["exp"] == a
    if which != "graded":
        results["inv"] = a.inv()
    for op, series in results.items():
        assert type(series.zero) is type(a.zero), op
        assert_own_kind(series)
