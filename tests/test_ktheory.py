"""Power towers checked against literal character expansion in explicit roots."""

import cmath
import math
import random
from fractions import Fraction

import pytest

from genusforge.charclass import BundleRoots, GradedPoly
from genusforge.errors import DimensionError
from genusforge.ktheory import (
    KClass,
    ch,
    ch_scaled,
    ch_tensor_pair,
    lambda_total,
    r_variants,
    sym_total,
    tower_log,
    tower_slots,
    tower_values,
    witten_element,
)
from genusforge.series import QSeries

from oracles import (
    exact_value,
    graded_to_mpoly,
    mexp_scaled,
    naive_lambda,
    naive_sym,
    naive_twist,
    naive_witten,
    qm_clean,
    qm_inv,
    qm_mul,
)
import referee


def check_against(series, naive, assignment, nvars, top):
    got = {}
    for e, c in series.terms():
        p = graded_to_mpoly(c, assignment, nvars, top)
        if not p.is_zero():
            got[e] = p
    naive = qm_clean(naive)
    assert set(got) == set(naive)
    for e, p in got.items():
        assert p == naive[e], f"mismatch at q^{e}"


# -- the class itself -------------------------------------------------------


def test_kclass_bookkeeping():
    A = BundleRoots(2, "A")
    B = BundleRoots(1, "B")
    E = KClass(((A, 1), (B, 2)), shift=-3, top=8)
    assert E.rank == 4 + 4 - 3
    assert E.reduced().rank == 0
    assert (E - E) == KClass.constant(0, 8)
    assert KClass.bundle(A, 8) + KClass.constant(-4, 8) == KClass(((A, 1),), -4, 8)
    with pytest.raises(TypeError):
        KClass((("A", 1),), 0, 8)
    with pytest.raises(TypeError):
        hash(E)
    with pytest.raises(DimensionError):
        E + KClass.constant(0, 4)


def test_ch_of_rank_shift_is_constant():
    E = KClass.constant(5, 8)
    assert ch(E) == GradedPoly.constant(5, 8)


def test_ch_is_additive():
    A = KClass.bundle(BundleRoots(1, "A"), 8)
    B = KClass.bundle(BundleRoots(2, "B"), 8)
    assert ch(A + B) == ch(A) + ch(B)
    assert ch(A - B) == ch(A) - ch(B)


def test_ch_single_pair_expansion():
    E = KClass.bundle(BundleRoots(1, "A"), 8)
    p1 = GradedPoly.generator("p", "A", 1, 8)
    # e^a + e^-a = 2 + a^2 + a^4/12 with a^2 = p1
    assert ch(E) == GradedPoly.constant(2, 8) + p1 + p1**2 * Fraction(1, 12)


def test_ch_matches_explicit_roots():
    top = 12
    E = KClass.bundle(BundleRoots(2, "F"), top)
    assignment = {"F": [0, 1]}
    for scale in (1, 2, 3):
        got = graded_to_mpoly(ch_scaled(E, scale), assignment, 2, top)
        expect = mexp_scaled(2, top, 0, scale).add(mexp_scaled(2, top, 0, -scale))
        expect = expect.add(mexp_scaled(2, top, 1, scale)).add(
            mexp_scaled(2, top, 1, -scale)
        )
        assert got == expect


# -- symmetric and exterior towers ------------------------------------------


def test_sym_of_zero_class_is_one():
    E = KClass.constant(0, 8)
    s = sym_total(E, 1, 6)
    assert s == QSeries.one(GradedPoly({}, 8), 6)


def test_sym_first_coefficient_single_pair():
    E = KClass.bundle(BundleRoots(1, "A"), 8)
    s = sym_total(E, 1, 6)
    assert s.coefficient(0) == GradedPoly.constant(1, 8)
    assert s.coefficient(1) == ch(E)


def test_sym_tower_matches_naive_expansion():
    top = 8
    E = KClass.bundle(BundleRoots(1, "A"), top)
    series = sym_total(E, 1, 7)
    naive = naive_sym(1, top, [0], 1, 1, Fraction(7, 2))
    check_against(series, naive, {"A": [0]}, 1, top)


def test_lambda_tower_matches_naive_expansion():
    top = 8
    E = KClass.bundle(BundleRoots(2, "F"), top)
    for tsign in (1, -1):
        series = lambda_total(E, Fraction(1, 2), 6, sign=tsign)
        naive = naive_lambda(2, top, [0, 1], Fraction(1, 2), tsign, Fraction(3))
        check_against(series, naive, {"F": [0, 1]}, 2, top)


def test_sym_lambda_cancellation():
    # Sym_q(E) * Lambda_{-q}(E) = Sym_q(E - E) = 1
    rng = random.Random(3141)
    for _ in range(20):
        top = rng.choice((4, 8))
        parts = []
        budget = rng.randint(1, 2)
        for name in ("A", "B")[:budget]:
            parts.append((BundleRoots(rng.randint(1, 2), name), 1))
        E = KClass(tuple(parts), 0, top)
        order = rng.randint(2, 9)
        prod = sym_total(E, 1, order) * lambda_total(E, 1, order, sign=-1)
        assert prod == QSeries.one(GradedPoly({}, top), order)


def test_splitting_rule_matches_naive_quotient():
    # Sym_q(E1 - E2) against naive Sym(E1) / Sym(E2) in explicit roots
    top = 8
    E1 = KClass.bundle(BundleRoots(2, "A"), top)
    E2 = KClass.bundle(BundleRoots(1, "B"), top)
    series = sym_total(E1 - E2, 1, 7)
    q_end = Fraction(7, 2)
    naive = qm_mul(
        naive_sym(3, top, [0, 1], 1, 1, q_end),
        qm_inv(naive_sym(3, top, [2], 1, 1, q_end), q_end),
        q_end,
    )
    check_against(series, naive, {"A": [0, 1], "B": [2]}, 3, top)


# -- the Witten tower -------------------------------------------------------


def test_witten_leading_terms():
    E = KClass.bundle(BundleRoots(2, "F"), 8)
    w = witten_element(E, 9)
    assert w.coefficient(0) == GradedPoly.constant(1, 8)
    assert w.coefficient(1) == ch(E) - GradedPoly.constant(E.rank, 8)


def test_witten_matches_naive_expansion():
    top = 8
    E = KClass.bundle(BundleRoots(2, "F"), top)
    w = witten_element(E, 9)
    naive = naive_witten(2, top, [0, 1], Fraction(9, 2))
    check_against(w, naive, {"F": [0, 1]}, 2, top)


def test_witten_multiplicativity():
    rng = random.Random(1618)
    order = 9  # exact through q^4
    for _ in range(8):
        top = rng.choice((4, 8))
        A = KClass.bundle(BundleRoots(rng.randint(1, 2), "A"), top)
        B = KClass.bundle(BundleRoots(rng.randint(1, 2), "B"), top)
        lhs = witten_element(A + B, order)
        rhs = witten_element(A, order) * witten_element(B, order)
        assert lhs == rhs


# -- twist towers -----------------------------------------------------------


def test_twists_start_at_one():
    E = KClass.bundle(BundleRoots(1, "A"), 8)
    for variant in ("R", "R1", "R2"):
        r = r_variants(E, variant, 5)
        assert r.coefficient(0) == GradedPoly.constant(1, 8)


def test_twist_half_grid_sign_flip():
    E = KClass.bundle(BundleRoots(2, "F"), 8)
    r1 = r_variants(E, "R1", 7)
    r2 = r_variants(E, "R2", 7)
    assert r2 == r1.alternate_half_signs()


def test_twist_first_integer_coefficient():
    # rank-2 class: q^1 coefficient of the R tower is 2*(ch E - 2)
    E = KClass.bundle(BundleRoots(1, "A"), 8)
    r = r_variants(E, "R", 5)
    assert r.coefficient(1) == (ch(E) - GradedPoly.constant(2, 8)) * 2


def test_twists_match_naive_expansion():
    top = 8
    E = KClass.bundle(BundleRoots(1, "A"), top)
    for variant in ("R", "R1", "R2"):
        series = r_variants(E, variant, 6)
        naive = naive_twist(1, top, [0], variant, Fraction(3))
        check_against(series, naive, {"A": [0]}, 1, top)


def test_twist_rejects_unknown_variant():
    E = KClass.bundle(BundleRoots(1, "A"), 4)
    with pytest.raises(ValueError):
        r_variants(E, "R3", 4)


# -- closed-form towers against the per-factor recursion --------------------


def assert_same_slots(got, want):
    assert (got.zero.top, got.offset, got.order) == (want.zero.top, want.offset, want.order)
    for n, (a, b) in enumerate(zip(got.coeffs, want.coeffs)):
        assert a == b, f"slot {n}"


def tower_cases():
    """(KClass, order) over dims 4-20 and orders 1-30, seeded, plus mixed classes.

    The referee's cost grows fast with the dimension, so dims 16 and 20
    stop at order 16.
    """
    rng = random.Random(20)
    cases = []
    for top in (4, 8, 12, 16, 20):
        orders = {1, 2, 30} if top <= 12 else {1, 2, 16}
        orders |= set(rng.sample(range(3, 30 if top <= 12 else 16), 2))
        for order in sorted(orders):
            bundle = BundleRoots(rng.randint(1, top // 2), rng.choice((None, "F")))
            cases.append((KClass.bundle(bundle, top), order))
    A, B = BundleRoots(2, "A"), BundleRoots(1, "B")
    for top, order in ((8, 13), (12, 9), (16, 6)):
        cases.append((KClass(((A, 2), (B, -1)), shift=3, top=top), order))
    return cases


def test_witten_element_matches_factor_product():
    for E, order in tower_cases():
        assert_same_slots(witten_element(E, order), referee.witten_tower(E, order))


def test_twist_towers_match_factor_products():
    for E, order in tower_cases():
        for variant in ("R", "R1", "R2"):
            assert_same_slots(r_variants(E, variant, order),
                              referee.twist_tower(E, variant, order))


def test_memoized_towers_match_the_referee_in_any_order_sequence():
    # the rows of a key are built once and then grown or sliced: orders
    # in shuffled, descending and repeated sequences, keys interleaved
    from genusforge import series

    series._PREFIX_ROWS.clear()
    rng = random.Random(21)
    cases = []
    for top in (4, 8, 12, 16):
        cap = 9 if top <= 8 else 5
        bundle = BundleRoots(rng.randint(1, top // 2), rng.choice((None, "F")))
        for kind in ("witten", "R", "R1", "R2"):
            orders = rng.choice(([6, 2, 9, 4], [9, 7, 3, 1], [5, 5, 2, 5]))
            cases += [(KClass.bundle(bundle, top), kind, min(o, cap)) for o in orders]
    rng.shuffle(cases)
    for E, kind, order in cases:
        if kind == "witten":
            assert_same_slots(witten_element(E, order), referee.witten_tower(E, order))
        else:
            assert_same_slots(r_variants(E, kind, order), referee.twist_tower(E, kind, order))


def test_changing_a_returned_tower_leaves_the_next_one_unchanged():
    E = KClass.bundle(BundleRoots(2, "F"), 8)
    want = referee.witten_tower(E, 5)
    got = witten_element(E, 5)
    for c in got.coeffs:
        c.terms.clear()
    assert_same_slots(witten_element(E, 5), want)
    assert_same_slots(witten_element(E, 3), referee.witten_tower(E, 3))


def test_tower_log_is_the_eisenstein_lambert_series():
    # Witten: h_k = sum sigma_(2k-1)(n) q^n; R: twice the odd-divisor sums
    order = 25
    witten, twist = tower_log("witten", order, 16), tower_log("R", order, 16)
    for k in range(1, 5):
        for n in range(1, 13):
            divisors = [d for d in range(1, n + 1) if n % d == 0]
            assert witten[k - 1][2 * n] == sum(d ** (2 * k - 1) for d in divisors)
            assert twist[k - 1][2 * n] == 2 * sum(d ** (2 * k - 1) for d in divisors if d % 2)
            assert witten[k - 1][2 * n - 1] == twist[k - 1][2 * n - 1] == 0


def test_tower_values_are_the_summed_tower_log_rows():
    # the rows at 300 slots are exact past any tol used here; each value
    # may differ by its tail bound plus the rounding of its summed factors
    for tau in (0.5j, 0.8j, 0.3 + 0.35j, -0.2 + 0.6j):
        x = cmath.exp(1j * math.pi * tau)
        for tower in ("witten", "R", "R1", "R2"):
            want = [exact_value(row, x) for row in tower_log(tower, 300, 16)]
            for e in range(8, 49):
                tol = 10 ** (-e / 4)
                for top in (4, 8, 12, 16):
                    got = tower_values(tower, x, top, tol)
                    assert len(got) == top // 4
                    for k, (a, b) in enumerate(zip(got, want), 1):
                        assert abs(a - b) <= tol + 4e-15 * max(1.0, abs(b)), (tau, tower, tol, k)


def test_tower_slots_is_the_first_window_under_the_stated_bound():
    # the tail bound of tower_values, 2 r^N A_n(r^N) / ((1 - r) (1 - r^N)^(n + 1)),
    # with its Eulerian quotient summed directly as sum_i i^n r^(N i)
    def bound(r, n, slots):
        if slots < 1:
            return math.inf
        p, total, i = r**slots, 0.0, 1
        while True:
            term = i**n * p**i
            total += term
            if term < 1e-30 * total:
                return 2 * total / (1 - r)
            i += 1

    for im in (0.05, 0.2, 0.5, 1.0, 2.0):
        r = math.exp(-math.pi * im)
        for top in (4, 8, 12, 16):
            for tol in (1e-3, 1e-8, 1e-12):
                slots = tower_slots(r, top, tol)
                n = 2 * (top // 4) - 1
                assert bound(r, n, slots) <= tol < bound(r, n, slots - 1), (im, top, tol)
    assert tower_values("R", 0.3, 3, 1e-12) == []
    assert tower_slots(0.0, 16, 1e-12) == 1
    with pytest.raises(ValueError):
        tower_slots(1.0, 8, 1e-12)


# -- tensor characters ------------------------------------------------------


def test_tensor_character_is_product_of_characters():
    top = 8
    A = BundleRoots(1, "A")
    B = BundleRoots(1, "B")
    tensor = ch_tensor_pair(A, B, top)
    assert tensor == ch(KClass.bundle(A, top)) * ch(KClass.bundle(B, top))


def test_tensor_character_matches_explicit_roots():
    top = 12
    tensor = ch_tensor_pair(BundleRoots(1, "A"), BundleRoots(1, "B"), top)
    got = graded_to_mpoly(tensor, {"A": [0], "B": [1]}, 2, top)
    cha = mexp_scaled(2, top, 0, 1).add(mexp_scaled(2, top, 0, -1))
    chb = mexp_scaled(2, top, 1, 1).add(mexp_scaled(2, top, 1, -1))
    assert got == cha.mul(chb)


def test_tensor_character_needs_single_pairs():
    with pytest.raises(DimensionError):
        ch_tensor_pair(BundleRoots(2, "A"), BundleRoots(1, "B"), 8)
