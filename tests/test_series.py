"""Series arithmetic against naive dict-based reference implementations."""

import random
from fractions import Fraction

import pytest

from genusforge.errors import (
    GridError,
    NonUnitError,
    RingMismatchError,
    SchemaError,
    TruncationError,
)
from genusforge.rings import LAURENT, RATIONAL, LaurentZ, laurent_add, laurent_mul
from genusforge.series import QSeries

from oracles import dexp, dinv, dlog, dmul, dproduct, wadd, wmul

HALF = Fraction(1, 2)


def qs(terms, order, offset=0, ring=RATIONAL):
    return QSeries.from_terms(ring, terms, order, offset=offset)


def as_dict(s):
    return {e: c for e, c in s.terms()}


def random_series(rng, order, offset=0, allow_zero_lead=True):
    coeffs = []
    for _ in range(order):
        if rng.random() < 0.4:
            coeffs.append(Fraction(0))
        else:
            coeffs.append(Fraction(rng.randint(-6, 6), rng.randint(1, 5)))
    if not allow_zero_lead and (not coeffs or not coeffs[0]):
        if not coeffs:
            coeffs = [Fraction(1)]
        coeffs[0] = Fraction(rng.randint(1, 5))
    return QSeries(RATIONAL, offset, coeffs, order)


# -- construction and the exponent grid -------------------------------------


def test_grid_rejects_off_grid_exponents():
    with pytest.raises(GridError):
        qs({Fraction(1, 3): 1}, 4)


def test_window_rejects_terms_beyond_order():
    with pytest.raises(TruncationError):
        qs({Fraction(5, 2): 1}, 4)


def test_offset_carries_prefactor_exponents():
    s = qs({Fraction(1, 8): 1, Fraction(9, 8): -1}, 4, offset=Fraction(1, 8))
    assert s.coefficient(Fraction(1, 8)) == 1
    assert s.coefficient(Fraction(9, 8)) == -1
    # below the offset the series is identically zero
    assert s.coefficient(Fraction(0)) == 0


def test_coefficient_beyond_window_is_an_error():
    s = qs({0: 1}, 2)
    with pytest.raises(TruncationError):
        s.coefficient(Fraction(3, 2))


def test_hash_is_refused():
    with pytest.raises(TypeError):
        hash(qs({0: 1}, 2))


# -- multiplication ---------------------------------------------------------


def test_mul_difference_of_squares():
    one_plus = qs({0: 1, 1: 1}, 6)
    one_minus = qs({0: 1, 1: -1}, 6)
    assert as_dict(one_plus * one_minus) == {Fraction(0): 1, Fraction(2): -1}


def test_mul_offsets_add():
    eighth = QSeries(RATIONAL, Fraction(1, 8), [Fraction(1)], 4)
    prod = eighth * eighth
    assert prod.offset == Fraction(1, 4)
    assert prod.coefficient(Fraction(1, 4)) == 1


def test_truncated_euler_product_matches_pentagonal_pattern():
    # prod over n <= 4 of (1 - q^n), checked against the naive dict product
    factors = [{Fraction(0): Fraction(1), Fraction(n): Fraction(-1)} for n in range(1, 5)]
    expect = dproduct(factors, Fraction(5))
    series = QSeries.one(RATIONAL, 10)
    for n in range(1, 5):
        series = series * qs({0: 1, n: -1}, 10)
    got = {e: c for e, c in series.terms() if e < 5}
    assert got == expect
    # the pattern below q^5 agrees with the full expansion 1 - q - q^2 + ...
    assert [series.coefficient(k) for k in range(5)] == [1, -1, -1, 0, 0]


def test_mul_matches_dict_oracle_on_random_series():
    rng = random.Random(20240817)
    for _ in range(25):
        a = random_series(rng, rng.randint(1, 9))
        b = random_series(rng, rng.randint(1, 9))
        prod = a * b
        expect = dmul(as_dict(a), as_dict(b), prod.end_exponent)
        assert as_dict(prod) == expect


def test_mul_ring_mismatch():
    with pytest.raises(RingMismatchError):
        qs({0: 1}, 2) * QSeries.one(LAURENT, 2)


def test_ring_axioms_on_random_series():
    rng = random.Random(94301)
    for _ in range(20):
        order = rng.randint(2, 7)
        a = random_series(rng, order)
        b = random_series(rng, order)
        c = random_series(rng, order)
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a + b) + c == a + (b + c)


# -- addition windows -------------------------------------------------------


def test_add_takes_window_intersection():
    a = qs({0: 1}, 8)
    b = QSeries(RATIONAL, 1, [Fraction(2), Fraction(0), Fraction(3)], 4)
    total = a + b
    assert total.offset == 0
    # b's knowledge ends at exponent 3, so the sum must too
    assert total.end_exponent == Fraction(3)
    assert as_dict(total) == {Fraction(0): 1, Fraction(1): 2, Fraction(2): 3}


# -- inversion --------------------------------------------------------------


def test_inv_geometric_series():
    s = qs({0: 1, 1: -1}, 8)
    assert [s.inv().coefficient(k) for k in range(4)] == [1, 1, 1, 1]


def test_inv_is_involution_on_random_units():
    rng = random.Random(555)
    for _ in range(15):
        a = random_series(rng, rng.randint(1, 8), allow_zero_lead=False)
        assert a.inv().inv() == a


def test_inv_times_self_is_one():
    rng = random.Random(77)
    for _ in range(15):
        a = random_series(rng, rng.randint(1, 8), allow_zero_lead=False)
        prod = a * a.inv()
        assert prod == QSeries.one(RATIONAL, prod.order)


def test_inv_matches_dict_oracle():
    rng = random.Random(31337)
    for _ in range(10):
        a = random_series(rng, rng.randint(2, 8), allow_zero_lead=False)
        inv = a.inv()
        expect = dinv(as_dict(a), inv.end_exponent)
        assert as_dict(inv) == {e: c for e, c in expect.items() if c}


def test_inv_of_laurent_coefficient_series():
    # 1/(1 - q z) expands to the sum of q^n z^n
    z = LaurentZ.monomial(1)
    s = QSeries.from_terms(LAURENT, {0: LaurentZ.monomial(0), 1: -z}, 8)
    inv = s.inv()
    back = s * inv
    assert back == QSeries.one(LAURENT, 8)
    for n in range(4):
        assert inv.coefficient(n) == LaurentZ.monomial(n)


def test_inv_zero_series_fails():
    with pytest.raises(NonUnitError):
        QSeries.zero(RATIONAL, 4).inv()


def test_inv_nonunit_laurent_lead_fails():
    two_terms = LaurentZ({0: 1, 1: 1})
    s = QSeries.from_terms(LAURENT, {0: two_terms}, 4)
    with pytest.raises(NonUnitError):
        s.inv()


# -- Laurent coefficients ---------------------------------------------------


def random_laurent(rng):
    """A sparse {exponent: coefficient} map in scrambled key order, zeros included."""
    keys = rng.sample(range(-9, 10), rng.randint(0, 6))
    return {e: rng.choice([0, rng.randint(-5, 5), Fraction(rng.randint(-5, 5), rng.randint(1, 4))])
            for e in keys}


def test_laurent_terms_are_ascending_and_zero_free():
    lz = LaurentZ({5: 2, -3: Fraction(1, 2), 0: 0, 1: -1, -7: Fraction(4, 2)})
    assert list(lz.items()) == [(-7, 2), (-3, Fraction(1, 2)), (1, -1), (5, 2)]
    assert not LaurentZ({2: 0, -1: Fraction(0)})
    assert (lz * LaurentZ({4: 1, -4: 1})).terms == {-11: 2, -7: Fraction(1, 2), -3: 1,
                                                    1: Fraction(5, 2), 5: -1, 9: 2}
    assert [e for e, _ in (lz + LaurentZ({-20: 1, 20: 1, 1: 1})).items()] == [-20, -7, -3, 5, 20]
    assert [e for e, _ in lz.subst_pow(-2).items()] == [-10, -2, 6, 14]
    rng = random.Random(1618)
    for _ in range(40):
        exps = [e for e, _ in LaurentZ(random_laurent(rng)).items()]
        assert exps == sorted(exps)


def test_laurent_int_and_fraction_coefficients_are_one_polynomial():
    a = LaurentZ({-2: 3, 4: 1})
    b = LaurentZ({4: Fraction(1), -2: Fraction(6, 2)})
    assert a == b and hash(a) == hash(b)
    assert LaurentZ._trusted({4: 1, -2: 3}) == b
    assert hash(LaurentZ._trusted({4: Fraction(1), -2: 3})) == hash(a)
    assert LaurentZ({0: Fraction(5)}) == 5
    assert hash(LaurentZ.monomial(0, 4)) == hash(a.subst_pow(0))


@pytest.mark.parametrize("bad, error", [
    (1.5, RingMismatchError), (1.0, RingMismatchError), (None, RingMismatchError),
    (True, SchemaError), (False, SchemaError),
])
def test_laurent_refuses_inexact_coefficients(bad, error):
    with pytest.raises(error):
        LaurentZ({0: 1, 3: bad})
    with pytest.raises(error):
        LaurentZ.monomial(2, bad)
    with pytest.raises(error):
        LAURENT.coerce(bad)


def test_laurent_product_and_sum_match_dict_oracle():
    rng = random.Random(2718)
    for _ in range(60):
        a, b = random_laurent(rng), random_laurent(rng)
        want_mul = wmul(a, b)
        want_add = wadd(a, b)
        assert laurent_mul({e: c for e, c in a.items() if c},
                           {e: c for e, c in b.items() if c}) == want_mul
        assert laurent_add({e: c for e, c in a.items() if c},
                           {e: c for e, c in b.items() if c}) == want_add
        assert LaurentZ(a) * LaurentZ(b) == LaurentZ(want_mul)
        assert LaurentZ(a) + LaurentZ(b) == LaurentZ(want_add)
        assert (LaurentZ(a) - LaurentZ(b)).terms == wadd(a, {e: -c for e, c in b.items()})
        assert list((LaurentZ(a) * LaurentZ(b)).terms) == sorted(want_mul)


def test_laurent_product_of_wide_gaps_is_the_same_ascending_map():
    # spans wider than the term pairs are multiplied term by term, not convolved dense
    rng = random.Random(3141)
    for scale in (1, 7, 1000):
        for _ in range(30):
            a = {e * scale: c for e, c in random_laurent(rng).items() if c}
            b = {e * scale + rng.randint(-2, 2): c for e, c in random_laurent(rng).items() if c}
            got = laurent_mul(a, b)
            assert got == wmul(a, b)
            assert list(got) == sorted(got) and all(got.values())
    # w^s - w^-s times w^s + w^-s cancels its middle term
    s = 1001
    assert list(laurent_mul({s: 1, -s: -1}, {-s: 1, s: 1}).items()) == [(-2 * s, -1), (2 * s, 1)]


# -- exp and log ------------------------------------------------------------


def test_log_mercator():
    s = qs({0: 1, 1: 1}, 8)
    expect = [Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(1, 3)]
    assert [s.log().coefficient(k) for k in range(4)] == expect


def test_exp_exponential_series():
    s = qs({1: 1}, 10)
    got = [s.exp().coefficient(k) for k in range(5)]
    assert got == [Fraction(1), Fraction(1), Fraction(1, 2), Fraction(1, 6), Fraction(1, 24)]


def test_exp_log_round_trip_fixed():
    s = qs({0: 1, 1: -1, 2: 1}, 8)
    assert s.log().exp() == s


def test_exp_log_round_trips_random():
    rng = random.Random(271828)
    for _ in range(15):
        order = rng.randint(2, 8)
        a = random_series(rng, order)
        # exp needs zero constant term
        if a.coefficient(0):
            a = a - qs({0: a.coefficient(0)}, order)
        e = a.exp()
        assert e.log() == a.truncated(e.order)
        expect = dexp(as_dict(a), e.end_exponent)
        assert as_dict(e) == expect


def test_log_matches_dict_oracle():
    rng = random.Random(161803)
    for _ in range(15):
        order = rng.randint(2, 8)
        a = random_series(rng, order)
        shift = QSeries.one(RATIONAL, order) - qs({0: a.coefficient(0)}, order)
        a = a + shift  # force constant term 1
        lg = a.log()
        expect = dlog(as_dict(a), lg.end_exponent)
        assert as_dict(lg) == expect


def test_exp_requires_zero_constant_term():
    with pytest.raises(ValueError):
        qs({0: 1, 1: 1}, 4).exp()


def test_log_requires_constant_term_one():
    with pytest.raises(ValueError):
        qs({0: 2}, 4).log()


def test_exp_refused_outside_exact_rings():
    s = QSeries.from_terms(LAURENT, {1: LaurentZ.monomial(1)}, 4)
    with pytest.raises(RingMismatchError):
        s.exp()


# -- reshaping helpers ------------------------------------------------------


def test_truncated_shrinks_only():
    s = qs({0: 1, 2: 5}, 8)
    t = s.truncated(3)
    assert t.end_exponent == Fraction(3, 2)
    with pytest.raises(TruncationError):
        t.truncated(8)


def test_shifted_moves_offset():
    s = qs({0: 1, 1: 1}, 4)
    moved = s.shifted(Fraction(1, 8))
    assert moved.offset == Fraction(1, 8)
    assert moved.coefficient(Fraction(9, 8)) == 1


def test_alternate_half_signs_flips_odd_slots():
    s = QSeries.from_terms(RATIONAL, {Fraction(1, 2): 3, 1: 5, Fraction(3, 2): 7}, 6)
    flipped = s.alternate_half_signs()
    assert flipped.coefficient(Fraction(1, 2)) == -3
    assert flipped.coefficient(1) == 5
    assert flipped.coefficient(Fraction(3, 2)) == -7


def test_equality_uses_normalization():
    a = QSeries(RATIONAL, 0, [Fraction(0), Fraction(0), Fraction(1)], 6)
    b = QSeries(RATIONAL, 1, [Fraction(1)], 4)
    # same known window end and same terms after stripping leading zeros
    assert a.normalized() == b.normalized()


# -- the one prefix memo of the exact row tables ------------------------------


def _held():
    from genusforge import series

    return sum(entry[2] for entry in series._PREFIX_ROWS.values())


def _point(m, n=None):
    from genusforge.equivariant import FixedComponent

    return FixedComponent(0, 1, 0, 0, [(1, m)], [(1, n)] if n else [], numbers={"1": 1})


def test_one_prefix_memo_holds_tower_and_moving_rows_under_one_bound(monkeypatch):
    from genusforge import series
    from genusforge.charclass import BundleRoots, CharNumbers
    from genusforge.equivariant import _component_rows
    from genusforge.genus import witten_genus
    from genusforge.ktheory import KClass, witten_element

    memo, cap = series._PREFIX_ROWS, 40
    monkeypatch.setattr(series, "PREFIX_CAP", cap)
    memo.clear()
    numbers = CharNumbers(4, {"p1": Fraction(3)})
    first, first_rows = witten_genus(numbers, 3), _component_rows(_point(1), "G", 6)
    tower_key = ("tower", 4, True, ((2, None, "ahat", "witten", 1),))
    moving_key = ("moving", (None, ((1, 1),), ()))
    for i in range(40):
        # single-pair towers under fresh bundle names and fresh speeds are
        # distinct, cheap keys of both kinds, interleaved
        witten_element(KClass.bundle(BundleRoots(1, f"B{i}"), 4), 2)
        _component_rows(_point(i + 2), "G", 6)
        assert _held() <= cap
        if i % 4 == 0:
            witten_genus(numbers, 2)  # used keys stay
            _component_rows(_point(1), "G", 5)
    # the least recently used keys of each kind left, the used ones stayed
    assert tower_key in memo and moving_key in memo
    assert ("tower", 4, False, ((1, "B0", None, "witten", 1),)) not in memo
    assert ("moving", (None, ((1, 2),), ())) not in memo
    assert _held() > cap - 10  # nothing left that the bound did not need to evict
    # the keys carry their tag, so the two kinds never collide, and every
    # held table is tuples: (rows, den) for a tower, rows for a moving key
    assert {key[0] for key in memo} == {"tower", "moving"}
    for key, (_, table, _) in memo.items():
        rows = table if key[0] == "moving" else table[0]
        assert type(rows) is tuple
        assert all(type(row if key[0] == "moving" else row[1]) is tuple for row in rows)
    same = ("payload",)
    assert series.prefix_rows(("tower",) + same, 1, lambda order: ("t", 1)) == "t"
    assert series.prefix_rows(("moving",) + same, 1, lambda order: ("m", 1)) == "m"
    assert series.prefix_rows(("tower",) + same, 1, lambda order: ("x", 1)) == "t"
    # a table past the bound is returned but not held, and evicts nothing
    before = list(memo)
    big = _component_rows(_point(3, 2), "G", 30)[0]
    assert sum(map(len, big)) > cap and list(memo) == before
    sixteen = CharNumbers(16, {k: Fraction(1) for k in ("p1^4", "p1^2*p2", "p2^2", "p1*p3", "p4")})
    witten_genus(sixteen, 20)
    assert list(memo) == before
    # the answers after the evictions are the cold ones
    assert list(witten_genus(numbers, 3).coeffs) == list(first.coeffs)
    assert _component_rows(_point(1), "G", 6) == first_rows
    memo.clear()


def test_both_benchmark_mixes_fit_in_the_prefix_memo_at_their_largest_orders(monkeypatch):
    # every (dim, splitting, job kind) of the genus-towers workload and every
    # speed signature of the equivariant-exact workload, each at the largest
    # order its jobs ask for, built into one unbounded memo: together they
    # must fit the bound
    import importlib.util
    import pathlib
    import warnings

    from genusforge import genus, series
    from genusforge.charclass import CharNumbers
    from genusforge.equivariant import EquivariantModel, FixedComponent, exact_series
    from genusforge.genus import (IntegralityWarning, SplitManifoldSpec, ahat_genus, l_genus,
                                  split_genus, subdirac_index, witten_genus)
    from genusforge.ktheory import KClass, witten_element

    from oracles import split_monomials

    path = pathlib.Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    cap = series.PREFIX_CAP
    monkeypatch.setattr(series, "PREFIX_CAP", 10**9)
    series._PREFIX_ROWS.clear()
    genus._top_products.cache_clear()

    mix = workloads.GenusTowers
    assert {job.kind for job in mix().make_round(0)} == set(mix.SERIES) | {"ahat", "l"}
    order = max(hi for _, hi in mix.ORDER_BINS)
    for dim in mix.DIMS:
        tangent = workloads.untagged_monomials(dim)
        numbers = CharNumbers(dim, dict.fromkeys(tangent, 1))
        witten_genus(numbers, order)
        ahat_genus(numbers)
        l_genus(numbers)
        for p in range(dim // 2 + 1):
            r = dim // 2 - p
            split = SplitManifoldSpec(dim, p, r, dict.fromkeys(split_monomials(dim, p, r), 1))
            for variant in ("R", "R1", "R2"):
                split_genus(split, variant, order)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", IntegralityWarning)
                subdirac_index(split, psi=witten_element(KClass.bundle(split.F, dim), order))
    towers = _held()

    speeds = range(1, 4)  # point_model's default max_speed
    for function, (_, top), _, rank in workloads.EquivariantExact.MODEL_JOBS:
        for m in speeds:
            for n in speeds if function != "H" else (None,):
                comp = FixedComponent(0, 1, 0, 0, [(rank, m)], [(rank, n)] if n else [],
                                      numbers={"1": 1})
                mode = "foliated" if function == "H" else "split"
                exact_series(EquivariantModel(mode, rank, rank if n else 0, 0, [comp]),
                             function, top)
    kinds = {key[0] for key in series._PREFIX_ROWS}
    assert kinds == {"tower", "moving"}
    assert 0 < towers < _held() <= cap
    series._PREFIX_ROWS.clear()
