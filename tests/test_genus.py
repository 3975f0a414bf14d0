"""Index densities, the Witten genus, and the three split twists."""

import contextlib
import random
import warnings
from fractions import Fraction

import pytest

from genusforge.charclass import (
    BundleRoots,
    CharNumbers,
    GradedPoly,
    genus_sequence,
    pair_fundamental,
    parse_monomial,
)
from genusforge.errors import MissingNumberError, SchemaError
from genusforge.genus import (
    IntegralityWarning,
    SplitManifoldSpec,
    ahat_poly,
    index_density,
    l_poly,
    split_genus,
    subdirac_index,
    witten_genus,
)
from genusforge.ktheory import KClass, witten_element
from genusforge.series import QSeries

from oracles import (MPoly, naive_witten, partitions, qm_clean, qm_mul, split_monomials,
                     term_strings)
import referee

Q = Fraction


@contextlib.contextmanager
def no_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegralityWarning)
        yield


K3 = SplitManifoldSpec(4, 2, 0, {"p1(F)": "-48/1"}, f_spin=True, m_spin=True)


def test_spec_validation():
    with pytest.raises(SchemaError):
        SplitManifoldSpec(4, 1, 0, {})
    # index above the pair count of its block
    with pytest.raises(SchemaError):
        SplitManifoldSpec(8, 1, 1, {"p2(F)": 1})
    # untagged numbers do not belong to a splitting
    with pytest.raises(SchemaError):
        SplitManifoldSpec(4, 2, 0, {"p1": 1})
    with pytest.raises(SchemaError):
        SplitManifoldSpec(4, 2, 0, CharNumbers(8, {"p2": 1}))


def test_spec_json_round_trip():
    blob = K3.to_json()
    assert blob == {
        "dim": 4,
        "f_pairs": 2,
        "fperp_pairs": 0,
        "numbers": {"p1(F)": "-48/1"},
        "f_spin": True,
        "m_spin": True,
    }
    again = SplitManifoldSpec.from_json(blob)
    assert again.to_json() == blob
    with pytest.raises(SchemaError):
        SplitManifoldSpec.from_json({"dim": 4})
    with pytest.raises(SchemaError):
        SplitManifoldSpec.from_json([4, 2, 0])


def test_density_reduces_to_one_factor():
    spec = SplitManifoldSpec(8, 4, 0, {"p1(F)^2": 0, "p2(F)": 0})
    assert index_density(spec) == ahat_poly(spec.F, 8)
    spec = SplitManifoldSpec(8, 0, 4, {"p1(Fperp)^2": 0, "p2(Fperp)": 0})
    assert index_density(spec) == l_poly(spec.Fperp, 8)


def test_density_k3_strings():
    assert term_strings(index_density(K3)) == {"1": "1/1", "p1(F)": "-1/24"}


def _one_slot(c):
    """A static class as the one-slot series twist of its degree."""
    return QSeries(GradedPoly({}, c.top), 0, [c], 1)


def test_density_static_twist():
    top = 4
    c = GradedPoly.constant(2, top) + GradedPoly.generator("p", "Fperp", 1, top)
    spec = SplitManifoldSpec(4, 1, 1, {"p1(F)": 0, "p1(Fperp)": 5})
    got = index_density(spec, psi=_one_slot(c))
    base = ahat_poly(spec.F, top) * l_poly(spec.Fperp, top)
    assert got == _one_slot(base * c)


def test_twist_is_one_series_of_top_degree_classes():
    spec = SplitManifoldSpec(4, 1, 1, {"p1(F)": 0, "p1(Fperp)": 5})
    refused = (GradedPoly.constant(1, 4), QSeries.one(Fraction(0), 3), "witten",
               _one_slot(GradedPoly.constant(1, 8)))
    for fn in (index_density, subdirac_index):
        for psi in refused:
            with pytest.raises(SchemaError):
                fn(spec, psi=psi)
        with pytest.raises(TypeError):
            fn(spec, phi=_one_slot(GradedPoly.constant(1, 4)))


def test_subdirac_k3_is_two():
    with no_warn():
        assert subdirac_index(K3) == Q(2)


def test_subdirac_low_degree_vanishes():
    # a 2-sphere block: no degree-2 monomials exist, so the pairing is 0
    s2 = SplitManifoldSpec(2, 1, 0, {}, f_spin=False, m_spin=True)
    with no_warn():
        assert subdirac_index(s2) == Q(0)


def test_integrality_warnings():
    cp2ish = SplitManifoldSpec(4, 2, 0, {"p1(F)": 3})
    with pytest.warns(IntegralityWarning, match="not guaranteed"):
        assert subdirac_index(cp2ish) == Q(-1, 8)
    # spin flags promise an integer the numbers cannot deliver
    lying = SplitManifoldSpec(4, 2, 0, {"p1(F)": 3}, f_spin=True)
    with pytest.warns(IntegralityWarning, match="inconsistent"):
        subdirac_index(lying)
    # r = 0 with a spin total space is enough, no warning
    flat = SplitManifoldSpec(4, 2, 0, {"p1(F)": -48}, m_spin=True)
    with no_warn():
        assert subdirac_index(flat) == Q(2)


def test_classical_genera():
    from genusforge.genus import ahat_genus, l_genus

    assert ahat_genus(CharNumbers(4, {"p1": -48})) == Q(2)
    assert l_genus(CharNumbers(4, {"p1": 3})) == Q(1)
    assert ahat_genus(CharNumbers(4, {"p1": 3})) == Q(-1, 8)
    assert ahat_genus(CharNumbers(2, {})) == Q(0)
    assert ahat_genus(CharNumbers(0, {"1": 1})) == Q(1)
    # HP^2 (p1^2 = 4, p2 = 7) and CP^4 (p1^2 = 25, p2 = 10)
    hp2 = CharNumbers(8, {"p1^2": 4, "p2": 7})
    assert (ahat_genus(hp2), l_genus(hp2)) == (0, 1)
    assert l_genus(CharNumbers(8, {"p1^2": 25, "p2": 10})) == 1


def test_witten_point():
    series = witten_genus(CharNumbers(0, {"1": 1}), 9)
    assert [series.coefficient(Q(k, 2)) for k in range(8)] == [1, 0, 0, 0, 0, 0, 0, 0]


def test_witten_k3_leading_terms():
    series = witten_genus(CharNumbers(4, {"p1": -48}), 9)
    assert [series.coefficient(k) for k in range(4)] == [2, -48, -144, -192]


def test_witten_q1_is_p1_number():
    rng = random.Random(2718)
    for _ in range(5):
        n = Q(rng.randint(-60, 60))
        series = witten_genus(CharNumbers(4, {"p1": n}), 5)
        assert series.coefficient(0) == -n / 24
        assert series.coefficient(1) == n


def ahat_mpoly(nvars, top):
    """prod_i (1 - x_i^2/24 + 7 x_i^4/5760) in weight-2 root variables."""
    out = MPoly.const(nvars, 2, top, 1)
    for i in range(nvars):
        f = MPoly.const(nvars, 2, top, 1)
        f = f.add(MPoly.var(nvars, 2, top, i, 2).scale(Q(-1, 24)))
        f = f.add(MPoly.var(nvars, 2, top, i, 4).scale(Q(7, 5760)))
        out = out.mul(f)
    return out


def test_witten_matches_root_level_oracle():
    # dim 4 with two root pairs: the degree-4 part of the density is a
    # multiple of p1 = x0^2 + x1^2, so the genus slot is (that multiple)
    # times the p1 number.  Cross-multiplied entirely at the root level.
    q_end = Q(4)
    density = qm_mul(
        naive_witten(2, 4, [0, 1], q_end),
        {Q(0): ahat_mpoly(2, 4)},
        q_end,
    )
    density = qm_clean(density)
    n = Q(-48)
    series = witten_genus(CharNumbers(4, {"p1": n}), 8)
    for k in range(4):
        poly = density.get(Q(k), MPoly(2, 2, 4, {}))
        assert (1, 1) not in poly.terms
        alpha = poly.terms.get((2, 0), Q(0))
        assert poly.terms.get((0, 2), Q(0)) == alpha
        assert series.coefficient(k) == alpha * n


def test_witten_missing_number_errors():
    with pytest.raises(MissingNumberError):
        witten_genus(CharNumbers(4, {}), 5)


def test_split_r_zero_reduces_to_witten():
    got = split_genus(K3, "R", 9)
    want = witten_genus(CharNumbers(4, {"p1": -48}), 9)
    assert [got.coefficient(Q(k, 2)) for k in range(8)] == [
        want.coefficient(Q(k, 2)) for k in range(8)
    ]


def test_split_leading_coefficients():
    # closed forms for dim 4, one pair each side, from the degree-4 part
    # of the base classes: q^0 of R is <Ahat(F) L(Fperp)> and q^0 of
    # R1/R2 is <Ahat(F) Ahat(Fperp)>; the first half-power picks up the
    # Lambda line, giving +-p1(Fperp).
    for a, b in ((Q(-24), Q(-24)), (Q(24), Q(-72)), (Q(0), Q(12))):
        spec = SplitManifoldSpec(4, 1, 1, {"p1(F)": a, "p1(Fperp)": b})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegralityWarning)
            r = split_genus(spec, "R", 5)
            r1 = split_genus(spec, "R1", 5)
            r2 = split_genus(spec, "R2", 5)
        assert r.coefficient(0) == -a / 24 + b / 3
        assert r.coefficient(Q(1, 2)) == 0
        assert r1.coefficient(0) == -a / 24 - b / 24
        assert r1.coefficient(Q(1, 2)) == b
        assert r2.coefficient(Q(1, 2)) == -b


def test_split_variant_half_sign_flip():
    spec = SplitManifoldSpec(4, 1, 1, {"p1(F)": -24, "p1(Fperp)": -24}, f_spin=True)
    r1 = split_genus(spec, "R1", 9)
    r2 = split_genus(spec, "R2", 9)
    assert r2 == r1.alternate_half_signs()
    with pytest.raises(ValueError):
        split_genus(spec, "R3", 5)


def test_split_zero_numbers_vanish():
    spec = SplitManifoldSpec(4, 1, 1, {"p1(F)": 0, "p1(Fperp)": 0}, f_spin=True, m_spin=True)
    for variant in ("R", "R1", "R2"):
        assert split_genus(spec, variant, 9).is_zero()


def test_density_series_subdirac_matches_witten():
    psi = witten_element(KClass.bundle(K3.F, 4), 9)
    with no_warn():
        series = subdirac_index(K3, psi=psi)
    want = witten_genus(CharNumbers(4, {"p1": -48}), 9)
    assert series == want


def test_witten_density_factorizes():
    # Ahat ch(Psi_q) of a sum of root blocks is the product of the factor
    # densities, as q-series with graded coefficients
    from genusforge.charclass import BundleRoots

    top = 8
    front = BundleRoots(2, "F")
    back = BundleRoots(2, "Fperp")
    F, P = KClass.bundle(front, top), KClass.bundle(back, top)
    order = 9
    base = ahat_poly(front, top) * ahat_poly(back, top)
    lhs = witten_element(F + P, order).map_coefficients(lambda c: c * base)
    rhs_f = witten_element(F, order).map_coefficients(lambda c: c * ahat_poly(front, top))
    rhs_p = witten_element(P, order).map_coefficients(lambda c: c * ahat_poly(back, top))
    assert lhs == rhs_f * rhs_p


def test_pairing_against_explicit_density():
    # recompute the K3 subdirac index by hand from the density strings
    density = index_density(K3)
    val = pair_fundamental(density, K3.numbers)
    assert val == Q(-1, 24) * Q(-48)


# -- closed-form genera against the per-factor referee ------------------------


def tangent_keys(dim):
    return ["*".join(f"p{k}" for k in part) or "1" for part in partitions(dim // 4, dim)]


def _table(rng, keys):
    return {k: Q(rng.choice([-1, 1]) * rng.randint(1, 99), rng.choice([1, 1, 2, 3]))
            for k in keys}


def test_witten_genus_matches_referee_pairing():
    rng = random.Random(31)
    for dim in (0, 4, 8, 12, 16, 6):
        numbers = CharNumbers(dim, _table(rng, tangent_keys(dim)) if dim % 4 == 0 else {})
        for order in (1, 2, rng.randint(3, 24 if dim <= 8 else 12)):
            got = witten_genus(numbers, order)
            want = referee.paired(referee.witten_density(dim, order), numbers)
            assert (got.offset, got.order, list(got.coeffs)) == (0, order, want), (dim, order)


def test_split_genus_matches_referee_pairing():
    rng = random.Random(32)
    for dim in (4, 4, 8, 8, 12, 12, 16):
        p = rng.randint(0, dim // 2)
        r = dim // 2 - p
        spec = SplitManifoldSpec(dim, p, r, _table(rng, split_monomials(dim, p, r)))
        order = rng.randint(1, 20 if dim <= 8 else 10)
        for variant in ("R", "R1", "R2"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", IntegralityWarning)
                got = split_genus(spec, variant, order)
            density = referee.split_density(spec.F, spec.Fperp, variant, dim, order)
            want = referee.paired(density, spec.numbers)
            assert (got.offset, got.order, list(got.coeffs)) == (0, order, want), (spec, order)


class RecordingNumbers(CharNumbers):
    """A number table that records every monomial a pairing reads."""

    def __init__(self, dim, numbers):
        super().__init__(dim, numbers)
        self.read = set()

    def __getitem__(self, mono):
        self.read.add(mono)
        return super().__getitem__(mono)


def _raises_missing(fn):
    try:
        fn()
    except MissingNumberError:
        return True
    return False


def assert_reads_like_referee(density, dim, full, compute, pair=referee.paired):
    """Complete table, then each key dropped in turn: compute raises
    MissingNumberError exactly when pairing the referee density does, and
    otherwise reads the same numbers."""
    for drop in [None] + sorted(full):
        table = {k: v for k, v in full.items() if k != drop}
        want, got = RecordingNumbers(dim, table), RecordingNumbers(dim, table)
        want_raised = _raises_missing(lambda: pair(density, want))
        got_raised = _raises_missing(lambda: compute(got))
        assert got_raised == want_raised, drop
        if not want_raised:
            assert got.read == want.read, drop


def test_missing_numbers_raise_exactly_when_the_referee_reads_them():
    from genusforge.equivariant import FixedComponent, _static_series

    rng = random.Random(33)
    for dim in (8, 12, 16):
        order = rng.randint(1, 8)
        assert_reads_like_referee(
            referee.witten_density(dim, order), dim, _table(rng, tangent_keys(dim)),
            lambda nums: witten_genus(nums, order))
        p = rng.randint(0, dim // 2)
        r = dim // 2 - p
        full = _table(rng, split_monomials(dim, p, r))
        front, back = BundleRoots(p, "F"), BundleRoots(r, "Fperp")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegralityWarning)
            for variant in ("R", "R1", "R2"):
                density = referee.split_density(front, back, variant, dim, order)
                assert_reads_like_referee(
                    density, dim, full,
                    lambda nums: split_genus(SplitManifoldSpec(dim, p, r, nums), variant, order))
            for function, variant in (("G", "R"), ("G1", "R2"), ("G2", "R1")):
                density = referee.split_density(front, back, variant, dim, order)
                assert_reads_like_referee(
                    density, dim, full,
                    lambda nums: _static_series(FixedComponent(dim, 1, p, r, numbers=nums),
                                                function, order))


def test_classical_genera_pair_like_their_sequences():
    # the one-slot rows of a genus factor with no tower against the
    # GradedPoly sequence paired by pair_fundamental, at every dim to 24
    from genusforge.genus import ahat_genus, l_genus

    rng = random.Random(45)
    for dim in range(25):
        full = _table(rng, tangent_keys(dim) if dim % 4 == 0 else [])
        numbers = CharNumbers(dim, full)
        for factor, genus in (("ahat", ahat_genus), ("l", l_genus)):
            sequence = genus_sequence(factor, dim, bundle=None, pairs=dim // 2)
            assert genus(numbers) == pair_fundamental(sequence, numbers), (factor, dim)
            assert_reads_like_referee(sequence, dim, full, genus, pair=pair_fundamental)


def test_zero_order_reads_no_number():
    numbers = RecordingNumbers(8, {})
    assert witten_genus(numbers, 0).order == 0
    spec = SplitManifoldSpec(8, 2, 2, numbers)
    assert split_genus(spec, "R1", 0).order == 0
    assert numbers.read == set()


def test_a_vanishing_coefficient_reads_no_number():
    # f = exp(u - u^2/2) with u = a^2 has moments 1, -1/2, so the p1^2
    # terms of s_1^2/2 - s_2/2 cancel: at order 1 the density has no p1^2
    # term and p1^2 is never read; the Witten tower's q^1 slot brings it back
    from genusforge.charclass import genus_sequence
    from genusforge.genus import _paired_series

    factor = [1, 0, 1, 0, 0]
    tangent = BundleRoots(4, None)
    base = genus_sequence(factor, 8, bundle=None, pairs=4)
    assert parse_monomial("p1^2") not in base.terms
    for order in (1, 2, 3, 5):
        density = referee.witten_tower(KClass.bundle(tangent, 8), order).map_coefficients(
            lambda c: c * base)
        assert_reads_like_referee(
            density, 8, {"p2": Q(5), "p1^2": Q(-3)},
            lambda nums: _paired_series(nums, order, ((tangent, factor, "witten"),)))
    got = _paired_series(CharNumbers(8, {"p2": 5}), 2, ((tangent, factor, "witten"),))
    assert list(got.coeffs) == [5, 0]


# -- the cached walk and the top-degree sub-Dirac pairing ---------------------


def _drop(table, key):
    mono = parse_monomial(key)
    return {k: v for k, v in table.items() if parse_monomial(k) != mono}


def test_subdirac_matches_slotwise_pairing_of_the_full_density():
    rng = random.Random(41)
    cases = []
    for dim in (4, 8, 12, 16):
        for _ in range(2):
            p = rng.randint(0, dim // 2)
            cases.append((dim, p, rng.randint(1, 12)))
    cases.append((24, 5, 8))
    for dim, p, order in cases:
        r = dim // 2 - p
        spec = SplitManifoldSpec(dim, p, r, _table(rng, split_monomials(dim, p, r)))
        psi = witten_element(KClass.bundle(spec.F, dim), order)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegralityWarning)
            got = subdirac_index(spec, psi=psi)
            static = subdirac_index(spec, psi=_one_slot(psi.coeffs[-1]))
        want = [pair_fundamental(c, spec.numbers) for c in index_density(spec, psi=psi).coeffs]
        assert (got.offset, got.order, list(got.coeffs)) == (0, order, want), (dim, p, order)
        (density,) = index_density(spec, psi=_one_slot(psi.coeffs[-1])).coeffs
        assert list(static.coeffs) == [pair_fundamental(density, spec.numbers)]


def test_subdirac_pairs_right_when_no_base_row_is_held(monkeypatch):
    # a prefix memo that holds nothing and a product cache emptied before
    # every call: each product is read from a freshly built base key
    from genusforge import genus, series

    monkeypatch.setattr(series, "PREFIX_CAP", 0)
    series._PREFIX_ROWS.clear()
    rng = random.Random(44)
    for dim, order in ((4, 9), (8, 7), (12, 7), (16, 5), (20, 5), (24, 5)):
        p = rng.randint(1, dim // 2 - 1)
        r = dim // 2 - p
        spec = SplitManifoldSpec(dim, p, r, _table(rng, split_monomials(dim, p, r)))
        psi = witten_element(KClass.bundle(spec.F, dim), order)
        phi = witten_element(KClass.bundle(spec.Fperp, dim), order)
        static = psi.coeffs[-1] + GradedPoly.constant(rng.randint(1, 5), dim)
        # a static class is its one-slot series, and two twists are their product
        for twist in (_one_slot(static), psi, phi * static, psi * phi):
            genus._top_products.cache_clear()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", IntegralityWarning)
                got = subdirac_index(spec, psi=twist)
            want = [pair_fundamental(c, spec.numbers)
                    for c in index_density(spec, psi=twist).coeffs]
            assert (got.order, list(got.coeffs)) == (twist.order, want), (dim, p, twist.order)
        assert not series._PREFIX_ROWS


def test_cached_walks_match_the_referee_in_interleaved_order():
    # each (dim, splitting) comes back after others were built, so later
    # calls run on cached walks and moments
    rng = random.Random(42)
    cases = [("R", 8, 2, 4), ("witten", 8, 4, 5), ("R1", 4, 1, 6), ("R2", 8, 3, 3),
             ("witten", 4, 2, 7), ("R", 4, 2, 5)]
    densities = {}
    for kind, dim, p, order in cases * 2:
        key = (kind, dim, p, order)
        if kind == "witten":
            numbers = CharNumbers(dim, _table(rng, tangent_keys(dim)))
            if key not in densities:
                densities[key] = referee.witten_density(dim, order)
            got = witten_genus(numbers, order)
        else:
            r = dim // 2 - p
            spec = SplitManifoldSpec(dim, p, r, _table(rng, split_monomials(dim, p, r)))
            numbers = spec.numbers
            if key not in densities:
                densities[key] = referee.split_density(spec.F, spec.Fperp, kind, dim, order)
            got = split_genus(spec, kind, order)
        assert list(got.coeffs) == referee.paired(densities[key], numbers), key


def test_missing_numbers_raise_only_when_some_slot_needs_them():
    rng = random.Random(43)
    full = _table(rng, split_monomials(8, 2, 2))
    # psi cancels the p1(F)^2 term of Ahat(F) L(Fperp) in both of its slots
    p1sq = parse_monomial("p1(F)^2")
    base = ahat_poly(BundleRoots(2, "F"), 8) * l_poly(BundleRoots(2, "Fperp"), 8)
    c = GradedPoly.constant(1, 8) - GradedPoly({p1sq: base.terms[p1sq]}, 8)
    psi = QSeries(GradedPoly({}, 8), 0, [c, c * 3], 2)
    spec = SplitManifoldSpec(8, 2, 2, _drop(full, "p1(F)^2"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegralityWarning)
        got = subdirac_index(spec, psi=psi)
        want = [pair_fundamental(c, spec.numbers) for c in index_density(spec, psi=psi).coeffs]
        assert list(got.coeffs) == want
        short = SplitManifoldSpec(8, 2, 2, _drop(full, "p2(F)"))
        with pytest.raises(MissingNumberError):
            subdirac_index(short, psi=psi)
        with pytest.raises(MissingNumberError):
            split_genus(short, "R", 3)
    # split_genus's pairing with a factor whose log cancels p1(F)^2 at
    # order 1 (f = exp(u - u^2/2), as above) never needs the number; the
    # towers' q^1 slot at order 3 does
    from genusforge.genus import _paired_series

    towers = ((spec.F, [1, 0, 1, 0, 0], "witten"), (spec.Fperp, "l", "R"))
    got = _paired_series(spec.numbers, 1, towers)
    density = genus_sequence([1, 0, 1, 0, 0], 8, "F", 2) * l_poly(spec.Fperp, 8)
    assert list(got.coeffs) == [pair_fundamental(density, spec.numbers)]
    with pytest.raises(MissingNumberError):
        _paired_series(spec.numbers, 3, towers)


# -- the memoized numbers-free rows ------------------------------------------


def test_memoized_rows_match_the_cold_referee_in_any_order_sequence():
    # every key is built at some order and then served, grown and sliced
    # at orders in shuffled, descending and repeated sequences
    from genusforge import series

    series._PREFIX_ROWS.clear()
    rng = random.Random(44)
    sequences = ([5, 2, 7, 3], [7, 5, 3, 1], [4, 4, 2, 4])
    keys = []
    for dim in (4, 8, 12, 16):
        cap = 7 if dim <= 8 else 4
        numbers = CharNumbers(dim, _table(rng, tangent_keys(dim)))
        keys.append(("witten", dim, numbers, None))
        p = rng.randint(0, dim // 2)
        spec = SplitManifoldSpec(dim, p, dim // 2 - p,
                                 _table(rng, split_monomials(dim, p, dim // 2 - p)))
        keys += [(variant, dim, spec.numbers, spec) for variant in ("R", "R1", "R2")]
        for kind, _, numbers, spec in keys[-4:]:
            orders = [min(order, cap) for order in rng.choice(sequences)]
            for order in orders:
                if kind == "witten":
                    got = witten_genus(numbers, order)
                    density = referee.witten_density(dim, order)
                else:
                    got = split_genus(spec, kind, order)
                    density = referee.split_density(spec.F, spec.Fperp, kind, dim, order)
                want = referee.paired(density, numbers)
                assert (got.order, list(got.coeffs)) == (order, want), (kind, dim, order)
    assert sum(key[0] == "tower" for key in series._PREFIX_ROWS) == len(keys)


def test_a_raising_order_leaves_lower_orders_reading_no_extra_number():
    # the order-3 pairing needs p1(F)^2 and raises; the rows it leaves in
    # the memo still read nothing for it at order 1
    from genusforge import series
    from genusforge.genus import _paired_series

    series._PREFIX_ROWS.clear()
    rng = random.Random(43)
    full = _table(rng, split_monomials(8, 2, 2))
    spec = SplitManifoldSpec(8, 2, 2, _drop(full, "p1(F)^2"))
    towers = ((spec.F, [1, 0, 1, 0, 0], "witten"), (spec.Fperp, "l", "R"))
    with pytest.raises(MissingNumberError):
        _paired_series(spec.numbers, 3, towers)
    numbers = RecordingNumbers(8, {k: v for k, v in full.items() if k != "p1(F)^2"})
    got = _paired_series(numbers, 1, towers)
    assert parse_monomial("p1(F)^2") not in numbers.read
    density = genus_sequence([1, 0, 1, 0, 0], 8, "F", 2) * l_poly(spec.Fperp, 8)
    assert list(got.coeffs) == [pair_fundamental(density, spec.numbers)]


def test_a_vanishing_coefficient_reads_no_number_in_descending_order():
    # the cases of test_a_vanishing_coefficient_reads_no_number, served as
    # prefixes of the order-5 rows
    from genusforge import series
    from genusforge.genus import _paired_series

    series._PREFIX_ROWS.clear()
    factor = [1, 0, 1, 0, 0]
    tangent = BundleRoots(4, None)
    base = genus_sequence(factor, 8, bundle=None, pairs=4)
    for order in (5, 3, 2, 1):
        density = referee.witten_tower(KClass.bundle(tangent, 8), order).map_coefficients(
            lambda c: c * base)
        assert_reads_like_referee(
            density, 8, {"p2": Q(5), "p1^2": Q(-3)},
            lambda nums: _paired_series(nums, order, ((tangent, factor, "witten"),)))
    assert len(series._PREFIX_ROWS) == 1


@pytest.mark.parametrize("flag", ["false", "no", 0, 1, None])
def test_spin_flags_are_booleans(flag):
    # bool("false") is true: a flag that is not a JSON boolean is bad input
    spec = {"dim": 4, "f_pairs": 2, "fperp_pairs": 0, "numbers": {"p1(F)": 3}}
    for key in ("f_spin", "m_spin"):
        with pytest.raises(SchemaError, match="JSON booleans"):
            SplitManifoldSpec.from_json(dict(spec, **{key: flag}))
    if flag is not None:  # a null spin is an absent one
        with pytest.raises(SchemaError, match="JSON boolean"):
            CharNumbers.from_json({"dim": 4, "numbers": {"p1": 3}, "spin": flag})
