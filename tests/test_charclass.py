"""Multiplicative sequences checked against brute-force root expansion."""

import random
from fractions import Fraction

import pytest

from genusforge.charclass import (
    BundleRoots,
    CharNumbers,
    GradedPoly,
    ahat_factor,
    bundle_power_sums,
    genus_sequence,
    l_factor,
    mono_str,
    pair_fundamental,
    parse_monomial,
    power_sum_in_pontryagin,
    power_sums,
    to_pontryagin,
)
from genusforge.errors import DimensionError, MissingNumberError, SchemaError
from genusforge.series import QSeries

from oracles import (
    brute_elementary,
    brute_power_sums,
    cp2_p1_number,
    degree_part,
    oracle_genus_partitions,
    term_strings,
)

F0 = Fraction(0)


def p_gen(index, top, bundle=None, coeff=1):
    return GradedPoly.generator("p", bundle, index, top, coeff)


def partitions_of(poly):
    """GradedPoly in p-symbols of one bundle -> {e-partition: coeff}."""
    out = {}
    for mono, coeff in poly.terms.items():
        parts = []
        for (kind, _bundle, index), e in mono:
            assert kind == "p"
            parts.extend([index] * e)
        out[tuple(sorted(parts, reverse=True))] = coeff
    return out


# -- monomial keys ----------------------------------------------------------


def test_parse_round_trip():
    for text in ("1", "p1", "p2(F)", "p1(F)^2*p2(Fperp)", "p1^3"):
        assert mono_str(parse_monomial(text)) == text


def test_parse_rejects_malformed():
    for bad in ("q1", "p0", "p1(", "p1()", "p-1", "p1^", "p1^0", "p1^0*p2"):
        with pytest.raises(SchemaError):
            parse_monomial(bad)


def test_parse_merges_repeated_factors():
    assert parse_monomial("p1*p1") == parse_monomial("p1^2")


# -- graded polynomial arithmetic -------------------------------------------


def test_degree_truncation_kills_high_products():
    p1 = p_gen(1, 8)
    assert (p1 * p1 * p1) == GradedPoly({}, 8)
    assert degree_part(p1**2, 8) == p1 * p1


def test_mixed_truncation_degrees_refused():
    with pytest.raises(DimensionError):
        p_gen(1, 4) + p_gen(1, 8)


def test_pow_matches_repeated_product():
    x = GradedPoly.constant(1, 12) + p_gen(1, 12) + p_gen(2, 12, coeff=-2)
    assert x**3 == x * x * x
    assert x**0 == GradedPoly.constant(1, 12)


def test_substitute_replaces_symbols():
    top = 8
    poly = p_gen(1, top) ** 2 + p_gen(2, top)
    image = poly.substitute(
        {
            ("p", None, 1): p_gen(1, top, "A") + p_gen(1, top, "B"),
            ("p", None, 2): GradedPoly({}, top),
        }
    )
    expect = (p_gen(1, top, "A") + p_gen(1, top, "B")) ** 2
    assert image == expect


def test_graded_poly_is_not_hashable():
    with pytest.raises(TypeError):
        hash(GradedPoly.constant(1, 4))


# -- Newton identities ------------------------------------------------------


def test_power_sum_formulas():
    top = 12
    e1, e2, e3 = (p_gen(i, top) for i in (1, 2, 3))
    s1, s2, s3 = power_sums([e1, e2, e3])
    assert s1 == e1
    assert s2 == e1**2 - 2 * e2
    assert s3 == e1**3 - 3 * e1 * e2 + 3 * e3


def test_newton_matches_brute_force_roots():
    rng = random.Random(66)
    for _ in range(10):
        roots = [Fraction(rng.randint(-5, 5), rng.randint(1, 2)) for _ in range(4)]
        e = brute_elementary(roots, 4)
        s = brute_power_sums(roots, 4)
        assert power_sums(e) == s


def test_power_sum_caps_fold_onto_low_classes():
    # a single root pair: s_2 = p1^2, s_3 = p1^3 once p_i>1 vanish
    top = 12
    p1 = p_gen(1, top, "F")
    capped_sums = bundle_power_sums(BundleRoots(1, "F"), top)
    assert capped_sums[1] == p1**2
    assert capped_sums[2] == p1**3
    assert power_sum_in_pontryagin(2, "F", top) == p1**2 - 2 * p_gen(2, top, "F")
    capped = to_pontryagin(
        GradedPoly.generator("s", "F", 2, top), caps={"F": 1}
    )
    assert capped == p1**2


# -- factor series ----------------------------------------------------------


def test_ahat_factor_series():
    # (a/2)/sinh(a/2) = 1 - a^2/24 + 7a^4/5760 - ...
    f = ahat_factor(8)
    assert f[0] == 1
    assert f[2] == Fraction(-1, 24)
    assert f[4] == Fraction(7, 5760)
    assert f[1] == 0 and f[3] == 0


def test_l_factor_series():
    # a/tanh(a) = 1 + a^2/3 - a^4/45 + ...
    f = l_factor(8)
    assert f[0] == 1
    assert f[2] == Fraction(1, 3)
    assert f[4] == Fraction(-1, 45)


# -- multiplicative sequences -----------------------------------------------


def test_trivial_factor_gives_one():
    assert genus_sequence([1, 0, 0, 0, 0], 8) == GradedPoly.constant(1, 8)


def test_dirac_sequence_low_degrees():
    top = 8
    seq = genus_sequence(ahat_factor(top), top)
    assert degree_part(seq, 0) == GradedPoly.constant(1, top)
    assert degree_part(seq, 4) == p_gen(1, top, coeff=Fraction(-1, 24))
    expect8 = p_gen(1, top) ** 2 * Fraction(7, 5760) + p_gen(2, top, coeff=Fraction(-1, 1440))
    assert degree_part(seq, 8) == expect8


def test_signature_sequence_low_degrees():
    top = 8
    seq = genus_sequence(l_factor(top), top)
    assert degree_part(seq, 4) == p_gen(1, top, coeff=Fraction(1, 3))
    expect8 = (p_gen(2, top) * 7 - p_gen(1, top) ** 2) * Fraction(1, 45)
    assert degree_part(seq, 8) == expect8


def test_sequences_match_root_expansion_oracle():
    # independent path: expand prod f(a_j) for explicit roots, reduce to
    # elementary symmetric functions by Gauss elimination
    for factor_fn in (ahat_factor, l_factor):
        for top, nroots in ((4, 2), (8, 3), (12, 3), (16, 4)):
            seq = genus_sequence(factor_fn(top), top)
            expect = oracle_genus_partitions(factor_fn(top), top, nroots)
            assert partitions_of(seq) == expect


def test_capped_sequence_matches_single_root_oracle():
    for factor_fn, top, pairs in ((ahat_factor, 8, 1), (ahat_factor, 12, 1), (l_factor, 12, 2),
                                  (ahat_factor, 12, 3), (l_factor, 16, 1), (ahat_factor, 16, 2),
                                  (l_factor, 16, 3)):
        seq = genus_sequence(factor_fn(top), top, bundle="F", pairs=pairs)
        expect = oracle_genus_partitions(factor_fn(top), top, pairs)
        assert partitions_of(seq) == expect
    top = 8
    seq = genus_sequence(ahat_factor(top), top, bundle="F", pairs=1)
    # explicitly: 1 - p1/24 + 7 p1^2/5760, no p2 term
    p1 = p_gen(1, top, "F")
    assert seq == GradedPoly.constant(1, top) - p1 * Fraction(1, 24) + p1**2 * Fraction(7, 5760)


def test_whitney_multiplicativity():
    top = 12
    whole = genus_sequence(l_factor(top), top)
    pa = [p_gen(i, top, "A") for i in range(1, 4)]
    pb = [p_gen(i, top, "B") for i in range(1, 4)]
    split = whole.substitute(
        {
            ("p", None, 1): pa[0] + pb[0],
            ("p", None, 2): pa[1] + pa[0] * pb[0] + pb[1],
            ("p", None, 3): pa[2] + pa[1] * pb[0] + pa[0] * pb[1] + pb[2],
        }
    )
    product = genus_sequence(l_factor(top), top, bundle="A") * genus_sequence(
        l_factor(top), top, bundle="B"
    )
    assert split == product


def test_sequence_needs_enough_factor_terms():
    with pytest.raises(DimensionError):
        genus_sequence(ahat_factor(4), 8)


def test_sequence_rejects_bad_factors():
    with pytest.raises(ValueError):
        genus_sequence([1, 1, 0, 0, 0], 8)  # odd term
    with pytest.raises(ValueError):
        genus_sequence([2, 0, 0, 0, 0], 8)  # constant term not 1


# -- bundles ----------------------------------------------------------------


def test_bundle_roots_basics():
    e = BundleRoots(2, "F")
    assert e.rank == 4
    assert e.pontryagin(1, 8) == p_gen(1, 8, "F")
    assert e.pontryagin(3, 8) == GradedPoly({}, 8)
    assert bundle_power_sums(e, 8)[1] == p_gen(1, 8, "F") ** 2 - 2 * p_gen(2, 8, "F")
    assert BundleRoots(2, "F") == e
    assert BundleRoots(1, "F") != e
    assert hash(BundleRoots(2, "F")) == hash(e)


def test_bundle_roots_rejects_negative():
    with pytest.raises(DimensionError):
        BundleRoots(-1)


# -- graded coefficient ring ------------------------------------------------


def test_graded_ring_rejects_other_truncation():
    series = QSeries.one(GradedPoly({}, 8), 2)
    other = QSeries.one(GradedPoly({}, 4), 2)
    with pytest.raises(DimensionError):
        series * GradedPoly.constant(1, 4)
    with pytest.raises(DimensionError):
        series + other
    assert series != other


# -- characteristic numbers and pairing -------------------------------------


def test_char_numbers_validation():
    with pytest.raises(DimensionError):
        CharNumbers(8, {"p1": 1})
    with pytest.raises(SchemaError):
        CharNumbers(4, {"s1": 1})
    nums = CharNumbers(8, {"p1^2": 1, "p2": 2})
    assert nums["p2"] == 2
    assert "p1^2" in nums
    assert "p1*p1" in nums
    with pytest.raises(MissingNumberError):
        nums[parse_monomial("p1(F)^2")]
    # two keys for one monomial: refused in either order, naming both keys
    for table in ({"p1": 3, "p1^1": -48}, {"p1^1": -48, "p1": 3}):
        with pytest.raises(SchemaError, match=r"'p1\^1'") as info:
            CharNumbers(4, table)
        assert "'p1'" in str(info.value)
    with pytest.raises(SchemaError):
        CharNumbers(8, {"p1^2": 1, "p1*p1": 1, "p2": 2})
    # a zero exponent names no factor
    with pytest.raises(SchemaError):
        CharNumbers.from_json({"dim": 0, "numbers": {"p1^0": 5}})


def test_char_numbers_json_round_trip():
    nums = CharNumbers(4, {"p1": Fraction(-48)}, spin=True)
    blob = nums.to_json()
    assert blob == {"dim": 4, "numbers": {"p1": "-48/1"}, "spin": True}
    back = CharNumbers.from_json(blob)
    assert back.dim == 4 and back.spin is True
    assert back["p1"] == -48
    with pytest.raises(SchemaError):
        CharNumbers.from_json({"dim": 4})


def test_cp2_signature_is_one():
    nums = CharNumbers(4, {"p1": cp2_p1_number()})
    assert pair_fundamental(genus_sequence(l_factor(4), 4), nums) == 1


def test_cp2_dirac_density_is_minus_eighth():
    # not spin; the pairing value is still defined and fractional
    nums = CharNumbers(4, {"p1": cp2_p1_number()})
    assert pair_fundamental(genus_sequence(ahat_factor(4), 4), nums) == Fraction(-1, 8)


def test_k3_dirac_index_is_two():
    # signature -16 forces p1 = -48 through the degree-4 L-sequence
    sig = Fraction(-16)
    p1 = sig / degree_part(genus_sequence(l_factor(4), 4), 4).terms[parse_monomial("p1")]
    assert p1 == -48
    nums = CharNumbers(4, {"p1": p1}, spin=True)
    assert pair_fundamental(genus_sequence(ahat_factor(4), 4), nums) == 2


def test_pairing_drops_low_degree_terms():
    nums = CharNumbers(4, {"p1": 5})
    assert pair_fundamental(GradedPoly.constant(1, 4), nums) == 0


def test_pairing_is_linear():
    rng = random.Random(2718)
    nums = CharNumbers(8, {"p1^2": Fraction(3, 2), "p2": Fraction(-5)})
    for _ in range(10):
        c1 = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        d1 = p_gen(1, 8) ** 2 * c1 + p_gen(2, 8) * rng.randint(-3, 3)
        d2 = p_gen(2, 8) * Fraction(rng.randint(-3, 3), 2)
        scale = Fraction(rng.randint(-2, 2))
        lhs = pair_fundamental(d1 * scale + d2, nums)
        rhs = scale * pair_fundamental(d1, nums) + pair_fundamental(d2, nums)
        assert lhs == rhs


def test_pairing_dimension_mismatch():
    nums = CharNumbers(8, {"p2": 1})
    with pytest.raises(DimensionError):
        pair_fundamental(GradedPoly.constant(1, 4), nums)


def test_pairing_missing_number_is_an_error():
    nums = CharNumbers(8, {"p2": 1})
    density = p_gen(1, 8) ** 2 + p_gen(2, 8)
    with pytest.raises(MissingNumberError):
        pair_fundamental(density, nums)


# -- cached symbolic data -----------------------------------------------------


def test_returned_values_do_not_share_the_caches():
    from genusforge.genus import SplitManifoldSpec, split_genus
    from genusforge.ktheory import KClass, witten_element

    top, bundle = 8, BundleRoots(2, "F")
    sums = bundle_power_sums(bundle, top)
    want_sums = [term_strings(s) for s in sums]
    seq = genus_sequence(ahat_factor(top), top, bundle="F", pairs=2)
    want_seq = term_strings(seq)
    psi = witten_element(KClass.bundle(bundle, top), 5)
    want_psi = [term_strings(c) for c in psi.coeffs]
    spec = SplitManifoldSpec(8, 2, 2, {"p1(F)^2": 1, "p2(F)": 2, "p1(F)*p1(Fperp)": 3,
                                       "p1(Fperp)^2": 4, "p2(Fperp)": 5})
    want_genus = split_genus(spec, "R", 5)
    # change every returned value in place
    sums[0].terms.clear()
    sums[1].terms[()] = Fraction(7)
    sums.append(sums[0])
    seq.terms.clear()
    for c in psi.coeffs:
        c.terms[()] = Fraction(11)
    assert [term_strings(s) for s in bundle_power_sums(bundle, top)] == want_sums
    assert term_strings(genus_sequence(ahat_factor(top), top, bundle="F", pairs=2)) == want_seq
    assert term_strings(genus_sequence("ahat", top, bundle="F", pairs=2)) == want_seq
    again = witten_element(KClass.bundle(bundle, top), 5)
    assert [term_strings(c) for c in again.coeffs] == want_psi
    assert split_genus(spec, "R", 5) == want_genus
    # the factor series are immutable
    with pytest.raises(TypeError):
        ahat_factor(top)[0] = 2


def test_graded_poly_results_are_clean():
    top = 8
    p1, p2 = p_gen(1, top), p_gen(2, top)
    x = p1 * Fraction(1, 2) + p2
    for poly in (x + (-x), x * 0, x - x, (x * p1) * p1):
        assert poly.terms == {}
    for poly in (x * x, -x, x * 3, x + p1):
        assert all(isinstance(c, Fraction) and c for c in poly.terms.values())
        assert all(sum(4 * s[2] * e for s, e in m) <= top for m in poly.terms)
