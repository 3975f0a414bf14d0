"""Theta bodies against product-expansion oracles and mpmath evaluation."""

import cmath
import math
import random
from fractions import Fraction

import mpmath
import pytest

from genusforge.errors import SchemaError
from genusforge.theta import (
    KINDS,
    THETA,
    THETA1,
    THETA2,
    THETA3,
    Nome,
    ThetaSeries,
    euler_eval,
    euler_product,
    line_value,
    quotient_value,
    reduced_st,
    theta_eval,
    theta_prime0,
    theta_prime0_series,
    theta_qseries,
    verify_transform,
)

from oracles import (
    central_difference,
    dmul,
    euler_product_oracle,
    referee_euler,
    referee_prime0,
    referee_line,
    referee_qpow,
    referee_quotient,
    referee_theta,
    theta_body_oracle,
    tinv,
    tmul,
)

_SHAPE = {THETA: (-1, False), THETA1: (1, False), THETA2: (-1, True), THETA3: (1, True)}

# mpmath's jtheta numbering for our product normalizations
_JT = {THETA: 1, THETA1: 2, THETA2: 4, THETA3: 3}


def body_dict(series):
    out = {}
    for e, lz in series.terms():
        for k, c in lz.items():
            out[(e, k)] = c
    return out


def grid(n_tau=3, n_t=3):
    pts = []
    for i in range(n_tau):
        tau = complex(-0.3 + 0.3 * i, 0.6 + 0.5 * i)
        for j in range(n_t):
            t = complex(-0.5 + 0.45 * j, 0.3 * j - 0.3)
            pts.append((t, tau))
    return pts


# -- exact bodies -----------------------------------------------------------


def test_bodies_match_product_oracle():
    for order in (1, 12, 29, 60):
        end = Fraction(order, 2)
        euler = {(e, 0): c for e, c in euler_product_oracle(end).items()}
        for kind in KINDS:
            sign, half = _SHAPE[kind]
            ts = theta_qseries(kind, order)
            expect = theta_body_oracle(sign, half, end)
            assert (ts.body.offset, ts.body.order) == (0, order)
            assert body_dict(ts.body) == expect
            # expanded: the body times c(q), moved to the q-offset
            expanded = ts.expanded()
            assert (expanded.offset, expanded.order) == (ts.q_offset, order)
            shifted = {(e + ts.q_offset, k): c for (e, k), c in tmul(expect, euler, end).items()}
            assert body_dict(expanded) == shifted
            # a negative c-power divides: the one-term and the binomial quotient passes
            inverse = tinv(euler, end)
            for c_power in (-1, -3):
                got = ThetaSeries(kind, c_power, 0, "1", ts.body).expanded()
                assert body_dict(got) == tmul(expect, inverse, end)
                inverse = tmul(inverse, tmul(inverse, inverse, end), end)


def test_body_examples():
    ts = theta_qseries(THETA, 8)
    assert dict(ts.body.coefficient(0).items()) == {0: 1}
    assert dict(ts.body.coefficient(1).items()) == {1: -1, -1: -1}
    t3 = theta_qseries(THETA3, 8)
    assert dict(t3.body.coefficient(Fraction(1, 2)).items()) == {1: 1, -1: 1}


def test_body_z_exponents_are_bounded():
    for kind in KINDS:
        ts = theta_qseries(kind, 16)
        for e, lz in ts.body.terms():
            width = max(abs(k) for k, _ in lz.items())
            assert width <= 2 * e


def test_prefactor_records():
    assert theta_qseries(THETA, 4).q_offset == Fraction(1, 8)
    assert theta_qseries(THETA, 4).trig == "2sin"
    assert theta_qseries(THETA1, 4).trig == "2cos"
    for kind in (THETA2, THETA3):
        ts = theta_qseries(kind, 4)
        assert ts.q_offset == 0 and ts.trig == "1" and ts.c_power == 1


def test_unknown_kind_rejected():
    with pytest.raises(SchemaError):
        theta_qseries("theta4", 4)
    with pytest.raises(SchemaError):
        theta_eval("theta4", 0.1, 1j)


def test_euler_product_expansion():
    for order in (1, 2, 16, 33, 60):
        oracle = euler_product_oracle(Fraction(order, 2))
        s = euler_product(order)
        assert (s.offset, s.order) == (0, order)
        assert {e: lz.constant() for e, lz in s.terms()} == oracle
    s = euler_product(16)
    # pentagonal pattern: 1 - q - q^2 + q^5 + q^7
    vals = [s.coefficient(k).constant() for k in range(8)]
    assert vals == [1, -1, -1, 0, 0, 1, 0, 1]


def test_prime0_series_shape():
    ts = theta_prime0_series(10)
    assert ts.c_power == 3 and ts.trig == "2pi" and ts.q_offset == Fraction(1, 8)
    cubed = dmul(
        dmul(euler_product_oracle(Fraction(5)), euler_product_oracle(Fraction(5)), Fraction(5)),
        euler_product_oracle(Fraction(5)),
        Fraction(5),
    )
    expanded = ts.expanded()
    assert expanded.offset == Fraction(1, 8)
    got = {e - Fraction(1, 8): lz.constant() for e, lz in expanded.terms()}
    assert got == cubed


# -- numeric evaluation -----------------------------------------------------


def test_vanishing_and_nonvanishing_at_zero():
    for tau in (1j, 0.5 + 0.8j, 2j):
        assert abs(theta_eval(THETA, 0.0, tau)) < 1e-14
        for kind in (THETA1, THETA2, THETA3):
            assert abs(theta_eval(kind, 0.0, tau)) > 1e-6


def test_eval_matches_mpmath():
    mpmath.mp.dps = 30
    for kind in KINDS:
        for t, tau in grid():
            ours = theta_eval(kind, t, tau)
            q_nome = complex(mpmath.exp(1j * mpmath.pi * tau))
            ref = complex(mpmath.jtheta(_JT[kind], mpmath.pi * t, q_nome))
            assert abs(ours - ref) < 1e-10 * max(1.0, abs(ref))


def referee_grid(rng, count):
    """Seeded (v, tau): Im tau log-uniform from the 0.05 floor to 2, |Re tau| up to 3."""
    out = []
    for _ in range(count):
        tau = complex(rng.uniform(-3, 3), math.exp(rng.uniform(math.log(0.05), math.log(2))))
        out.append((complex(rng.uniform(-1, 1), rng.uniform(-0.3, 0.3)), tau))
    return out


def test_eval_matches_the_exp_per_factor_referee():
    # the nome forms q^n by repeated multiplication, the referee by one exp per factor
    for v, tau in referee_grid(random.Random(2020), 400):
        for kind in KINDS:
            want = referee_theta(kind, v, tau)
            assert abs(theta_eval(kind, v, tau) - want) <= 1e-13 * abs(want), (kind, v, tau)
        want = referee_prime0(tau)
        assert abs(theta_prime0(tau) - want) <= 1e-13 * abs(want), tau
        q = cmath.exp(2j * cmath.pi * tau)
        assert abs(euler_eval(q) - referee_euler(tau)) <= 1e-13 * abs(referee_euler(tau))


def test_moving_factors_match_the_exp_per_factor_referee():
    # kind None is an F line; quotient_value keeps theta_k(0) / 2 for theta1,
    # which doubles the referee's quotient
    rng = random.Random(2026)
    variants = {None: None, THETA1: "G", THETA2: "G1", THETA3: "G2"}
    for im in (0.05, 0.3, 1.2):
        for _ in range(40):
            tau = complex(rng.uniform(-3, 3), im)
            x = complex(rng.uniform(-1, 1), rng.uniform(-0.5, 0.5))
            nome = Nome(tau)
            for kind, variant in variants.items():
                for got, want in (
                        (quotient_value(kind, x, nome),
                         referee_quotient(x, tau, kind) * (2 if kind == THETA1 else 1)),
                        (line_value(kind, x, nome), referee_line(x, tau, variant))):
                    assert abs(got - want) <= 1e-13 * abs(want), (kind, x, tau)


def test_eval_reduces_v_mod_2_exactly():
    # theta and theta1 change sign under v -> v + 1 and theta2 and theta3 do
    # not, so v mod 2 is exact; without it a huge Re v loses the phase
    mpmath.mp.dps = 30
    for kind in KINDS:
        for tau in (1j, 0.3 + 0.4j):
            for v in (0.3j, 0.25 - 0.1j):
                want = theta_eval(kind, v, tau)
                assert theta_eval(kind, v + 2, tau) == want
                assert theta_eval(kind, v - 6, tau) == want
                assert theta_eval(kind, v.real + 1e300 + 1j * v.imag, tau) == theta_eval(
                    kind, 1j * v.imag, tau)
        ref = complex(mpmath.jtheta(_JT[kind], 0, mpmath.exp(-mpmath.pi)))
        assert abs(theta_eval(kind, 1e300, 1j) - ref) < 1e-14


def test_eval_refuses_v_past_double_range():
    # unchecked, these divide by zero, overflow or give NaN: past the bounds
    # of theta.checked_st the products or e^(2 pi i v) leave double range
    for kind in KINDS:
        for v in (200j, -200j, complex("inf"), complex("nan"), complex(0.1, math.inf)):
            with pytest.raises(SchemaError, match="past (double range|the bound)"):
                theta_eval(kind, v, 1j)
        assert cmath.isfinite(theta_eval(kind, 0.1 + 112j, 70j))
        with pytest.raises(SchemaError, match="bound 112 "):
            theta_eval(kind, 0.1 + 113j, 70j)
        for law in ("S", "T", ("lattice", 2, 0)):
            with pytest.raises(SchemaError, match="past the bound"):
                verify_transform(kind, law, [(200j, 1j)])


def test_a_check_without_samples_is_refused():
    for law in ("S", "T", ("lattice", 2, 0)):
        with pytest.raises(SchemaError, match="at least one sample"):
            verify_transform(THETA, law, [])


def test_nome_powers_start_from_the_exponential_of_tau():
    # q^(n - 1/2) grows from e^(pi i tau): past |Re tau| = 1/2 the principal
    # square root of q is -e^(pi i tau), which would swap theta2 and theta3.
    # Both runs lose about one rounding per unit of exponent: the products
    # one per multiplication, the exponentials in the phase 2 pi Re(tau) e.
    for tau in (0.7 + 0.05j, -1.3 + 0.4j, 2.9 + 0.8j):
        nome = Nome(tau)
        whole, half = nome.powers(120), nome.powers(120, half=True)
        assert len(whole) == len(half) == 120
        for n in range(1, 121):
            for got, e in ((whole[n - 1], n), (half[n - 1], n - 0.5)):
                want = referee_qpow(tau, e)
                assert abs(got - want) <= 1e-14 * e * abs(want), (tau, e)
        assert abs(half[0] + cmath.sqrt(nome.q)) < 1e-15
        # a shorter run is a prefix of the held one
        assert nome.powers(7) == whole[:7]


def test_nome_keeps_its_shared_values():
    nome = Nome(0.3 + 0.8j, 1e-10)
    assert nome.tol == 1e-10
    c = nome.euler()
    assert c is nome.euler()
    assert c == euler_eval(nome.q, 1e-10)
    c2 = nome.euler_squared()
    assert c2 is nome.euler_squared()
    assert abs(c2 - nome.euler() ** 2) < 1e-15
    for kind in KINDS:
        one = nome.body_at_one(kind)
        assert one is nome.body_at_one(kind)
        assert one == nome.body(kind, 1.0 + 0.0j)
    # the reduced tau: Re tau mod 8
    assert Nome(16.25 + 0.8j).tau == Nome(0.25 + 0.8j).tau == 0.25 + 0.8j
    with pytest.raises(SchemaError):
        Nome(0.3 + 0.01j)


def test_shift_by_one_flips_sign():
    rng = random.Random(424242)
    for _ in range(10):
        v = complex(rng.uniform(-1, 1), rng.uniform(-0.5, 0.5))
        tau = complex(rng.uniform(-0.4, 0.4), rng.uniform(0.5, 2.0))
        lhs = theta_eval(THETA, v + 1, tau)
        rhs = -theta_eval(THETA, v, tau)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


def test_eval_floor_on_tau():
    with pytest.raises(ValueError):
        theta_eval(THETA, 0.1, 0.5 + 0.01j)
    with pytest.raises(ValueError):
        theta_prime0(0.2)


def series_value(ts, v, tau):
    """Evaluate the exact representation numerically, prefactors included."""
    q = cmath.exp(2j * cmath.pi * tau)
    z = cmath.exp(2j * cmath.pi * v)
    acc = 0.0 + 0.0j
    for e, lz in ts.expanded().terms():
        acc += cmath.exp(2j * cmath.pi * tau * float(e)) * complex(lz(z))
    if ts.trig == "2sin":
        acc *= 2.0 * cmath.sin(cmath.pi * v)
    elif ts.trig == "2cos":
        acc *= 2.0 * cmath.cos(cmath.pi * v)
    elif ts.trig == "2pi":
        acc *= 2.0 * cmath.pi
    return acc


def test_series_evaluation_matches_product_evaluation():
    # moderate |Im v| keeps the truncation tail below the comparison bar
    points = [
        (0.17, 0.35j),
        (-0.4 + 0.05j, 0.25 + 0.31j),
        (0.8 - 0.03j, -0.45 + 0.5j),
    ]
    for kind in KINDS:
        ts = theta_qseries(kind, 40)
        for v, tau in points:
            q = cmath.exp(2j * cmath.pi * tau)
            assert abs(q) <= 0.3
            lhs = series_value(ts, v, tau)
            rhs = theta_eval(kind, v, tau)
            assert abs(lhs - rhs) < 1e-10


def test_prime0_against_finite_difference():
    for tau in (1j, 0.3 + 0.9j):
        got = theta_prime0(tau)
        ref = central_difference(lambda x: theta_eval(THETA, x, tau), 0.0, 1e-5)
        assert abs(got - ref) < 1e-6
        assert abs(got) > 1e-3


def test_prime0_series_matches_numeric():
    ts = theta_prime0_series(30)
    for tau in (0.4j, 0.1 + 0.5j):
        lhs = series_value(ts, 0.0, tau)
        rhs = theta_prime0(tau)
        assert abs(lhs - rhs) < 1e-10


# -- transformation laws ----------------------------------------------------


def test_t_law_all_kinds():
    for kind in KINDS:
        report = verify_transform(kind, "T", grid(), tol=1e-9)
        assert report["pass"], report["max_residual"]


def test_s_law_all_kinds():
    for kind in KINDS:
        report = verify_transform(kind, "S", grid(), tol=1e-9)
        assert report["pass"], report["max_residual"]


def test_lattice_law_prefers_negative_exponent():
    for kind in KINDS:
        report = verify_transform(kind, ("lattice", 2, 0), grid(), tol=1e-9)
        assert report["sign_convention"] == "negative"
        assert report["pass"]
        # the printed positive convention fails by a wide margin
        assert report["max_residual_positive"] > 1e-3


def test_lattice_law_pure_translation():
    report = verify_transform(THETA2, ("lattice", 0, 2), grid(), tol=1e-9)
    assert report["pass"]


def test_lattice_law_mixed_shift():
    for kind in (THETA, THETA3):
        report = verify_transform(kind, ("lattice", 2, 2), grid(), tol=1e-9)
        assert report["sign_convention"] == "negative"
        assert report["pass"]


def _lattice_rows_per_call(kind, a, b, samples):
    """The lattice law's sample rows with lhs and base each from its own theta_eval."""
    rows = []
    for t, tau in samples:
        lhs = theta_eval(kind, t + a * tau + b, tau)
        base = theta_eval(kind, t, tau)
        res = {}
        for sign, name in ((-1, "negative"), (1, "positive")):
            rhs = cmath.exp(sign * 1j * cmath.pi * (a * a * tau + 2 * a * t)) * base
            res[name] = abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
        rows.append({"t": str(t), "tau": str(tau), "residual_negative": res["negative"],
                     "residual_positive": res["positive"]})
    return rows


def test_lattice_law_reads_one_nome_per_sample(monkeypatch):
    # lhs and base share tau, so one Nome serves both, with the very values
    # that two theta_eval calls give
    from genusforge import theta

    built = []

    class CountingNome(Nome):
        __slots__ = ()

        def __init__(self, tau, tol=1e-12):
            built.append(tau)
            super().__init__(tau, tol)

    samples = grid() + [(0.2 - 0.1j, 2.7 + 0.05j), (0.45 + 0.02j, -5.5 + 3j)]
    for kind in KINDS:
        for a, b in ((2, 0), (0, 2), (2, 2), (-4, 2)):
            want = _lattice_rows_per_call(kind, a, b, samples)
            built.clear()
            with monkeypatch.context() as patch:
                patch.setattr(theta, "Nome", CountingNome)
                report = verify_transform(kind, ("lattice", a, b), samples)
            assert len(built) == len(samples)
            assert report["samples"] == want
            for name in ("negative", "positive"):
                assert report[f"max_residual_{name}"] == max(r[f"residual_{name}"] for r in want)


def test_lattice_law_rejects_odd_shifts():
    with pytest.raises(SchemaError):
        verify_transform(THETA, ("lattice", 1, 0), grid())
    with pytest.raises(SchemaError):
        verify_transform(THETA, ("lattice", 2, 3), grid())


def test_unknown_law_rejected():
    with pytest.raises(SchemaError):
        verify_transform(THETA, "U", grid())
    with pytest.raises(SchemaError):
        verify_transform(THETA, ("spiral", 2, 0), grid())


def test_reduced_st_is_s_t_mod_2_rounded_once():
    rng = random.Random(19)
    for _ in range(300):
        s = rng.choice((1, -1)) * rng.choice((1, 3, 10**6 + 1, 10**16 + 1, 2**70 + 1))
        re = rng.choice((1, -1)) * rng.uniform(0, 1) * 10.0 ** rng.randint(-300, 300)
        im = rng.uniform(-1, 1)
        got = reduced_st(s, complex(re, im))
        exact = Fraction(re) * s % 2
        if exact >= 1:
            exact -= 2
        assert got.real == float(exact) and -1 <= got.real <= 1
        assert got.imag == s * im
