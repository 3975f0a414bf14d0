"""Fixed-locus models, exact and numeric genus functions, Jacobi laws."""

import cmath
import math
import random
from fractions import Fraction

import pytest

from genusforge.equivariant import (
    GENERATORS,
    MAT_S,
    MAT_T,
    EquivariantModel,
    ExactSeries,
    FixedComponent,
    JacobiFormMeta,
    anomaly_check,
    evaluator,
    exact_series,
    g_eval,
    g_series,
    h_eval,
    h_series,
    jacobi_residual,
    lefschetz_eval,
    form_meta,
    mat_mul,
    slash_value,
    shift_factor,
    subgroup_member,
)
from genusforge.errors import MissingNumberError, PoleError, SchemaError
from genusforge.ktheory import tower_slots
from genusforge.rings import LAURENT, RATIONAL, LaurentZ
from genusforge.series import QSeries
from genusforge.theta import theta_eval, theta_prime0

from oracles import (
    euler_product_oracle,
    exact_value,
    split_monomials,
    tadd,
    theta_body_oracle,
    tinv,
    tmul,
    tsubst,
    two_fixed_point_sum,
    wlift,
    wmul,
)
import referee

Q = Fraction


def point(m_speeds, n_speeds=(), orientation=1):
    return FixedComponent(
        0, orientation, 0, 0,
        moving_f=[(1, m) for m in m_speeds],
        moving_fperp=[(1, n) for n in n_speeds],
        numbers={"1": 1},
    )


def free_point_model():
    return EquivariantModel("foliated", 1, 0, 0, [point([1])])


def s2_rotation_model():
    return EquivariantModel("foliated", 1, 0, 0, [point([1]), point([-1])])


def free_split_model():
    return EquivariantModel("split", 1, 1, 0, [point([1], [1])])


def torus_model():
    return EquivariantModel("foliated", 1, 1, 0, [
        FixedComponent(2, 1, 0, 1, moving_f=[(1, 1)], numbers={}),
        FixedComponent(2, 1, 0, 1, moving_f=[(1, -1)], numbers={}),
    ])


SAMPLES = [
    (0.23 - 0.04j, 0.15 + 0.9j),
    (-0.41 + 0.06j, -0.2 + 1.4j),
    (0.52 + 0.11j, 0.05 + 0.72j),
]


# ---------------------------------------------------------------------------
# matrices and subgroups


def test_matrix_validation():
    assert mat_mul(MAT_S, MAT_S) == ((-1, 0), (0, -1))
    with pytest.raises(SchemaError):
        subgroup_member("sl2z", ((1, 0), (0, 2)))
    with pytest.raises(SchemaError):
        subgroup_member("sl2z", ((1.5, 0), (0, 1)))
    with pytest.raises(SchemaError):
        subgroup_member("nope", MAT_T)


def test_subgroup_examples():
    assert subgroup_member("gamma0_2", MAT_T)
    assert subgroup_member("gamma0_2", ((1, 0), (2, 1)))
    assert not subgroup_member("gamma0_2", MAT_S)
    assert subgroup_member("gamma_upper0_2", ((1, 2), (0, 1)))
    assert not subgroup_member("gamma_upper0_2", MAT_T)
    assert subgroup_member("gamma_theta", MAT_S)
    assert subgroup_member("gamma_theta", mat_mul(MAT_T, MAT_T))
    assert not subgroup_member("gamma_theta", MAT_T)
    assert all(subgroup_member("sl2z", g) for gs in GENERATORS.values() for g in gs)


def mod2(mat):
    (a, b), (c, d) = mat
    return (a % 2, b % 2, c % 2, d % 2)


def mod2_mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % 2, (a * f + b * h) % 2, (c * e + d * g) % 2, (c * f + d * h) % 2)


def mod2_closure(gens):
    seen = {(1, 0, 0, 1)} | {mod2(g) for g in gens}
    while True:
        grown = set(seen)
        for x in seen:
            for y in seen:
                grown.add(mod2_mul(x, y))
        if grown == seen:
            return seen
        seen = grown


def test_membership_against_mod2_closure():
    closures = {name: mod2_closure(gens) for name, gens in GENERATORS.items()}
    assert len(closures["sl2z"]) == 6
    rng = random.Random(4096)
    letters = [MAT_S, MAT_T, ((1, -1), (0, 1))]
    for _ in range(300):
        word = ((1, 0), (0, 1))
        for _ in range(rng.randint(1, 12)):
            word = mat_mul(word, rng.choice(letters))
        for name, closure in closures.items():
            assert subgroup_member(name, word) == (mod2(word) in closure)


def test_meta_json():
    meta = JacobiFormMeta(2, Q(-1, 2), "gamma0_2")
    blob = meta.to_json()
    assert blob == {"weight": 2, "index": "-1/2", "subgroup": "gamma0_2", "lattice": 2}
    again = JacobiFormMeta.from_json(blob)
    assert again.weight == 2 and again.index == Q(-1, 2)
    with pytest.raises(SchemaError):
        JacobiFormMeta.from_json({"weight": 2})
    with pytest.raises(SchemaError):
        JacobiFormMeta(1, 0, "nope")


# ---------------------------------------------------------------------------
# model validation


def test_component_validation():
    with pytest.raises(SchemaError):
        FixedComponent(3, 1, 0, 0)
    with pytest.raises(SchemaError):
        FixedComponent(0, 2, 0, 0)
    with pytest.raises(SchemaError):
        FixedComponent(4, 1, 1, 0)
    with pytest.raises(SchemaError):
        FixedComponent(0, 1, 0, 0, moving_f=[(1, 0)])
    with pytest.raises(SchemaError):
        FixedComponent(0, 1, 0, 0, moving_f=[(0, 1)])
    with pytest.raises(SchemaError):
        FixedComponent(4, 1, 2, 0, numbers={"p1(Fperp)": 1})
    with pytest.raises(SchemaError):
        FixedComponent(8, 1, 1, 3, numbers={"p2(F)": 1})


def test_model_validation():
    with pytest.raises(SchemaError):
        EquivariantModel("other", 1, 0, 0, [point([1])])
    with pytest.raises(SchemaError):
        EquivariantModel("foliated", 1, 0, 0, [])
    with pytest.raises(SchemaError):
        EquivariantModel("foliated", 2, 0, 0, [point([1])])
    with pytest.raises(SchemaError):
        EquivariantModel("foliated", 1, 1, 0, [point([1], [1])])
    with pytest.raises(SchemaError):
        EquivariantModel("split", 1, 2, 0, [point([1], [1])])


def test_anomaly():
    assert anomaly_check(s2_rotation_model()) == 1
    assert anomaly_check(free_split_model()) == 1
    mixed = EquivariantModel("foliated", 1, 0, 0, [point([1]), point([2])])
    with pytest.raises(SchemaError):
        anomaly_check(mixed)


def test_model_json_round_trip():
    for model in (free_point_model(), free_split_model(), torus_model()):
        blob = model.to_json()
        assert EquivariantModel.from_json(blob).to_json() == blob
    with pytest.raises(SchemaError):
        EquivariantModel.from_json({"mode": "split"})


def test_form_meta():
    assert form_meta(free_point_model(), "H").to_json() == {
        "weight": 1, "index": "-1/2", "subgroup": "sl2z", "lattice": 2,
    }
    meta = form_meta(free_split_model(), "G1")
    assert meta.weight == 2 and meta.subgroup == "gamma_upper0_2"
    assert form_meta(torus_model(), "H").weight == 2
    with pytest.raises(SchemaError):
        form_meta(free_point_model(), "B")


# ---------------------------------------------------------------------------
# exact series


def test_exact_series_algebra():
    one = QSeries.one(LAURENT, 5)
    a = ExactSeries(one, LaurentZ({1: 1, -1: -1}))
    b = ExactSeries(one, LaurentZ({-1: 1, 1: -1}))
    assert (a + b).is_zero()
    assert (a - a).is_zero()
    # the same rational function with both sides multiplied by (w^2 - 1)
    extra = LaurentZ({2: 1, 0: -1})
    scaled = ExactSeries(one * extra, extra * LaurentZ({1: 1, -1: -1}))
    assert a == scaled
    assert not a == b
    with pytest.raises(ZeroDivisionError):
        ExactSeries(one, LaurentZ({}))
    with pytest.raises(SchemaError):
        ExactSeries(QSeries.one(RATIONAL, 5), LaurentZ.monomial(0))


def laurent_dict(lz):
    return dict(lz.items())


def test_q0_matches_character_oracle():
    # three isolated points with distinct speeds: the q^0 row of H is the
    # sum of the 1/(w^m - w^-m) characters
    model = EquivariantModel("foliated", 1, 0, 0, [point([1]), point([2]), point([3])])
    series = h_series(model, 7)
    want = two_fixed_point_sum([1, 2, 3], kind="dirac")
    got_num = laurent_dict(series.coefficient(0))
    got_den = laurent_dict(series.den)
    # cross multiply the two rational functions
    assert wmul(got_num, want.den) == wmul(want.num, got_den)


def test_q0_signature_character():
    # a split point with one moving Fperp line: the G value starts at the
    # tanh character
    model = EquivariantModel("split", 0, 1, 0, [point([], [2])])
    series = g_series(model, "G", 7)
    want = two_fixed_point_sum([2], kind="signature")
    got_num = laurent_dict(series.coefficient(0))
    got_den = laurent_dict(series.den)
    assert wmul(got_num, want.den) == wmul(want.num, got_den)


def test_s2_rotation_vanishes():
    series = h_series(s2_rotation_model(), 9)
    assert series.is_zero()
    assert laurent_dict(series.coefficient(0)) == {}
    assert h_eval(s2_rotation_model(), 0.31, 0.2 + 1.1j) == 0


def test_torus_model_vanishes():
    series = h_series(torus_model(), 9)
    assert series.is_zero()
    assert abs(h_eval(torus_model(), 0.31 - 0.02j, 1.1j)) == 0


def test_static_split_component_matches_witten():
    # a split model whose only component is static is the plain genus
    from genusforge.charclass import CharNumbers
    from genusforge.genus import witten_genus

    model = EquivariantModel("split", 2, 0, 0, [
        FixedComponent(4, 1, 2, 0, numbers={"p1(F)": -48}),
    ])
    series = g_series(model, "G", 9)
    assert laurent_dict(series.den) == {0: 1}
    want = witten_genus(CharNumbers(4, {"p1": -48}), 9)
    for k in range(4):
        assert laurent_dict(series.coefficient(k)) == {0: want.coefficient(k)}


def test_root_free_guard():
    model = EquivariantModel("foliated", 2, 0, 0, [
        FixedComponent(2, 1, 1, 0, moving_f=[(1, 1)], numbers={}),
    ])
    # zero numbers pass; a nonzero number on a moving positive-dim component is refused
    assert h_series(model, 5).is_zero()
    bad = EquivariantModel("foliated", 3, 0, 0, [
        FixedComponent(4, 1, 2, 0, moving_f=[(1, 1)], numbers={"p1(F)": 5}),
    ])
    with pytest.raises(SchemaError):
        h_series(bad, 5)
    with pytest.raises(SchemaError):
        h_eval(bad, 0.3, 1.1j)


_KIND_SHAPE = {"G": (1, False), "G1": (-1, True), "G2": (1, True)}


def oracle_exact(model, function, order):
    """(num, den) of H or G at points, from naive dict products.

    num is {(q exponent, w exponent): coeff} and den {w exponent: coeff};
    components with unequal denominators are cross-multiplied, unreduced.
    """
    end = Fraction(order, 2)
    variant = "G" if function == "H" else function
    cq = {(e, 0): c for e, c in euler_product_oracle(end).items()}
    cq2 = tmul(cq, cq, end)
    theta = theta_body_oracle(-1, False, end)
    kind = theta_body_oracle(*_KIND_SHAPE[variant], end)
    total = None
    for comp in model.components:
        num = {(Q(0), 0): comp.orientation * comp.numbers["1"]}
        den = {0: Q(1)}
        for rank, m in comp.moving_f:
            for _ in range(rank):
                num = tmul(tmul(num, cq2, end), tinv(tsubst(theta, 2 * m), end), end)
                den = wmul(den, {m: Q(1), -m: Q(-1)})
        for rank, n in comp.moving_fperp:
            for _ in range(rank):
                block = tmul(cq2, tsubst(kind, 2 * n), end)
                block = tmul(block, tinv(tsubst(theta, 2 * n), end), end)
                block = tmul(block, tinv(tsubst(kind, 0), end), end)
                if variant == "G":
                    block = tmul(block, {(Q(0), n): Q(1), (Q(0), -n): Q(1)}, end)
                num = tmul(num, block, end)
                den = wmul(den, {n: Q(1), -n: Q(-1)})
        if total is None:
            total = num, den
        elif den == total[1]:
            total = tadd(total[0], num), den
        else:
            acc, acc_den = total
            cross = tadd(tmul(acc, wlift(den), end), tmul(num, wlift(acc_den), end))
            total = cross, wmul(acc_den, den)
    return total


def seeded_point_model(rng, mode):
    """1-4 points sharing one moving F block shape, ranks 1-2, speeds +-1..+-3."""
    rank, m = rng.randint(1, 2), rng.randint(1, 3)
    r = rng.randint(1, 2) if mode == "split" else 0
    comps = []
    for _ in range(rng.randint(1, 4)):
        n = rng.choice([-1, 1]) * rng.randint(1, 3)
        comps.append(FixedComponent(
            0, rng.choice([1, -1]), 0, 0,
            moving_f=[(rank, rng.choice([m, -m]))],
            moving_fperp=[(r, n)] if r else [],
            numbers={"1": rng.choice([1, 1, -1, 2, Q(1, 2)])},
        ))
    return EquivariantModel(mode, rank, r, 0, comps)


def test_point_models_match_product_oracle():
    rng = random.Random(20240611)
    for function in ("H", "G", "G1", "G2") * 3:
        model = seeded_point_model(rng, "foliated" if function == "H" else "split")
        order = rng.randint(3, 10)
        got = (h_series(model, order) if function == "H"
               else g_series(model, function, order))
        num, den = oracle_exact(model, function, order)
        assert got.num.offset == 0 and got.num.order == order
        assert laurent_dict(got.den) == den
        got_num = {(e, k): c for e, lz in got.num.terms() for k, c in lz.items()}
        assert got_num == num, (function, model.to_json(), order)


def mixed_model(rng, function, dim):
    """Points with moving F and Fperp blocks beside fully static components of
    dimension dim with fractional numbers, and for dim 8 a dim-4 component
    with moving blocks over an all-zero table (zero rows, its own denominator)."""
    half = dim // 2
    p = half if function == "H" else rng.randint(1, half - 1)
    r = half - p
    # few block shapes, so some points share a denominator and some do not
    shapes = [([(p, rng.choice([-1, 1]) * rng.randint(1, 3))],
               [(r, rng.choice([-1, 1]) * rng.randint(1, 3))] if r else [])
              for _ in range(2)]
    if p > 1:
        shapes.append(([(1, 2), (p - 1, -1)], shapes[0][1]))
    comps = []
    for _ in range(rng.randint(1, 3)):
        moving_f, moving_fperp = rng.choice(shapes)
        comps.append(FixedComponent(0, rng.choice([1, -1]), 0, 0, moving_f, moving_fperp,
                                    numbers={"1": rng.choice([1, -1, 2, Q(1, 3)])}))
    for _ in range(rng.randint(1, 2)):
        numbers = {m: Q(v, rng.choice([2, 3, 7])) for m, v in static_numbers(dim, p, rng).items()}
        comps.append(FixedComponent(dim, rng.choice([1, -1]), p, r, numbers=numbers))
    if dim == 8:
        a = min(p, 2)
        zeros = {m: 0 for m in static_numbers(4, a, rng)}
        comps.append(FixedComponent(4, 1, a, 2 - a, [(p - a, 1)] if p > a else [],
                                    [(r - 2 + a, -1)] if r > 2 - a else [], zeros))
    rng.shuffle(comps)
    return EquivariantModel("foliated" if function == "H" else "split", p, r, 0, comps)


def test_component_rows_sum_as_the_exact_series_fold():
    # the model's series against ExactSeries.__add__ over its one-component models
    rng = random.Random(20261018)
    steps, fractional = set(), set()
    for function in ("H", "G", "G1", "G2") * 3:
        for dim in (4, 8):
            model = mixed_model(rng, function, dim)
            order = rng.randint(3, 9)
            got = exact_series(model, function, order)
            want = None
            for comp in model.components:
                one = EquivariantModel(model.mode, model.p, model.r, 0, [comp])
                term = exact_series(one, function, order)
                if want is not None:
                    steps.add((function, want.den == term.den))
                want = term if want is None else want + term
            assert (got.num.offset, got.num.order) == (want.num.offset, want.num.order)
            assert got.num.coeffs == want.num.coeffs, (function, model.to_json(), order)
            assert got.den == want.den
            fractional.add(any(c.denominator > 1
                               for lz in got.num.coeffs for c in lz.terms.values()))
    assert steps == {(f, equal) for f in ("H", "G", "G1", "G2") for equal in (True, False)}
    assert True in fractional


def series_state(series):
    return series.num.offset, series.num.order, series.num.coeffs, series.den


def cold_fold(model, function, order):
    """ExactSeries.__add__ over the one-component models, each on a cleared memo."""
    from genusforge import equivariant

    total = None
    for comp in model.components:
        equivariant._MOVING.clear()
        term = exact_series(EquivariantModel(model.mode, model.p, model.r, 0, [comp]),
                            function, order)
        total = term if total is None else total + term
    return series_state(total)


def test_memoized_rows_match_the_oracles_in_any_order_sequence():
    # rows held at a larger order are sliced, rows at a smaller one rebuilt;
    # every sequence, on a cleared and then on a warm memo, reads the same
    from genusforge import equivariant

    rng = random.Random(20261019)
    cases = []
    for function in ("H", "G", "G1", "G2"):
        model = seeded_point_model(rng, "foliated" if function == "H" else "split")
        cases.append((model, function, "points"))
        cases.append((mixed_model(rng, function, rng.choice((4, 8))), function, "mixed"))
    orders = (3, 6, 9, 12)
    want = {}
    for model, function, kind in cases:
        for order in orders:
            oracle = oracle_exact if kind == "points" else cold_fold
            want[id(model), order] = oracle(model, function, order)
    sequences = (orders, orders[::-1], (6, 6, 12, 3, 12, 9, 3))
    for sequence in sequences:
        equivariant._MOVING.clear()
        for _ in ("cleared", "warm"):
            for order in sequence:
                for model, function, kind in cases:
                    got = exact_series(model, function, order)
                    if kind == "points":
                        num = {(e, k): c for e, lz in got.num.terms() for k, c in lz.items()}
                        assert (num, laurent_dict(got.den)) == want[id(model), order]
                    else:
                        assert series_state(got) == want[id(model), order], (function, order)


def test_opposite_speeds_share_a_key_and_flip_the_denominator():
    from genusforge.equivariant import _component_rows, _moving_key

    for m, n in ((1, 1), (2, 3), (3, -2)):
        for variant in ("G", "G1", "G2"):
            plus = point([m], [n])
            rows, den = _component_rows(plus, variant, 8)
            for minus in (point([-m], [n]), point([m], [-n])):
                assert _moving_key(minus, variant) == _moving_key(plus, variant)
                rows_minus, den_minus = _component_rows(minus, variant, 8)
                assert rows_minus == rows
                assert den_minus == {e: -c for e, c in den.items()}
            # the F block alone keeps its key under every variant
            assert _moving_key(point([m]), variant) == (None, ((1, abs(m)),), ())


def test_the_moving_memo_is_bounded_and_least_recently_used(monkeypatch):
    from genusforge import equivariant
    from genusforge.equivariant import _MOVING, _moving_rows

    def held():
        return sum(entry[2] for entry in _MOVING.values())

    _MOVING.clear()
    monkeypatch.setattr(equivariant, "_MOVING_CAP", 100)
    keep = (None, ((1, 1),), ())
    _moving_rows(keep, 6)
    for speed in range(2, 40):
        _moving_rows((None, ((1, speed),), ()), 6)
        assert held() <= 100
        _moving_rows(keep, 6)  # a used key stays
    assert keep in _MOVING and (None, ((1, 2),), ()) not in _MOVING
    assert all(type(row) is tuple for _, rows, _ in _MOVING.values() for row in rows)
    # a key past the bound is returned but not held, and evicts nothing
    before = list(_MOVING)
    big = ("theta1", ((2, 3),), ((2, 2),))
    rows = _moving_rows(big, 30)
    assert sum(map(len, rows)) > 100
    assert big not in _MOVING and list(_MOVING) == before
    _MOVING.clear()


def test_changing_a_returned_series_leaves_the_next_call_unchanged():
    from genusforge.equivariant import _component_rows

    model = EquivariantModel("split", 2, 1, 0, [point([1, 2], [3]), point([-1, 2], [1])])
    want, want_low = cold_fold(model, "G", 9), cold_fold(model, "G", 5)
    got = g_series(model, "G", 9)
    assert series_state(got) == want
    for lz in got.num.coeffs:
        lz.terms.clear()
    got.den.terms.clear()
    rows, den = _component_rows(model.components[0], "G", 9)
    for row in rows:
        row.clear()
    den.clear()
    assert series_state(g_series(model, "G", 9)) == want
    assert series_state(g_series(model, "G", 5)) == want_low


def test_one_benchmark_run_fits_in_the_moving_memo(monkeypatch):
    # every speed signature of the equivariant-exact workload, at the largest
    # order its jobs ask for, built into an unbounded memo: it must fit the bound
    import importlib.util
    import pathlib

    from genusforge import equivariant

    path = pathlib.Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    cap = equivariant._MOVING_CAP
    monkeypatch.setattr(equivariant, "_MOVING_CAP", 10**9)
    equivariant._MOVING.clear()
    speeds = range(1, 4)  # point_model's default max_speed
    for function, (_, top), _, rank in workloads.EquivariantExact.MODEL_JOBS:
        for m in speeds:
            for n in speeds if function != "H" else (None,):
                comp = FixedComponent(0, 1, 0, 0, [(rank, m)], [(rank, n)] if n else [],
                                      numbers={"1": 1})
                mode = "foliated" if function == "H" else "split"
                exact_series(EquivariantModel(mode, rank, rank if n else 0, 0, [comp]),
                             function, top)
    assert sum(entry[2] for entry in equivariant._MOVING.values()) <= cap
    equivariant._MOVING.clear()


def full_static_series(comp, variant, order):
    """The paired static density through the factor-by-factor towers."""
    from genusforge.charclass import BundleRoots

    front = BundleRoots(comp.f0_pairs, "F")
    back = BundleRoots(comp.fperp0_pairs, "Fperp")
    twist = {"G": "R", "G1": "R2", "G2": "R1"}[variant]
    density = referee.split_density(front, back, twist, comp.dim, order)
    return QSeries(RATIONAL, density.offset, referee.paired(density, comp.numbers),
                   density.order)


def test_static_series_shortcuts_match_full_tower():
    from genusforge import catalog
    from genusforge.equivariant import _static_series
    from genusforge.errors import MissingNumberError

    comps = [comp for name in catalog.list_entries()
             for model in [catalog.get(name).build()] if isinstance(model, EquivariantModel)
             for comp in model.components]
    # a complete all-zero table over a dim-8 static block, and a fractional point
    comps.append(FixedComponent(8, 1, 2, 2, moving_f=[(1, 1)], numbers={
        "p2(F)": 0, "p1(F)^2": 0, "p1(F)*p1(Fperp)": 0, "p2(Fperp)": 0, "p1(Fperp)^2": 0,
    }))
    comps.append(FixedComponent(0, -1, 0, 0, moving_f=[(1, 2)], numbers={"1": Q(3, 2)}))
    assert any(c.dim == 0 for c in comps) and any(c.dim > 0 for c in comps)
    for comp in comps:
        for variant in ("G", "G1", "G2"):
            for order in (1, 6, 13):
                got = _static_series(comp, variant, order)
                want = full_static_series(comp, variant, order)
                assert (got.offset, got.order, got.coeffs) == (want.offset, want.order,
                                                               want.coeffs)
    # an incomplete all-zero table still takes the towers and reports the gap
    gap = FixedComponent(8, 1, 2, 2, moving_f=[(1, 1)], numbers={"p2(F)": 0})
    with pytest.raises(MissingNumberError):
        _static_series(gap, "G", 4)


# ---------------------------------------------------------------------------
# numeric paths


def test_free_point_closed_form():
    model = free_point_model()
    t, tau = 0.31 - 0.07j, 0.2 + 1.1j
    direct = theta_prime0(tau) / (2j * math.pi * theta_eval("theta", t, tau))
    assert abs(h_eval(model, t, tau) - direct) < 1e-13
    assert abs(h_series(model, 40).eval(t, tau) - direct) < 1e-12
    assert abs(lefschetz_eval(model, t, tau, "H") - direct) < 1e-12


def test_mode_mismatch_errors():
    with pytest.raises(SchemaError):
        h_eval(free_split_model(), 0.3, 1.1j)
    with pytest.raises(SchemaError):
        g_eval(free_point_model(), "G", 0.3, 1.1j)
    with pytest.raises(SchemaError):
        g_eval(free_split_model(), "G9", 0.3, 1.1j)
    with pytest.raises(SchemaError):
        h_series(free_split_model(), 5)
    with pytest.raises(SchemaError):
        g_series(free_point_model(), "G", 5)


def static_numbers(dim, f_pairs, rng):
    """Seeded numbers on every top-degree monomial of a static block."""
    keys = split_monomials(dim, f_pairs, dim // 2 - f_pairs)
    return {m: rng.choice([-1, 1]) * rng.randint(1, 99) for m in keys}


def static_model(function, dim, f_pairs, numbers):
    comp = FixedComponent(dim, -1, f_pairs, dim // 2 - f_pairs, numbers=numbers)
    mode = "foliated" if function == "H" else "split"
    return EquivariantModel(mode, f_pairs, dim // 2 - f_pairs, 0, [comp])


def test_static_values_near_the_floor_match_the_exact_series():
    # the exact series at twice the slot count of the Lambert sums, summed
    # in exact arithmetic at the same float q^(1/2) and rounded once
    from genusforge.equivariant import _static_series

    rng = random.Random(7)
    for dim, f_pairs in ((4, 1), (8, 2), (8, 3)):
        for function in ("H", "G", "G1", "G2"):
            model = static_model(function, dim, f_pairs, static_numbers(dim, f_pairs, rng))
            comp = model.components[0]
            for tau in (0.13 + 0.05j, -0.31 + 0.2j, 0.13 + 1j):
                got = evaluator(model, function)(0.2, tau)
                x = cmath.exp(1j * math.pi * tau)
                slots = 2 * tower_slots(abs(x), dim, 1e-12)
                series = _static_series(comp, "G" if function == "H" else function, slots)
                want = comp.orientation * exact_value(series.coeffs, x)
                assert abs(got - want) <= 1e-10 * abs(want), (dim, function, tau)


def test_numeric_static_values_read_missing_numbers():
    rng = random.Random(11)
    full = static_numbers(8, 2, rng)
    for function in ("H", "G", "G1", "G2"):
        for gap in full:
            model = static_model(function, 8, 2, {m: v for m, v in full.items() if m != gap})
            with pytest.raises(MissingNumberError):
                evaluator(model, function)(0.2, 0.1 + 0.3j)
            with pytest.raises(MissingNumberError):
                lefschetz_eval(model, 0.2, 0.1 + 0.3j, function)
    # an incomplete all-zero table takes the towers and reports the gap
    with pytest.raises(MissingNumberError):
        h_eval(static_model("H", 8, 2, {"p2(F)": 0}), 0.2, 0.3j)
    assert h_eval(static_model("H", 8, 2, dict.fromkeys(full, 0)), 0.2, 0.3j) == 0


def test_dual_path_agreement():
    cases = [
        (free_point_model(), "H"),
        (s2_rotation_model(), "H"),
        (torus_model(), "H"),
        (free_split_model(), "G"),
        (free_split_model(), "G1"),
        (free_split_model(), "G2"),
    ]
    # |Re tau| > 1/2, where a principal-branch q^(1/2) would swap G1 and G2
    far = [(0.1 + 0.02j, 0.7 + 1j), (0.1 + 0.02j, 1.3 + 1j), (0.1 + 0.02j, -0.7 + 0.8j)]
    for model, function in cases:
        for t, tau in SAMPLES + far:
            a = (h_eval if function == "H" else
                 lambda mo, tt, tu: g_eval(mo, function, tt, tu))(model, t, tau)
            b = lefschetz_eval(model, t, tau, function)
            assert abs(a - b) < 1e-9, (function, t, tau)


def test_exact_vs_numeric_on_split_point():
    model = free_split_model()
    t, tau = 0.29 + 0.03j, 0.1 + 1.2j
    for variant in ("G", "G1", "G2"):
        exact = g_series(model, variant, 40).eval(t, tau)
        numeric = g_eval(model, variant, t, tau)
        assert abs(exact - numeric) < 1e-11


def test_values_far_along_the_real_tau_axis():
    # tau -> tau + 8 leaves every q-power unchanged, also where 2 pi tau loses its phase
    model = free_point_model()
    base = h_eval(model, 0.1, 1j)
    for n in (1e12, 1e16, 1e308):
        assert abs(h_eval(model, 0.1, n + 1j) - base) < 1e-12, n
        assert abs(lefschetz_eval(model, 0.1, n + 1j) - base) < 1e-12, n


def test_variant_half_sign_flip():
    series1 = g_series(free_split_model(), "G1", 13)
    series2 = g_series(free_split_model(), "G2", 13)
    assert series2.den == series1.den
    assert series2.num == series1.num.alternate_half_signs()


def test_pole_rejection():
    model = s2_rotation_model()
    for t in (0.0, 1.0, -2.0, 1 + 1e-10):
        with pytest.raises(PoleError):
            h_eval(model, t, 1.1j)
    fast = EquivariantModel("foliated", 1, 0, 0, [point([2])])
    with pytest.raises(PoleError):
        h_eval(fast, 0.5, 1.1j)
    # t = 1/2 is not a pole for speed 1
    assert abs(h_eval(model, 0.5, 1.1j)) == 0


# ---------------------------------------------------------------------------
# transformation laws


def test_slash_identity_matrix():
    fn = evaluator(free_point_model(), "H")
    meta = form_meta(free_point_model(), "H")
    t, tau = 0.23 - 0.04j, 0.15 + 0.9j
    assert abs(slash_value(fn, meta, ((1, 0), (0, 1)), t, tau) - fn(t, tau)) < 1e-14


def test_lattice_shift_identity():
    model = free_point_model()
    meta = form_meta(model, "H")
    fn = evaluator(model, "H")
    t, tau = 0.27 + 0.05j, 0.2 + 1.0j
    lhs = fn(t + 2 * tau, tau)
    rhs = shift_factor(meta, 2, t, tau) * fn(t, tau)
    assert abs(lhs - rhs) / max(abs(lhs), abs(rhs)) < 1e-10


def test_jacobi_residual_free_point():
    model = free_point_model()
    meta = form_meta(model, "H")
    report = jacobi_residual(evaluator(model, "H"), meta, SAMPLES)
    assert report["pass"] and report["max_residual"] < 1e-8
    assert report["meta"]["index"] == "-1/2"
    # wrong weight and wrong index both break the law visibly
    for bad in (
        JacobiFormMeta(meta.weight + 1, meta.index, meta.subgroup),
        JacobiFormMeta(meta.weight, meta.index + 1, meta.subgroup),
    ):
        worse = jacobi_residual(evaluator(model, "H"), bad, SAMPLES)
        assert worse["max_residual"] > 0.01


def test_jacobi_residual_split_variants():
    model = free_split_model()
    for variant in ("G", "G1", "G2"):
        meta = form_meta(model, variant)
        report = jacobi_residual(evaluator(model, variant), meta, SAMPLES)
        assert report["pass"], (variant, report["max_residual"])


def test_jacobi_matrix_outside_subgroup():
    model = free_split_model()
    meta = form_meta(model, "G")
    with pytest.raises(SchemaError):
        jacobi_residual(evaluator(model, "G"), meta, SAMPLES, matrices=[MAT_S])


def test_static_values_build_the_walk_once():
    # the symbolic half of the static pairing is cached per (dim, splitting):
    # every value at every tau, and each variant, share one walk
    from genusforge.charclass import exp_walk
    from genusforge.genus import split_genus_value

    rng = random.Random(61)
    numbers = {m: Q(rng.randint(-9, 9), rng.choice([1, 2, 3])) for m in split_monomials(8, 2, 2)}
    model = EquivariantModel("split", 2, 2, 0, [FixedComponent(8, 1, 2, 2, numbers=numbers)])
    exp_walk.cache_clear()
    taus = [complex(rng.uniform(-0.5, 0.5), rng.uniform(0.3, 1.5)) for _ in range(12)]
    for tau in taus:
        for variant in ("G", "G1", "G2"):
            g_eval(model, variant, 0.21 - 0.03j, tau)
        split_genus_value(model.components[0].static, "R", tau, 1e-12)
    info = exp_walk.cache_info()
    assert info.misses == 1
    assert info.hits == len(taus) * 4 - 1


def test_imaginary_speed_past_the_factor_bound_is_a_schema_error():
    # Im tau = 70 lets Im(s t) = 113 pass the growth bound (572 < 690), but
    # e^(2 pi i s t) leaves double range there; 112 still evaluates
    from genusforge.equivariant import IM_ST_BOUND

    cases = [(free_point_model(), "H")] + [(free_split_model(), f) for f in ("G", "G1", "G2")]
    for model, function in cases:
        quotient = evaluator(model, function)
        for fn in (quotient, lambda t, tau: lefschetz_eval(model, t, tau, function)):
            for t in (0.1 + 112j, 0.37 - 112j):
                assert cmath.isfinite(fn(t, 70j))
            for t in (0.1 + 113j, 0.37 - 113j):
                with pytest.raises(SchemaError, match=f"bound {IM_ST_BOUND:g} "):
                    fn(t, 70j)
    with pytest.raises(SchemaError, match="speed 2 puts"):
        h_eval(EquivariantModel("foliated", 1, 0, 0, [point([2])]), 0.05 + 56.6j, 70j)
