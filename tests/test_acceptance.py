"""Ten acceptance criteria, one verdict line each.

Run with -s to see the verdict lines; each test also asserts its own
criterion, so a plain pytest run reports the same pass/fail per test.
Tolerances and time budgets are stated inline next to each check.
"""

import cmath
import random
import time
from fractions import Fraction

from genusforge.catalog import get, list_entries
from genusforge.equivariant import (
    GENERATORS,
    JacobiFormMeta,
    anomaly_check,
    evaluator,
    h_eval,
    h_series,
    jacobi_residual,
    lefschetz_eval,
    form_meta,
    subgroup_member,
)
from genusforge.genus import subdirac_index, witten_genus
from genusforge.ktheory import KClass, lambda_total, sym_total, witten_element
from genusforge.charclass import BundleRoots, GradedPoly
from genusforge.series import QSeries
from genusforge.theta import KINDS, theta_eval, theta_qseries, verify_transform

from oracles import mat_mul, two_fixed_point_sum

Q = Fraction


def verdict(number, label, ok, detail):
    print(f"criterion {number:2d} [{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"criterion {number} failed: {label}: {detail}"


def tau_t_grid(n=5, m=5):
    # Im tau spans [0.5, 2]; |t| stays at or below 1
    samples = []
    for j in range(m):
        v = j / (m - 1) if m > 1 else 0.5
        tau = complex(-0.4 + 0.8 * v, 0.5 + 1.5 * v)
        for i in range(n):
            u = i / (n - 1) if n > 1 else 0.5
            t = complex(-0.96 + 1.92 * u, 0.02 - 0.04 * (i % 2))
            assert abs(t) <= 1.0
            samples.append((t, tau))
    return samples


def test_criterion_01_theta_transformation_laws():
    samples = tau_t_grid()
    start = time.perf_counter()
    worst = 0.0
    for kind in KINDS:
        for law in ("S", "T"):
            report = verify_transform(kind, law, samples, tol=1e-9)
            assert report["pass"], (kind, law, report["max_residual"])
            worst = max(worst, report["max_residual"])
    conventions = set()
    lattice_worst = 0.0
    for kind in KINDS:
        report = verify_transform(kind, ("lattice", 2, 0), samples, tol=1e-9)
        # exactly one sign convention survives and the report names it
        assert report["pass"]
        assert report["max_residual_negative"] < 1e-9 < report["max_residual_positive"]
        conventions.add(report["sign_convention"])
        lattice_worst = max(lattice_worst, report["max_residual"])
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and conventions == {"negative"} and elapsed < 5.0
    verdict(
        1, "theta S/T laws on the 5x5 grid", ok,
        f"max residual {worst:.3g}, lattice {lattice_worst:.3g} under the "
        f"negative sign convention only, {elapsed:.2f}s",
    )


def test_criterion_02_series_matches_evaluation():
    def series_value(ts, v, tau):
        z = cmath.exp(2j * cmath.pi * v)
        acc = 0j
        for e, lz in ts.expanded().terms():
            acc += cmath.exp(2j * cmath.pi * tau * float(e)) * complex(lz(z))
        if ts.trig == "2sin":
            acc *= 2.0 * cmath.sin(cmath.pi * v)
        elif ts.trig == "2cos":
            acc *= 2.0 * cmath.cos(cmath.pi * v)
        return acc

    taus = (0.35j, 0.25 + 0.31j, -0.45 + 0.5j, 0.1 + 0.2j)
    vs = (0.17, -0.4 + 0.05j, 0.8 - 0.03j, 0.33 + 0.02j)
    worst = 0.0
    for kind in KINDS:
        ts = theta_qseries(kind, 40)
        for tau in taus:
            assert abs(cmath.exp(2j * cmath.pi * tau)) <= 0.3
            for v in vs:
                assert abs(v.imag) <= 0.05 if isinstance(v, complex) else True
                diff = abs(series_value(ts, v, tau) - theta_eval(kind, v, tau))
                worst = max(worst, diff)
    verdict(
        2, "order-40 series vs product evaluation", worst < 1e-10,
        f"max |difference| {worst:.3g} over {4 * len(taus) * len(vs)} points",
    )


def test_criterion_03_classical_numbers_exact():
    from genusforge.genus import ahat_genus, l_genus

    start = time.perf_counter()
    ahat_k3 = ahat_genus(get("k3").build())
    t1 = time.perf_counter() - start
    start = time.perf_counter()
    l_cp2 = l_genus(get("cp2").build())
    t2 = time.perf_counter() - start
    ok = (
        isinstance(ahat_k3, Fraction) and ahat_k3 == 2
        and isinstance(l_cp2, Fraction) and l_cp2 == 1
        and t1 < 1.0 and t2 < 1.0
    )
    verdict(
        3, "Ahat(K3) = 2 and L(CP2) = 1 exactly", ok,
        f"got {ahat_k3} and {l_cp2} in {t1:.3f}s / {t2:.3f}s",
    )


def test_criterion_04_witten_k3_leading_terms():
    start = time.perf_counter()
    numbers = get("k3").build()
    series = witten_genus(numbers, 5)
    elapsed = time.perf_counter() - start
    p1 = numbers["p1"]
    got = [series.coefficient(k) for k in range(3)]
    ok = got == [2, -48, -144] and got[1] == p1 and elapsed < 1.0
    shown = ", ".join(str(c) for c in got)
    verdict(
        4, "Witten genus of K3 through q^2", ok,
        f"coefficients [{shown}], q^1 equals the p1 number {p1}, {elapsed:.3f}s",
    )


def test_criterion_05_ktheory_identities():
    rng = random.Random(271828)
    order = 9  # exact through q^4
    checked = 0
    for _ in range(20):
        top = rng.choice((4, 8))
        budget = rng.randint(1, 3)
        parts = []
        for name in ("A", "B", "C"):
            if budget == 0:
                break
            pairs = rng.randint(1, budget)
            budget -= pairs
            parts.append(KClass.bundle(BundleRoots(pairs, name), top))
        E = parts[0]
        for extra in parts[1:]:
            E = E + extra
        one = QSeries.one(GradedPoly({}, top), order)
        assert sym_total(E, 1, order) * lambda_total(E, 1, order, sign=-1) == one
        if len(parts) > 1:
            split = rng.randint(1, len(parts) - 1)
            A, B = parts[0], parts[split]
            for extra in parts[1:split]:
                A = A + extra
            for extra in parts[split + 1:]:
                B = B + extra
            assert witten_element(E, order) == witten_element(A, order) * witten_element(B, order)
        checked += 1
    verdict(
        5, "Sym/Lambda cancellation and Witten multiplicativity", checked == 20,
        f"{checked} random classes of at most 3 root pairs, exact through q^4",
    )


def test_criterion_06_vanishing():
    model = get("s2rot_x_t2").build()
    assert anomaly_check(model) == 1
    series = h_series(model, 8)  # slots through q^(7/2), so q^3 included
    assert series.is_zero()
    worst = 0.0
    for t, tau in ((0.23 - 0.04j, 0.15 + 0.9j), (-0.37 + 0.06j, -0.2 + 1.3j),
                   (0.41 + 0.02j, 0.05 + 0.7j)):
        worst = max(worst, abs(h_eval(model, t, tau)))
    rotation = get("s2_rotation").build()
    exact_q0 = h_series(rotation, 2).coefficient(Q(0))
    oracle_q0 = two_fixed_point_sum([1, -1], "dirac")
    ok = (series.is_zero() and worst < 1e-9
          and not exact_q0 and oracle_q0.is_zero())
    verdict(
        6, "vanishing on the anomaly-1 models", ok,
        f"H series identically 0, |H| <= {worst:.3g} on the grid, rotation "
        "q^0 term cancels as a rational function",
    )


def sample_points(rng, count):
    out = []
    while len(out) < count:
        t = complex(0.08 + 0.34 * rng.random(), -0.1 + 0.2 * rng.random())
        tau = complex(-0.35 + 0.7 * rng.random(), 0.55 + 0.95 * rng.random())
        out.append((t, tau))
    return out


def test_criterion_07_dual_path_agreement():
    rng = random.Random(1729)
    models = [n for n in list_entries() if get(n).kind == "equivariant"]
    worst = 0.0
    for name in models:
        entry = get(name)
        model = entry.build()
        function = entry.expected["function"]
        quotient = evaluator(model, function)
        for t, tau in sample_points(rng, 20):
            a = quotient(t, tau)
            b = lefschetz_eval(model, t, tau, function)
            worst = max(worst, abs(a - b))
    ok = worst < 1e-9
    verdict(
        7, "theta-quotient vs direct Lefschetz", ok,
        f"max |difference| {worst:.3g} over {len(models)} models x 20 points",
    )


def test_criterion_08_jacobi_residuals():
    model = get("free_point").build()
    meta = form_meta(model, "H")
    samples = ((0.23 - 0.04j, 0.15 + 0.9j), (-0.41 + 0.06j, -0.2 + 1.4j))
    fn = evaluator(model, "H")
    report = jacobi_residual(fn, meta, samples, tol=1e-8)
    wrong = JacobiFormMeta(meta.weight + 1, meta.index, meta.subgroup, meta.lattice)
    control = jacobi_residual(fn, wrong, samples, tol=1e-8)
    ok = report["pass"] and control["max_residual"] > 0.01
    verdict(
        8, "Jacobi laws on the single-point model", ok,
        f"residual {report['max_residual']:.3g} with weight {meta.weight} "
        f"index {meta.index}; perturbed weight leaves {control['max_residual']:.3g}",
    )


def test_criterion_09_subgroup_membership():
    def mod2(mat):
        return tuple(tuple(x % 2 for x in row) for row in mat)

    def closure(name):
        seen = set()
        frontier = [mod2(((1, 0), (0, 1)))]
        gens = [mod2(g) for g in GENERATORS[name]]
        while frontier:
            mat = frontier.pop()
            if mat in seen:
                continue
            seen.add(mat)
            for g in gens:
                frontier.append(mod2(mat_mul(mat, g)))
        return seen

    closures = {name: closure(name) for name in GENERATORS}
    assert len(closures["sl2z"]) == 6
    S = ((0, -1), (1, 0))
    T = ((1, 1), (0, 1))
    T_inv = ((1, -1), (0, 1))
    S_inv = ((0, 1), (-1, 0))
    rng = random.Random(65537)
    words = 0
    for _ in range(1000):
        mat = ((1, 0), (0, 1))
        for _ in range(rng.randint(1, 14)):
            mat = mat_mul(mat, rng.choice((S, T, T_inv, S_inv)))
        for name in GENERATORS:
            assert subgroup_member(name, mat) == (mod2(mat) in closures[name]), (name, mat)
        words += 1
    verdict(
        9, "membership vs brute-force mod-2 closure", words == 1000,
        f"{words} random generator words, all four subgroups agree",
    )


def test_criterion_10_integrality_of_spin_entries():
    from test_catalog import as_split_spec

    spin = [n for n in list_entries() if get(n).expected.get("spin")]
    assert spin == ["point", "k3", "k3_split", "s2xs2_split"]
    checked = []
    for name in spin:
        spec = as_split_spec(get(name))
        psi = witten_element(KClass.bundle(spec.F, spec.dim), 8)
        series = subdirac_index(spec, psi=psi)
        for k in range(8):  # covers q^0 .. q^3 on the half grid
            value = series.coefficient(Q(k, 2))
            assert value.denominator == 1, (name, k, value)
        checked.append(name)
    verdict(
        10, "integer sub-Dirac towers on spin entries", checked == spin,
        f"orders 0..3 integral on {', '.join(checked)}",
    )
