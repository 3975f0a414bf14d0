"""A small model catalog with frozen expected results.

Three kinds of entries: plain characteristic-number tables (classical
genera and the Witten genus), split tangent specs (the twisted genera),
and fixed-locus models of circle actions (the H and G functions).  Every
entry stores its expected values, so the catalog doubles as a regression
suite: selftest() recomputes each entry and compares.

Expected q-series are stored slot by slot on the half-integer grid as
exact fraction strings; expected Laurent data maps w-exponents to
fraction strings.  Numeric checks (transformation laws, dual evaluation
paths) store their sample points and tolerances.
"""

from __future__ import annotations

import warnings
from fractions import Fraction

from genusforge.charclass import CharNumbers
from genusforge.equivariant import (
    EquivariantModel,
    anomaly_check,
    evaluator,
    exact_series,
    jacobi_residual,
    lefschetz_eval,
    form_meta,
)
from genusforge.errors import SchemaError
from genusforge.genus import (
    IntegralityWarning,
    SplitManifoldSpec,
    ahat_genus,
    l_genus,
    split_genus,
    subdirac_index,
    witten_genus,
)
from genusforge.rings import fraction_str, laurent_strings

Q = Fraction

SERIES_ORDER = 10
JACOBI_SAMPLES = ((0.23 - 0.04j, 0.15 + 0.9j), (-0.41 + 0.06j, -0.2 + 1.4j))
DUAL_POINT = (0.31 - 0.07j, 0.2 + 1.1j)
JACOBI_TOL = 1e-8
DUAL_TOL = 1e-9


class CatalogEntry:
    __slots__ = ("name", "kind", "describe", "notes", "_build", "expected")

    def __init__(self, name, kind, describe, notes, build, expected):
        self.name = name
        self.kind = kind
        self.describe = describe
        self.notes = notes
        self._build = build
        self.expected = expected

    def build(self):
        return self._build()

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "describe": self.describe,
            "notes": self.notes,
            "model": self.build().to_json(),
            "expected": self.expected,
        }


def _series_strings(series, count):
    return [fraction_str(series.coefficient(Q(k, 2))) for k in range(count)]


# ---------------------------------------------------------------------------
# builders


def _point_numbers():
    return CharNumbers(0, {"1": 1}, spin=True)


def _k3_numbers():
    # p1 = 3 sigma = 3 * (-16) for this spin surface
    return CharNumbers(4, {"p1": -48}, spin=True)


def _cp2_numbers():
    # p1 = 3 h^2 on the projective plane; not spin
    return CharNumbers(4, {"p1": 3}, spin=False)


def _k3_split():
    return SplitManifoldSpec(4, 2, 0, {"p1(F)": -48}, f_spin=True, m_spin=True)


def _s2xs2_split():
    return SplitManifoldSpec(
        4, 1, 1, {"p1(F)": 0, "p1(Fperp)": 0}, f_spin=True, m_spin=True
    )


def _fixed_point(m_speeds, n_speeds=()):
    return {
        "dim": 0, "orientation": 1, "f0_pairs": 0, "fperp0_pairs": 0,
        "moving_f": [{"rank": 1, "m": m} for m in m_speeds],
        "moving_fperp": [{"rank": 1, "n": n} for n in n_speeds],
        "numbers": {"1": 1},
    }


def _s2_rotation():
    return EquivariantModel("foliated", 1, 0, 0, [_fixed_point([1]), _fixed_point([-1])])


def _s2rot_x_t2():
    comp = {
        "dim": 2, "orientation": 1, "f0_pairs": 0, "fperp0_pairs": 1,
        "moving_f": [{"rank": 1, "m": 1}], "moving_fperp": [], "numbers": {},
    }
    other = dict(comp, moving_f=[{"rank": 1, "m": -1}])
    return EquivariantModel("foliated", 1, 1, 0, [comp, other])


def _free_point():
    return EquivariantModel("foliated", 1, 0, 0, [_fixed_point([1])])


def _free_split_point():
    return EquivariantModel("split", 1, 1, 0, [_fixed_point([1], [1])])


def _s2xs2_rotation():
    points = [
        _fixed_point([sm], [sn]) for sm in (1, -1) for sn in (1, -1)
    ]
    return EquivariantModel("split", 1, 1, 0, points)


# ---------------------------------------------------------------------------
# the entries


_ZEROS = ["0/1"] * SERIES_ORDER
_K3_TOWER = ["2/1", "0/1", "-48/1", "0/1", "-144/1", "0/1", "-192/1", "0/1", "-336/1", "0/1"]

ENTRIES = [
    CatalogEntry(
        "point", "numbers",
        "the zero-dimensional manifold",
        "every genus tower collapses to its constant term",
        _point_numbers,
        {
            "spin": True,
            "witten": ["1/1"] + ["0/1"] * (SERIES_ORDER - 1),
            "ahat": "1/1",
        },
    ),
    CatalogEntry(
        "k3", "numbers",
        "the spin surface with signature -16",
        "p1 pairs to -48; the Dirac index is 2 and the Witten tower "
        "follows with integer coefficients",
        _k3_numbers,
        {
            "spin": True,
            "ahat": "2/1",
            "witten": _K3_TOWER,
        },
    ),
    CatalogEntry(
        "cp2", "numbers",
        "the projective plane, signature 1, not spin",
        "the signature pairing gives 1 exactly; the Ahat value -1/8 "
        "demonstrates the integrality warning on a non-spin input",
        _cp2_numbers,
        {
            "spin": False,
            "l": "1/1",
            "ahat": "-1/8",
            "warns": True,
        },
    ),
    CatalogEntry(
        "k3_split", "split",
        "the spin surface with the trivial splitting F = TM",
        "with no Fperp block every twisted variant collapses onto the "
        "Witten tower of F",
        _k3_split,
        {
            "spin": True,
            "R": list(_K3_TOWER),
        },
    ),
    CatalogEntry(
        "s2xs2_split", "split",
        "a product of two 2-spheres split factor by factor",
        "both blocks have vanishing p1, so all three twisted genera "
        "vanish slot by slot",
        _s2xs2_split,
        {
            "spin": True,
            "R": _ZEROS, "R1": _ZEROS, "R2": _ZEROS,
        },
    ),
    CatalogEntry(
        "s2_rotation", "equivariant",
        "a rotating 2-sphere: two fixed points with opposite speeds",
        "the two point characters cancel, so H vanishes identically; "
        "the q^0 row is 1/(w - 1/w) + 1/(1/w - w)",
        _s2_rotation,
        {
            "function": "H",
            "anomaly": 1,
            "zero_series": True,
            "meta": {"weight": 1, "index": "-1/2", "subgroup": "sl2z", "lattice": 2},
        },
    ),
    CatalogEntry(
        "s2rot_x_t2", "equivariant",
        "a rotating sphere times a static torus, foliated by the torus",
        "each fixed component is a torus with vanishing numbers, so "
        "every pairing dies by degree and H vanishes identically",
        _s2rot_x_t2,
        {
            "function": "H",
            "anomaly": 1,
            "zero_series": True,
            "meta": {"weight": 2, "index": "-1/2", "subgroup": "sl2z", "lattice": 2},
        },
    ),
    CatalogEntry(
        "free_point", "equivariant",
        "one free fixed point of speed one",
        "the single character survives: H is the theta-prime over theta "
        "quotient, the smallest function with the full transformation law",
        _free_point,
        {
            "function": "H",
            "anomaly": 1,
            "zero_series": False,
            "den": {"1": "1/1", "-1": "-1/1"},
            "q_rows": {
                "0": {"0": "1/1"},
                "1": {"2": "1/1", "0": "-2/1", "-2": "1/1"},
                "2": {"4": "1/1", "2": "-1/1", "-2": "-1/1", "-4": "1/1"},
            },
            "meta": {"weight": 1, "index": "-1/2", "subgroup": "sl2z", "lattice": 2},
            "jacobi_pass": True,
            "dual_path": True,
        },
    ),
    CatalogEntry(
        "free_split_point", "equivariant",
        "one fixed point with a moving F line and a moving Fperp line",
        "the smallest split model: each G variant is one W character "
        "times one V quotient, transforming over its level-2 subgroup",
        _free_split_point,
        {
            "function": "G",
            "anomaly": 1,
            "zero_series": False,
            "den": {"2": "1/1", "0": "-2/1", "-2": "1/1"},
            "q_rows": {"0": {"1": "1/1", "-1": "1/1"}},
            "variant_rows": {
                "G1": {"0": {"0": "1/1"},
                       "1/2": {"2": "-1/1", "0": "2/1", "-2": "-1/1"}},
                "G2": {"0": {"0": "1/1"},
                       "1/2": {"2": "1/1", "0": "-2/1", "-2": "1/1"}},
            },
            "meta": {"weight": 2, "index": "-1/2", "subgroup": "gamma0_2", "lattice": 2},
            "jacobi_pass": True,
            "jacobi_variants": {"G1": "gamma_upper0_2", "G2": "gamma_theta"},
            "dual_path": True,
        },
    ),
    CatalogEntry(
        "s2xs2_rotation", "equivariant",
        "rotations on both spheres of a product: four fixed points",
        "the W character is odd in m and the V quotient odd in n, so the "
        "four sign patterns cancel and every G variant vanishes",
        _s2xs2_rotation,
        {
            "function": "G",
            "anomaly": 1,
            "zero_series": True,
            "zero_variants": ["G", "G1", "G2"],
        },
    ),
]

_BY_NAME = {entry.name: entry for entry in ENTRIES}


def list_entries():
    return [entry.name for entry in ENTRIES]


def get(name) -> CatalogEntry:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise SchemaError(f"unknown catalog entry {name!r}") from None


# ---------------------------------------------------------------------------
# selftest


def _check(rows, label, ok, detail=""):
    rows.append({"check": label, "pass": bool(ok), "detail": detail})


def _selftest_numbers(entry, rows):
    numbers = entry.build()
    expected = entry.expected
    if "ahat" in expected:
        got = ahat_genus(numbers)
        _check(rows, "ahat", fraction_str(got) == expected["ahat"], fraction_str(got))
    if "l" in expected:
        got = l_genus(numbers)
        _check(rows, "l", fraction_str(got) == expected["l"], fraction_str(got))
    if "witten" in expected:
        series = witten_genus(numbers, SERIES_ORDER)
        got = _series_strings(series, SERIES_ORDER)
        _check(rows, "witten", got == expected["witten"], ", ".join(got))
    if expected.get("warns"):
        spec = SplitManifoldSpec(
            numbers.dim, numbers.dim // 2, 0,
            {f"{m}(F)" if m != "1" else m: c
             for m, c in numbers.to_json()["numbers"].items()},
            f_spin=bool(numbers.spin),
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            subdirac_index(spec)
        fired = any(issubclass(c.category, IntegralityWarning) for c in caught)
        _check(rows, "warns", fired, f"{len(caught)} warnings")


def _selftest_split(entry, rows):
    spec = entry.build()
    for variant in ("R", "R1", "R2"):
        if variant not in entry.expected:
            continue
        series = split_genus(spec, variant, SERIES_ORDER)
        got = _series_strings(series, SERIES_ORDER)
        _check(rows, variant, got == entry.expected[variant], ", ".join(got))


def _selftest_equivariant(entry, rows):
    model = entry.build()
    expected = entry.expected
    function = expected["function"]
    if "anomaly" in expected:
        got = anomaly_check(model)
        _check(rows, "anomaly", got == expected["anomaly"], str(got))
    series = exact_series(model, function, SERIES_ORDER)
    if expected.get("zero_series"):
        _check(rows, "zero series", series.is_zero())
        for variant in expected.get("zero_variants", ()):
            other = exact_series(model, variant, SERIES_ORDER)
            _check(rows, f"zero {variant}", other.is_zero())
        t, tau = DUAL_POINT
        val = abs(evaluator(model, function)(t, tau))
        _check(rows, "zero numeric", val < 1e-12, f"{val:.3g}")
    if "den" in expected:
        got = laurent_strings(series.den)
        _check(rows, "denominator", got == expected["den"], str(got))
    for row, want in expected.get("q_rows", {}).items():
        got = laurent_strings(series.coefficient(Fraction(row)))
        _check(rows, f"q^{row}", got == want, str(got))
    for variant, vrows in expected.get("variant_rows", {}).items():
        other = exact_series(model, variant, SERIES_ORDER)
        for row, want in vrows.items():
            got = laurent_strings(other.coefficient(Fraction(row)))
            _check(rows, f"{variant} q^{row}", got == want, str(got))
    if "meta" in expected:
        got = form_meta(model, function).to_json()
        _check(rows, "meta", got == expected["meta"], str(got))
    if expected.get("jacobi_pass"):
        report = jacobi_residual(
            evaluator(model, function), form_meta(model, function),
            JACOBI_SAMPLES, tol=JACOBI_TOL,
        )
        _check(rows, "jacobi", report["pass"], f"{report['max_residual']:.3g}")
        for variant, subgroup in expected.get("jacobi_variants", {}).items():
            meta = form_meta(model, variant)
            ok = meta.subgroup == subgroup
            report = jacobi_residual(
                evaluator(model, variant), meta, JACOBI_SAMPLES, tol=JACOBI_TOL,
            )
            _check(rows, f"jacobi {variant}", ok and report["pass"],
                   f"{report['max_residual']:.3g}")
    if expected.get("dual_path"):
        t, tau = DUAL_POINT
        a = evaluator(model, function)(t, tau)
        b = lefschetz_eval(model, t, tau, function)
        _check(rows, "dual path", abs(a - b) < DUAL_TOL, f"{abs(a - b):.3g}")


_RUNNERS = {
    "numbers": _selftest_numbers,
    "split": _selftest_split,
    "equivariant": _selftest_equivariant,
}


def selftest(names=None) -> dict:
    report = {"entries": [], "pass": True}
    for name in names or list_entries():
        entry = get(name)
        rows = []
        _RUNNERS[entry.kind](entry, rows)
        ok = all(row["pass"] for row in rows)
        report["entries"].append({"name": entry.name, "checks": rows, "pass": ok})
        report["pass"] = report["pass"] and ok
    return report
