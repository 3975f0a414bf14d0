"""Catalog entries, frozen expectations, and the selftest report."""

import random
import warnings
from fractions import Fraction

import pytest

from genusforge.catalog import SERIES_ORDER, get, list_entries, selftest
from genusforge.charclass import CharNumbers
from genusforge.equivariant import (
    EquivariantModel,
    JacobiFormMeta,
    g_series,
    h_series,
    form_meta,
)
from genusforge.errors import SchemaError
from genusforge.genus import (
    SplitManifoldSpec,
    split_genus,
    subdirac_index,
    witten_genus,
)
from genusforge.ktheory import KClass, witten_element
from genusforge.rings import fraction_str

Q = Fraction

NAMES = [
    "point", "k3", "cp2", "k3_split", "s2xs2_split",
    "s2_rotation", "s2rot_x_t2", "free_point", "free_split_point",
    "s2xs2_rotation",
]


def slot_strings(series, count):
    return [fraction_str(series.coefficient(Q(k, 2))) for k in range(count)]


def test_listing():
    assert list_entries() == NAMES


def test_get_returns_named_entry():
    for name in NAMES:
        entry = get(name)
        assert entry.name == name
        assert entry.kind in ("numbers", "split", "equivariant")
        assert entry.describe


def test_get_unknown_raises():
    with pytest.raises(SchemaError):
        get("k4")


def test_selftest_full_green():
    report = selftest()
    assert report["pass"] is True
    assert [row["name"] for row in report["entries"]] == NAMES
    for row in report["entries"]:
        assert row["pass"] is True
        assert row["checks"]
        for check in row["checks"]:
            assert check["pass"] is True
            assert isinstance(check["check"], str)


def test_selftest_subsets():
    rng = random.Random(20260822)
    for _ in range(5):
        picked = rng.sample(NAMES, rng.randrange(1, 4))
        report = selftest(picked)
        assert [row["name"] for row in report["entries"]] == picked
        assert report["pass"] is True


def test_entry_json_round_trip():
    rebuild = {
        "numbers": CharNumbers.from_json,
        "split": SplitManifoldSpec.from_json,
        "equivariant": EquivariantModel.from_json,
    }
    for name in NAMES:
        entry = get(name)
        obj = entry.to_json()
        assert set(obj) == {"name", "kind", "describe", "notes", "model", "expected"}
        again = rebuild[entry.kind](obj["model"])
        assert again.to_json() == obj["model"]


def test_k3_tower_matches_recomputation():
    entry = get("k3")
    series = witten_genus(entry.build(), SERIES_ORDER)
    assert slot_strings(series, SERIES_ORDER) == entry.expected["witten"]


def test_k3_split_collapses_to_witten():
    spec = get("k3_split").build()
    twisted = split_genus(spec, "R", SERIES_ORDER)
    plain = witten_genus(get("k3").build(), SERIES_ORDER)
    for k in range(SERIES_ORDER):
        assert twisted.coefficient(Q(k, 2)) == plain.coefficient(Q(k, 2))


def as_split_spec(entry):
    if entry.kind == "split":
        return entry.build()
    numbers = entry.build().to_json()["numbers"]
    tagged = {m if m == "1" else f"{m}(F)": c for m, c in numbers.items()}
    dim = entry.build().dim
    return SplitManifoldSpec(dim, dim // 2, 0, tagged, f_spin=True, m_spin=True)


def test_spin_entries_subdirac_integral():
    spin_names = [n for n in NAMES if get(n).expected.get("spin")]
    assert spin_names == ["point", "k3", "k3_split", "s2xs2_split"]
    for name in spin_names:
        spec = as_split_spec(get(name))
        psi = witten_element(KClass.bundle(spec.F, spec.dim), 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            series = subdirac_index(spec, psi=psi)
        for k in range(8):
            assert series.coefficient(Q(k, 2)).denominator == 1, (name, k)


def test_witten_and_split_genera_raise_no_warning_without_spin():
    # only subdirac_index checks integrality, so the selftest needs no warning guard
    cp2 = get("cp2").build()
    assert not cp2.spin
    non_spin = SplitManifoldSpec(4, 1, 1, {"p1(F)": 3, "p1(Fperp)": 0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        witten_genus(cp2, SERIES_ORDER)
        for variant in ("R", "R1", "R2"):
            split_genus(non_spin, variant, SERIES_ORDER)


def test_equivariant_entries_vanish_as_expected():
    assert h_series(get("s2_rotation").build(), 8).is_zero()
    assert h_series(get("s2rot_x_t2").build(), 8).is_zero()
    model = get("s2xs2_rotation").build()
    for variant in ("G", "G1", "G2"):
        assert g_series(model, variant, 8).is_zero()


def test_free_point_rows_frozen():
    entry = get("free_point")
    series = h_series(entry.build(), SERIES_ORDER)
    den = {str(e): fraction_str(c) for e, c in series.den.items()}
    assert den == entry.expected["den"]
    for row, want in entry.expected["q_rows"].items():
        got = {str(e): fraction_str(c) for e, c in series.coefficient(Q(row)).items()}
        assert got == want


def test_meta_round_trips_and_matches():
    for name in NAMES:
        entry = get(name)
        meta = entry.expected.get("meta")
        if meta is None:
            continue
        model = entry.build()
        assert form_meta(model, entry.expected["function"]).to_json() == meta
        again = JacobiFormMeta(meta["weight"], meta["index"], meta["subgroup"], meta["lattice"])
        assert again.to_json() == meta
