"""End-to-end command line dispatch, report shape, and exit codes."""

import hashlib
import json
import os
import random
import subprocess
import sys
import time

import pytest

import genusforge
from genusforge.catalog import get, list_entries
from genusforge.cli import main, run
from genusforge.equivariant import h_eval


def write_model(tmp_path, name, payload):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def k3_file(tmp_path):
    return write_model(tmp_path, "k3", get("k3").to_json()["model"])


@pytest.fixture
def k3_split_file(tmp_path):
    return write_model(tmp_path, "k3_split", get("k3_split").to_json()["model"])


@pytest.fixture
def free_point_file(tmp_path):
    return write_model(tmp_path, "free_point", get("free_point").to_json()["model"])


@pytest.fixture
def free_split_file(tmp_path):
    return write_model(tmp_path, "free_split", get("free_split_point").to_json()["model"])


def test_genus_compute_witten(k3_file):
    code, report, fmt = run(
        ["genus", "compute", "--spec", k3_file, "--genus", "witten", "--order", "2"]
    )
    assert code == 0 and fmt == "json"
    assert report["command"] == "genus compute"
    assert report["results"]["mode"] == "exact"
    assert report["results"]["series"] == [["0", "2/1"], ["1", "-48/1"], ["2", "-144/1"]]
    digest = hashlib.sha256(open(k3_file, "rb").read()).hexdigest()
    assert report["inputs"]["spec"]["sha256"] == digest
    assert report["pass"] is True and report["verdicts"] == []
    assert report["threads"] == 1


def test_genus_split_and_subdirac_agree_on_trivial_splitting(k3_file, k3_split_file):
    plain = run(["genus", "compute", "--spec", k3_file, "--genus", "witten", "--order", "3"])[1]
    twisted = run(
        ["genus", "compute", "--spec", k3_split_file, "--genus", "split-R", "--order", "3"]
    )[1]
    tower = run(
        ["genus", "compute", "--spec", k3_split_file, "--genus", "subdirac", "--order", "3"]
    )[1]
    assert twisted["results"]["series"] == plain["results"]["series"]
    assert tower["results"]["series"] == plain["results"]["series"]
    assert tower["warnings"] == []


def test_genus_subdirac_warns_without_spin(tmp_path):
    spec = {
        "dim": 4, "f_pairs": 2, "fperp_pairs": 0,
        "numbers": {"p1(F)": "3/1"}, "f_spin": False, "m_spin": False,
    }
    path = write_model(tmp_path, "cp2_split", spec)
    code, report, _ = run(
        ["genus", "compute", "--spec", path, "--genus", "subdirac", "--order", "1"]
    )
    assert code == 0
    assert report["results"]["series"][0] == ["0", "-1/8"]
    assert any("not guaranteed" in note for note in report["warnings"])


def test_genus_missing_file_exit_2(tmp_path):
    code, report, _ = run(
        ["genus", "compute", "--spec", str(tmp_path / "nope.json"),
         "--genus", "witten", "--order", "1"]
    )
    assert code == 2
    assert report["error"]["type"] == "SchemaError"
    assert "nope.json" in report["error"]["message"]


def _split_speed(n):
    model = get("free_split_point").to_json()["model"]
    model["components"][0]["moving_fperp"][0]["n"] = n
    return model


def _bool_point(**fields):
    comp = {"dim": 0, "orientation": 1, "moving_f": [{"rank": 1, "m": 1}], "numbers": {"1": 1}}
    comp.update(fields)
    return {"mode": "foliated", "p": 1, "r": 0, "components": [comp]}


def _free_point_of_rank(rank, speed=1):
    """One free fixed point whose moving block has the given rank (and speed)."""
    comp = {"dim": 0, "orientation": 1, "moving_f": [{"rank": rank, "m": speed}],
            "numbers": {"1": 1}}
    return {"mode": "foliated", "p": rank, "r": 0, "components": [comp]}


def _spin_spec(**flags):
    spec = {"dim": 4, "f_pairs": 2, "fperp_pairs": 0, "numbers": {"p1(F)": "3/1"}}
    spec.update(flags)
    return spec


def _raw(payload, old, new):
    """payload's JSON text with old written as new, as raw bytes."""
    text = json.dumps(payload)
    assert old in text
    return text.replace(old, new).encode()


# numbers valid JSON allows, written out: a point's past double range, and
# a static component's whose pairing leaves it
_BIG_POINT = _raw(_bool_point(), '"1": 1}', '"1": 1' + "0" * 400 + "}")
_BIG_STATIC = _raw(
    {"mode": "split", "p": 1, "r": 1, "components": [
        {"dim": 4, "orientation": 1, "f0_pairs": 1, "fperp0_pairs": 1,
         "numbers": {"p1(F)": 7, "p1(Fperp)": "1/7"}}]},
    '"p1(F)": 7, "p1(Fperp)": "1/7"', '"p1(F)": 1' + "0" * 300 + ', "p1(Fperp)": "1/' + "7" * 300 + '"',
)
_WITTEN_2 = ["genus", "compute", "--genus", "witten", "--order", "2", "--spec"]
_SUBDIRAC = ["genus", "compute", "--genus", "subdirac", "--order", "1", "--spec"]
_RANGE_POINT = ["--t", "0.2137+0.0123j", "--tau", "0.1+1j", "--model"]
_THETA = ["theta", "check", "--kind", "theta", "--law", "S"]

_MALFORMED = {
    "dim_not_integer": (
        ["genus", "compute", "--genus", "witten", "--order", "4", "--spec"],
        {"dim": "x", "numbers": {"p1": 3}},
    ),
    "numbers_not_object": (
        ["genus", "compute", "--genus", "witten", "--order", "4", "--spec"],
        {"dim": 4, "numbers": []},
    ),
    "split_dim_not_integer": (
        ["genus", "compute", "--genus", "split-R", "--order", "4", "--spec"],
        {"dim": "x", "f_pairs": 1, "fperp_pairs": 0, "numbers": {"p1(F)": 3}},
    ),
    "split_pairs_not_integer": (
        ["genus", "compute", "--genus", "split-R", "--order", "4", "--spec"],
        {"dim": 4, "f_pairs": "a", "fperp_pairs": 0, "numbers": {"p1(F)": 3}},
    ),
    "split_numbers_not_object": (
        ["genus", "compute", "--genus", "split-R", "--order", "4", "--spec"],
        {"dim": 4, "f_pairs": 2, "fperp_pairs": 0, "numbers": []},
    ),
    "speed_not_integer": (
        ["equivariant", "H", "--exact", "--order", "6", "--model"],
        {"mode": "foliated", "p": 1, "r": 0, "components": [
            {"dim": 0, "orientation": 1, "moving_f": [{"rank": 1, "m": "a"}],
             "numbers": {"1": 1}}]},
    ),
    "tau_below_floor": (
        ["equivariant", "H", "--t", "0.2", "--tau=0.01j", "--model"],
        get("free_point").to_json()["model"],
    ),
    "lefschetz_tau_below_floor": (
        ["equivariant", "lefschetz", "--t", "0.2", "--tau", "0.01j", "--model"],
        get("free_point").to_json()["model"],
    ),
    # q^(1/8) underflows near Im tau = 900
    "tau_above_ceiling": (
        ["equivariant", "H", "--t", "0.1", "--tau", "950j", "--model"],
        get("free_point").to_json()["model"],
    ),
    "lefschetz_tau_below_axis": (
        ["equivariant", "lefschetz", "--t", "0.2", "--tau=-0.1j", "--model"],
        get("free_point").to_json()["model"],
    ),
    # theta products past double range: NaN, ZeroDivisionError, OverflowError
    "speed_5001_past_double_range": (["equivariant", "G"] + _RANGE_POINT, _split_speed(5001)),
    "speed_12007_past_double_range": (["equivariant", "G"] + _RANGE_POINT, _split_speed(12007)),
    "lefschetz_speed_12007_past_double_range": (
        ["equivariant", "lefschetz"] + _RANGE_POINT, _split_speed(12007),
    ),
    "speed_1000007_past_double_range": (
        ["equivariant", "G"] + _RANGE_POINT, _split_speed(10**6 + 7),
    ),
    # every factor in range, their product at rank 64 past it: NaN, OverflowError
    "rank_64_value_nan": (
        ["equivariant", "H", "--t", "1e-7", "--tau", "1j", "--model"], _free_point_of_rank(64),
    ),
    "rank_64_value_overflow": (
        ["equivariant", "H", "--t", "1e-6", "--tau", "1j", "--model"], _free_point_of_rank(64),
    ),
    "lefschetz_rank_64_value_nan": (
        ["equivariant", "lefschetz", "--t", "1e-7", "--tau", "1j", "--model"],
        _free_point_of_rank(64),
    ),
    "lefschetz_rank_64_value_overflow": (
        ["equivariant", "lefschetz", "--t", "1e-6", "--tau", "1j", "--model"],
        _free_point_of_rank(64),
    ),
    # the expanded (w - 1/w)^rank cancels near t = 0: a finite, wrong exact value
    "exact_rank_64_near_pole": (
        ["equivariant", "H", "--exact", "--order", "2", "--t", "1e-7", "--tau", "1j", "--model"],
        _free_point_of_rank(64),
    ),
    "exact_rank_8_near_pole": (
        ["equivariant", "H", "--exact", "--order", "40", "--t", "1e-3", "--tau", "1j",
         "--model"],
        _free_point_of_rank(8),
    ),
    # JSON booleans are not integers
    "moving_block_booleans": (
        ["equivariant", "H", "--exact", "--order", "6", "--model"],
        _bool_point(moving_f=[{"rank": True, "m": True}]),
    ),
    "orientation_boolean": (
        ["equivariant", "H", "--exact", "--order", "6", "--model"], _bool_point(orientation=True),
    ),
    "number_boolean": (
        ["genus", "compute", "--genus", "witten", "--order", "4", "--spec"],
        {"dim": 4, "numbers": {"p1": True}},
    ),
    "split_number_boolean": (
        ["genus", "compute", "--genus", "split-R", "--order", "4", "--spec"],
        {"dim": 4, "f_pairs": 2, "fperp_pairs": 0, "numbers": {"p1(F)": True}},
    ),
    "component_number_boolean": (
        ["equivariant", "H", "--exact", "--order", "6", "--model"],
        _bool_point(numbers={"1": True}),
    ),
    "split_pairs_negative": (
        ["genus", "compute", "--genus", "split-R", "--order", "4", "--spec"],
        {"dim": 4, "f_pairs": -1, "fperp_pairs": 3, "numbers": {"p1(Fperp)": 3}},
    ),
    # numbers that are not exact rationals, and dims or degrees that do not fit
    "number_float": (
        ["genus", "compute", "--genus", "witten", "--order", "4", "--spec"],
        {"dim": 4, "numbers": {"p1": 1.5}},
    ),
    "dim_negative": (
        ["genus", "compute", "--genus", "witten", "--order", "4", "--spec"],
        {"dim": -4, "numbers": {}},
    ),
    "monomial_wrong_degree": (
        ["genus", "compute", "--genus", "witten", "--order", "4", "--spec"],
        {"dim": 8, "numbers": {"p1": 3}},
    ),
    "split_number_list": (
        ["genus", "compute", "--genus", "split-R", "--order", "4", "--spec"],
        {"dim": 4, "f_pairs": 2, "fperp_pairs": 0, "numbers": {"p1(F)": []}},
    ),
    "component_number_object": (
        ["equivariant", "H", "--exact", "--order", "6", "--model"],
        _bool_point(numbers={"1": {}}),
    ),
    # acceptance tolerances must be finite and positive
    "jacobi_tol_inf": (["jacobi", "verify", "--tol", "inf", "--model"],
                       get("free_point").to_json()["model"]),
    "jacobi_tol_negative": (["jacobi", "verify", "--tol", "-1", "--model"],
                            get("free_point").to_json()["model"]),
    "jacobi_tol_zero": (["jacobi", "verify", "--tol", "0", "--model"],
                        get("free_point").to_json()["model"]),
    "theta_tol_nan": (_THETA + ["--tol", "nan"], None),
    "theta_tol_inf": (_THETA + ["--tol", "inf"], None),
    # points that are not finite, or whose s t leaves double range
    "t_nan": (["equivariant", "H", "--t", "nan", "--tau", "1j", "--model"],
              get("free_point").to_json()["model"]),
    "tau_imag_overflow": (["equivariant", "H", "--t", "0.1", "--tau", "1e400j", "--model"],
                          get("free_point").to_json()["model"]),
    "t_imag_squared_overflow": (
        ["equivariant", "H", "--t", "0.1+1e300j", "--tau", "1j", "--model"],
        get("free_point").to_json()["model"],
    ),
    "lefschetz_t_inf": (["equivariant", "lefschetz", "--t", "inf", "--tau", "1j", "--model"],
                        get("free_point").to_json()["model"]),
    "exact_t_nan": (["equivariant", "H", "--exact", "--t", "nan", "--tau", "1j", "--model"],
                    get("free_point").to_json()["model"]),
    # Im tau admits these under the growth bound, but e^(2 pi i s t) leaves double range
    "t_imag_past_factor_range": (
        ["equivariant", "H", "--t", "0.1+140j", "--tau", "100j", "--model"],
        get("free_point").to_json()["model"],
    ),
    "t_imag_past_factor_cap": (
        ["equivariant", "H", "--t", "0.1+115j", "--tau", "70j", "--model"],
        get("free_point").to_json()["model"],
    ),
    "speed_3_t_past_double_range": (
        ["equivariant", "H", "--t", "1e308", "--tau", "1j", "--model"],
        _bool_point(moving_f=[{"rank": 1, "m": 3}]),
    ),
    # a speed past double range, which valid JSON allows: OverflowError
    "speed_past_double_range": (
        ["equivariant", "H", "--t", "0.1", "--tau", "1j", "--model"],
        _bool_point(moving_f=[{"rank": 1, "m": 10**400}]),
    ),
    "lefschetz_speed_past_double_range": (
        ["equivariant", "lefschetz", "--t", "0.1", "--tau", "1j", "--model"],
        _bool_point(moving_f=[{"rank": 1, "m": 10**400}]),
    ),
    "jacobi_speed_past_double_range": (
        ["jacobi", "verify", "--samples", "2", "--model"],
        _bool_point(moving_f=[{"rank": 1, "m": 10**400}]),
    ),
    # the anomaly rank * m^2 of these passed 4300 digits, which str(int) refuses
    "speed_2501_digits": (
        ["equivariant", "H", "--t", "0.1", "--tau", "1j", "--model"],
        _bool_point(moving_f=[{"rank": 1, "m": 10**2500}]),
    ),
    "rank_4000_digits": (
        ["equivariant", "H", "--t", "0.1", "--tau", "1j", "--model"],
        _free_point_of_rank(10**3999, speed=10**200),
    ),
    # static values past double range: OverflowError in complex() and in the pairing
    "point_number_past_double_range": (
        ["equivariant", "H", "--t", "0.1", "--tau", "1j", "--model"], _BIG_POINT,
    ),
    "lefschetz_point_number_past_double_range": (
        ["equivariant", "lefschetz", "--t", "0.1", "--tau", "1j", "--model"], _BIG_POINT,
    ),
    "jacobi_point_number_past_double_range": (
        ["jacobi", "verify", "--samples", "2", "--model"], _BIG_POINT,
    ),
    "exact_point_number_past_double_range": (
        ["equivariant", "H", "--exact", "--order", "4", "--t", "0.1", "--tau", "1j", "--model"],
        _BIG_POINT,
    ),
    "static_numbers_past_double_range": (
        ["equivariant", "G", "--t", "0.1", "--tau", "1j", "--model"], _BIG_STATIC,
    ),
    # the weight p + r - l = -996 puts the slash factor (c tau + d)^996 past double range
    "jacobi_weight_past_double_range": (
        ["jacobi", "verify", "--samples", "4", "--model"],
        {"mode": "split", "p": 2, "r": 2, "l": 1000, "components": [
            {"dim": 0, "orientation": -1, "numbers": {"1": 1},
             "moving_f": [{"rank": 2, "m": 1}], "moving_fperp": [{"rank": 2, "n": 2}]}]},
    ),
    # at a weight of -1e308 the power raises ZeroDivisionError, not OverflowError
    "jacobi_weight_of_1e308": (
        ["jacobi", "verify", "--samples", "4", "--model"],
        _raw(get("free_point").to_json()["model"], '"l": 0', '"l": 1e308'),
    ),
    # rational strings other than an integer or "p/q": Fraction() reads exponents
    # (and spends 13 s on the integer of 1e10000000) and decimals
    "number_exponent_string": (
        _WITTEN_2, _raw({"dim": 4, "numbers": {"p1": "3"}}, '"3"', '"1e5000"'),
    ),
    "number_exponent_string_of_ten_million": (
        _WITTEN_2, _raw({"dim": 4, "numbers": {"p1": "3"}}, '"3"', '"1e10000000"'),
    ),
    "number_decimal_string": (
        _WITTEN_2, _raw({"dim": 4, "numbers": {"p1": "3"}}, '"3"', '"1.5"'),
    ),
    # a 4299-digit number, under the parse limit, gives values past the print limit
    "witten_value_past_digit_limit": (
        ["genus", "compute", "--genus", "witten", "--order", "30", "--spec"],
        _raw({"dim": 4, "numbers": {"p1": 3}}, '"p1": 3', '"p1": ' + "9" * 4299),
    ),
    # files that json.loads cannot read although their syntax is not at fault
    # (raw text, not json.dumps output)
    "integer_of_5001_digits": (
        ["equivariant", "H", "--t", "0.1", "--tau", "1j", "--model"],
        json.dumps(_bool_point(moving_f=[{"rank": 1, "m": 7}]))
        .replace('"m": 7', '"m": 1' + "0" * 5000).encode(),
    ),
    "arrays_nested_200000_deep": (
        ["equivariant", "H", "--t", "0.1", "--tau", "1j", "--model"], b"[" * 200000,
    ),
    # spin flags are JSON booleans: bool("false") is true
    "f_spin_string_false": (_SUBDIRAC, _spin_spec(f_spin="false")),
    "f_spin_string_no": (_SUBDIRAC, _spin_spec(f_spin="no")),
    "f_spin_zero": (_SUBDIRAC, _spin_spec(f_spin=0)),
    "m_spin_string_false": (_SUBDIRAC, _spin_spec(m_spin="false")),
    "numbers_spin_string_false": (
        ["genus", "compute", "--genus", "witten", "--order", "1", "--spec"],
        {"dim": 4, "numbers": {"p1": 3}, "spin": "false"},
    ),
    # keys that name one monomial twice, or a factor to the power 0
    "numbers_same_monomial": (
        ["genus", "compute", "--genus", "witten", "--order", "4", "--spec"],
        {"dim": 4, "numbers": {"p1": 3, "p1^1": -48}},
    ),
    "numbers_zero_exponent": (
        ["genus", "compute", "--genus", "witten", "--order", "4", "--spec"],
        {"dim": 0, "numbers": {"p1^0": 5}},
    ),
    "split_same_monomial": (
        ["genus", "compute", "--genus", "split-R", "--order", "4", "--spec"],
        {"dim": 4, "f_pairs": 2, "fperp_pairs": 0, "numbers": {"p1(F)": 3, "p1(F)^1": -48}},
    ),
}

# requests past a size cap, with the cap their error must name
_PAST_CAP = {
    "genus_order": (
        ["genus", "compute", "--genus", "witten", "--order", "65", "--spec"],
        {"dim": 4, "numbers": {"p1": 3}}, 64,
    ),
    "exact_order": (["equivariant", "H", "--exact", "--order", "65", "--model"],
                    get("free_point").to_json()["model"], 64),
    "exact_width": (["equivariant", "G", "--exact", "--model"], _split_speed(64), 64),
    "jacobi_samples": (["jacobi", "verify", "--samples", "1025", "--model"],
                       get("free_point").to_json()["model"], 1024),
    "theta_grid": (_THETA + ["--grid", "2x65"], None, 64),
    "numbers_dim": (
        ["genus", "compute", "--genus", "witten", "--order", "1", "--spec"],
        {"dim": 28, "numbers": {"p7": 1}}, 24,
    ),
    "split_dim": (
        ["genus", "compute", "--genus", "split-R1", "--order", "1", "--spec"],
        {"dim": 28, "f_pairs": 7, "fperp_pairs": 7, "numbers": {"p7(F)": 1}}, 24,
    ),
    "component_dim": (
        ["equivariant", "H", "--exact", "--order", "1", "--model"],
        {"mode": "foliated", "p": 14, "r": 0, "components": [
            {"dim": 28, "orientation": 1, "f0_pairs": 14, "numbers": {"p7(F)": 1}}]}, 24,
    ),
}


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


# poles off the real line: s t on the lattice Z + tau Z
_POLES = {
    "t_equals_tau": (
        ["equivariant", "H", "--t", "0.1+1j", "--tau", "0.1+1j", "--model"],
        get("free_point").to_json()["model"],
    ),
    "lefschetz_t_equals_tau": (
        ["equivariant", "lefschetz", "--t", "0.1+1j", "--tau", "0.1+1j", "--model"],
        get("free_point").to_json()["model"],
    ),
    "exact_t_equals_tau": (
        ["equivariant", "H", "--exact", "--t", "0.1+1j", "--tau", "0.1+1j", "--model"],
        get("free_point").to_json()["model"],
    ),
    "t_one_plus_tau": (
        ["equivariant", "H", "--t", "1.3+1j", "--tau", "0.3+1j", "--model"],
        get("free_point").to_json()["model"],
    ),
    "speed_1000_near_199_plus_10_tau": (
        ["equivariant", "G", "--t", "0.2+0.01j", "--tau", "0.1+1j", "--model"],
        _split_speed(1000),
    ),
    "lefschetz_speed_1000_near_199_plus_10_tau": (
        ["equivariant", "lefschetz", "--t", "0.2+0.01j", "--tau", "0.1+1j", "--model"],
        _split_speed(1000),
    ),
}


def _run_cli_on_payload(tmp_path, case, argv, payload):
    """Run the CLI in a fresh process; a payload's file path ends the argv.

    A bytes payload is written out as it is, any other as JSON.
    """
    if isinstance(payload, bytes):
        path = tmp_path / f"{case}.json"
        path.write_bytes(payload)
        argv = argv + [str(path)]
    elif payload is not None:
        argv = argv + [write_model(tmp_path, case, payload)]
    src = os.path.dirname(os.path.dirname(genusforge.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-m", "genusforge.cli"] + argv,
                          capture_output=True, text=True, env=env, timeout=60)


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_payload_exit_2_without_traceback(tmp_path, case):
    proc = _run_cli_on_payload(tmp_path, case, *_MALFORMED[case])
    assert proc.returncode == 2
    assert json.loads(proc.stdout, parse_constant=_no_constant)["error"]["type"] == "SchemaError"
    assert "Traceback" not in proc.stderr


def test_exponent_literal_is_refused_before_it_is_built():
    from genusforge.errors import SchemaError
    from genusforge.rings import as_fraction

    start = time.perf_counter()
    with pytest.raises(SchemaError, match="bad rational literal"):
        as_fraction("1e10000000")
    assert time.perf_counter() - start < 1.0
    assert [as_fraction(x) for x in ("-3", "+3/4", "10/4", 5)] == [-3, 0.75, 2.5, 5]


def test_exact_value_near_a_pole_is_right_or_refused(tmp_path):
    # the expanded series loses about 1e-5 relative here: it must not print that value
    from genusforge.equivariant import EVAL_TOL, EquivariantModel

    payload = _free_point_of_rank(8)
    code, report, _ = run(["equivariant", "H", "--exact", "--order", "40", "--t", "1e-2",
                           "--tau", "1j", "--model", write_model(tmp_path, "rank_8", payload)])
    if code == 2:
        assert report["error"]["type"] == "SchemaError"
        assert f"bound {EVAL_TOL:g}" in report["error"]["message"]
    else:
        want = h_eval(EquivariantModel.from_json(payload), 1e-2, 1j)
        assert code == 0
        assert abs(complex(report["results"]["value"]) - want) <= 1e-9 * abs(want)


def _hp2_points(a):
    """HP^2 as three fixed points in split mode, p = 0, r = 4: point i has
    rank-1 moving Fperp blocks of speeds a_i + a_j and a_i - a_j, j != i."""
    return {"mode": "split", "p": 0, "r": 4, "l": 0, "components": [
        {"dim": 0, "orientation": 1, "numbers": {"1": 1},
         "moving_fperp": [[1, a[i] + s * a[j]] for j in range(3) if j != i for s in (1, -1)]}
        for i in range(3)]}


def test_exact_value_short_of_its_order_is_refused(tmp_path):
    # at order 6 the truncated series printed 1.1527 against 0.0559516, 20x off
    from genusforge.equivariant import EVAL_TOL, EquivariantModel, g_eval

    payload = _hp2_points((1, 2, 4))
    path = write_model(tmp_path, "hp2", payload)
    point = ["--t", "0.1+0.02j", "--tau", "0.3j"]
    for order in (6, 12, 24, 32):
        code, report, _ = run(["equivariant", "G", "--model", path, "--exact",
                               "--order", str(order)] + point)
        assert code == 2, order
        assert report["error"]["type"] == "SchemaError"
        assert "truncation estimate" in report["error"]["message"]
        assert f"bound {EVAL_TOL:g}" in report["error"]["message"]
    code, report, _ = run(["equivariant", "G", "--model", path, "--exact", "--order", "48"]
                          + point)
    want = g_eval(EquivariantModel.from_json(payload), "G", 0.1 + 0.02j, 0.3j)
    assert code == 0
    assert abs(complex(report["results"]["value"]) - want) <= 1e-9 * abs(want)


@pytest.mark.parametrize("case", sorted(_PAST_CAP))
def test_request_past_cap_exit_2_naming_the_cap(tmp_path, case):
    argv, payload, cap = _PAST_CAP[case]
    proc = _run_cli_on_payload(tmp_path, case, argv, payload)
    assert proc.returncode == 2
    error = json.loads(proc.stdout, parse_constant=_no_constant)["error"]
    assert error["type"] == "SchemaError"
    assert f"cap {cap}" in error["message"]
    assert "Traceback" not in proc.stderr


# a field set to a value of the wrong type, sign or size
_FUZZ_VALUES = (None, True, "x", -1, 0, [], {}, 1.5, 10**30)
_FUZZ_POINT = ["--t", "0.31-0.07j", "--tau", "0.2+1.1j"]


def _field_paths(node, path=()):
    """The key path of every field and list entry in a JSON payload."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _field_paths(child, path + (key,))


def _fuzz_argv(kind, payload, rng):
    if kind == "numbers":
        return ["genus", "compute", "--genus", "witten", "--order", "2", "--spec"]
    if kind == "split":
        genus = rng.choice(("subdirac", "split-R", "split-R1", "split-R2"))
        return ["genus", "compute", "--genus", genus, "--order", "2", "--spec"]
    command = "H" if payload["mode"] == "foliated" else "G"
    return rng.choice((
        ["equivariant", command, "--exact", "--order", "2", "--model"],
        ["equivariant", command] + _FUZZ_POINT + ["--model"],
        ["equivariant", "lefschetz"] + _FUZZ_POINT + ["--model"],
        ["jacobi", "verify", "--samples", "2", "--model"],
    ))


def test_mutated_catalog_payloads_exit_without_an_exception(tmp_path):
    rng = random.Random(20261018)
    for name in list_entries():
        entry = get(name)
        for i in range(30):
            payload = entry.to_json()["model"]
            argv = _fuzz_argv(entry.kind, payload, rng)
            *path, last = rng.choice(list(_field_paths(payload)))
            node = payload
            for key in path:
                node = node[key]
            node[last] = rng.choice(_FUZZ_VALUES)
            code, report, _ = run(argv + [write_model(tmp_path, f"{name}_{i}", payload)])
            assert code in (0, 1, 2), (argv, payload)
            if code == 2:
                # bad input is a schema error, not a ring or degree bookkeeping fault
                assert report["error"]["type"] not in ("RingMismatchError", "DimensionError"), (
                    argv, payload, report["error"])


# integer fields set far past any real model; 1e308 is a JSON number that reads as an
# integral float below the double-range bound of the pair counts, ranks and speeds
_FUZZ_INTS = (10**3, 10**5, 1e308)


def test_large_integer_fields_exit_without_an_exception(tmp_path):
    # every integer field of every catalog payload, at each value, under a seeded command
    rng = random.Random(3)
    for name in list_entries():
        entry = get(name)
        for *path, last in _field_paths(entry.to_json()["model"]):
            for value in _FUZZ_INTS:
                payload = entry.to_json()["model"]
                node = payload
                for key in path:
                    node = node[key]
                if type(node[last]) is not int:
                    continue
                node[last] = value
                argv = _fuzz_argv(entry.kind, payload, rng)
                code, report, _ = run(argv + [write_model(tmp_path, name, payload)])
                assert code in (0, 1, 2), (argv, payload)
                if code == 2:
                    assert report["error"]["type"] == "SchemaError", (argv, payload, report)


@pytest.mark.parametrize("case", sorted(_POLES))
def test_pole_point_exit_2_without_traceback(tmp_path, case):
    proc = _run_cli_on_payload(tmp_path, case, *_POLES[case])
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"]["type"] == "PoleError"
    assert "Traceback" not in proc.stderr


def test_theta_check_laws_pass():
    for law in ("S", "T"):
        code, report, _ = run(
            ["theta", "check", "--law", law, "--kind", "theta2", "--grid", "3x3"]
        )
        assert code == 0, report
        assert report["verdicts"][0]["max_residual"] < 1e-9


def test_theta_lattice_names_convention():
    code, report, _ = run(
        ["theta", "check", "--law", "lattice", "--kind", "theta", "--grid", "2x2"]
    )
    assert code == 0
    assert len(report["verdicts"]) == 2
    assert any("negative exponent sign" in note for note in report["warnings"])


def test_theta_bad_grid_exit_2():
    code, report, _ = run(["theta", "check", "--law", "S", "--kind", "theta", "--grid", "5"])
    assert code == 2
    assert report["error"]["type"] == "SchemaError"


def test_equivariant_numeric_matches_library(free_point_file):
    code, report, _ = run(
        ["equivariant", "H", "--model", free_point_file,
         "--t", "0.23-0.04j", "--tau", "0.15+0.9j"]
    )
    assert code == 0
    model = get("free_point").build()
    want = h_eval(model, 0.23 - 0.04j, 0.15 + 0.9j)
    assert abs(complex(report["results"]["value"]) - want) < 1e-12
    assert report["results"]["meta"]["subgroup"] == "sl2z"
    assert report["results"]["anomaly"] == 1


def test_large_imaginary_t_inside_the_bounds_still_evaluates(free_point_file):
    code, report, _ = run(
        ["equivariant", "H", "--model", free_point_file, "--t", "0.1+60j", "--tau", "20j"]
    )
    assert code == 0
    want = h_eval(get("free_point").build(), 0.1 + 60j, 20j)
    assert complex(report["results"]["value"]) == want


def test_a_large_speed_prints_the_value_at_s_t_mod_2(tmp_path):
    # speed 10^12 + 1 at t is speed 1 at (10^12 + 1) t mod 2, reduced exactly
    from fractions import Fraction

    from genusforge.equivariant import EquivariantModel

    t = 0.1234567
    payload = _bool_point(moving_f=[{"rank": 1, "m": 10**12 + 1}])
    code, report, _ = run(["equivariant", "H", "--t", repr(t), "--tau", "0.2+1j", "--model",
                           write_model(tmp_path, "fast_point", payload)])
    assert code == 0
    want = h_eval(EquivariantModel.from_json(_bool_point()),
                  float(Fraction(t) * (10**12 + 1) % 2), 0.2 + 1j)
    assert abs(complex(report["results"]["value"]) - want) <= 1e-12 * abs(want)


def test_equivariant_lefschetz_agrees_with_quotient(free_split_file):
    argv_tail = ["--model", free_split_file, "--t", "0.31-0.07j", "--tau", "0.2+1.1j",
                 "--variant", "G1"]
    direct = run(["equivariant", "lefschetz"] + argv_tail)[1]
    quotient = run(["equivariant", "G"] + argv_tail)[1]
    assert direct["results"]["path"] == "lefschetz"
    assert quotient["results"]["path"] == "quotient"
    a = complex(direct["results"]["value"])
    b = complex(quotient["results"]["value"])
    assert abs(a - b) < 1e-9


def test_equivariant_exact_series(free_split_file):
    code, report, _ = run(
        ["equivariant", "G", "--model", free_split_file, "--exact", "--order", "4",
         "--variant", "G1"]
    )
    assert code == 0
    series = report["results"]["series"]
    assert series["den"] == get("free_split_point").expected["den"]
    rows = dict((expo, row) for expo, row in series["num"])
    assert rows["1/2"] == get("free_split_point").expected["variant_rows"]["G1"]["1/2"]


def test_exact_report_prints_exponents_ascending(capsys, tmp_path):
    # the printed report is not key-sorted, so the series keeps its own order
    model = _split_speed(3)
    model["components"].append(dict(model["components"][0], orientation=-1,
                                    moving_fperp=[{"rank": 1, "n": -2}]))
    path = write_model(tmp_path, "two_points", model)
    assert main(["equivariant", "G", "--model", path, "--exact", "--order", "6"]) == 0
    series = json.loads(capsys.readouterr().out)["results"]["series"]
    polys = [series["den"]] + [row for _, row in series["num"]]
    assert len(series["den"]) > 2 and any(len(p) > 2 for p in polys[1:])
    for poly in polys:
        keys = [int(e) for e in poly]
        assert keys == sorted(keys), poly


def test_order_belongs_to_exact_mode(free_point_file):
    point = ["--t", "0.23-0.04j", "--tau", "0.15+0.9j"]
    for command in ("H", "lefschetz"):
        code, report, _ = run(["equivariant", command, "--model", free_point_file,
                               "--order", "30"] + point)
        assert code == 2
        assert report["error"]["type"] == "SchemaError"
        assert "--exact" in report["error"]["message"]
        code, report, _ = run(["equivariant", command, "--model", free_point_file] + point)
        assert code == 0 and "order" not in report["results"]
    code, report, _ = run(["equivariant", "H", "--model", free_point_file, "--exact",
                           "--order", "12"] + point)
    assert code == 0 and report["results"]["order"] == 12


def test_jacobi_verify_has_no_order(capsys, free_point_file):
    with pytest.raises(SystemExit) as info:
        run(["jacobi", "verify", "--model", free_point_file, "--order", "24"])
    assert info.value.code == 2
    assert "--order" in capsys.readouterr().err


def test_equivariant_numeric_needs_point(free_point_file):
    code, report, _ = run(["equivariant", "H", "--model", free_point_file])
    assert code == 2
    assert "--t" in report["error"]["message"]


def test_equivariant_pole_exit_2(free_point_file):
    code, report, _ = run(
        ["equivariant", "H", "--model", free_point_file, "--t", "1.0", "--tau", "0.9j"]
    )
    assert code == 2
    assert report["error"]["type"] == "PoleError"


def test_jacobi_verify_passes(free_point_file):
    code, report, _ = run(["jacobi", "verify", "--model", free_point_file])
    assert code == 0
    assert report["verdicts"][0]["name"] == "jacobi H"
    assert report["results"]["max_residual"] < 1e-8


def test_jacobi_verify_passes_on_large_values(tmp_path):
    # |H| is near 3.5e9 here; an absolute S-row residual of 6.3e-4 failed this model
    path = write_model(tmp_path, "rank_100", _free_point_of_rank(100))
    code, report, _ = run(["jacobi", "verify", "--samples", "4", "--model", path])
    assert code == 0
    assert report["results"]["max_residual"] < 1e-8


def test_jacobi_wrong_subgroup_fails(free_split_file):
    code, report, _ = run(
        ["jacobi", "verify", "--model", free_split_file, "--subgroup", "sl2z"]
    )
    assert code == 1
    assert report["pass"] is False
    assert report["verdicts"][0]["pass"] is False
    assert any("instead of the derived" in note for note in report["warnings"])


def test_jacobi_function_mode_mismatch(free_point_file):
    code, report, _ = run(
        ["jacobi", "verify", "--model", free_point_file, "--function", "G"]
    )
    assert code == 2


def test_catalog_commands():
    code, report, _ = run(["catalog", "list"])
    assert code == 0 and len(report["results"]["entries"]) == 10
    code, report, _ = run(["catalog", "show", "k3"])
    assert code == 0 and report["results"]["entry"]["name"] == "k3"
    code, report, _ = run(["catalog", "selftest"])
    assert code == 0
    assert len(report["verdicts"]) == 10
    assert all(row["pass"] for row in report["verdicts"])


def test_catalog_show_unknown_exit_2():
    code, report, _ = run(["catalog", "show", "k4"])
    assert code == 2
    assert "k4" in report["error"]["message"]


def test_unknown_subcommand_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        run(["frobnicate"])
    assert info.value.code == 2
    capsys.readouterr()


def test_reports_are_deterministic():
    one = run(["theta", "check", "--law", "T", "--kind", "theta3", "--grid", "4x2"])[1]
    two = run(["theta", "check", "--law", "T", "--kind", "theta3", "--grid", "4x2"])[1]
    assert json.dumps(one) == json.dumps(two)


def test_main_renders_json_and_text(capsys, free_point_file):
    assert main(["catalog", "list"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["command"] == "catalog list"
    assert main(["catalog", "list", "--format", "text"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("command: catalog list")
    assert "pass: yes" in text
    assert main(["catalog", "show", "k4", "--format", "text"]) == 2
    assert "error SchemaError" in capsys.readouterr().out