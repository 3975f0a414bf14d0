"""Command line front end: JSON specs in, machine-readable reports out.

Five subcommand groups mirror the library layers:

    genus compute      exact genus towers from characteristic-number files
    theta check        numeric transformation-law residuals on a grid
    equivariant ...    fixed-point genus functions, exact or numeric
    jacobi verify      transformation-law residuals for a whole model
    catalog ...        the built-in models and their selftest

Reports go to stdout as JSON (exact rationals as fraction strings) or,
with --format text, as plain tables.  Every report echoes the command,
a sha256 digest per input file, and a threads key fixed at 1 (the engine
is single-threaded).  Exit codes: 0 all verdicts pass, 1 a verdict
failed, 2 bad input or schema.
"""

from __future__ import annotations

import argparse
import cmath
import hashlib
import json
import math
import random
import sys
import warnings

from genusforge import catalog as _catalog
from genusforge.charclass import CharNumbers
from genusforge.equivariant import (
    EquivariantModel,
    JacobiFormMeta,
    anomaly_check,
    check_poles,
    evaluator,
    exact_series,
    jacobi_residual,
    lefschetz_eval,
    form_meta,
)
from genusforge.errors import GenusforgeError, SchemaError
from genusforge.genus import (
    SplitManifoldSpec,
    split_genus,
    subdirac_index,
    witten_genus,
)
from genusforge.ktheory import KClass, witten_element
from genusforge.rings import fraction_str, laurent_strings
from genusforge.theta import KINDS, verify_transform

_GENERA = ("witten", "subdirac", "split-R", "split-R1", "split-R2")
_SUBGROUPS = ("gamma0_2", "gamma_upper0_2", "gamma_theta", "sl2z")
_FUNCTIONS = ("H", "G", "G1", "G2")

# request caps, each measured at the cap on a 2-vCPU VM (Python 3.11.7):
# --exact at order 64 and w-width 64 took at most 2.1 s and 33 MB (G1, rank-1
# Fperp blocks at speeds 1-10 and 9; rank 64 took 0.43 s); 1024 Jacobi samples took 0.6 s
# and 29 MB on a model of fixed points and 2.7-3.7 s and 28 MB on a full
# static model at dim 24 (65 numbers), which sums its static towers once
# per tau, three times a sample (the symbolic half of the pairing is built
# once); a 64x64 lattice grid took 0.5 s and 34 MB.  DIM_CAP bounds the dim of every
# numbers table, split spec and fixed component: subdirac at order 64
# took 0.6 s at dim 24 and 16.9 s at dim 40.  Dim 24 keeps the classic
# dimension of the Witten genus.
ORDER_CAP = 64
WIDTH_CAP = 64
SAMPLES_CAP = 1024
GRID_CAP = 64
DIM_CAP = 24


def _load_json(path: str, report: dict, key: str):
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise SchemaError(f"{key}: cannot read {path}: {exc}") from None
    report["inputs"][key] = {
        "path": path,
        "sha256": hashlib.sha256(blob).hexdigest(),
    }
    try:
        return json.loads(blob)
    except (ValueError, RecursionError) as exc:
        # besides bad syntax: bad UTF-8, an integer past the digit limit, deep nesting
        raise SchemaError(f"{key}: {path} is not readable JSON: {exc}") from None


def _load_payload(path: str, report: dict, key: str, kind):
    """A payload file read as kind, with every dim it carries within DIM_CAP.

    kind is CharNumbers, SplitManifoldSpec or EquivariantModel; a model
    carries the dims of its fixed components.
    """
    payload = kind.from_json(_load_json(path, report, key))
    parts = payload.components if kind is EquivariantModel else (payload,)
    for part in parts:
        if part.dim > DIM_CAP:
            raise SchemaError(f"{key}: dim {part.dim} is past the cap {DIM_CAP}")
    return payload


def _parse_complex(text: str, flag: str) -> complex:
    try:
        value = complex(text.replace(" ", ""))
    except ValueError:
        raise SchemaError(f"{flag}: {text!r} is not a complex number") from None
    if not cmath.isfinite(value):
        raise SchemaError(f"{flag}: {text!r} is not finite")
    return value


def _series_rows(series) -> list:
    """Rational q-series as ordered [exponent, value] string pairs."""
    return [[str(expo), fraction_str(coeff)] for expo, coeff in series.terms()]


def _laurent_json(series) -> dict:
    """ExactSeries as numerator rows over a q-free denominator."""
    rows = [[str(expo), laurent_strings(coeff)] for expo, coeff in series.num.terms()]
    return {"den": laurent_strings(series.den), "num": rows}


def _verdict(report, name, ok, **extra):
    row = {"name": name, "pass": bool(ok)}
    row.update(extra)
    report["verdicts"].append(row)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_genus_compute(args, report):
    slots = 2 * args.order + 1
    captured = []
    if args.genus == "witten":
        numbers = _load_payload(args.spec, report, "spec", CharNumbers)
        series = witten_genus(numbers, slots)
    else:
        spec = _load_payload(args.spec, report, "spec", SplitManifoldSpec)
        if args.genus == "subdirac":
            psi = witten_element(KClass.bundle(spec.F, spec.dim), slots)
            with warnings.catch_warnings(record=True) as captured:
                warnings.simplefilter("always")
                series = subdirac_index(spec, psi=psi)
        else:
            series = split_genus(spec, args.genus.split("-", 1)[1], slots)
    report["warnings"].extend(str(w.message) for w in captured)
    report["results"] = {
        "genus": args.genus,
        "order": args.order,
        "mode": "exact",
        "series": _series_rows(series),
    }


def _theta_grid(spec: str):
    parts = spec.lower().split("x")
    try:
        n, m = (int(p) for p in parts)
    except ValueError:
        n = m = 0
    if len(parts) != 2 or n < 1 or m < 1:
        raise SchemaError(f"--grid {spec!r} must look like 5x5 with positive sizes")
    if max(n, m) > GRID_CAP:
        raise SchemaError(f"--grid {spec!r} has more points a side than the cap {GRID_CAP}")
    samples = []
    for j in range(m):
        v = j / (m - 1) if m > 1 else 0.5
        tau = complex(-0.4 + 0.8 * v, 0.5 + 1.5 * v)
        for i in range(n):
            u = i / (n - 1) if n > 1 else 0.5
            t = complex(-0.98 + 1.96 * u, 0.02 - 0.04 * (i % 2))
            samples.append((t, tau))
    return samples


def _cmd_theta_check(args, report):
    samples = _theta_grid(args.grid)
    laws = [("lattice", 2, 0), ("lattice", 0, 2)] if args.law == "lattice" else [args.law]
    checks = []
    for law in laws:
        sub = verify_transform(args.kind, law, samples, tol=args.tol)
        checks.append(sub)
        name = f"{args.kind} {sub['law']}"
        _verdict(report, name, sub["pass"],
                 max_residual=sub["max_residual"], tol=args.tol)
        if "sign_convention" in sub:
            report["warnings"].append(
                f"{name}: holds under the {sub['sign_convention']} exponent sign"
            )
    report["results"] = {
        "law": args.law,
        "kind": args.kind,
        "grid": args.grid,
        "mode": "numeric",
        "checks": checks,
    }


def _equivariant_function(args, model):
    if args.command == "H":
        return "H"
    if args.command == "G":
        return args.variant
    return "H" if model.mode == "foliated" else args.variant


def _cmd_equivariant(args, report):
    model = _load_payload(args.model, report, "model", EquivariantModel)
    function = _equivariant_function(args, model)
    results = {
        "function": function,
        "anomaly": anomaly_check(model),
        "meta": form_meta(model, function).to_json(),
    }
    point = None
    if args.t is not None or args.tau is not None:
        if args.t is None or args.tau is None:
            raise SchemaError("--t and --tau must be given together")
        point = (_parse_complex(args.t, "--t"), _parse_complex(args.tau, "--tau"))
    if args.exact:
        # with ORDER_CAP, this bounds the w-width of the rows and of the summed denominator
        width = sum(k * abs(s) for comp in model.components
                    for k, s in comp.moving_f + comp.moving_fperp)
        if width > WIDTH_CAP:
            raise SchemaError(f"--exact takes a sum of rank * |speed| over the moving blocks "
                              f"up to the cap {WIDTH_CAP}, not {width}")
        order = args.order if args.order is not None else 8
        series = exact_series(model, function, order)
        results.update(mode="exact", order=order, series=_laurent_json(series))
        if point is not None:
            check_poles(model, *point)
            results["value"] = str(series.eval(*point))
    else:
        if args.order is not None:
            raise SchemaError("--order sets the series truncation of --exact; "
                              "numeric values take their accuracy from the tolerance")
        if point is None:
            raise SchemaError("numeric mode needs --t and --tau (or pass --exact)")
        if args.command == "lefschetz":
            value, path = lefschetz_eval(model, *point, function), "lefschetz"
        else:
            value, path = evaluator(model, function)(*point), "quotient"
        results.update(mode="numeric", path=path, value=str(value))
    results["t"] = args.t
    results["tau"] = args.tau
    report["results"] = results


def _jacobi_samples(count: int, seed: int):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        t = complex(0.12 + 0.3 * rng.random(), -0.08 + 0.16 * rng.random())
        tau = complex(-0.3 + 0.6 * rng.random(), 0.6 + 1.0 * rng.random())
        out.append((t, tau))
    return out


def _cmd_jacobi_verify(args, report):
    model = _load_payload(args.model, report, "model", EquivariantModel)
    function = args.function or ("H" if model.mode == "foliated" else "G")
    meta = form_meta(model, function)
    if args.subgroup and args.subgroup != meta.subgroup:
        report["warnings"].append(
            f"checking under {args.subgroup} instead of the derived {meta.subgroup}"
        )
        meta = JacobiFormMeta(meta.weight, meta.index, args.subgroup, meta.lattice)
    fn = evaluator(model, function)
    sub = jacobi_residual(fn, meta, _jacobi_samples(args.samples, args.seed), tol=args.tol)
    _verdict(report, f"jacobi {function}", sub["pass"],
             max_residual=sub["max_residual"], tol=args.tol)
    report["results"] = {
        "function": function,
        "mode": "numeric",
        "meta": sub["meta"],
        "samples": sub["samples"],
        "seed": args.seed,
        "rows": sub["rows"],
        "max_residual": sub["max_residual"],
    }


def _cmd_catalog(args, report):
    if args.command == "list":
        report["results"] = {"entries": _catalog.list_entries()}
    elif args.command == "show":
        report["results"] = {"entry": _catalog.get(args.name).to_json()}
    else:
        sub = _catalog.selftest()
        for row in sub["entries"]:
            _verdict(report, row["name"], row["pass"],
                     checks=len(row["checks"]))
        report["results"] = {"report": sub}


# ---------------------------------------------------------------------------
# parser and entry point


def build_parser() -> argparse.ArgumentParser:
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "text"), default="json",
                     help="report rendering (default json)")

    parser = argparse.ArgumentParser(
        prog="genusforge",
        description="genus towers, theta laws, and fixed-point models",
    )
    groups = parser.add_subparsers(dest="group", required=True)

    p_genus = groups.add_parser("genus", help="exact genus computations")
    sub = p_genus.add_subparsers(dest="command", required=True)
    p = sub.add_parser("compute", parents=[fmt], help="genus tower of a JSON spec")
    p.add_argument("--spec", required=True, help="characteristic-number or split-spec JSON file")
    p.add_argument("--genus", required=True, choices=_GENERA)
    p.add_argument("--order", required=True, type=int,
                   help="highest q power kept (integer, half-grid slots included)")
    p.set_defaults(handler=_cmd_genus_compute)

    p_theta = groups.add_parser("theta", help="theta transformation checks")
    sub = p_theta.add_subparsers(dest="command", required=True)
    p = sub.add_parser("check", parents=[fmt], help="residuals of one law on a grid")
    p.add_argument("--law", required=True, choices=("S", "T", "lattice"))
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--grid", default="5x5", help="t-by-tau grid sizes, e.g. 5x5")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(handler=_cmd_theta_check)

    p_eq = groups.add_parser("equivariant", help="fixed-point genus functions")
    sub = p_eq.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("lefschetz", "direct fixed-point product sum"),
        ("H", "foliated genus function via theta quotients"),
        ("G", "split genus function via theta quotients"),
    ):
        p = sub.add_parser(name, parents=[fmt], help=blurb)
        p.add_argument("--model", required=True, help="fixed-locus model JSON file")
        p.add_argument("--t", help="evaluation point, e.g. 0.23-0.04j")
        p.add_argument("--tau", help="upper-half-plane point, e.g. 0.15+0.9j")
        p.add_argument("--exact", action="store_true",
                       help="emit the exact w-Laurent q-series instead")
        p.add_argument("--order", type=int,
                       help="series truncation of --exact (default 8)")
        p.add_argument("--variant", choices=("G", "G1", "G2"), default="G",
                       help="which split variant (G subcommands)")
        p.set_defaults(handler=_cmd_equivariant)

    p_jac = groups.add_parser("jacobi", help="transformation-law verification")
    sub = p_jac.add_subparsers(dest="command", required=True)
    p = sub.add_parser("verify", parents=[fmt], help="slash and shift residuals of a model")
    p.add_argument("--model", required=True, help="fixed-locus model JSON file")
    p.add_argument("--subgroup", choices=_SUBGROUPS,
                   help="override the derived invariance subgroup")
    p.add_argument("--function", choices=_FUNCTIONS,
                   help="genus function (default H or G by mode)")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--samples", type=int, default=4)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(handler=_cmd_jacobi_verify)

    p_cat = groups.add_parser("catalog", help="built-in models")
    sub = p_cat.add_subparsers(dest="command", required=True)
    p = sub.add_parser("list", parents=[fmt], help="entry names")
    p.set_defaults(handler=_cmd_catalog)
    p = sub.add_parser("show", parents=[fmt], help="one entry with expectations")
    p.add_argument("name")
    p.set_defaults(handler=_cmd_catalog)
    p = sub.add_parser("selftest", parents=[fmt], help="recompute every expectation")
    p.set_defaults(handler=_cmd_catalog)

    return parser


def _text_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, (dict, list)):
        return json.dumps(value)
    return str(value)


def _render_text(report) -> str:
    lines = [f"command: {report['command']}"]
    lines.append(f"threads: {report['threads']}")
    for key, info in report["inputs"].items():
        lines.append(f"input {key}: {info['path']} sha256={info['sha256']}")
    results = report.get("results", {})
    for key, value in results.items():
        if key == "series" and isinstance(value, list):
            lines.append("series:")
            width = max((len(e) for e, _ in value), default=0)
            lines.extend(f"  q^{expo:<{width}}  {coeff}" for expo, coeff in value)
        else:
            lines.append(f"{key}: {_text_value(value)}")
    for row in report["verdicts"]:
        extra = " ".join(
            f"{k}={_text_value(v)}" for k, v in row.items() if k not in ("name", "pass")
        )
        state = "pass" if row["pass"] else "FAIL"
        lines.append(f"verdict {row['name']}: {state} {extra}".rstrip())
    for note in report["warnings"]:
        lines.append(f"warning: {note}")
    lines.append(f"pass: {'yes' if report['pass'] else 'no'}")
    return "\n".join(lines)


def run(argv=None) -> tuple:
    """Dispatch argv; returns (exit code, report dict, format name)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    report = {
        "command": f"{args.group} {args.command}",
        "argv": list(sys.argv[1:] if argv is None else argv),
        "threads": 1,
        "inputs": {},
        "results": {},
        "verdicts": [],
        "warnings": [],
        "pass": True,
    }
    fmt = getattr(args, "format", "json")
    try:
        order = getattr(args, "order", None)
        low = 0 if args.group == "genus" else 1
        if order is not None and not low <= order <= ORDER_CAP:
            raise SchemaError(f"--order {order} is out of range: {low} up to the cap {ORDER_CAP}")
        if not 1 <= getattr(args, "samples", 1) <= SAMPLES_CAP:
            raise SchemaError(f"--samples must lie between 1 and the cap {SAMPLES_CAP}")
        tol = getattr(args, "tol", None)
        if tol is not None and not (math.isfinite(tol) and tol > 0):
            raise SchemaError(f"--tol must be a finite positive number, not {tol}")
        args.handler(args, report)
    except GenusforgeError as exc:
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
        report["pass"] = False
        return 2, report, fmt
    report["pass"] = all(row["pass"] for row in report["verdicts"])
    return (0 if report["pass"] else 1), report, fmt


def main(argv=None) -> int:
    code, report, fmt = run(argv)
    if fmt == "text":
        if "error" in report:
            print(f"error {report['error']['type']}: {report['error']['message']}")
        else:
            print(_render_text(report))
    else:
        print(json.dumps(report, indent=2))
    return code


if __name__ == "__main__":
    sys.exit(main())
