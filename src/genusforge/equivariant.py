"""Localization of the split genera at the fixed locus of a circle action.

A model lists fixed components.  Each component carries a static block of
F and Fperp root pairs with its own characteristic numbers (a
genus.SplitManifoldSpec), plus moving blocks that rotate with nonzero
integer speeds.  A component's genus function is (the split genus of its static
block) times one theta quotient per moving block, to the power of its rank:
an F line at m t for a moving F block of speed m, and an Fperp line of the
variant's kind at n t for a moving Fperp block of speed n (G: theta1, G1:
theta2, G2: theta3).  The quotients themselves are theta's (quotient_rows,
quotient_value, line_value); this module assembles the components.  H is
the foliated-mode function: the same assembly with the G static parts and
no moving Fperp blocks.

Everything exists twice: an exact q-expansion with Laurent coefficients
in w = e^(pi i t) (an ExactSeries, a series numerator over a q-free
denominator), and a numeric evaluator at a point (t, tau).  The exact
path works in sparse rows of exact numbers (the storage of LaurentZ,
multiplied and added by rings.laurent_mul and laurent_add).  The product
of the moving quotients depends only on the component's speed signature
(block ranks, |speeds| and the variant), so theta.quotient_rows builds it
once per signature, held without the order (series.prefix_rows); a
component's term is its signed static series convolved with those rows,
over its own denominator.  The terms are folded as ExactSeries.__add__
would fold them (the tests' referee), and the sum is wrapped as an
ExactSeries.  The numeric paths take their accuracy from tol alone: the
static parts sum the Lambert series of their towers until the tail bound
is below tol, and the moving blocks truncate their products when the
dropped factors are.  One Evaluator sums every numeric value: it checks tau
once and reads every component's q-powers from one theta.Nome, takes each
moving factor from its path's theta routine, and keeps the nome and static
values of the last tau it saw, so a Jacobi sample and its lattice shifts
share them.  The slash action and lattice shifts give numeric Jacobi-law
residual reports.

Moving blocks over a positive-dimensional component would need the
expansion of the theta quotients in the roots of that block; both paths
support such a component only when its numbers all vanish (the cross
terms then pair to zero) and refuse it otherwise.
"""

from __future__ import annotations

import cmath
import math
import sys
from fractions import Fraction

from genusforge.charclass import CharNumbers
from genusforge.errors import PoleError, SchemaError
from genusforge.genus import SplitManifoldSpec, split_genus, split_genus_value
from genusforge.rings import (
    LaurentZ,
    as_fraction,
    as_int,
    fraction_str,
    laurent_add,
    laurent_mul,
    payload_fields,
)
from genusforge.series import QSeries, prefix_rows
from genusforge.theta import (
    THETA1,
    THETA2,
    THETA3,
    Nome,
    check_tau,
    checked_st,
    line_value,
    quotient_rows,
    quotient_value,
    reduced_st,
    rows_series,
)

POLE_TOL = 1e-8
# the relative truncation estimate and rounding bound past which
# ExactSeries.eval refuses a value, the tolerance the tests and the
# benchmark check values at
EVAL_TOL = 1e-9

# moving-Fperp theta kind and static Fperp twist tower per variant
_VARIANT_THETA = {"G": THETA1, "G1": THETA2, "G2": THETA3}
_VARIANT_TWIST = {"G": "R", "G1": "R2", "G2": "R1"}
_VARIANT_SUBGROUP = {"H": "sl2z", "G": "gamma0_2", "G1": "gamma_upper0_2", "G2": "gamma_theta"}


# ---------------------------------------------------------------------------
# the modular side: integer 2x2 matrices, congruence subgroups, form metadata


def _check_matrix(mat):
    try:
        (a, b), (c, d) = mat
    except (TypeError, ValueError):
        raise SchemaError("a group element is a 2x2 integer matrix") from None
    for x in (a, b, c, d):
        if x != int(x):
            raise SchemaError("matrix entries must be integers")
    if a * d - b * c != 1:
        raise SchemaError("matrix must have determinant 1")
    return (int(a), int(b)), (int(c), int(d))


MAT_S = ((0, -1), (1, 0))
MAT_T = ((1, 1), (0, 1))

GENERATORS = {
    "sl2z": (MAT_S, MAT_T),
    "gamma0_2": (MAT_T, ((1, 0), (2, 1))),
    "gamma_upper0_2": (((1, 2), (0, 1)), ((1, 0), (1, 1))),
    "gamma_theta": (MAT_S, ((1, 2), (0, 1))),
}


def subgroup_member(name, mat) -> bool:
    """Membership in the level-2 congruence subgroups, by residues mod 2."""
    (a, b), (c, d) = _check_matrix(mat)
    if name == "sl2z":
        return True
    if name == "gamma0_2":
        return c % 2 == 0
    if name == "gamma_upper0_2":
        return b % 2 == 0
    if name == "gamma_theta":
        return (a % 2, b % 2, c % 2, d % 2) in ((1, 0, 0, 1), (0, 1, 1, 0))
    raise SchemaError(f"unknown subgroup {name!r}")


class JacobiFormMeta:
    """Weight, index, and invariance group of a genus function.

    The lattice field scales the elliptic shifts: 2 means the function
    transforms under t -> t + 2a tau + 2b for integers a, b.
    """

    __slots__ = ("weight", "index", "subgroup", "lattice")

    def __init__(self, weight, index, subgroup, lattice=2):
        self.weight = int(weight)
        self.index = as_fraction(index)
        if subgroup not in GENERATORS:
            raise SchemaError(f"unknown subgroup {subgroup!r}")
        self.subgroup = subgroup
        self.lattice = int(lattice)

    def to_json(self) -> dict:
        return {
            "weight": self.weight,
            "index": fraction_str(self.index),
            "subgroup": self.subgroup,
            "lattice": self.lattice,
        }

    def __repr__(self):
        return (
            f"JacobiFormMeta(weight={self.weight}, index={self.index}, "
            f"subgroup={self.subgroup!r}, lattice={self.lattice})"
        )


# ---------------------------------------------------------------------------
# models


def _bounded_int(value, what: str) -> int:
    """as_int, refusing a magnitude past double range: no path can use one,
    and the anomaly and weight stay far below the digit limit of str(int)."""
    out = as_int(value, what)
    if abs(out) > sys.float_info.max:
        raise SchemaError(f"{what} is past the double-range bound {sys.float_info.max:.4g}")
    return out


def _moving_list(blocks, speed_key):
    if blocks is None:
        return ()
    if not isinstance(blocks, (list, tuple)):
        raise SchemaError("moving blocks come as a list")
    out = []
    for entry in blocks:
        if isinstance(entry, dict):
            rank, speed = entry.get("rank", 1), entry.get(speed_key)
        elif isinstance(entry, (list, tuple)) and len(entry) == 2:
            rank, speed = entry
        else:
            raise SchemaError("a moving block is an object or a (rank, speed) pair")
        if speed is None or _bounded_int(speed, "moving block speed") == 0:
            raise SchemaError("moving blocks need a nonzero integer speed")
        if _bounded_int(rank, "moving block rank") < 1:
            raise SchemaError("moving blocks need a positive pair count")
        out.append((int(rank), int(speed)))
    return tuple(out)


class FixedComponent:
    """One component of the fixed locus.

    Its static block is a SplitManifoldSpec: the F and Fperp root pairs
    tangent to the component and its characteristic numbers.  The
    orientation and the moving blocks complete it.
    """

    __slots__ = ("orientation", "static", "moving_f", "moving_fperp")

    def __init__(self, dim, orientation, f0_pairs, fperp0_pairs,
                 moving_f=(), moving_fperp=(), numbers=None):
        if isinstance(orientation, bool) or orientation not in (1, -1):
            raise SchemaError("orientation must be +1 or -1")
        self.orientation = int(orientation)
        self.static = SplitManifoldSpec(dim, f0_pairs, fperp0_pairs,
                                        {} if numbers is None else numbers)
        self.moving_f = _moving_list(moving_f, "m")
        self.moving_fperp = _moving_list(moving_fperp, "n")

    @property
    def dim(self) -> int:
        return self.static.dim

    @property
    def f0_pairs(self) -> int:
        return self.static.p

    @property
    def fperp0_pairs(self) -> int:
        return self.static.r

    @property
    def numbers(self) -> CharNumbers:
        return self.static.numbers

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "orientation": self.orientation,
            "f0_pairs": self.f0_pairs,
            "fperp0_pairs": self.fperp0_pairs,
            "moving_f": [{"rank": k, "m": m} for k, m in self.moving_f],
            "moving_fperp": [{"rank": k, "n": n} for k, n in self.moving_fperp],
            "numbers": self.numbers.to_json()["numbers"],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "FixedComponent":
        return cls(**payload_fields(obj, "fixed component", ("dim", "orientation"),
                                    f0_pairs=0, fperp0_pairs=0, moving_f=(), moving_fperp=(),
                                    numbers=None))


class EquivariantModel:
    """Fixed-locus data of a circle action in foliated or split mode."""

    __slots__ = ("mode", "p", "r", "l", "components")

    def __init__(self, mode, p, r, l, components):
        if mode not in ("foliated", "split"):
            raise SchemaError(f"unknown mode {mode!r}")
        self.mode = mode
        self.p, self.r, self.l = (_bounded_int(p, "p"), _bounded_int(r, "r"),
                                  _bounded_int(l, "l"))
        if self.p < 0 or self.r < 0 or self.l < 0:
            raise SchemaError("pair counts cannot be negative")
        if not isinstance(components, (list, tuple)):
            raise SchemaError("model components come as a list")
        comps = []
        for comp in components:
            if not isinstance(comp, FixedComponent):
                comp = FixedComponent.from_json(comp)
            comps.append(comp)
        if not comps:
            raise SchemaError("a model needs at least one fixed component")
        for comp in comps:
            if comp.f0_pairs + sum(k for k, _ in comp.moving_f) != self.p:
                raise SchemaError("F pairs of a component do not sum to p")
            if comp.fperp0_pairs + sum(k for k, _ in comp.moving_fperp) != self.r:
                raise SchemaError("Fperp pairs of a component do not sum to r")
            if self.mode == "foliated" and comp.moving_fperp:
                raise SchemaError("foliated mode keeps every Fperp direction static")
        self.components = tuple(comps)

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "p": self.p,
            "r": self.r,
            "l": self.l,
            "components": [comp.to_json() for comp in self.components],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "EquivariantModel":
        return cls(**payload_fields(obj, "model", ("mode", "p", "r", "components"), l=0))

    def speeds(self):
        out = set()
        for comp in self.components:
            out.update(m for _, m in comp.moving_f)
            out.update(n for _, n in comp.moving_fperp)
        return sorted(out)


def anomaly_check(model: EquivariantModel) -> int:
    """The anomaly sum(rank * m^2) over moving F blocks, per component.

    Every component must report the same value; that shared value is
    twice the negated index of the genus functions.
    """
    values = {
        sum(k * m * m for k, m in comp.moving_f) for comp in model.components
    }
    if len(values) != 1:
        raise SchemaError(f"components disagree on the anomaly: {sorted(values)}")
    return values.pop()


def form_meta(model: EquivariantModel, function: str = "H") -> JacobiFormMeta:
    """Expected transformation data: weight p + r - l, index -n/2."""
    if function not in _VARIANT_SUBGROUP:
        raise SchemaError(f"unknown genus function {function!r}")
    n = anomaly_check(model)
    return JacobiFormMeta(
        model.p + model.r - model.l,
        Fraction(-n, 2),
        _VARIANT_SUBGROUP[function],
    )


# ---------------------------------------------------------------------------
# static densities


def _check_root_free(comp: FixedComponent):
    moving = comp.moving_f or comp.moving_fperp
    if comp.dim > 0 and moving and any(comp.numbers.numbers.values()):
        raise SchemaError(
            "moving blocks over a positive-dimensional component need vanishing numbers"
        )


def _static_series(comp: FixedComponent, variant: str, order: int) -> QSeries:
    """The paired static density as a q-series of rationals.

    Over a point the density is the constant 1; otherwise it is the split
    genus of the static block with the variant's twist tower.
    """
    if comp.dim == 0:
        const = comp.numbers["1"]
        return QSeries(Fraction(0), 0, [const] if const else (), order)
    return split_genus(comp.static, _VARIANT_TWIST[variant], order)


# ---------------------------------------------------------------------------
# exact expansions: Laurent coefficients in w = e^(pi i t)


class ExactSeries:
    """A q-series with Laurent numerator over a q-free Laurent denominator.

    Coefficients are Laurent polynomials in w = e^(pi i t); the moving
    blocks contribute denominators (w^m - w^-m) that stay unexpanded.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: QSeries, den: LaurentZ):
        if not isinstance(num.zero, LaurentZ):
            raise SchemaError("exact series need Laurent coefficients")
        if not den:
            raise ZeroDivisionError("denominator of an exact series is zero")
        self.num = num
        self.den = den

    @property
    def order(self):
        return self.num.order

    def __add__(self, other):
        if not isinstance(other, ExactSeries):
            return NotImplemented
        if self.den == other.den:
            return ExactSeries(self.num + other.num, self.den)
        return ExactSeries(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self):
        return ExactSeries(-self.num, self.den)

    def __sub__(self, other):
        out = self + (-other)
        return out

    def __mul__(self, other):
        if isinstance(other, ExactSeries):
            return ExactSeries(self.num * other.num, self.den * other.den)
        return ExactSeries(self.num * other, self.den)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def coefficient(self, expo):
        """Numerator coefficient at a q-exponent; divide by den to read it."""
        return self.num.coefficient(expo)

    def __eq__(self, other):
        if not isinstance(other, ExactSeries):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    __hash__ = None

    def eval(self, t, tau) -> complex:
        """Numeric value of the truncated series, refused past EVAL_TOL.

        Each w^e is e^(pi i e t) with e t reduced mod 2 exactly
        (theta.reduced_st), so a large exponent keeps its phase.

        The truncation error is estimated by the last whole q-step that is
        kept: the summed moduli of the terms at exponents >= end - 1,
        relative to |num|.  num and den are summed term by term, which
        cancels catastrophically near a pole, where den is (w - 1/w)^rank
        with w near 1.  A sum of terms x_i carries a rounding error of
        about eps sum |x_i|, so the relative rounding bound is
        eps sum |x_i| / |sum x_i| of num plus that of den.  A value whose
        rounding bound or truncation estimate exceeds EVAL_TOL is a
        SchemaError, and so is a coefficient past double range.
        """
        tau = check_tau(tau)
        wpow = {}

        def value(lz):
            """(lz(w), sum |c w^e|), each w^e formed once as e^(pi i (e t mod 2))."""
            acc, mag = 0j, 0.0
            for e, c in lz.items():
                p = wpow.get(e)
                if p is None:
                    p = wpow[e] = cmath.exp(1j * math.pi * reduced_st(e, t))
                acc += complex(c) * p
                mag += abs(c) * abs(p)
            return acc, mag

        acc, mag, last = 0j, 0.0, 0.0
        tail = self.num.end_exponent - 1
        try:
            den, den_mag = value(self.den)
            for expo, coeff in self.num.terms():
                qp = _qpow(tau, expo)
                val, val_mag = value(coeff)
                acc += val * qp
                mag += val_mag * abs(qp)
                if expo >= tail:
                    last += abs(val * qp)
        except OverflowError:
            raise SchemaError(f"a coefficient of the exact series is past the double-range "
                              f"bound {sys.float_info.max:.4g}") from None
        rounding = sys.float_info.epsilon * (_relative(mag, acc) + _relative(den_mag, den))
        estimate = _relative(last, acc)
        for what, size in (("rounding bound", rounding), ("truncation estimate", estimate)):
            if not size <= EVAL_TOL:
                raise SchemaError(
                    f"the exact series at t = {complex(t)}, tau = {complex(tau)} carries a "
                    f"relative {what} of {size:.3g}, past the bound {EVAL_TOL:g}"
                )
        return acc / den

    def __repr__(self):
        return f"ExactSeries(order={self.num.order}, den={self.den!r})"


def _relative(mag: float, value: complex) -> float:
    """mag / |value|, 0 for an exact zero sum (mag 0) and inf for a cancelled one."""
    if not mag:
        return 0.0
    return mag / abs(value) if value else math.inf


def _moving_key(comp: FixedComponent, variant: str) -> tuple:
    """The speed signature of a component's moving blocks.

    (the variant's theta kind, only with moving Fperp blocks; sorted
    (rank, |m|) of the F blocks; sorted (rank, |n|) of the Fperp blocks).
    The sign of a speed only enters the denominator: every body factor
    comes with its z -> 1/z partner, and w^n + w^-n is even in n.
    """
    fperp = tuple(sorted((rank, abs(n)) for rank, n in comp.moving_fperp))
    return (_VARIANT_THETA[variant] if fperp else None,
            tuple(sorted((rank, abs(m)) for rank, m in comp.moving_f)), fperp)


def _component_rows(comp: FixedComponent, variant: str, order: int):
    """One component's term as (rows, den): numerator rows over its
    unexpanded denominator, both sparse {w-exponent: coefficient}.

    The numerator is the orientation times the static series (ints where
    integral), convolved, truncated, with the moving rows of the
    component's speed signature (theta.quotient_rows, held by prefix_rows
    under ("moving", _moving_key));
    over a point that is one scale, and a zero static series reads no
    moving rows.  Each unit of a moving block of speed s adds a factor
    (w^s - w^-s) to the denominator.
    """
    _check_root_free(comp)
    sign = comp.orientation
    static = [(i, sign * (c.numerator if c.denominator == 1 else c))
              for i, c in enumerate(_static_series(comp, variant, order).coeffs) if c]
    rows = [{} for _ in range(order)]
    if static:
        key = _moving_key(comp, variant)
        moving = prefix_rows(("moving", key), order, quotient_rows, key)
        (i, s), rest = static[0], static[1:]
        rows[i:] = [{e: s * v for e, v in row} for row in moving[:order - i]]
        for i, s in rest:
            for dst, row in zip(rows[i:], moving):
                for e, v in row:
                    x = dst.get(e, 0) + s * v
                    if x:
                        dst[e] = x
                    else:
                        del dst[e]
    den = {0: 1}
    for rank, s in comp.moving_f + comp.moving_fperp:
        for _ in range(rank):
            den = laurent_mul(den, {s: 1, -s: -1})
    return rows, den


def _variant(model: EquivariantModel, function: str) -> str:
    """The static variant of a genus function, after checking the model's mode.

    H is the foliated-mode function and takes the G static parts; G, G1
    and G2 are the split-mode functions.
    """
    if function == "H":
        if model.mode != "foliated":
            raise SchemaError("H is the foliated-mode function")
        return "G"
    if model.mode != "split":
        raise SchemaError("G functions belong to split mode")
    if function not in _VARIANT_THETA:
        raise SchemaError(f"unknown genus function {function!r}")
    return function


def h_series(model: EquivariantModel, order: int) -> ExactSeries:
    """Exact q-expansion of the foliated genus function H."""
    return _sum_components(model, _variant(model, "H"), order)


def g_series(model: EquivariantModel, variant: str, order: int) -> ExactSeries:
    """Exact q-expansion of a split-mode genus function G, G1, or G2."""
    return _sum_components(model, _variant(model, variant), order)


def exact_series(model: EquivariantModel, function: str, order: int) -> ExactSeries:
    """Exact q-expansion of H or a G variant, by name."""
    if function == "H":
        return h_series(model, order)
    return g_series(model, function, order)


def _sum_components(model, variant, order):
    """The component terms folded in rows, as ExactSeries.__add__ folds them.

    Equal denominators add slot by slot; otherwise each slot becomes
    a d + b den over den d.  Nothing is reduced, so num and den are those
    of the ExactSeries fold, and the rows become a series once.
    """
    total = den = None
    for comp in model.components:
        rows, d = _component_rows(comp, variant, order)
        if total is None:
            total, den = rows, d
        elif d == den:
            total = [laurent_add(a, b) for a, b in zip(total, rows)]
        else:
            total = [laurent_add(laurent_mul(a, d), laurent_mul(b, den))
                     for a, b in zip(total, rows)]
            den = laurent_mul(den, d)
    return ExactSeries(rows_series(total), LaurentZ._trusted(den))


# ---------------------------------------------------------------------------
# numeric evaluation


def _qpow(tau, expo) -> complex:
    return cmath.exp(2j * math.pi * tau * float(expo))


def check_poles(model: EquivariantModel, t, tau):
    """Check tau and t, then reject t where a speed s puts s t on a pole or out of range.

    The theta quotients have poles on the lattice Z + tau Z, so s t (mod 2,
    theta.reduced_st) is first moved by round(Im(s t) / Im(tau)) tau and
    then measured against the integers: within POLE_TOL is a PoleError.  A
    non-finite t is a SchemaError, and so is an s t that theta.checked_st
    refuses.  Without its bounds the quotient path returned NaN or raised from
    a growth of 706 on (Im tau from the 0.05 floor to 20, every genus
    function).  Against mpmath references (bench/refs.py) H, G, G1 and G2 on
    both paths stayed within 2e-13 relative through |Im(s t)| = 112.9 (Im(tau)
    set for growth 300 and 600), and raised OverflowError or ValueError from
    113 on.
    """
    _check_points(model.speeds(), t, check_tau(tau))


def _check_points(speeds, t, tauc: complex):
    """check_poles over a model's speeds, at a tau that check_tau has already reduced."""
    tc = complex(t)
    if not cmath.isfinite(tc):
        raise SchemaError(f"t = {tc} is not finite")
    for s in speeds:
        x = checked_st(s, tc, tauc, "speed {s}", "s t")
        y = x - round(x.imag / tauc.imag) * tauc
        if abs(y - round(y.real)) < POLE_TOL:
            raise PoleError(f"speed {s} puts {s}*t = {x:.12g} mod 2 on a pole")


# the moving factor of each numeric path
_PATHS = {"quotient": quotient_value, "lefschetz": line_value}


class Evaluator:
    """(t, tau) -> H or a G variant: the one sum of a numeric genus value.

    Each component adds its signed static value times its moving factors:
    theta.quotient_value on the "quotient" path, theta.line_value on the
    "lefschetz" path, each at its x = s t reduced mod 2.  The variant and
    its Fperp kind, the root-free check, the speeds and the factor are
    settled once per model.  The theta.Nome and the signed static values (a
    point's is its number) are kept for the last tau, so a Jacobi sample and
    its lattice shifts share them.  A call checks t and forms the moving
    factors.  check_poles
    bounds each factor, not their product, which leaves double range from
    a total moving rank of 64 on: such a value is a SchemaError, and so is
    a static value past double range (a number such as 10**400).
    """

    __slots__ = ("model", "variant", "kind", "tol", "speeds", "factor", "nome", "statics")

    def __init__(self, model: EquivariantModel, function: str = "H", tol: float = 1e-12,
                 path: str = "quotient"):
        self.model = model
        self.variant = _variant(model, function)
        self.kind = _VARIANT_THETA[self.variant]
        for comp in model.components:
            _check_root_free(comp)
        self.tol = tol
        self.speeds = model.speeds()
        self.factor = _PATHS[path]
        self.nome = self.statics = None

    def __call__(self, t, tau) -> complex:
        tau = check_tau(tau)
        _check_points(self.speeds, t, tau)
        if self.nome is None or self.nome.tau != tau:
            nome, twist = Nome(tau, self.tol), _VARIANT_TWIST[self.variant]
            try:
                self.statics = [comp.orientation * (complex(comp.numbers["1"]) if comp.dim == 0
                                                    else split_genus_value(comp.static, twist, nome))
                                for comp in self.model.components]
            except OverflowError:
                raise SchemaError(f"a static value at tau = {tau} is past the double-range "
                                  f"bound {sys.float_info.max:.4g}") from None
            self.nome = nome
        nome, factor = self.nome, self.factor
        total = 0j
        for comp, val in zip(self.model.components, self.statics):
            try:
                for kind, blocks in ((None, comp.moving_f), (self.kind, comp.moving_fperp)):
                    for rank, s in blocks:
                        val *= factor(kind, reduced_st(s, t), nome) ** rank
            except OverflowError:
                val = math.inf
            total += val
        if not cmath.isfinite(total):
            raise SchemaError(
                f"the value at t = {complex(t)}, tau = {tau} is past the double-range "
                f"bound {sys.float_info.max:.4g}"
            )
        return total


def evaluator(model: EquivariantModel, function: str = "H", tol: float = 1e-12) -> Evaluator:
    """A callable (t, tau) -> complex for H or a G variant through the theta quotients."""
    return Evaluator(model, function, tol)


def h_eval(model: EquivariantModel, t, tau, tol: float = 1e-12) -> complex:
    """Numeric H(t, tau) through the theta quotients."""
    return Evaluator(model, "H", tol)(t, tau)


def g_eval(model: EquivariantModel, variant: str, t, tau, tol: float = 1e-12) -> complex:
    """Numeric G-variant value through the theta quotients."""
    return Evaluator(model, variant, tol)(t, tau)


def lefschetz_eval(model: EquivariantModel, t, tau, function: str = "H",
                   tol: float = 1e-12) -> complex:
    """The same genus value from literal per-line infinite products.

    The moving factors are sinh and tanh lines times their q-tower
    products, truncated when the dropped factors are below tol; this is
    the cross-check path for the theta-quotient evaluators.
    """
    return Evaluator(model, function, tol, "lefschetz")(t, tau)


# ---------------------------------------------------------------------------
# Jacobi transformation residuals


def slash_value(fn, meta: JacobiFormMeta, mat, t, tau) -> complex:
    """(fn |_{weight, index} mat)(t, tau); past double range, such as at the
    weight p + r - l = -996 of a model with l = 1000, it is a SchemaError."""
    (a, b), (c, d) = _check_matrix(mat)
    denom = c * complex(tau) + d
    value = fn(complex(t) / denom, (a * complex(tau) + b) / denom)
    try:
        phase = cmath.exp(-2j * math.pi * complex(meta.index) * c * complex(t) ** 2 / denom)
        out = denom ** (-meta.weight) * phase * value
    except (OverflowError, ZeroDivisionError):  # the latter from a power past double range
        out = math.inf
    if not cmath.isfinite(out):
        raise SchemaError(f"the slash of weight {meta.weight} by {mat} at t = {complex(t)}, "
                          f"tau = {complex(tau)} is past the double-range bound "
                          f"{sys.float_info.max:.4g}")
    return out


def shift_factor(meta: JacobiFormMeta, lam, t, tau) -> complex:
    """The elliptic automorphy factor for t -> t + lam tau + mu."""
    return cmath.exp(
        -2j * math.pi * complex(meta.index) * (lam * lam * complex(tau) + 2 * lam * complex(t))
    )


# the lattice shifts (a, b) of jacobi_residual
_SHIFTS = ((1, 0), (0, 1))


def jacobi_residual(fn, meta: JacobiFormMeta, samples, tol: float = 1e-8) -> dict:
    """Residual report for the Jacobi transformation laws of fn.

    Matrix rows compare fn with its slash by each generator of the subgroup.
    Shift rows move t by meta.lattice * (a tau + b), (a, b) in _SHIFTS, and
    compare against the elliptic factor.  Every residual is relative,
    |lhs - rhs| / max(1, |lhs|, |rhs|), so a large value is held to the same
    digits as a small one.
    """
    samples = list(samples)
    if not samples:
        raise SchemaError("a Jacobi check needs at least one sample")
    rows = []
    for t, tau in samples:
        base = fn(t, tau)
        # the shifted values next, at the base's tau, so that an evaluator's nome serves them
        shifted = [fn(complex(t) + meta.lattice * a * complex(tau) + meta.lattice * b, tau)
                   for a, b in _SHIFTS]
        where = {"t": f"{complex(t):.6g}", "tau": f"{complex(tau):.6g}"}
        for mat in GENERATORS[meta.subgroup]:
            lhs = slash_value(fn, meta, mat, t, tau)
            rows.append({"law": "matrix", "matrix": [list(mat[0]), list(mat[1])], **where,
                         "residual": abs(lhs - base) / max(1.0, abs(lhs), abs(base))})
        for (a, b), lhs in zip(_SHIFTS, shifted):
            lam, mu = meta.lattice * a, meta.lattice * b
            rhs = shift_factor(meta, lam, t, tau) * base
            rows.append({"law": "shift", "shift": [lam, mu], **where,
                         "residual": abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))})
    worst = max(row["residual"] for row in rows)
    return {
        "meta": meta.to_json(),
        "samples": len(samples),
        "rows": rows,
        "max_residual": worst,
        "tol": tol,
        "pass": worst < tol,
    }
