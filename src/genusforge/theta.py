"""Jacobi theta functions: exact z-Laurent q-series and numeric evaluation.

The four kinds follow the product normalization

    theta  = c(q) q^(1/8) 2 sin(pi v) prod (1 - q^n z)(1 - q^n / z)
    theta1 = c(q) q^(1/8) 2 cos(pi v) prod (1 + q^n z)(1 + q^n / z)
    theta2 = c(q)                     prod (1 - q^(n-1/2) z)(1 - q^(n-1/2) / z)
    theta3 = c(q)                     prod (1 + q^(n-1/2) z)(1 + q^(n-1/2) / z)

with z = e^(2 pi i v) and c(q) = prod (1 - q^n).  The exact representation
keeps c(q), the q^(1/8), and the trig factor symbolic so that quotients of
thetas cancel them algebraically; only the z-product is expanded.

Numeric values go through a Nome: one reduced tau at one tolerance, whose
q-powers are formed by repeated multiplication (no exponential per
factor) and whose c(q), c(q)^2 and body_k(1) are formed once.  The
quotients of the equivariant genus functions read their bodies from it,
with the same cancellations as the exact path; theta_eval, theta_prime0
and euler_eval are thin wrappers over the same loops, and the lattice
law of verify_transform reads both sides of a sample from one nome.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from genusforge.errors import SchemaError
from genusforge.rings import LAURENT, LaurentZ
from genusforge.series import QSeries

THETA = "theta"
THETA1 = "theta1"
THETA2 = "theta2"
THETA3 = "theta3"
KINDS = (THETA, THETA1, THETA2, THETA3)

TAU_FLOOR = 0.05
# the G quotient's theta'(0) theta1(v) is of size q^(1/4), which leaves the normal
# double range near Im tau = 450 (it drifts at 460 and divides by zero at 480)
TAU_CEIL = 400.0
FACTOR_CAP = 10**4

# per kind: sign inside the product factors, True when exponents sit on n - 1/2
_BODY = {
    THETA: (-1, False),
    THETA1: (1, False),
    THETA2: (-1, True),
    THETA3: (1, True),
}

# per kind: (c-power, q-offset, trig tag)
_PREFIX = {
    THETA: (1, Fraction(1, 8), "2sin"),
    THETA1: (1, Fraction(1, 8), "2cos"),
    THETA2: (1, Fraction(0), "1"),
    THETA3: (1, Fraction(0), "1"),
}


# ---------------------------------------------------------------------------
# exact products on integer rows
#
# rows[k] holds the q^(k/2) coefficient of a series as a sparse map
# {z-exponent: coefficient}, the storage of LaurentZ itself: coefficients are
# nonzero ints or Fractions, and a row becomes a LaurentZ by sorting its keys.
# Every exact product in this package is a run of factors (1 + c q^(e/2) z^k),
# written (e, c, k) with e >= 1, and each is a unit of the truncated ring, so
# multiplying or dividing by one is a single pass over the rows and the
# factors may be applied in any order.


def unit_rows(order: int) -> list:
    """Rows of the series 1 with the given slot count."""
    if order < 1:
        raise ValueError("a truncated product needs at least one slot")
    rows = [{} for _ in range(order)]
    rows[0][0] = 1
    return rows


def body_factors(kind, order: int, zpow: int = 1) -> list:
    """The factors of a theta body below the window, with z -> z^zpow."""
    sign, half = _BODY[kind]
    out = []
    e = 1 if half else 2
    while e < order:
        out.append((e, sign, zpow))
        out.append((e, sign, -zpow))
        e += 2
    return out


def euler_factors(order: int) -> list:
    """The factors (1 - q^n) of c(q) below the window."""
    return [(e, -1, 0) for e in range(2, order, 2)]


def multiply_rows(rows, factors):
    """rows *= prod (1 + c q^(e/2) z^k), top-down shift-and-add in place."""
    top = len(rows)
    for e, c, k in factors:
        for n in range(top - 1, e - 1, -1):
            src = rows[n - e]
            if src:
                dst = rows[n]
                for j, v in src.items():
                    j += k
                    x = dst.get(j, 0) + c * v
                    if x:
                        dst[j] = x
                    else:
                        del dst[j]


def divide_rows(rows, factors):
    """rows /= prod (1 + c q^(e/2) z^k): B[n] = A[n] - c z^k B[n-e], bottom-up."""
    top = len(rows)
    for e, c, k in factors:
        for n in range(e, top):
            src = rows[n - e]
            if src:
                dst = rows[n]
                for j, v in src.items():
                    j += k
                    x = dst.get(j, 0) - c * v
                    if x:
                        dst[j] = x
                    else:
                        del dst[j]


def laurent_rows(series: QSeries) -> list:
    """Rows of a Laurent-coefficient series: a copy of each coefficient's terms."""
    return [dict(lz.terms) for lz in series.coeffs]


def rows_series(rows, offset=0) -> QSeries:
    """The Laurent-coefficient series held by rows, each row wrapped as it is."""
    return QSeries(LAURENT, offset, [LaurentZ._trusted(row) for row in rows], len(rows))


class ThetaSeries:
    """Exact theta data: symbolic prefactors plus the expanded z-product."""

    __slots__ = ("kind", "c_power", "q_offset", "trig", "body")

    def __init__(self, kind, c_power, q_offset, trig, body: QSeries):
        self.kind = kind
        self.c_power = int(c_power)
        self.q_offset = Fraction(q_offset)
        self.trig = trig
        self.body = body

    def expanded(self) -> QSeries:
        """body * c(q)**c_power shifted by the q-offset (trig stays symbolic)."""
        rows = laurent_rows(self.body)
        factors = euler_factors(self.body.order) * abs(self.c_power)
        if self.c_power > 0:
            multiply_rows(rows, factors)
        else:
            divide_rows(rows, factors)
        return rows_series(rows, self.body.offset + self.q_offset)

    def __repr__(self):
        return (
            f"ThetaSeries({self.kind}, c^{self.c_power}, "
            f"q^{self.q_offset}, trig={self.trig})"
        )


def euler_product(order: int) -> QSeries:
    """c(q) = prod (1 - q^n) truncated to the given slot count."""
    rows = unit_rows(order)
    multiply_rows(rows, euler_factors(order))
    return QSeries(LAURENT, 0, [row.get(0, 0) for row in rows], order)


def theta_qseries(kind, order: int) -> ThetaSeries:
    """Exact truncated product expansion of the z-dependent body."""
    if kind not in _BODY:
        raise SchemaError(f"unknown theta kind {kind!r}")
    rows = unit_rows(order)
    multiply_rows(rows, body_factors(kind, order))
    c_power, q_offset, trig = _PREFIX[kind]
    return ThetaSeries(kind, c_power, q_offset, trig, rows_series(rows))


def theta_prime0_series(order: int) -> ThetaSeries:
    """d theta / dv at v = 0: the sin factor contributes 2 pi, each
    product pair evaluates at z = 1 giving (1 - q^n)^2, so the exact form
    is 2 pi q^(1/8) c(q)^3."""
    return ThetaSeries("theta_prime0", 3, Fraction(1, 8), "2pi", QSeries.one(LAURENT, order))


# ---------------------------------------------------------------------------
# numeric evaluation


def reduced_tau(tau) -> complex:
    """tau with Re(tau) reduced modulo 8 (exact in math.fmod), which leaves every
    q^(e/8) unchanged; 2 pi i tau e at a huge Re(tau) loses the phase or overflows."""
    tau = complex(tau)
    return complex(math.fmod(tau.real, 8.0), tau.imag)


def reduced_st(s: int, t) -> complex:
    """s t with Re(s t) reduced mod 2 into [-1, 1) exactly, from the binary value
    of Re(t), then rounded once: every theta quotient is 2-periodic in s t and
    w = e^(pi i t) in t, but s * Re(t) in floats loses the phase at a large s t."""
    t = complex(t)
    if -2**53 < s < 2**53 and -1.0 < (st := s * t).real < 1.0:
        return st  # nothing to reduce, and float(s) * Re(t) is rounded once
    num, den = t.real.as_integer_ratio()
    rem = s * num % (2 * den)
    return complex((rem - 2 * den if rem >= den else rem) / den, s * t.imag)


def check_tau(tau) -> complex:
    """Reject a non-finite tau and tau outside TAU_FLOOR <= Im(tau) <= TAU_CEIL;
    return the reduced_tau that the q-powers are formed from."""
    tau = complex(tau)
    if not cmath.isfinite(tau):
        raise SchemaError(f"tau = {tau} is not finite")
    if not tau.imag >= TAU_FLOOR:
        raise SchemaError(f"Im(tau) = {tau.imag} is below the evaluation floor {TAU_FLOOR}")
    if tau.imag > TAU_CEIL:
        raise SchemaError(f"Im(tau) = {tau.imag} is above the evaluation ceiling {TAU_CEIL}")
    return reduced_tau(tau)


def _factor_count(absq, grow, tol):
    if absq >= 1.0:
        raise ValueError("the nome must satisfy |q| < 1")
    bound = tol / 10.0
    n = 1
    term = absq * grow
    while term > bound:
        n += 1
        term *= absq
        if n > FACTOR_CAP:
            raise ValueError("tolerance unreachable within the factor cap")
    return n


def _extend(powers: list, q: complex, n: int) -> list:
    """The first n entries of a run of powers powers[k] = powers[0] q^k, grown
    in place by repeated multiplication."""
    if len(powers) < n:
        p = powers[-1]
        for _ in range(n - len(powers)):
            p *= q
            powers.append(p)
    return powers[:n]


def _euler(powers) -> complex:
    out = 1.0 + 0.0j
    for p in powers:
        out *= 1.0 - p
    return out


class Nome:
    """The q-powers of one tau at one tol, and the theta values shared by
    every quotient at that tau.

    tau is checked and reduced once (check_tau).  Each q^n comes from
    q = e^(2 pi i tau) by repeated multiplication, and each q^(n - 1/2)
    the same way from e^(pi i tau): the principal square root of q would
    swap theta2 and theta3 at |Re tau| > 1/2.  A body product keeps the
    _factor_count truncation, the factors that theta_eval took when it
    formed each q-power with its own cmath.exp.  c(q), c(q)^2 and
    body_k(1) are formed on first use and then kept.
    """

    __slots__ = ("tau", "tol", "q", "absq", "_whole", "_half", "_euler", "_euler2", "_at_one")

    def __init__(self, tau, tol: float = 1e-12):
        self.tau = check_tau(tau)
        self.tol = tol
        self.q = cmath.exp(2j * math.pi * self.tau)
        self.absq = abs(self.q)
        self._whole = [self.q]
        self._half = None
        self._euler = None
        self._euler2 = None
        self._at_one = {}

    def powers(self, n: int, half: bool = False) -> list:
        """q^1 .. q^n, or with half q^(1/2) .. q^(n - 1/2)."""
        if not half:
            return _extend(self._whole, self.q, n)
        if self._half is None:
            self._half = [cmath.exp(1j * math.pi * self.tau)]
        return _extend(self._half, self.q, n)

    def euler(self) -> complex:
        """c(q) = prod (1 - q^n), truncated as euler_eval truncates it, formed once."""
        if self._euler is None:
            self._euler = _euler(self.powers(_factor_count(self.absq, 1.0, self.tol)))
        return self._euler

    def euler_squared(self) -> complex:
        """c(q)^2, formed once."""
        if self._euler2 is None:
            c = self.euler()
            self._euler2 = c * c
        return self._euler2

    def body(self, kind, z: complex) -> complex:
        """prod (1 + s q^e z)(1 + s q^e / z) over the kind's sign s and exponents e.

        Each factor is taken as 1 + q^e (q^e + s (z + 1/z)), which is the
        same product with one complex multiplication fewer.
        """
        sign, half = _BODY[kind]
        zi = 1.0 / z
        grow = 1.0 + max(abs(z), abs(zi))
        zz = sign * (z + zi)
        out = 1.0 + 0.0j
        for p in self.powers(_factor_count(self.absq, grow, self.tol), half):
            out *= 1.0 + p * (p + zz)
        return out

    def body_at_one(self, kind) -> complex:
        """body_k(1), formed once per kind."""
        out = self._at_one.get(kind)
        if out is None:
            out = self._at_one[kind] = self.body(kind, 1.0 + 0.0j)
        return out


def euler_eval(q: complex, tol: float = 1e-12) -> complex:
    """Numeric c(q) by direct truncated product."""
    return _euler(_extend([q], q, _factor_count(abs(q), 1.0, tol)))


def theta_eval(kind, v, tau, tol: float = 1e-12) -> complex:
    """Numeric theta value from the product formula, over a Nome of tau."""
    if kind not in _BODY:
        raise SchemaError(f"unknown theta kind {kind!r}")
    return _theta_value(Nome(tau, tol), kind, v)


def _theta_value(nome: Nome, kind, v) -> complex:
    """theta_eval of a known kind over a given Nome."""
    v = complex(v)
    c_power, q_offset, trig = _PREFIX[kind]
    out = nome.euler() ** c_power * nome.body(kind, cmath.exp(2j * math.pi * v))
    if q_offset:
        out *= cmath.exp(2j * math.pi * nome.tau * float(q_offset))
    if trig == "2sin":
        out *= 2.0 * cmath.sin(math.pi * v)
    elif trig == "2cos":
        out *= 2.0 * cmath.cos(math.pi * v)
    return out


def theta_prime0(tau, tol: float = 1e-12) -> complex:
    """d theta / dv at v = 0: 2 pi q^(1/8) c(q)^3."""
    nome = Nome(tau, tol)
    return 2.0 * math.pi * cmath.exp(2j * math.pi * nome.tau / 8.0) * nome.euler() ** 3


# ---------------------------------------------------------------------------
# transformation laws

# tau -> tau + 1: partner kind and constant factor
_T_LAW = {
    THETA: (THETA, cmath.exp(1j * cmath.pi / 4)),
    THETA1: (THETA1, cmath.exp(1j * cmath.pi / 4)),
    THETA2: (THETA3, 1.0),
    THETA3: (THETA2, 1.0),
}

# (t, tau) -> (t/tau, -1/tau): partner kind and whether the extra 1/i appears
_S_LAW = {
    THETA: (THETA, True),
    THETA1: (THETA2, False),
    THETA2: (THETA1, False),
    THETA3: (THETA3, False),
}


def _s_factor(t, tau, extra_inv_i):
    # principal branch: tau/i lies in the right half-plane for Im tau > 0
    root = cmath.sqrt(tau / 1j)
    phase = cmath.exp(1j * cmath.pi * t * t / tau)
    out = root * phase
    if extra_inv_i:
        out /= 1j
    return out


def _lattice_factor(a, t, tau, sign):
    return cmath.exp(sign * 1j * cmath.pi * (a * a * tau + 2 * a * t))


def verify_transform(kind, law, samples, tol: float = 1e-9) -> dict:
    """Residual report for a transformation law over sample points.

    law is "S", "T", or ("lattice", a, b) with even integers a, b.  For the
    lattice law both exponent sign conventions are measured and the report
    names the one that holds; nothing is asserted here.  Lattice residuals
    are scaled by the value magnitude: a shift by a*tau multiplies theta by
    a factor of size e^(pi(a^2 Im tau + 2a Im t)), so an absolute residual
    would drown the comparison at machine precision.  S and T residuals
    stay absolute, as their values remain of moderate size on the
    documented sample domain.
    """
    if kind not in _BODY:
        raise SchemaError(f"unknown theta kind {kind!r}")
    rows = []
    if isinstance(law, (tuple, list)):
        name, a, b = law
        if name != "lattice":
            raise SchemaError(f"unknown transformation law {law!r}")
        if a % 2 or b % 2:
            raise SchemaError("lattice shifts need even integers a, b")
        neg_max = 0.0
        pos_max = 0.0
        for t, tau in samples:
            nome = Nome(tau)  # lhs and base share tau
            lhs = _theta_value(nome, kind, t + a * tau + b)
            base = _theta_value(nome, kind, t)
            rhs_neg = _lattice_factor(a, t, tau, -1) * base
            rhs_pos = _lattice_factor(a, t, tau, +1) * base
            scale_neg = max(1.0, abs(lhs), abs(rhs_neg))
            scale_pos = max(1.0, abs(lhs), abs(rhs_pos))
            res_neg = abs(lhs - rhs_neg) / scale_neg
            res_pos = abs(lhs - rhs_pos) / scale_pos
            neg_max = max(neg_max, res_neg)
            pos_max = max(pos_max, res_pos)
            rows.append({
                "t": str(t),
                "tau": str(tau),
                "residual_negative": res_neg,
                "residual_positive": res_pos,
            })
        convention = "negative" if neg_max <= pos_max else "positive"
        best = min(neg_max, pos_max)
        return {
            "kind": kind,
            "law": f"lattice({a},{b})",
            "samples": rows,
            "max_residual_negative": neg_max,
            "max_residual_positive": pos_max,
            "sign_convention": convention,
            "max_residual": best,
            "tol": tol,
            "pass": best <= tol,
        }
    if law == "T":
        partner, factor = _T_LAW[kind]
        worst = 0.0
        for t, tau in samples:
            lhs = theta_eval(kind, t, tau + 1)
            rhs = factor * theta_eval(partner, t, tau)
            res = abs(lhs - rhs)
            worst = max(worst, res)
            rows.append({"t": str(t), "tau": str(tau), "residual": res})
    elif law == "S":
        partner, extra = _S_LAW[kind]
        worst = 0.0
        for t, tau in samples:
            tau = complex(tau)
            lhs = theta_eval(kind, t / tau, -1 / tau)
            rhs = _s_factor(t, tau, extra) * theta_eval(partner, t, tau)
            res = abs(lhs - rhs)
            worst = max(worst, res)
            rows.append({"t": str(t), "tau": str(tau), "residual": res})
    else:
        raise SchemaError(f"unknown transformation law {law!r}")
    return {
        "kind": kind,
        "law": law,
        "samples": rows,
        "max_residual": worst,
        "tol": tol,
        "pass": worst <= tol,
    }
