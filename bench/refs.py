"""Independent high-precision references for the numeric-eval workload.

Nothing here imports genusforge.  The moving blocks are theta quotients
evaluated from the product formulas with mpmath at 40 digits, the
products running until the dropped factor is below 1e-45:

    theta  = c(q) q^(1/8) 2 sin(pi v) prod (1 - q^n z)(1 - q^n / z)
    theta1 = c(q) q^(1/8) 2 cos(pi v) prod (1 + q^n z)(1 + q^n / z)
    theta2 = c(q)                     prod (1 - q^(n-1/2) z)(1 - q^(n-1/2) / z)
    theta3 = c(q)                     prod (1 + q^(n-1/2) z)(1 + q^(n-1/2) / z)
    theta'(0) = 2 pi q^(1/8) c(q)^3,   z = e^(2 pi i v),  c(q) = prod (1 - q^n)

A dim-4 static component pairs only its degree-4 density, which is
linear in p1(F) and p1(Fperp).  Per root a, each factor of the density has
log = (coefficient) a^2 + O(a^4), and the a^2 coefficients are Lambert
series summed here to full precision instead of the library's fixed
q-truncation:

    Ahat, (a/2)/sinh(a/2):  -1/24        L, a/tanh(a):  1/3
    Sym_t(E - rank E):      t/(1 - t)^2  Lambda_t(E - rank E): t/(1 + t)^2

The F block is Ahat(F) times the Witten tower (Sym at t = q^m); the Fperp
block is L(Fperp) with the R tower (Sym and Lambda at q^m) for G and H,
and Ahat(Fperp) with Sym at q^m and Lambda at t = -q^(m-1/2) (G1, twist
R2) or t = q^(m-1/2) (G2, twist R1).
"""

from __future__ import annotations

from fractions import Fraction

import mpmath as mp

DPS = 40
EPS = mp.mpf(10) ** -45
_KIND = {"G": "theta1", "G1": "theta2", "G2": "theta3"}


def _nome(tau):
    return mp.exp(2j * mp.pi * tau)


def _euler(q):
    out, qn = mp.mpf(1), q
    while abs(qn) > EPS:
        out *= 1 - qn
        qn *= q
    return out


def theta(kind, v, tau):
    q, z = _nome(tau), mp.exp(2j * mp.pi * v)
    sign = -1 if kind in ("theta", "theta2") else 1
    half = kind in ("theta2", "theta3")
    out = _euler(q)
    if not half:
        out *= mp.exp(2j * mp.pi * tau / 8)
        out *= 2 * (mp.sin(mp.pi * v) if kind == "theta" else mp.cos(mp.pi * v))
    grow = max(abs(z), 1 / abs(z))
    n = 1
    while True:
        qe = q ** (n - mp.mpf(1) / 2) if half else q**n
        if abs(qe) * grow < EPS:
            return out
        out *= (1 + sign * qe * z) * (1 + sign * qe / z)
        n += 1


def theta_prime0(tau):
    q = _nome(tau)
    return 2 * mp.pi * mp.exp(2j * mp.pi * tau / 8) * _euler(q) ** 3


def _w_block(m, t, tau):
    return theta_prime0(tau) / (2j * mp.pi * theta("theta", m * t, tau))


def _v_block(variant, n, t, tau):
    kind = _KIND[variant]
    val = theta_prime0(tau) * theta(kind, n * t, tau)
    val /= 2j * mp.pi * theta("theta", n * t, tau) * theta(kind, 0, tau)
    return 2 * val if variant == "G" else val


def _lambert(term):
    total, n = mp.mpf(0), 1
    while True:
        x = term(n)
        total += x
        if abs(x) < EPS and n > 3:
            return total
        n += 1


def _sym(t):
    return t / (1 - t) ** 2


def _lam(t):
    return t / (1 + t) ** 2


def static_coefficients(variant, tau):
    """(alpha, beta): the paired degree-4 density is alpha p1(F) + beta p1(Fperp)."""
    q = _nome(tau)
    half = mp.exp(1j * mp.pi * tau)  # q^(1/2)
    alpha = mp.mpf(-1) / 24 + _lambert(lambda n: _sym(q**n))
    if variant == "G":
        beta = mp.mpf(1) / 3 + _lambert(lambda n: _sym(q**n) + _lam(q**n))
    elif variant == "G1":
        beta = mp.mpf(-1) / 24 + _lambert(lambda n: _sym(q**n) + _lam(-half * q ** (n - 1)))
    else:
        beta = mp.mpf(-1) / 24 + _lambert(lambda n: _sym(q**n) + _lam(half * q ** (n - 1)))
    return alpha, beta


def _mpq(x):
    x = Fraction(x)
    return mp.mpf(x.numerator) / x.denominator


def _static(comp, variant, tau):
    numbers = {k: Fraction(v) for k, v in comp["numbers"].items()}
    if comp["dim"] == 0:
        return _mpq(numbers.get("1", 0))
    if not any(numbers.values()):
        return mp.mpf(0)
    if comp["dim"] != 4:
        raise ValueError("references cover static components of dimension 0 or 4")
    alpha, beta = static_coefficients(variant, tau)
    return alpha * _mpq(numbers.get("p1(F)", 0)) + beta * _mpq(numbers.get("p1(Fperp)", 0))


def genus_value(model, function, t, tau):
    """H (foliated) or G/G1/G2 (split) of a model payload at (t, tau)."""
    variant = "G" if function == "H" else function
    total = mp.mpc(0)
    for comp in model["components"]:
        val = comp["orientation"] * _static(comp, variant, tau)
        for block in comp.get("moving_f", ()):
            val *= _w_block(block["m"], t, tau) ** block["rank"]
        for block in comp.get("moving_fperp", ()):
            val *= _v_block(variant, block["n"], t, tau) ** block["rank"]
        total += val
    return total


def reference(payload):
    """The reference value of a single-point job as a Python complex."""
    with mp.workdps(DPS):
        t = mp.mpc(float(payload["t"][0]), float(payload["t"][1]))
        tau = mp.mpc(float(payload["tau"][0]), float(payload["tau"][1]))
        value = genus_value(payload["model"], payload["fn"], t, tau)
        return complex(value)
