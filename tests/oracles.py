"""Naive reference implementations used to pin expected test values.

Everything here is deliberately simple and independent of the package
internals: plain dicts keyed by exponents, brute-force polynomial
expansion, and direct product truncation.  No code is shared with the
optimized paths under src/.
"""

import cmath
import math
from fractions import Fraction

Q0 = Fraction(0)
Q1 = Fraction(1)


# ---------------------------------------------------------------------------
# one-variable series as {Fraction exponent: Fraction coefficient} dicts,
# truncated strictly below `end`


def dclean(a):
    return {e: c for e, c in a.items() if c}


def dmul(a, b, end):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            if e < end:
                out[e] = out.get(e, Q0) + ca * cb
    return dclean(out)


def dadd(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Q0) + c
    return dclean(out)


def dscale(a, s):
    return dclean({e: c * s for e, c in a.items()})


def dinv(a, end, step=Fraction(1, 2)):
    """Invert termwise on the step grid by triangular back-substitution."""
    lead = min(e for e, c in a.items() if c)
    shifted = {e - lead: c for e, c in a.items()}
    n = int((end + lead) / step)
    out = {}
    c0 = shifted[Fraction(0)]
    for k in range(n):
        e = k * step
        rhs = Q1 if k == 0 else Q0
        acc = rhs
        for eo, co in out.items():
            ca = shifted.get(e - eo)
            if ca is not None and eo < e:
                acc -= co * ca
        out[e] = acc / c0
    return dclean({e - lead: c for e, c in out.items()})


def dexp(a, end):
    out = {Fraction(0): Q1}
    power = {Fraction(0): Q1}
    if not a:
        return out
    lowest = min(a)
    k = 1
    while k * lowest < end:
        power = dmul(power, a, end)
        out = dadd(out, dscale(power, Fraction(1, math.factorial(k))))
        k += 1
        if not power:
            break
    return out


def dlog(a, end):
    x = dict(a)
    x[Fraction(0)] = x.get(Fraction(0), Q0) - 1
    x = dclean(x)
    out = {}
    power = {Fraction(0): Q1}
    if not x:
        return out
    lowest = min(x)
    k = 1
    while k * lowest < end:
        power = dmul(power, x, end)
        out = dadd(out, dscale(power, Fraction((-1) ** (k - 1), k)))
        k += 1
        if not power:
            break
    return out


def dproduct(factors, end):
    out = {Fraction(0): Q1}
    for f in factors:
        out = dmul(out, f, end)
    return out


# ---------------------------------------------------------------------------
# multivariate polynomials over indexed variables with a weighted degree cap


class MPoly:
    """terms: {exponent tuple: Fraction}; weight = cohomological degree of
    one power of each variable; terms above maxdeg are dropped."""

    def __init__(self, nvars, weight, maxdeg, terms=None):
        self.nvars = nvars
        self.weight = weight
        self.maxdeg = maxdeg
        self.terms = {}
        if terms:
            for mono, c in terms.items():
                if c and self.degree(mono) <= maxdeg:
                    self.terms[mono] = self.terms.get(mono, Q0) + c
            self.terms = {m: c for m, c in self.terms.items() if c}

    def degree(self, mono):
        return self.weight * sum(mono)

    @classmethod
    def const(cls, nvars, weight, maxdeg, value):
        return cls(nvars, weight, maxdeg, {(0,) * nvars: Fraction(value)})

    @classmethod
    def var(cls, nvars, weight, maxdeg, i, power=1):
        mono = [0] * nvars
        mono[i] = power
        return cls(nvars, weight, maxdeg, {tuple(mono): Q1})

    def add(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Q0) + c
        return MPoly(self.nvars, self.weight, self.maxdeg, out)

    def scale(self, s):
        return MPoly(
            self.nvars, self.weight, self.maxdeg,
            {m: c * s for m, c in self.terms.items()},
        )

    def mul(self, other):
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(x + y for x, y in zip(m1, m2))
                if self.degree(m) <= self.maxdeg:
                    out[m] = out.get(m, Q0) + c1 * c2
        return MPoly(self.nvars, self.weight, self.maxdeg, out)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (
            self.nvars == other.nvars
            and self.weight == other.weight
            and self.terms == other.terms
        )


def elem_sym(nvars, i, weight, maxdeg):
    """Elementary symmetric polynomial e_i of the variables."""
    import itertools

    out = {}
    for combo in itertools.combinations(range(nvars), i):
        mono = [0] * nvars
        for j in combo:
            mono[j] = 1
        out[tuple(mono)] = Q1
    return MPoly(nvars, weight, maxdeg, out)


def expand_sequence(factor_coeffs, n_roots, top):
    """prod_j f(a_j) in the variables u_j = a_j^2, truncated at degree top.

    factor_coeffs lists the Taylor coefficients of f(a); odd entries must
    vanish.  Returns an MPoly in n_roots variables of weight 4.
    """
    for k in range(1, len(factor_coeffs), 2):
        if factor_coeffs[k]:
            raise ValueError("factor must be even")
    g = [Fraction(factor_coeffs[2 * m]) for m in range((len(factor_coeffs) + 1) // 2)]
    out = MPoly.const(n_roots, 4, top, 1)
    for j in range(n_roots):
        fj = MPoly(n_roots, 4, top, {})
        for m, c in enumerate(g):
            if c and 4 * m <= top:
                fj = fj.add(MPoly.var(n_roots, 4, top, j, m).scale(c))
        out = out.mul(fj)
    return out


def symmetric_to_elementary(P):
    """Rewrite a symmetric MPoly as {partition of e-indices: coefficient}.

    Gauss's algorithm: repeatedly kill the lex-leading monomial with the
    matching product of elementary symmetric polynomials.  The partition
    key lists e-indices with multiplicity, largest first, so e2*e1^2 is
    keyed (2, 1, 1); the empty tuple keys the constant term.
    """
    n = P.nvars
    out = {}
    work = P
    guard = 0
    while not work.is_zero():
        guard += 1
        if guard > 10000:
            raise RuntimeError("symmetric reduction did not terminate")
        lead = max(work.terms, key=lambda m: tuple(sorted(m, reverse=True)))
        lam = tuple(sorted(lead, reverse=True))
        if lam != lead:
            # pick the representative with sorted exponents; symmetric
            # polynomials always contain it with the same coefficient
            lead = lam
        coeff = work.terms.get(lead)
        if coeff is None:
            raise ValueError("polynomial is not symmetric")
        partition = []
        prod = MPoly.const(n, P.weight, P.maxdeg, 1)
        lam_ext = list(lam) + [0]
        for i in range(1, n + 1):
            mult = lam_ext[i - 1] - lam_ext[i]
            for _ in range(mult):
                partition.append(i)
                prod = prod.mul(elem_sym(n, i, P.weight, P.maxdeg))
        key = tuple(sorted(partition, reverse=True))
        out[key] = out.get(key, Q0) + coeff
        work = work.add(prod.scale(-coeff))
    return {k: c for k, c in out.items() if c}


def oracle_genus_partitions(factor_coeffs, top, n_roots):
    """Multiplicative-sequence polynomial as {e-partition: coefficient}."""
    return symmetric_to_elementary(expand_sequence(factor_coeffs, n_roots, top))


# ---------------------------------------------------------------------------
# Newton identities by brute force on explicit numbers


def brute_power_sums(roots, count):
    return [sum(Fraction(r) ** k for r in roots) for k in range(1, count + 1)]


def brute_elementary(roots, count):
    import itertools

    out = []
    for i in range(1, count + 1):
        acc = Q0
        for combo in itertools.combinations(roots, i):
            term = Q1
            for r in combo:
                term *= Fraction(r)
            acc += term
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# projective-plane characteristic data from the hyperplane-class expansion


def cp2_p1_number():
    """p1 of the complex projective plane via c = (1+h)^3, p1 = c1^2 - 2c2.

    Returns the coefficient of h^2, which pairs to the number since
    <h^2, [CP2]> = 1.
    """
    # c(T) = (1+h)^3 truncated above h^2: c1 = 3h, c2 = 3h^2
    c1_sq = 9
    c2 = 3
    return Fraction(c1_sq - 2 * c2)


# ---------------------------------------------------------------------------
# theta bodies by direct truncated product expansion: {(q_exp, z_exp): coeff}


def tmul(a, b, q_end):
    out = {}
    for (qa, za), ca in a.items():
        for (qb, zb), cb in b.items():
            q = qa + qb
            if q < q_end:
                key = (q, za + zb)
                out[key] = out.get(key, Q0) + ca * cb
    return {k: c for k, c in out.items() if c}


def theta_body_oracle(sign, half_shift, q_end):
    """prod over n >= 1 of (1 + sign*q^(n-shift) z)(1 + sign*q^(n-shift)/z).

    half_shift True uses exponents n - 1/2, False uses n.  Truncated to
    q-exponents strictly below q_end.
    """
    out = {(Fraction(0), 0): Q1}
    n = 1
    while True:
        e = Fraction(n) - (Fraction(1, 2) if half_shift else 0)
        if e >= q_end:
            break
        for zpow in (1, -1):
            out = tmul(out, {(Fraction(0), 0): Q1, (e, zpow): Fraction(sign)}, q_end)
        n += 1
    return out


def tadd(a, b):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, Q0) + c
    return {k: c for k, c in out.items() if c}


def wlift(poly):
    """A w-Laurent polynomial {w: c} as a q^0 body {(0, w): c}."""
    return {(Q0, e): c for e, c in poly.items()}


def tinv(a, q_end):
    """1/a for a body with constant term 1, as the geometric series of 1 - a."""
    x = {k: -c for k, c in a.items() if k != (Q0, 0)}
    assert a[(Q0, 0)] == 1 and all(q > 0 for q, _ in x)
    out = {(Q0, 0): Q1}
    power = {(Q0, 0): Q1}
    while power:
        power = tmul(power, x, q_end)
        for k, c in power.items():
            out[k] = out.get(k, Q0) + c
    return {k: c for k, c in out.items() if c}


def tsubst(a, zpow):
    """z -> z^zpow; zpow 0 sets z = 1."""
    out = {}
    for (q, z), c in a.items():
        key = (q, z * zpow)
        out[key] = out.get(key, Q0) + c
    return {k: c for k, c in out.items() if c}


def euler_product_oracle(q_end):
    """prod (1 - q^n) truncated below q_end, as an exponent dict."""
    out = {Fraction(0): Q1}
    n = 1
    while Fraction(n) < q_end:
        out = dmul(out, {Fraction(0): Q1, Fraction(n): Fraction(-1)}, q_end)
        n += 1
    return out


# ---------------------------------------------------------------------------
# rational functions in the half-character variable w (zeta = w^2),
# stored as (numerator dict, denominator dict) of {int power: Fraction}


def wmul(a, b):
    out = {}
    for pa, ca in a.items():
        for pb, cb in b.items():
            out[pa + pb] = out.get(pa + pb, Q0) + ca * cb
    return {p: c for p, c in out.items() if c}


def wadd(a, b):
    out = dict(a)
    for p, c in b.items():
        out[p] = out.get(p, Q0) + c
    return {p: c for p, c in out.items() if c}


def wdivide(num, den):
    """The exact quotient num / den of two w-Laurent dicts, or None when
    den leaves a remainder.  Long division from the top term down."""
    rest = {p: Fraction(c) for p, c in num.items() if c}
    top, low = max(den), min(den)
    out = {}
    while rest:
        high = max(rest)
        if high - min(rest) < top - low:
            return None
        power, coeff = high - top, rest[high] / den[top]
        out[power] = coeff
        rest = wadd(rest, {power + p: -coeff * c for p, c in den.items()})
    return out


class WRat:
    """Rational function num/den in w with integer exponents."""

    def __init__(self, num, den=None):
        self.num = dict(num)
        self.den = dict(den) if den else {0: Q1}

    @classmethod
    def monomial(cls, power, coeff=1):
        return cls({power: Fraction(coeff)})

    def add(self, other):
        return WRat(
            wadd(wmul(self.num, other.den), wmul(other.num, self.den)),
            wmul(self.den, other.den),
        )

    def mul(self, other):
        return WRat(wmul(self.num, other.num), wmul(self.den, other.den))

    def is_zero(self):
        return not self.num


def sinh_char(m):
    """2 sinh of the half-angle character: w^m - w^(-m), as a WRat."""
    return WRat({m: Q1, -m: Fraction(-1)})


def tanh_char(n):
    """cosh/sinh character ratio (w^n + w^-n)/(w^n - w^-n)."""
    return WRat({n: Q1, -n: Q1}, {n: Q1, -n: Fraction(-1)})


def two_fixed_point_sum(weights, kind="dirac"):
    """Sum of isolated-fixed-point zero-mode terms over given weights.

    kind 'dirac': sum of 1/(w^m - w^-m); kind 'signature': sum of
    (w^m + w^-m)/(w^m - w^-m).  Returns a WRat.
    """
    total = WRat({})
    for m in weights:
        base = sinh_char(m)
        if kind == "dirac":
            term = WRat({0: Q1}, base.num)
        else:
            term = tanh_char(m)
        total = total.add(term)
    return total


# ---------------------------------------------------------------------------
# numeric theta referee: the product formulas with one cmath.exp per factor,
# and point-model genus values from four-theta quotients and per-line products

# kind: (sign inside the factors, exponents on n - 1/2, q-offset, trig factor)
THETA_SHAPES = {
    "theta": (-1, False, 1 / 8, "2sin"),
    "theta1": (1, False, 1 / 8, "2cos"),
    "theta2": (-1, True, 0.0, "1"),
    "theta3": (1, True, 0.0, "1"),
}
VARIANT_KIND = {"G": "theta1", "G1": "theta2", "G2": "theta3"}


def referee_count(absq, grow, tol):
    """The factor count of the package's truncation: the smallest n >= 1
    with absq^n grow <= tol / 10."""
    bound = tol / 10.0
    n, term = 1, absq * grow
    while term > bound:
        n += 1
        term *= absq
    return n


def referee_qpow(tau, e):
    return cmath.exp(2j * cmath.pi * tau * e)


def referee_euler(tau, tol=1e-12):
    """c(q) = prod (1 - q^n), each q^n its own exponential."""
    out = 1.0 + 0.0j
    for n in range(1, referee_count(abs(referee_qpow(tau, 1)), 1.0, tol) + 1):
        out *= 1.0 - referee_qpow(tau, n)
    return out


def referee_theta(kind, v, tau, tol=1e-12):
    """c(q) q^offset trig(v) prod (1 + s q^e z)(1 + s q^e / z)."""
    sign, half, offset, trig = THETA_SHAPES[kind]
    z = cmath.exp(2j * cmath.pi * v)
    out = referee_euler(tau, tol) * referee_qpow(tau, offset)
    if trig == "2sin":
        out *= 2.0 * cmath.sin(cmath.pi * v)
    elif trig == "2cos":
        out *= 2.0 * cmath.cos(cmath.pi * v)
    grow = 1.0 + max(abs(z), 1.0 / abs(z))
    for n in range(1, referee_count(abs(referee_qpow(tau, 1)), grow, tol) + 1):
        qe = referee_qpow(tau, n - 0.5 if half else n)
        out *= (1.0 + sign * qe * z) * (1.0 + sign * qe / z)
    return out


def referee_prime0(tau, tol=1e-12):
    return 2.0 * cmath.pi * referee_qpow(tau, 1 / 8) * referee_euler(tau, tol) ** 3


def referee_quotient(x, tau, kind=None, tol=1e-12):
    """theta'(0) / (2 pi i theta(x)), times theta_k(x) / theta_k(0) with a kind."""
    out = referee_prime0(tau, tol) / (2j * cmath.pi * referee_theta("theta", x, tau, tol))
    if kind is not None:
        out *= referee_theta(kind, x, tau, tol) / referee_theta(kind, 0.0, tau, tol)
    return out


def referee_line(x, tau, variant=None, tol=1e-12):
    """The per-line product of a moving block: 1 / (2 sinh(pi i x)), or the
    variant's Fperp line, times its q-tower with one exponential per power."""
    z = cmath.exp(2j * cmath.pi * x)
    grow = max(abs(z), 1.0 / abs(z), 1.0)
    absq = abs(referee_qpow(tau, 1))
    arg = 1j * cmath.pi * x
    if variant is None:
        terms = referee_count(absq, grow, tol)
        out = 1.0 / (2.0 * cmath.sinh(arg))
    else:
        terms = referee_count(absq ** 0.5, grow, tol)
        out = cmath.cosh(arg) / cmath.sinh(arg) if variant == "G" else 1.0 / (2.0 * cmath.sinh(arg))
    for k in range(1, terms + 1):
        qk = referee_qpow(tau, k)
        out *= (1.0 - qk) ** 2 / ((1.0 - qk * z) * (1.0 - qk / z))
        if variant == "G":
            out *= (1.0 + qk * z) * (1.0 + qk / z) / (1.0 + qk) ** 2
        elif variant is not None:
            qh = referee_qpow(tau, k - 0.5)
            s = -1.0 if variant == "G1" else 1.0
            out *= (1.0 + s * qh * z) * (1.0 + s * qh / z) / (1.0 + s * qh) ** 2
    return out


def referee_point_value(components, function, t, tau, path="quotient", tol=1e-12):
    """(value, sum of |terms|) of H or a G variant on fixed points.

    components: (weight, [(rank, m)], [(rank, n)]), the weight being the
    orientation times the point's number; a term is the weight times one
    moving factor per unit of rank.
    """
    variant = None if function == "H" else function
    total, size = 0j, 0.0
    for weight, moving_f, moving_fperp in components:
        term = complex(weight)
        for rank, m in moving_f:
            if path == "quotient":
                term *= referee_quotient(m * t, tau, tol=tol) ** rank
            else:
                term *= referee_line(m * t, tau, tol=tol) ** rank
        for rank, n in moving_fperp:
            if path == "quotient":
                value = referee_quotient(n * t, tau, VARIANT_KIND[variant], tol)
                term *= (2.0 * value if variant == "G" else value) ** rank
            else:
                term *= referee_line(n * t, tau, variant, tol) ** rank
        total += term
        size += abs(term)
    return total, size


# ---------------------------------------------------------------------------
# finite differences


def central_difference(f, x, h):
    return (f(x + h) - f(x - h)) / (2 * h)


# ---------------------------------------------------------------------------
# comparison plumbing: push package values into oracle representations


def graded_to_mpoly(poly, assignment, nvars, top):
    """Evaluate a GradedPoly at explicit roots for comparison purposes.

    assignment maps each symbol (kind, bundle, index) to the list of root
    variable ids carrying that bundle; power sums and elementary symmetric
    values are expanded in the squared roots, weight 2 per root variable.
    Only reads .terms, so it cannot mask a computation bug in the package.
    """
    out = MPoly(nvars, 2, top, {})
    for mono, coeff in poly.terms.items():
        piece = MPoly.const(nvars, 2, top, coeff)
        for (kind, bundle, index), expo in mono:
            var_ids = assignment[bundle]
            if kind == "s":
                rep = MPoly(nvars, 2, top, {})
                for v in var_ids:
                    rep = rep.add(MPoly.var(nvars, 2, top, v, 2 * index))
            else:
                import itertools

                rep = MPoly(nvars, 2, top, {})
                for combo in itertools.combinations(var_ids, index):
                    monot = [0] * nvars
                    for v in combo:
                        monot[v] = 2
                    rep = rep.add(MPoly(nvars, 2, top, {tuple(monot): Q1}))
            for _ in range(expo):
                piece = piece.mul(rep)
        out = out.add(piece)
    return out


# ---------------------------------------------------------------------------
# naive character-level power towers: q-series with MPoly coefficients,
# every line expanded as a literal exponential of its root


def qm_clean(A):
    return {e: p for e, p in A.items() if not p.is_zero()}


def qm_mul(A, B, q_end):
    out = {}
    for ea, pa in A.items():
        for eb, pb in B.items():
            e = ea + eb
            if e < q_end:
                prod = pa.mul(pb)
                out[e] = out[e].add(prod) if e in out else prod
    return qm_clean(out)


def qm_inv(A, q_end, step=Fraction(1, 2)):
    """Inverse of a tower series whose q^0 coefficient is the constant 1."""
    c0 = A[Fraction(0)]
    nvars, top = c0.nvars, c0.maxdeg
    one = MPoly.const(nvars, 2, top, 1)
    assert c0 == one
    n = int(q_end / step)
    out = {Fraction(0): one}
    for k in range(1, n):
        e = k * step
        acc = MPoly(nvars, 2, top, {})
        for eo, po in out.items():
            pa = A.get(e - eo)
            if pa is not None and eo < e:
                acc = acc.add(po.mul(pa))
        out[e] = acc.scale(-1)
    return qm_clean(out)


def mexp_scaled(nvars, top, var, scale):
    """exp(scale * a_var) truncated at cohomological degree top."""
    out = MPoly(nvars, 2, top, {})
    k = 0
    while 2 * k <= top:
        out = out.add(MPoly.var(nvars, 2, top, var, k).scale(
            Fraction(scale) ** k / math.factorial(k)))
        k += 1
    return out


def naive_sym(nvars, top, pair_vars, g, tsign, q_end):
    """ch Sym_t of the root-pair sum, t = tsign * q^g, by line geometric series."""
    out = {Fraction(0): MPoly.const(nvars, 2, top, 1)}
    g = Fraction(g)
    for v in pair_vars:
        for sgn in (1, -1):
            line = {}
            i = 0
            while g * i < q_end:
                line[g * i] = mexp_scaled(nvars, top, v, sgn * i).scale(
                    Fraction(tsign) ** i)
                i += 1
            out = qm_mul(out, line, q_end)
    return out


def naive_lambda(nvars, top, pair_vars, g, tsign, q_end):
    """ch Lambda_t of the root-pair sum, t = tsign * q^g."""
    out = {Fraction(0): MPoly.const(nvars, 2, top, 1)}
    g = Fraction(g)
    for v in pair_vars:
        for sgn in (1, -1):
            line = {Fraction(0): MPoly.const(nvars, 2, top, 1)}
            if g < q_end:
                line[g] = mexp_scaled(nvars, top, v, sgn).scale(tsign)
            out = qm_mul(out, line, q_end)
    return out


def qscalar(nvars, top, d):
    """Lift a {q_exp: Fraction} dict to constant MPoly coefficients."""
    return {e: MPoly.const(nvars, 2, top, c) for e, c in d.items() if c}


def naive_witten(nvars, top, pair_vars, q_end):
    """ch of the Sym_{q^j}(E - rank) tower, rank = 2*len(pair_vars)."""
    out = {Fraction(0): MPoly.const(nvars, 2, top, 1)}
    j = 1
    while Fraction(j) < q_end:
        out = qm_mul(out, naive_sym(nvars, top, pair_vars, j, 1, q_end), q_end)
        scalar = {Fraction(0): Q1, Fraction(j): -Q1}
        for _ in range(2 * len(pair_vars)):
            out = qm_mul(out, qscalar(nvars, top, scalar), q_end)
        j += 1
    return out


def naive_twist(nvars, top, pair_vars, variant, q_end):
    """ch of the R towers on E - rank: Sym_{q^m} times a Lambda column."""
    rank = 2 * len(pair_vars)
    out = {Fraction(0): MPoly.const(nvars, 2, top, 1)}
    m = 1
    while True:
        lam_g = Fraction(m) if variant == "R" else Fraction(m) - Fraction(1, 2)
        tsign = -1 if variant == "R2" else 1
        if Fraction(m) >= q_end and lam_g >= q_end:
            break
        if Fraction(m) < q_end:
            out = qm_mul(out, naive_sym(nvars, top, pair_vars, m, 1, q_end), q_end)
            for _ in range(rank):
                out = qm_mul(out, qscalar(nvars, top, {Fraction(0): Q1, Fraction(m): -Q1}), q_end)
        if lam_g < q_end:
            out = qm_mul(out, naive_lambda(nvars, top, pair_vars, lam_g, tsign, q_end), q_end)
            inv = qm_inv(qscalar(nvars, top, {Fraction(0): Q1, lam_g: Fraction(tsign)}), q_end)
            for _ in range(rank):
                out = qm_mul(out, inv, q_end)
        m += 1
    return out


# ---------------------------------------------------------------------------
# top-degree monomial keys


def partitions(n, cap):
    """Partitions of n into parts of size at most cap, largest part first."""
    if n == 0:
        yield ()
        return
    for k in range(min(n, cap), 0, -1):
        for rest in partitions(n - k, k):
            yield (k,) + rest


def split_monomials(dim, p, r):
    """Every degree-dim p-monomial key of F with p pairs and Fperp with r pairs."""
    weight, keys = dim // 4, []
    for a in range(weight + 1):
        for front in partitions(a, p):
            for back in partitions(weight - a, r):
                bits = [f"p{k}(F)" for k in front] + [f"p{k}(Fperp)" for k in back]
                keys.append("*".join(bits) or "1")
    return keys


# ---------------------------------------------------------------------------
# a truncated series summed at a float point without rounding


def exact_value(coeffs, x):
    """sum c_k x^k for rational c_k, exact at the float point x, rounded once.

    Floats are dyadic, so x = (a + b i) / d with integers a, b, d, and the
    scaled Horner sum runs in integers.
    """
    coeffs = [Fraction(c) for c in coeffs]
    (ar, dr), (ai, di) = x.real.as_integer_ratio(), x.imag.as_integer_ratio()
    d = max(dr, di)
    a, b = ar * (d // dr), ai * (d // di)
    den = math.lcm(*(c.denominator for c in coeffs))
    re = im = 0
    scale = 1
    for c in reversed(coeffs):
        re, im = re * a - im * b, re * b + im * a
        re += c.numerator * (den // c.denominator) * scale
        scale *= d
    scale = den * (scale // d)
    return complex(float(Fraction(re, scale)), float(Fraction(im, scale)))


# ---------------------------------------------------------------------------
# small readers of library values


def degree_part(poly, degree):
    """The terms of a GradedPoly in one degree; p_i and s_i have degree 4i."""
    return type(poly)({mono: c for mono, c in poly.terms.items()
                       if sum(4 * sym[2] * e for sym, e in mono) == degree}, poly.top)


def term_strings(poly):
    """A GradedPoly as {monomial text: "numerator/denominator"}, e.g. p1(F)^2*p2."""
    out = {}
    for mono, c in sorted(poly.terms.items()):
        bits = []
        for (kind, bundle, index), e in mono:
            sym = f"{kind}{index}" if bundle is None else f"{kind}{index}({bundle})"
            bits.append(sym if e == 1 else f"{sym}^{e}")
        out["*".join(bits) or "1"] = f"{c.numerator}/{c.denominator}"
    return out


def mat_mul(A, B):
    """The product of two 2x2 integer matrices given as row pairs."""
    (a, b), (c, d) = A
    (e, f), (g, h) = B
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))
