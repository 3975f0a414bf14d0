"""Convolution and inversion kernels of the series and Laurent polynomials.

Coefficients are opaque exact values of one kind combined with + and *,
and `zero` is the zero of that kind; a falsy element counts as zero and is
skipped.
"""

# benchmark results record the backend that computed them
BACKEND = "pure"


def convolve_trunc(a, b, n, zero):
    # c[k] = sum a[i]*b[k-i] for k < n; inputs may be shorter than n.
    out = [zero] * n
    la = min(len(a), n)
    lb = len(b)
    for i in range(la):
        ai = a[i]
        if not ai:
            continue
        top = min(lb, n - i)
        for j in range(top):
            bj = b[j]
            if bj:
                out[i + j] = out[i + j] + ai * bj
    return out


def convolve_full(a, b, zero):
    if not a or not b:
        return []
    out = [zero] * (len(a) + len(b) - 1)
    lb = len(b)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j in range(lb):
            bj = b[j]
            if bj:
                out[i + j] = out[i + j] + ai * bj
    return out


def series_inv(a, n, lead_inv, zero):
    # b with (a*b)[k] = delta[k], given lead_inv = a[0]**-1.
    out = [zero] * n
    out[0] = lead_inv
    la = len(a)
    for k in range(1, n):
        acc = zero
        for j in range(1, min(k, la - 1) + 1):
            aj = a[j]
            if aj:
                acc = acc + aj * out[k - j]
        if acc:
            out[k] = zero - lead_inv * acc
    return out
