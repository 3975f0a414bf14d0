"""The convolution and inversion kernels on small exact cases and identities."""

import random
from fractions import Fraction

from genusforge._kernels import BACKEND, convolve_full, convolve_trunc, series_inv

Z = Fraction(0)


def rand_list(rng, n):
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]


def test_backend_reports_a_known_name():
    assert BACKEND == "pure"


def test_trunc_small_case():
    a = [Fraction(1), Fraction(2)]
    b = [Fraction(3), Fraction(4)]
    assert convolve_trunc(a, b, 3, Z) == [Fraction(3), Fraction(10), Fraction(8)]


def test_trunc_handles_short_inputs():
    # inputs shorter than the window pad with zeros
    assert convolve_trunc([Fraction(2)], [Fraction(5)], 4, Z) == [
        Fraction(10),
        Z,
        Z,
        Z,
    ]


def test_full_matches_polynomial_product():
    a = [Fraction(1), Fraction(-1)]
    b = [Fraction(1), Fraction(1), Fraction(1)]
    assert convolve_full(a, b, Z) == [Fraction(1), Z, Z, Fraction(-1)]
    assert convolve_full([], b, Z) == []


def test_series_inv_geometric():
    a = [Fraction(1), Fraction(-1), Z, Z]
    assert series_inv(a, 4, Fraction(1), Z) == [Fraction(1)] * 4


def test_series_inv_against_convolution_identity():
    rng = random.Random(4242)
    for _ in range(20):
        n = rng.randint(2, 10)
        a = rand_list(rng, n)
        a[0] = Fraction(rng.randint(1, 7), rng.randint(1, 3))
        b = series_inv(a, n, 1 / a[0], Z)
        prod = convolve_trunc(a, b, n, Z)
        assert prod[0] == 1
        assert all(c == 0 for c in prod[1:])
