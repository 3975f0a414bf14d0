"""Convolution and inversion kernels of the series and Laurent rings."""

from genusforge._kernels.pure import BACKEND, convolve_full, convolve_trunc, series_inv

__all__ = ["BACKEND", "convolve_trunc", "convolve_full", "series_inv"]
