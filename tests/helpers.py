"""Constructors and diagnostics that only the tests use, kept out of src/
so that every top-level function there has a caller there."""

import numpy as np

from corona_lab.blaschke import BlaschkeProduct, _transported_gaps
from corona_lab.disc_geometry import check_disc
from corona_lab.functions import FunctionSpec


def poly_one() -> tuple:
    """The exactpoly pair of the constant 1."""
    return ((1, 0),), 1


def identity_function() -> FunctionSpec:
    return FunctionSpec.polynomial((0, 1))


def constant_function(value) -> FunctionSpec:
    return FunctionSpec.polynomial((complex(value),))


def transport_tail_bounds(b: BlaschkeProduct, c) -> tuple[np.ndarray, np.ndarray]:
    """Per-zero diagnostic for the zero transport under composition.

    Returns (actual, bound) with actual[k] = 1 - |(z_k - c)/(1 - conj(c) z_k)|
    and bound[k] = (1+|c|)/(1-|c|) (1 - |z_k|); actual <= bound always.
    """
    c = check_disc(c, "c")
    actual = _transported_gaps(b.zeros, c)
    factor = (1 + abs(c)) / (1 - abs(c))
    bound = factor * (1 - np.abs(np.array(b.zeros, dtype=complex)))
    return actual, bound
