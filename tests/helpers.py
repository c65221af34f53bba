"""Constructors and diagnostics that only the tests use, kept out of src/
so that every top-level function there has a caller there."""

import numpy as np

from corona_lab.blaschke import BLOCK, BlaschkeProduct, _unimodular_prefactor
from corona_lab.corona import CoronaInstance
from corona_lab.disc_geometry import check_disc, one_minus_abs2, pseudo_hyperbolic
from corona_lab.functions import FunctionSpec
from corona_lab.measures import SimpleDensity


def poly_one() -> tuple:
    """The exactpoly pair of the constant 1."""
    return ((1, 0),), 1


def identity_function() -> FunctionSpec:
    return FunctionSpec.polynomial((0, 1))


def constant_function(value) -> FunctionSpec:
    return FunctionSpec.polynomial((complex(value),))


def instance_dict(instance: CoronaInstance) -> dict:
    """The JSON form of an instance, as an instance file holds it."""
    return {"functions": [f.to_dict() for f in instance.functions],
            "grid": instance.grid.to_dict()}


def density_mass(s: SimpleDensity) -> float:
    """A density's total mass: the last of its prefix masses summed from -pi."""
    return float(s._steps[3][-1])


def transport_tail_bounds(b: BlaschkeProduct, c) -> tuple[np.ndarray, np.ndarray]:
    """Per-zero diagnostic for the zero transport under composition.

    Returns (actual, bound) with actual[k] = 1 - |(z_k - c)/(1 - conj(c) z_k)|
    and bound[k] = (1+|c|)/(1-|c|) (1 - |z_k|); actual <= bound always.
    """
    c = check_disc(c, "c")
    zeros = np.array(b.zeros, dtype=complex)
    _, actual = pseudo_hyperbolic(zeros, np.array([one_minus_abs2(a) for a in b.zeros]),
                                  c, one_minus_abs2(c))
    factor = (1 + abs(c)) / (1 - abs(c))
    bound = factor * (1 - np.abs(zeros))
    return actual, bound


def dyadic_rings(count) -> tuple:
    """2^j points on the circle of radius 1 - 2^-j, j = 1, ..., count: a
    separated sequence of 2^(count + 1) - 2 points whose tails stay normal."""
    return tuple(complex((1 - 2.0 ** -j) * np.exp(2j * np.pi * (k + 0.5) / 2 ** j))
                 for j in range(1, count + 1) for k in range(2 ** j))


def blaschke_values_by_the_loop(b: BlaschkeProduct, z: np.ndarray) -> np.ndarray:
    """BlaschkeProduct.__call__ as one loop over blocks of BLOCK zeros, the
    form blaschke._factor_product had before it took the blocks a group at a
    time; z is a flat array of at least two points."""
    constant = np.exp(1j * b.rotation)
    for a in b.zeros:
        constant *= _unimodular_prefactor(a)
    out = np.full(z.shape, constant, dtype=complex)
    num, den, tmp = (np.empty(z.shape, dtype=complex) for _ in range(3))
    for start in range(0, len(b.zeros), BLOCK):
        a, *rest = b.zeros[start:start + BLOCK]
        np.subtract(a, z, out=num)
        np.multiply(a.conjugate(), num, out=den)
        den += one_minus_abs2(a)
        for a in rest:
            num *= np.subtract(a, z, out=tmp)
            tmp *= a.conjugate()
            tmp += one_minus_abs2(a)
            den *= tmp
        num /= den
        out *= num
    return out
