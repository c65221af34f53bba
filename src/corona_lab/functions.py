"""Concrete function families analytic on the closed unit disc.

Three kinds are supported: polynomials (coefficients in ascending order),
finite Blaschke products, and rational functions whose poles all lie
strictly outside the closed disc.
"""

import numpy as np

from .disc_geometry import pointwise
from .errors import ConfigError, DomainError
from .quadrature import circle_nodes
from .records import Record
from .serialize import as_finite, complex_list, strict_keys

POLYNOMIAL = "polynomial"
FINITE_BLASCHKE = "finite_blaschke"
RATIONAL = "rational"

# JSON keys of the coefficient kinds' payload entries, for to_dict and from_dict alike
_DATA_KEYS = {POLYNOMIAL: ("coeffs",), RATIONAL: ("num", "den")}

# a root within this margin of the closed disc counts as lying in it
ROOT_MARGIN = 1e-9

SUP_SAMPLES = 2048


def _poly_eval(coeffs, z):
    out = np.zeros(z.shape, dtype=complex)
    for c in reversed(coeffs):
        out *= z
        out += c
    return out


def roots_in_closed_disc(coeffs, what: str) -> list:
    """The roots, as Python complex values, of the polynomial with ascending
    coefficients coeffs that lie within ROOT_MARGIN of the closed disc; what
    names the roots in the error raised when they cannot be located."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            roots = np.roots(list(reversed(coeffs)))
    except FloatingPointError:
        raise DomainError(f"leading coefficient {coeffs[-1]} is too small to "
                          f"locate the {what}") from None
    return [complex(r) for r in roots if abs(r) <= 1 + ROOT_MARGIN]


def _trim(coeffs) -> tuple:
    cs = [complex(c) for c in coeffs]
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


class FunctionSpec(Record):
    """A function on the closed disc given by kind plus kind-specific data.

    payload layout by kind:
      polynomial      -> (coeffs,)
      finite_blaschke -> (BlaschkeProduct,)
      rational        -> (num_coeffs, den_coeffs)
    """

    kind: str
    payload: tuple

    @classmethod
    def polynomial(cls, coeffs) -> "FunctionSpec":
        cs = _trim(coeffs)
        if not cs:
            raise DomainError("polynomial needs at least one coefficient")
        return cls(POLYNOMIAL, (cs,))

    @classmethod
    def finite_blaschke(cls, zeros, rotation: float = 0.0) -> "FunctionSpec":
        from .blaschke import BlaschkeProduct
        return cls(FINITE_BLASCHKE, (BlaschkeProduct(tuple(zeros), rotation),))

    @classmethod
    def rational(cls, num, den) -> "FunctionSpec":
        nc = _trim(num)
        dc = _trim(den)
        if not any(dc):
            raise DomainError("rational denominator is identically zero")
        if inside := roots_in_closed_disc(dc, "poles"):
            raise DomainError(f"rational pole(s) inside or on the closed disc: {inside}")
        return cls(RATIONAL, (nc, dc))

    def __post_init__(self):
        if self.kind not in (POLYNOMIAL, FINITE_BLASCHKE, RATIONAL):
            raise DomainError(f"unknown function kind {self.kind!r}")

    @property
    def coeffs(self) -> tuple | None:
        """The ascending coefficients of a polynomial, its exact form; None
        for the other kinds."""
        return self.payload[0] if self.kind == POLYNOMIAL else None

    @pointwise(complex)
    def __call__(self, z):
        if self.kind == POLYNOMIAL:
            return _poly_eval(self.payload[0], z)
        if self.kind == FINITE_BLASCHKE:
            return self.payload[0](z)
        num, den = self.payload
        return _poly_eval(num, z) / _poly_eval(den, z)

    def sup_norm_estimate(self) -> float:
        """Upper estimate of the sup norm over the closed disc.

        Coefficient sum for polynomials and 1 for Blaschke products are true
        bounds; rational functions use a padded boundary sample maximum.
        """
        if self.kind == POLYNOMIAL:
            return float(sum(abs(c) for c in self.payload[0]))
        if self.kind == FINITE_BLASCHKE:
            return 1.0
        return float(np.max(np.abs(self(np.exp(1j * circle_nodes(SUP_SAMPLES)))))) * 1.01

    def to_dict(self) -> dict:
        data = (self.payload[0].to_dict() if self.kind == FINITE_BLASCHKE
                else dict(zip(_DATA_KEYS[self.kind], self.payload)))
        return {"kind": self.kind, "data": data}

    @classmethod
    def from_dict(cls, d: dict, where: str = "function") -> "FunctionSpec":
        strict_keys(d, required=("kind", "data"), where=where)
        kind, data, at = d["kind"], d["data"], f"{where}.data"
        if kind in (POLYNOMIAL, RATIONAL):
            keys = _DATA_KEYS[kind]
            strict_keys(data, required=keys, where=at)
            build = cls.polynomial if kind == POLYNOMIAL else cls.rational
            return build(*(complex_list(data[key], f"{at}.{key}") for key in keys))
        if kind == FINITE_BLASCHKE:
            strict_keys(data, required=("zeros",), optional=("rotation",), where=at)
            rotation = as_finite(data.get("rotation", 0.0), f"{at}.rotation")
            return cls.finite_blaschke(complex_list(data["zeros"], f"{at}.zeros"), rotation)
        raise ConfigError(f"{where}.kind: unknown function kind {kind!r}")
