"""Concrete function families analytic on the closed unit disc.

Three kinds are supported: polynomials (coefficients in ascending order),
finite Blaschke products, and rational functions whose poles all lie
strictly outside the closed disc.
"""

from dataclasses import dataclass

import numpy as np

from .blaschke import BlaschkeProduct
from .errors import ConfigError, DomainError
from .serialize import as_number, complex_list, strict_keys

POLYNOMIAL = "polynomial"
FINITE_BLASCHKE = "finite_blaschke"
RATIONAL = "rational"

# JSON keys of the payload entries, by kind
_DATA_KEYS = {POLYNOMIAL: ("coeffs",), FINITE_BLASCHKE: ("zeros", "rotation"),
              RATIONAL: ("num", "den")}

# poles must clear the closed disc by at least this margin
POLE_MARGIN = 1e-9

SUP_SAMPLES = 2048


def _poly_eval(coeffs, z):
    z = np.asarray(z, dtype=complex)
    out = np.zeros(z.shape, dtype=complex)
    for c in reversed(coeffs):
        out = out * z + c
    return out


def _trim(coeffs) -> tuple:
    cs = [complex(c) for c in coeffs]
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


@dataclass(frozen=True)
class FunctionSpec:
    """A function on the closed disc given by kind plus kind-specific data.

    payload layout by kind:
      polynomial      -> (coeffs,)
      finite_blaschke -> (zeros, rotation)
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
    def finite_blaschke(cls, b_or_zeros, rotation: float = 0.0) -> "FunctionSpec":
        if isinstance(b_or_zeros, BlaschkeProduct):
            b = b_or_zeros
        else:
            b = BlaschkeProduct(tuple(b_or_zeros), rotation)
        return cls(FINITE_BLASCHKE, (b.zeros, b.rotation))

    @classmethod
    def rational(cls, num, den) -> "FunctionSpec":
        nc = _trim(num)
        dc = _trim(den)
        if not any(dc):
            raise DomainError("rational denominator is identically zero")
        if len(dc) > 1:
            try:
                with np.errstate(over="raise", invalid="raise"):
                    poles = np.roots(list(reversed(dc)))
            except FloatingPointError:
                raise DomainError("rational denominator: leading coefficient "
                                  f"{dc[-1]} is too small to locate the poles") from None
            inside = [p for p in poles if abs(p) <= 1 + POLE_MARGIN]
            if inside:
                raise DomainError(
                    f"rational pole(s) inside or on the closed disc: {inside}")
        return cls(RATIONAL, (nc, dc))

    def __post_init__(self):
        if self.kind not in (POLYNOMIAL, FINITE_BLASCHKE, RATIONAL):
            raise DomainError(f"unknown function kind {self.kind!r}")

    def as_blaschke(self) -> BlaschkeProduct:
        if self.kind != FINITE_BLASCHKE:
            raise DomainError("not a finite Blaschke spec")
        zeros, rotation = self.payload
        return BlaschkeProduct(zeros, rotation)

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        if self.kind == POLYNOMIAL:
            out = _poly_eval(self.payload[0], z)
        elif self.kind == FINITE_BLASCHKE:
            out = np.asarray(self.as_blaschke()(z), dtype=complex)
        else:
            num, den = self.payload
            out = _poly_eval(num, z) / _poly_eval(den, z)
        return complex(out) if out.ndim == 0 else out

    def sup_norm_estimate(self) -> float:
        """Upper estimate of the sup norm over the closed disc.

        Coefficient sum for polynomials and 1 for Blaschke products are true
        bounds; rational functions use a padded boundary sample maximum.
        """
        if self.kind == POLYNOMIAL:
            return float(sum(abs(c) for c in self.payload[0]))
        if self.kind == FINITE_BLASCHKE:
            return 1.0
        theta = np.linspace(-np.pi, np.pi, SUP_SAMPLES, endpoint=False)
        return float(np.max(np.abs(self(np.exp(1j * theta))))) * 1.01

    def to_dict(self) -> dict:
        return {"kind": self.kind, "data": dict(zip(_DATA_KEYS[self.kind], self.payload))}

    @classmethod
    def from_dict(cls, d: dict, where: str = "function") -> "FunctionSpec":
        strict_keys(d, required=("kind", "data"), where=where)
        kind = d["kind"]
        data = d["data"]
        if kind == POLYNOMIAL:
            strict_keys(data, required=("coeffs",), where=f"{where}.data")
            return cls.polynomial(complex_list(data["coeffs"], f"{where}.coeffs"))
        if kind == FINITE_BLASCHKE:
            strict_keys(data, required=("zeros",), optional=("rotation",),
                        where=f"{where}.data")
            rotation = as_number(data.get("rotation", 0.0), f"{where}.rotation")
            return cls.finite_blaschke(complex_list(data["zeros"], f"{where}.zeros"), rotation)
        if kind == RATIONAL:
            strict_keys(data, required=("num", "den"), where=f"{where}.data")
            return cls.rational(complex_list(data["num"], f"{where}.num"),
                                complex_list(data["den"], f"{where}.den"))
        raise ConfigError(f"{where}.kind: unknown function kind {kind!r}")


def identity_function() -> FunctionSpec:
    return FunctionSpec.polynomial((0, 1))


def constant_function(value) -> FunctionSpec:
    return FunctionSpec.polynomial((complex(value),))
