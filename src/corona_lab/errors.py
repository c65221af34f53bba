"""Exception types shared across the package.

Every error that a caller is expected to catch carries a ``payload`` dict so
the command line layer can emit a machine readable report.
"""


class CoronaLabError(Exception):
    """Base class for all package errors."""

    def payload(self) -> dict:
        return {"error": type(self).__name__, "message": str(self)}


class DomainError(CoronaLabError, ValueError):
    """Input outside the documented domain (point not in the disc, bad shape, ...)."""


class ConfigError(CoronaLabError, ValueError):
    """Malformed configuration file or argument; maps to a usage error exit."""


class QuadratureError(CoronaLabError):
    """Quadrature did not converge to the requested tolerance."""

    def __init__(self, message: str, estimate: float):
        super().__init__(message)
        self.estimate = float(estimate)

    def payload(self) -> dict:
        d = super().payload()
        d["estimate"] = self.estimate
        return d


class AliasingError(CoronaLabError):
    """Boundary sampling too coarse for the spectrum; increase the FFT size."""

    def __init__(self, message: str, energy: float):
        super().__init__(message)
        self.energy = float(energy)

    def payload(self) -> dict:
        d = super().payload()
        d["energy"] = self.energy
        return d


class InfeasibleError(CoronaLabError):
    """No admissible object satisfies the requested constraints."""

    def __init__(self, message: str, residuals=None):
        super().__init__(message)
        self.residuals = residuals

    def payload(self) -> dict:
        d = super().payload()
        if self.residuals is not None:
            d["residuals"] = [float(r) for r in self.residuals]
        return d


class ConstructionError(CoronaLabError):
    """A staged construction ran out of material; names the failing stage."""

    def __init__(self, message: str, rung: int):
        super().__init__(message)
        self.rung = int(rung)

    def payload(self) -> dict:
        d = super().payload()
        d["rung"] = self.rung
        return d


class UnsolvableError(CoronaLabError):
    """The corona condition fails: a common zero sits in the closed disc."""

    def __init__(self, message: str, roots=None):
        super().__init__(message)
        self.roots = list(roots) if roots is not None else []

    def payload(self) -> dict:
        d = super().payload()
        d["roots"] = [[z.real, z.imag] for z in self.roots]
        return d


class ExtractionError(CoronaLabError):
    """No suitable subsequence found; lengthen the sequence or relax eps."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report

    def payload(self) -> dict:
        d = super().payload()
        if self.report is not None:
            d["report"] = self.report
        return d
