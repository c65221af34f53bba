"""Exception types shared across the package.

Every error that a caller is expected to catch carries a ``payload`` dict so
the command line layer can emit a machine readable report.  Keyword
diagnostics given at the raise site (``rung=``, ``roots=``, ...) become
attributes of the error and keys of its payload.
"""


class CoronaLabError(Exception):
    """Base class for all package errors."""

    def __init__(self, message: str, **diagnostics):
        super().__init__(message)
        self.__dict__.update(diagnostics)

    def payload(self) -> dict:
        diagnostics = {k: v for k, v in vars(self).items()
                       if v is not None and not k.startswith("_")}
        return {"error": type(self).__name__, "message": str(self), **diagnostics}


class DomainError(CoronaLabError, ValueError):
    """Input outside the documented domain (point not in the disc, bad shape, ...)."""


class ConfigError(CoronaLabError, ValueError):
    """Malformed configuration file or argument; maps to a usage error exit."""


class QuadratureError(CoronaLabError):
    """Quadrature did not converge to the requested tolerance."""


class AliasingError(CoronaLabError):
    """Boundary sampling too coarse for the spectrum; increase the FFT size."""


class InfeasibleError(CoronaLabError):
    """No admissible object satisfies the requested constraints."""

    residuals = None


class ConstructionError(CoronaLabError):
    """A staged construction ran out of material; names the failing stage."""


class UnsolvableError(CoronaLabError):
    """The corona condition fails: a common zero sits in the closed disc."""


class ExtractionError(CoronaLabError):
    """No suitable subsequence found; lengthen the sequence or relax eps."""

    report = None
