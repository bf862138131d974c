"""Exception taxonomy shared by all latorb modules.

Every error that reflects a violated mathematical precondition or an honest
negative result derives from DomainError; the CLI maps those to exit code 2
with a machine-readable payload.  Malformed input (bad JSON, wrong shapes
before any math happens) stays on ValueError and maps to exit code 1.
"""


class DomainError(Exception):
    """Base class for domain-level failures (CLI exit code 2)."""

    def payload(self) -> dict:
        return {"error": type(self).__name__, "message": str(self)}


class DimensionMismatch(DomainError):
    pass


class DegenerateGram(DomainError):
    pass


class NotIsotropic(DomainError):
    pass


class NotPrimitive(DomainError):
    pass


class NotSaturated(DomainError):
    pass


class NotOrthogonal(DomainError):
    pass


class NotPositiveNorm(DomainError):
    pass


class NoHyperbolicSplit(DomainError):
    pass


class PrecisionError(DomainError):
    pass


class InvalidTolerance(DomainError):
    pass


class NotComplementary(DomainError):
    pass


class NotVanishingOnL(DomainError):
    pass


class DidNotConverge(DomainError):
    """Raised by the split-orbit solver when the budget runs out.

    Carries the best incumbent so callers can inspect how close it got.
    """

    def __init__(self, message: str, incumbent=None):
        super().__init__(message)
        self.incumbent = incumbent

    def payload(self) -> dict:
        data = super().payload()
        if self.incumbent is not None:
            data["incumbent"] = {
                "err": self.incumbent.err,
                "rounds": self.incumbent.rounds,
            }
        return data
