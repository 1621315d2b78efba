"""Exception hierarchy for hypothesis violations and runtime failures."""


class PeriodicHypError(Exception):
    """Base class for all library errors."""


class HyperbolicityError(PeriodicHypError):
    """Coefficient matrix has complex, zero, or repeated eigenvalues."""


class SignatureError(PeriodicHypError):
    """Eigenvalue signature (number of negative speeds) is not the expected (m, n-m)."""


class SourceOriginError(PeriodicHypError):
    """Source term does not vanish at the origin."""


class DegenerateEigenbasisError(PeriodicHypError):
    """A diagonal entry of the left eigenvector matrix vanishes."""


class DominanceError(PeriodicHypError):
    """The shifted source linearization fails the strict diagonal dominance conditions."""


class NormalizationError(PeriodicHypError):
    """The system is not in the normalized form a solver needs (A(0) diagonal)."""


class DomainError(PeriodicHypError):
    """A state or query point left the admissible neighborhood / domain."""


class BoundaryMapError(PeriodicHypError):
    """A boundary map or forcing signal gave a non-finite value or derivative."""


class PeriodicityError(PeriodicHypError):
    """A forcing signal is not periodic with the declared period."""


class ConvergenceError(PeriodicHypError):
    """An internal iterative method failed to converge."""


class NonContractionError(PeriodicHypError):
    """The fixed-point iteration stopped contracting (hypotheses likely violated)."""


class StepSizeError(PeriodicHypError):
    """Time step violates the CFL restriction."""


class IoError(PeriodicHypError):
    """Report serialization failed; carries the offending path in the message."""
