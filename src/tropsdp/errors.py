"""Exception types shared across the package."""


class TropSdpError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(TropSdpError):
    """Malformed input data (bad JSON shape, index out of range, empty pencil...)."""


class AssumptionViolated(TropSdpError):
    """A pencil does not satisfy the well-formedness assumption needed to
    build a game (some Min or Max state would have no action).  Running
    ``normalize`` first removes the offending rows/variables."""


class NotADominion(TropSdpError):
    """The given state set is not closed under Max's best responses."""


class PolicySpaceTooLarge(TropSdpError):
    """Exhaustive policy enumeration would exceed the configured pair cap."""


class SaddlePointError(TropSdpError):
    """min-max and max-min policy values disagree, or no uniform optimal
    policy pair exists.  This indicates an implementation bug (the existence
    of such a pair is a theorem), so the solver aborts instead of guessing."""


class CertificateInvalid(TropSdpError):
    """A certificate failed its exact arithmetic re-verification."""


class DeltaTooLarge(TropSdpError):
    """The threshold formula needs delta < |lambda|."""


class UnsupportedInstance(TropSdpError):
    """The instance falls outside what the implemented reductions can decide
    (see message for the specific corner)."""
