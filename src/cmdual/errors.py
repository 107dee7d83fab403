"""Exception types shared across the package."""


class CmdualError(Exception):
    """Base class for all package errors."""


class InvalidMeasure(CmdualError):
    """A measure violates its structural invariants."""


class NonIntegrable(CmdualError):
    """An integral diverges for the requested arguments."""


class OrderExceeded(CmdualError):
    """A derivative of higher order than available was requested."""


class TailDivergent(CmdualError):
    """A tail integrability probe failed."""


class NotVanishing(CmdualError):
    """A derivative fails to vanish at infinity."""


class QuadratureFailure(CmdualError):
    """Adaptive quadrature could not reach the requested tolerance."""


class RangeError(CmdualError):
    """An argument lies outside the attainable range of an inverse."""


class NoRoot(CmdualError):
    """Root bracketing failed; the target value is not attained."""


class DualInfinite(CmdualError):
    """The dual expectation is infinite at the requested point."""


class DivergentMoment(CmdualError):
    """An expectation defining a derivative is infinite."""


class MomentUnderflow(CmdualError):
    """An expectation defining a derivative underflows the double range."""


class EnvelopeViolation(CmdualError):
    """A derivative left its two-sided sanity envelope."""


class ConstantRRA(CmdualError):
    """Relative risk aversion is constant; the construction needs it non-constant."""


class PolytopeEmpty(CmdualError):
    """No strictly positive deflator exists for the market."""


class OptimumAtBoundary(UserWarning):
    """An inner maximization ended on the admissibility boundary."""
