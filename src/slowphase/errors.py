"""Exception hierarchy.

Exit-code mapping used by the CLI:
  2  validation threshold failure
  3  numerical abort (Newton, hyperbolicity, divisor, singular frame, ...)
  4  I/O, configuration or command-line usage failure
"""


class SlowphaseError(Exception):
    """Base class for all package errors."""


class ConfigError(SlowphaseError):
    """Malformed configuration file, key, or value."""


class GridError(SlowphaseError):
    """Invalid spectral grid (size not a power of two, mismatched layouts)."""


class ModelError(SlowphaseError):
    """Invalid model parameters or incompatible model/state dimensions."""


class NumericalError(SlowphaseError):
    """Base class for aborts of the numerical pipeline (CLI exit code 3)."""


class IntegrationError(NumericalError):
    """ODE integration failed (step exhaustion or non-finite state).

    Carries the time of failure in ``time``.
    """

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class SectionError(NumericalError):
    """No canonical phase origin: component 0 of the orbit has no simple
    maximum (no downward crossing of X_0, or a flat one)."""


class NewtonError(NumericalError):
    """Newton iteration failed to converge."""


class HyperbolicityError(NumericalError):
    """Cycle is not hyperbolic attracting, or the trivial multiplier is off."""


class MultiplierUnderflowError(NumericalError):
    """A Floquet multiplier lies at the roundoff floor of the formed
    monodromy (|mu| <= 100 eps |M|_2): its computed value, and so its
    exponent and class, is rounding noise."""


class DefectiveSpectrumError(NumericalError):
    """Monodromy eigenvector basis is numerically defective."""


class ResonanceError(NumericalError):
    """A divisor of the manifold or response recursions, in closed form from
    the Floquet exponents, lies below ``solver.small_divisor_tol``."""


class SmallDivisorError(NumericalError):
    """A Fourier-space divisor fell below tolerance.

    ``context`` is the ``(k, component)`` pair of the offending divisor.  It
    has a default because unpickling calls the class with the message alone,
    then restores ``context`` from the pickled state.
    """

    def __init__(self, message, context=None):
        super().__init__(message)
        self.context = context


class SolvabilityError(NumericalError):
    """Solvability condition of a free-mode solve violated."""


class FrameError(NumericalError):
    """Frame construction failed (singular frame or non-convergent polish)."""


class WorkerError(NumericalError):
    """A forked worker (:mod:`slowphase.workers`) exited without sending
    its result."""


class ValidationFailure(SlowphaseError):
    """A configured validation threshold was not met (CLI exit code 2)."""
