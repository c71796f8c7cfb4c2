"""Exception types shared across the package."""


class QSchurError(Exception):
    """Base class for all library errors."""


class ShapeError(QSchurError, ValueError):
    """Operands have incompatible shapes."""


class DomainError(QSchurError, ValueError):
    """Input lies outside the mathematical domain of the operation."""


class PrecondError(QSchurError, ValueError):
    """A stated precondition of the operation is violated."""


class NotARootError(QSchurError, ValueError):
    """Root extraction was attempted at a point that is not a zero."""


class ConstructionError(QSchurError, ValueError):
    """A product builder could not realize the prescribed data."""


class IllPosedError(QSchurError, ValueError):
    """The spectral hypothesis required for a unique solution fails."""


class ExpansionError(QSchurError, ValueError):
    """Power series expansion is not available at the requested point."""


class DivergenceError(QSchurError, ValueError):
    """Series evaluation was requested outside its region of convergence."""


class NumericError(QSchurError, ArithmeticError):
    """Numerical failure: ill conditioning or solver breakdown; index is
    the failing matrix's position when a stack was processed."""

    def __init__(self, message, condition=None, index=None):
        super().__init__(message)
        self.condition = condition
        self.index = index


class PoleError(QSchurError, ArithmeticError):
    """Evaluation hit a pole sphere; carries the sphere data (x, y)."""

    def __init__(self, x, y, message=None):
        super().__init__(message or "evaluation on pole sphere (x=%.6g, y=%.6g)" % (x, y))
        self.x = x
        self.y = y


class SpectrumError(QSchurError, ArithmeticError):
    """The resolvent I - 2Re(p)A + |p|^2 A^2 is not invertible at p."""


class ConfigError(QSchurError, ValueError):
    """Configuration rejected; carries (json_pointer, message) pairs."""

    def __init__(self, violations):
        self.violations = [(str(p), str(m)) for p, m in violations]
        summary = "; ".join("%s: %s" % v for v in self.violations)
        super().__init__("invalid config: " + summary)
