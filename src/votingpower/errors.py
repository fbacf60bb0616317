"""Exception types shared across the package."""


class VotingPowerError(Exception):
    """Base class for every error raised by this package."""


class InvalidInput(VotingPowerError):
    """Malformed or out-of-domain argument (bad rational text, n < 2, cap exceeded, ...)."""


class InvalidCoalition(VotingPowerError):
    """Coalition references a player position outside the system."""


class DegenerateSystem(VotingPowerError):
    """No meaningful index exists (no winning coalition, or all weights zero)."""


class UnsupportedCase(VotingPowerError):
    """Divisor-system excess outside the catalogued range 0..5."""


class InvalidFamily(VotingPowerError):
    """Parametrized weight family violates its parameter constraints."""


class IntegerBoundary(InvalidFamily):
    """Closed form deliberately left undefined because 1/(2b) is an integer."""


class PreconditionFailed(VotingPowerError):
    """A named arithmetic precondition on the inputs does not hold."""


class InvariantViolation(VotingPowerError):
    """An identity the code relies on does not hold: a defect, not a bad input."""


class TooLarge(InvalidInput):
    """The work an input asks for is over a fixed budget, refused before allocating."""
