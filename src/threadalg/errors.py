"""Exception types shared across the package."""


class Error(Exception):
    """Base class for all domain errors raised by this package."""


class OutOfRange(Error):
    """A meadow value falls outside the probability range [0, 1]."""


class ParseError(Error):
    """Malformed textual input; carries a character offset when known."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


class MalformedProbability(Error):
    """A branch weight outside [0, 1] was supplied to a constructor."""


class WeightSumNotOne(Error):
    """Weights of a probabilistic composition do not sum to exactly 1."""


class UnguardedRecursion(Error):
    """A recursive specification has a variable not guarded by an action."""


class NonRegularProduct(Error):
    """A product construction exceeded the configured state bound."""


class MissingTurnWeights(Error):
    """A scheduler table lists no turn weights for the current thread count."""


class MissingReply(Error):
    """The environment has no reply probability for a basic action."""


class ContractViolation(Error):
    """A service breaks the linkage between absent replies and the empty service."""


class UnresolvedFork(Error):
    """A fork node was executed outside strategic interleaving."""
