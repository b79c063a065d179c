"""Exception types shared across the package."""


class RfpopError(Exception):
    """Base class for package errors."""


class LengthMismatch(RfpopError):
    """A value does not have the bit or byte length the operation requires."""


class CounterOverflow(RfpopError):
    """A session counter would exceed its representable range."""


class NoOpenSession(RfpopError):
    """A step was delivered to a party that has no session in progress."""


class SessionInProgress(RfpopError):
    """A new session was requested while one is still open."""


class LifetimeExceeded(RfpopError):
    """A tag was asked to start a session beyond its configured lifetime."""


class KTimeExhausted(RfpopError):
    """A K-time signing key has no unused signing index left."""


class PairPoolExhausted(RfpopError):
    """A precomputed signing pair pool has been fully consumed."""


class BudgetExceeded(RfpopError):
    """An adversary exceeded its oracle query budget."""


class GuessStageViolation(RfpopError):
    """An oracle outside the guess-stage set was queried during the guess stage."""


class InvalidChallenge(RfpopError):
    """The adversary chose a corrupted tag as the challenge tag."""


class UnknownSnapshot(RfpopError):
    """A snapshot or session is out of range for the journal."""


class FrameError(RfpopError):
    """A wire frame is malformed, truncated, or has an unknown type."""


class ConfigError(RfpopError):
    """A configuration file is invalid or internally inconsistent."""
