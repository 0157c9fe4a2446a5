"""Exception types shared across the package."""


class PatrolSimError(Exception):
    """Base class for package errors."""


class ConfigurationError(PatrolSimError):
    """Invalid configuration value, unknown key, or inconsistent settings."""


class MetricsError(PatrolSimError):
    """Metrics cannot be finalized (e.g. mission shorter than the warm-up)."""


class VerificationError(PatrolSimError):
    """Replay of an event log does not reproduce the recorded results."""
