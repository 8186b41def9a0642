"""Exception types raised across the library."""


class RampAggError(Exception):
    """Base class for every error this package raises deliberately."""


# ---- field ----------------------------------------------------------------


class NoPrimeInInterval(RampAggError):
    """No prime exists in the requested half-open interval."""


# ---- topology --------------------------------------------------------------


class InvalidParams(RampAggError):
    """Protocol parameters fail a structural constraint."""


class ThresholdViolation(InvalidParams):
    """Collusion tolerance too large for the user count and dropout budget."""


class BadK(InvalidParams):
    """Partition count outside the feasible range."""


class IndivisibleGroups(InvalidParams):
    """Group size does not divide the user count."""


class NotATree(RampAggError):
    """Parent map is cyclic, disconnected, or refers to unknown groups."""


class BadRoot(RampAggError):
    """Tree root is wrong: the server must have exactly one child, the
    last group."""


# ---- protocol --------------------------------------------------------------


class TooManyDropouts(RampAggError):
    """Fewer non-null messages reached the server than recovery needs."""


class InconsistentArrivals(RampAggError):
    """An evaluation beyond the K+T that fix the summed polynomial does not
    lie on it: some arrival was corrupted in transit."""


# ---- harness ---------------------------------------------------------------


class ConfigInvalid(RampAggError):
    """A run configuration failed validation; the message names the field."""


class NonConformingField(ConfigInvalid):
    """Load assertions were requested on a manually overridden prime."""


class SearchSpaceTooLarge(RampAggError):
    """Exhaustive privacy enumeration would exceed the configured budget."""
