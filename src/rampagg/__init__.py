"""Grouped secret-sharing aggregation over a prime field.

Users are arranged into equal groups on a tree rooted at the server.  Each
user ramp-shares its partitioned model inside its group; groups add their
shares slot-by-slot up the tree; the server interpolates the surviving slot
streams to recover the exact sum of the contributing models.  The package
simulates the protocol deterministically, accounts every transmitted symbol,
and checks the privacy guarantee by exhaustive enumeration on small fields.
"""

from .errors import (
    ConfigInvalid,
    InconsistentArrivals,
    NonConformingField,
    RampAggError,
    SearchSpaceTooLarge,
    TooManyDropouts,
)
from .harness import RunConfig, RunReport, measure, simulate
from .privacy import (
    NOISE_CONSTANT,
    NOISE_UNIFORM,
    PrivacyCase,
    PrivacyResult,
    privacy_bruteforce,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigInvalid",
    "InconsistentArrivals",
    "NOISE_CONSTANT",
    "NOISE_UNIFORM",
    "NonConformingField",
    "PrivacyCase",
    "PrivacyResult",
    "RampAggError",
    "RunConfig",
    "RunReport",
    "SearchSpaceTooLarge",
    "TooManyDropouts",
    "measure",
    "simulate",
    "privacy_bruteforce",
]
