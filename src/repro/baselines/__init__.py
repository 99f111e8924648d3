"""Comparison tuners: Artemis-style, AN5D-style and the all-OC oracle."""

from .an5d import AN5DBaseline
from .artemis import ArtemisBaseline
from .oracle import OracleBaseline

__all__ = ["AN5DBaseline", "ArtemisBaseline", "OracleBaseline"]
