"""Exception types shared across the package, and the memory check."""

from __future__ import annotations

import os
import sys


class CovnetError(Exception):
    """Base class for package-specific failures."""


class FieldFormatError(CovnetError):
    """Malformed field file; carries the byte offset of the defect."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class ModelFormatError(CovnetError):
    """Malformed or inconsistent model file."""


class ResourceLimitError(CovnetError):
    """A configured size cap, or the machine's memory, would be exceeded."""


def _physical_memory() -> int:
    """Bytes of physical memory, or the address space where that is unknown."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return sys.maxsize


_MEMORY_BYTES = _physical_memory()


def _check_memory(n_floats: int, what: str) -> None:
    """Raise ResourceLimitError before allocating more float64 values than memory holds.

    `what` names the sizes that ask for them: the message reads
    "{what} do not fit in memory".
    """
    if n_floats > _MEMORY_BYTES // 8:
        raise ResourceLimitError(f"{what} do not fit in memory")


class NumericError(CovnetError):
    """Numerical failure (factorization breakdown, non-convergence)."""


class TrainingDivergedError(NumericError):
    """Loss became non-finite or exploded; carries the epoch index."""

    def __init__(self, message: str, epoch: int):
        super().__init__(f"{message} (epoch {epoch})")
        self.epoch = epoch


class DegenerateModelError(NumericError):
    """Model degenerated to numerically zero constituents."""


class DegenerateTruthError(NumericError):
    """Reference kernel is numerically zero on the sampled points."""


class ConfigError(CovnetError):
    """Invalid or inconsistent run configuration."""
