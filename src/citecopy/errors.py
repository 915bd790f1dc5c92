"""Exception hierarchy shared across the package, and the two rules that
the modules share: `require_count`, the check of every scalar count field,
and `ArrayRecord`, the equality of every record that holds numpy arrays."""

from __future__ import annotations

from dataclasses import fields
from numbers import Integral

import numpy as np


class CitecopyError(Exception):
    """Base class for all domain errors."""


class InvalidTallyError(CitecopyError):
    """An input out of range, such as misprint counts that violate
    0 <= distinct <= total <= citations.  Each input type raises it when
    it is constructed with a field out of range."""


class InsufficientStatisticsError(CitecopyError):
    """No misprints observed; the estimator has no signal."""


def require_count(name: str, value, low, low_text: str | None = None) -> None:
    """Raise InvalidTallyError unless `value` is an integer >= `low`
    (numpy integers included); every scalar count field goes through
    it.  The bound is checked first, as `not value >= low`, so NaN fails
    it; its message names the bound as `low_text`, if given."""
    if not value >= low:
        raise InvalidTallyError(f"{name} must be >= {low_text or low}")
    if not isinstance(value, Integral):
        raise InvalidTallyError(f"{name} must be an integer, got {value!r}")


class ArrayRecord:
    """Base of the frozen dataclasses that hold numpy arrays.  Two records
    are equal when they are of the same type and every field is equal,
    arrays by `np.array_equal`; like their arrays, records are unhashable.
    Subclasses are declared `@dataclass(frozen=True, eq=False)`: with
    `eq=True` the dataclass would generate an `__eq__` of its own."""

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        for f in fields(self):
            a, b = getattr(self, f.name), getattr(other, f.name)
            if not (np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b):
                return False
        return True

    __hash__ = None
