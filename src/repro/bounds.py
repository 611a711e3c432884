"""The one rule for a number that enters the program from outside: a value
of the wrong kind (a ``bool`` is none), NaN, ±∞, or one outside the field's
bounds (``ge``/``gt`` below, ``le``/``lt`` above) raises a ``ValueError``
naming the field.  Per-op paths (the clocks, ``tasks.sleep``, a store
write) call nothing: each keeps one inline comparison that NaN fails.
"""

from __future__ import annotations

import numbers
import sys
from typing import Any


def real(name: str, value: Any, *, ge=None, gt=None, le=None, lt=None) -> Any:
    """``value`` if a finite real number within the bounds."""
    return _check(name, value, numbers.Real, "finite", ge, gt, le, lt)


def whole(name: str, value: Any, *, ge=None, gt=None, le=None, lt=None) -> Any:
    """``value`` if an integer within the bounds."""
    return _check(name, value, numbers.Integral, "an integer", ge, gt, le, lt)


def _check(name, value, kind, noun, ge, gt, le, lt):
    # each comparison holds for what it accepts, so NaN fails every one
    if not (isinstance(value, kind) and not isinstance(value, bool)
            and -sys.float_info.max <= value <= sys.float_info.max
            and (ge is None or value >= ge) and (gt is None or value > gt)
            and (le is None or value <= le) and (lt is None or value < lt)):
        rule = " and ".join([noun] + [
            f"{symbol} {bound!r}" for symbol, bound in
            ((">=", ge), (">", gt), ("<=", le), ("<", lt)) if bound is not None])
        raise ValueError(f"{name} must be {rule}, got {value!r}")
    return value
