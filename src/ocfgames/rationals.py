"""Exact rational helpers: parsing, formatting, integer scaling."""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import Iterable

Q = Fraction

_RATIONAL_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")


def as_q(x) -> Fraction:
    """Convert ints, Fractions, and strings like ``3`` or ``-2/7`` to Fraction.

    Floats are rejected: the toolkit is exact-arithmetic only.  So are
    booleans, which Python counts as ints but no document means as numbers.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        s = x.strip()
        if not _RATIONAL_RE.match(s):
            raise ValueError(f"not an exact rational literal: {x!r}")
        return Fraction(s)
    raise TypeError(f"cannot build an exact rational from {type(x).__name__}: {x!r}")


def q_str(x: Fraction) -> str:
    """Canonical string form, ``p/q`` or plain integer."""
    return str(Fraction(x))


def common_denominator(values: Iterable[Fraction]) -> int:
    """LCM of the denominators of ``values`` (1 for an empty iterable);
    ints and Fractions both carry ``denominator``."""
    return lcm(*(v.denominator for v in values))


def scaled(values: Iterable[Fraction], scale: int) -> tuple[int, ...]:
    """``values`` times ``scale``, a multiple of every value's denominator,
    as ints."""
    return tuple(v.numerator * (scale // v.denominator) for v in values)
