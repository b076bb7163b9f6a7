"""Size caps.

Every core algorithm is exponential in the ground-set size, so failure
modes are made explicit: a hard cap of 20 on value tables (2^20 entries),
a soft default of 12 for enumeration-heavy operations which can be raised
via argument or the EGPKIT_MAX_N environment variable, and tighter caps
for full preorder enumeration, which an argument may only lower.
"""

import os

from .errors import CapExceeded, ValidationError

HARD_TABLE_CAP = 20
SOFT_ENUM_CAP = 12
PREORDER_ENUM_CAP = 6
TOTAL_PREORDER_ENUM_CAP = 8

_ENV_VAR = "EGPKIT_MAX_N"


def soft_cap(override=None):
    """Effective soft cap: explicit override, then env var, then default."""
    if override is not None:
        return min(int(override), HARD_TABLE_CAP)
    env = os.environ.get(_ENV_VAR)
    if env is None:
        return SOFT_ENUM_CAP
    try:
        return min(int(env), HARD_TABLE_CAP)
    except ValueError:
        raise ValidationError(f"{_ENV_VAR} must be an integer, got {env!r}") from None


def preorder_cap(cap, override=None):
    """Cap of a full (total) preorder enumeration: an explicit override may
    only lower it."""
    if override is None:
        return cap
    return min(int(override), cap)


def check_table(n):
    if n > HARD_TABLE_CAP:
        raise CapExceeded(f"ground set of size {n} exceeds hard cap {HARD_TABLE_CAP}")


def check_enum(n, cap, what="enumeration"):
    if n > cap:
        raise CapExceeded(f"{what} capped at {cap} elements, got {n}")
