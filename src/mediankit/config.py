"""Search and enumeration budgets.

All potentially exponential procedures are guarded by explicit caps.  The
defaults suit desk-scale inputs; the ``MEDIANKIT_BUDGET`` environment
variable overrides them for a whole CLI invocation, either as a bare integer
(new wall cap for point enumeration) or as comma-separated ``key:value``
pairs, e.g. ``MEDIANKIT_BUDGET="point_walls:24,word_length:6"``.  A part
of any other form is an error.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from .errors import InvalidInput


@dataclass(frozen=True)
class Budgets:
    point_walls: int = 20      # wall cap for ultrafilter enumeration
    max_points: int = 1 << 20  # hard cap on enumerated ultrafilters
    clique_walls: int = 64     # cap on walls taking part in a transversality
    aut_walls: int = 12        # wall cap for automorphism enumeration
    group_order: int = 20000   # cap on generated group size
    word_length: int = 4       # default word-search depth

    def with_(self, **kw) -> "Budgets":
        return replace(self, **kw)


DEFAULT_BUDGETS = Budgets()


def budget_overrides() -> dict:
    """The ``MEDIANKIT_BUDGET`` fields as ``{field: value}``; a part that
    is not of the two forms, or sets a field set before, raises InvalidInput
    naming it."""
    raw = os.environ.get("MEDIANKIT_BUDGET", "").strip()
    values = {}
    for part in raw.split(",") if raw else ():
        key, sep, val = part.partition(":")
        key, val = (key.strip(), val.strip()) if sep else ("point_walls", key.strip())
        if key not in Budgets.__dataclass_fields__ or not (val.isascii() and val.isdigit()):
            raise InvalidInput(f"MEDIANKIT_BUDGET part {part!r} is neither an "
                               "integer nor field:integer with a budget field")
        if key in values:
            raise InvalidInput(f"MEDIANKIT_BUDGET part {part!r} sets {key} again")
        values[key] = int(val)
    return values
