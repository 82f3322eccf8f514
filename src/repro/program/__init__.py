"""The record of ``program="fuse"``: which halo pushes were coalesced.

An app coalesces halo pushes by naming the fields in one push, as
CabanaPIC's ``push_cells("e", "b")``.  Under ``program="fuse"``
:class:`~repro.runtime.ranked.RankedApp` sends such a push as one frame
per neighbour pair (:func:`repro.runtime.halo.push_halos_grouped`) and
notes it here; under ``"off"`` each field travels in its own frame.
Loops and moves run eagerly in both modes, and a one-rank app has no
exchanges, so it records nothing.

Every distinct push is one :class:`Plan` of one fused :class:`Group`,
counted each time it runs.
"""
from __future__ import annotations

from typing import Dict, List, Tuple

__all__ = ["Program", "Plan", "Group", "MODES"]

MODES = ("off", "fuse")


class Group:
    """One coalesced push: its op (``"cell_push"`` / ``"node_push"``),
    the fields it carried, and how many times it ran."""

    __slots__ = ("op", "fields", "calls")

    #: every recorded group was sent as one frame per neighbour pair
    fused = True

    def __init__(self, op: str, fields: Tuple[str, ...]):
        self.op = op
        self.fields = fields
        self.calls = 0


class Plan:
    """The groups one distinct push ran as."""

    __slots__ = ("groups",)

    def __init__(self, groups: List[Group]):
        self.groups = groups


class Program:
    """The pushes an app coalesced under ``mode``, one :class:`Plan` per
    distinct (op, fields)."""

    def __init__(self, mode: str = "fuse"):
        if mode not in MODES:
            raise ValueError(f"program mode must be one of {MODES}, "
                             f"got {mode!r}")
        self.mode = mode
        self._plans: Dict[Tuple, Plan] = {}

    def note_push(self, op: str, fields: Tuple[str, ...]) -> None:
        plan = self._plans.get((op, fields))
        if plan is None:
            plan = self._plans[op, fields] = Plan([Group(op, fields)])
        plan.groups[0].calls += 1

    @property
    def plans(self) -> List[Plan]:
        return list(self._plans.values())
