"""Per-kernel performance recording.

OP-PIC instruments every generated loop with timers; the paper's runtime
breakdowns (Figure 9), utilization table and MI250X rooflines are built
from those counters.  :class:`PerfRecorder` keeps the same data per named
loop: call count, wall seconds, modelled FLOPs and bytes, particle hops,
collision maxima, and any backend extras.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["LoopStats", "PerfRecorder"]


@dataclass
class LoopStats:
    """Accumulated statistics for one named loop."""

    name: str
    calls: int = 0
    n_total: int = 0
    seconds: float = 0.0
    flops: float = 0.0
    nbytes: float = 0.0
    hops: int = 0
    max_collisions: int = 0
    indirect_inc: bool = False
    is_move: bool = False
    extras: dict = field(default_factory=dict)

    @property
    def arithmetic_intensity(self) -> float:
        """FLOPs per byte — x-axis of the roofline plots."""
        return self.flops / self.nbytes if self.nbytes else 0.0

    @property
    def mean_seconds(self) -> float:
        return self.seconds / self.calls if self.calls else 0.0

    def to_dict(self) -> dict:
        """JSON/pickle-friendly snapshot (rank processes ship these back
        to the launcher)."""
        return {"name": self.name, "calls": self.calls,
                "n_total": self.n_total, "seconds": self.seconds,
                "flops": self.flops, "nbytes": self.nbytes,
                "hops": self.hops, "max_collisions": self.max_collisions,
                "indirect_inc": self.indirect_inc, "is_move": self.is_move,
                "extras": dict(self.extras)}

    @classmethod
    def from_dict(cls, payload: dict) -> "LoopStats":
        return cls(**payload)

    def merge(self, other: "LoopStats") -> "LoopStats":
        """Accumulate another recorder's stats for the same loop (used
        when per-rank breakdowns are folded into a program-level one)."""
        self.calls += other.calls
        self.n_total += other.n_total
        self.seconds += other.seconds
        self.flops += other.flops
        self.nbytes += other.nbytes
        self.hops += other.hops
        self.max_collisions = max(self.max_collisions,
                                  other.max_collisions)
        self.indirect_inc = self.indirect_inc or other.indirect_inc
        self.is_move = self.is_move or other.is_move
        self.extras.update(other.extras)
        return self


class PerfRecorder:
    """Accumulates :class:`LoopStats` keyed by loop name."""

    def __init__(self):
        self.loops: Dict[str, LoopStats] = {}
        self.enabled = True
        #: optional per-event timeline (see repro.perf.trace)
        self.trace = None

    def record_loop(self, name: str, *, n: int, seconds: float,
                    flops: float = 0.0, nbytes: float = 0.0,
                    indirect_inc: bool = False, hops: int = 0,
                    is_move: bool = False, collisions: int = 0,
                    **extras) -> None:
        if not self.enabled:
            return
        if self.trace is not None:
            import time as _time
            self.trace.record(name, _time.perf_counter() - seconds,
                              seconds)
        st = self.loops.get(name)
        if st is None:
            st = self.loops[name] = LoopStats(name)
        st.calls += 1
        st.n_total += n
        st.seconds += seconds
        st.flops += flops
        st.nbytes += nbytes
        st.hops += hops
        st.max_collisions = max(st.max_collisions, collisions)
        st.indirect_inc = st.indirect_inc or indirect_inc
        st.is_move = st.is_move or is_move
        for k, v in extras.items():
            st.extras[k] = v

    def reset(self) -> None:
        self.loops.clear()

    def to_dict(self) -> dict:
        return {name: st.to_dict() for name, st in self.loops.items()}

    @classmethod
    def from_dict(cls, payload: dict) -> "PerfRecorder":
        rec = cls()
        for name, st in payload.items():
            rec.loops[name] = LoopStats.from_dict(st)
        return rec

    def merge(self, other: "PerfRecorder") -> "PerfRecorder":
        """Fold another recorder in (per-rank → program-level roll-up)."""
        for name, st in other.loops.items():
            mine = self.loops.get(name)
            if mine is None:
                self.loops[name] = LoopStats.from_dict(st.to_dict())
            else:
                mine.merge(st)
        return self

    @property
    def total_seconds(self) -> float:
        return sum(s.seconds for s in self.loops.values())

    def breakdown(self) -> List[LoopStats]:
        """Loops ordered by descending total time — the Figure 9 bars."""
        return sorted(self.loops.values(), key=lambda s: -s.seconds)

    def get(self, name: str) -> Optional[LoopStats]:
        return self.loops.get(name)

    def report(self, title: str = "Loop breakdown") -> str:
        lines = [title, f"{'loop':<28}{'calls':>7}{'time(s)':>10}"
                        f"{'GFLOP':>9}{'GB':>9}{'AI':>7}"]
        for s in self.breakdown():
            lines.append(f"{s.name:<28}{s.calls:>7}{s.seconds:>10.4f}"
                         f"{s.flops / 1e9:>9.3f}{s.nbytes / 1e9:>9.3f}"
                         f"{s.arithmetic_intensity:>7.3f}")
        return "\n".join(lines)
