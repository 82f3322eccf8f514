"""Fair-share scheduler for the multi-tenant job service.

Pure data structure, no I/O and no clock of its own: the server feeds
it ``now`` timestamps, so every policy decision is deterministic and
unit-testable.  A queued job's effective score is::

    score = priority + waited/aging_seconds - fair_share_weight * usage

where ``usage`` is the submitting tenant's accumulated worker-seconds
(decayed exponentially with half-life ``usage_halflife``).  The aging
term guarantees progress — any finite-priority job eventually outscores
a steady stream of higher-priority arrivals — while the usage term
keeps one chatty tenant from starving everyone else on a shared pool.

Preemption: when every worker is busy and the best queued job outscores
a running (or staged) preemptible job by at least ``preempt_margin``,
the scheduler names that victim; the server checkpoints it, requeues it
(resume checkpoint attached, so no work is lost), and hands the worker
to the newcomer.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .jobs import JobSpec

__all__ = ["QueuedJob", "FairShareScheduler"]


@dataclass
class QueuedJob:
    """One schedulable unit: a job spec plus its queue bookkeeping."""

    job_id: str
    spec: JobSpec
    enqueued_at: float
    #: resume checkpoint carried across preemptions/failures
    checkpoint: Optional[dict] = None
    #: how many times this job was preempted or rescued from a dead
    #: worker (surfaced in status; also caps rescue loops)
    restarts: int = 0
    seq: int = field(default_factory=itertools.count().__next__)


class FairShareScheduler:
    """Priority + aging + tenant fair-share over one warm pool."""

    def __init__(self, aging_seconds: float = 30.0,
                 fair_share_weight: float = 1.0,
                 usage_halflife: float = 120.0,
                 preempt_margin: float = 2.0):
        if aging_seconds <= 0 or usage_halflife <= 0:
            raise ValueError("aging_seconds and usage_halflife must "
                             "be positive")
        self.aging_seconds = float(aging_seconds)
        self.fair_share_weight = float(fair_share_weight)
        self.usage_halflife = float(usage_halflife)
        self.preempt_margin = float(preempt_margin)
        self._queue: List[QueuedJob] = []
        self._usage: Dict[str, float] = {}
        self._usage_at: float = 0.0

    # -- queue ---------------------------------------------------------------------

    def submit(self, item: QueuedJob) -> None:
        self._queue.append(item)

    def requeue(self, item: QueuedJob) -> None:
        """Put a preempted/rescued job back (keeps original enqueue
        time, so its aging credit survives the round trip)."""
        item.restarts += 1
        self._queue.append(item)

    def cancel(self, job_id: str) -> Optional[QueuedJob]:
        for i, item in enumerate(self._queue):
            if item.job_id == job_id:
                return self._queue.pop(i)
        return None

    def __len__(self) -> int:
        return len(self._queue)

    def queued_ids(self) -> List[str]:
        return [item.job_id for item in self._queue]

    # -- fair-share accounting -----------------------------------------------------

    def _decay(self, now: float) -> None:
        dt = now - self._usage_at
        if dt > 0 and self._usage:
            factor = 0.5 ** (dt / self.usage_halflife)
            for tenant in self._usage:
                self._usage[tenant] *= factor
        self._usage_at = max(self._usage_at, now)

    def charge(self, tenant: str, seconds: float, now: float) -> None:
        """Record ``seconds`` of worker time consumed by ``tenant``."""
        self._decay(now)
        self._usage[tenant] = self._usage.get(tenant, 0.0) \
            + float(seconds)

    def usage(self, tenant: str, now: float) -> float:
        self._decay(now)
        return self._usage.get(tenant, 0.0)

    # -- policy --------------------------------------------------------------------

    def score(self, item: QueuedJob, now: float) -> float:
        waited = max(0.0, now - item.enqueued_at)
        share = self._usage.get(item.spec.tenant, 0.0)
        return (item.spec.priority + waited / self.aging_seconds
                - self.fair_share_weight * share)

    def _best_index(self, now: float) -> Optional[int]:
        if not self._queue:
            return None
        self._decay(now)
        # stable tie-break on submission order
        return min(range(len(self._queue)),
                   key=lambda i: (-self.score(self._queue[i], now),
                                  self._queue[i].seq))

    def peek(self, now: float) -> Optional[QueuedJob]:
        i = self._best_index(now)
        return None if i is None else self._queue[i]

    def pop(self, now: float) -> Optional[QueuedJob]:
        i = self._best_index(now)
        return None if i is None else self._queue.pop(i)

    def pick_victim(self, running: List[QueuedJob],
                    now: float) -> Optional[QueuedJob]:
        """With all workers busy, should the best queued job displace a
        running one?  Returns the victim, or None to keep waiting.

        Only preemptible jobs are candidates, and the displacement must
        be decisive: the queued job's score must beat the victim's
        *static* priority by ``preempt_margin`` (running jobs don't age
        — they are already making progress)."""
        best = self.peek(now)
        if best is None:
            return None
        candidates = [r for r in running
                      if r.spec.preemptible and r.job_id != best.job_id]
        if not candidates:
            return None
        victim = min(candidates, key=lambda r: (r.spec.priority, -r.seq))
        need = victim.spec.priority + self.preempt_margin
        if self.score(best, now) >= need \
                and best.spec.priority > victim.spec.priority:
            return victim
        return None

    def stats(self, now: float) -> dict:
        self._decay(now)
        return {
            "queued": len(self._queue),
            "usage": {t: round(v, 6)
                      for t, v in sorted(self._usage.items()) if v > 1e-9},
            "scores": {item.job_id: round(self.score(item, now), 4)
                       for item in self._queue},
        }
