"""Fair-share scheduler policy (repro.service.scheduler).

All deterministic: the scheduler never reads a clock — every test
injects ``now``.
"""
from repro.service import jobs
from repro.service.scheduler import FairShareScheduler, QueuedJob


def spec(priority=5, tenant="default", preemptible=True, app="advec"):
    params = ({"nz": 24, "ppc": 30, "n_steps": 5} if app == "landau"
              else {"nx": 6, "ny": 6, "n_steps": 5})
    return jobs.validate_job(
        {"app": app, "priority": priority, "tenant": tenant,
         "preemptible": preemptible, "params": params})


def item(job_id, t=0.0, **kw):
    return QueuedJob(job_id=job_id, spec=spec(**kw), enqueued_at=t)


def test_priority_order_with_submission_tiebreak():
    s = FairShareScheduler()
    s.submit(item("low", priority=2))
    s.submit(item("hi", priority=8))
    s.submit(item("hi2", priority=8))
    assert s.pop(0.0).job_id == "hi"
    assert s.pop(0.0).job_id == "hi2"
    assert s.pop(0.0).job_id == "low"
    assert s.pop(0.0) is None


def test_aging_eventually_beats_priority():
    """A starving low-priority job must outscore fresh high-priority
    arrivals once it has waited long enough (no permanent starvation)."""
    s = FairShareScheduler(aging_seconds=10.0)
    s.submit(item("starved", t=0.0, priority=1))
    # at t=30 a fresh priority-3 job arrives: 1 + 30/10 = 4 > 3
    s.submit(item("fresh", t=30.0, priority=3))
    assert s.peek(30.0).job_id == "starved"
    # but a fresh priority-9 job still wins at t=30
    s.submit(item("urgent", t=30.0, priority=9))
    assert s.pop(30.0).job_id == "urgent"


def test_fair_share_penalises_heavy_tenant():
    s = FairShareScheduler(fair_share_weight=1.0, usage_halflife=100.0)
    s.charge("hog", 6.0, now=0.0)
    s.submit(item("hog-job", t=0.0, tenant="hog", priority=5))
    s.submit(item("new-job", t=0.0, tenant="newbie", priority=5))
    assert s.pop(0.0).job_id == "new-job"
    # usage decays: after one half-life the penalty halves
    assert abs(s.usage("hog", 100.0) - 3.0) < 1e-9


def test_requeue_keeps_aging_credit_and_counts_restarts():
    s = FairShareScheduler(aging_seconds=10.0)
    it = item("j", t=0.0, priority=1)
    s.submit(it)
    popped = s.pop(50.0)
    s.requeue(popped)
    assert popped.restarts == 1
    assert popped.enqueued_at == 0.0
    assert s.score(popped, 50.0) == 1 + 5.0    # kept its 50 s of waiting


def test_cancel_removes_queued_job():
    s = FairShareScheduler()
    s.submit(item("a"))
    s.submit(item("b"))
    assert s.cancel("a").job_id == "a"
    assert s.cancel("zzz") is None
    assert s.queued_ids() == ["b"]


def test_pick_victim_rules():
    s = FairShareScheduler(preempt_margin=2.0)
    running = [item("lowrun", priority=2),
               item("midrun", priority=5),
               item("pinned", priority=1, preemptible=False)]
    # urgent arrival beats the lowest-priority preemptible job
    s.submit(item("urgent", t=0.0, priority=9))
    victim = s.pick_victim(running, now=0.0)
    assert victim.job_id == "lowrun"
    # a same-priority arrival must NOT thrash a running job
    s2 = FairShareScheduler(preempt_margin=2.0)
    s2.submit(item("peer", t=0.0, priority=2))
    assert s2.pick_victim(running, now=0.0) is None
    # non-preemptible jobs are never victims
    s3 = FairShareScheduler(preempt_margin=2.0)
    s3.submit(item("urgent", t=0.0, priority=9))
    protected = [item("pinned", priority=0, preemptible=False)]
    assert s3.pick_victim(protected, now=0.0) is None


def test_empty_queue_never_names_a_victim():
    s = FairShareScheduler()
    assert s.pick_victim([item("r", priority=0)], now=100.0) is None
    assert s.peek(0.0) is None


def test_stats_shape():
    s = FairShareScheduler()
    s.submit(item("a", t=0.0, priority=7))
    s.charge("t1", 2.5, now=0.0)
    st = s.stats(now=10.0)
    assert st["queued"] == 1
    assert "a" in st["scores"]
    assert "t1" in st["usage"]
