"""Job outcomes of one workload process, reduced to end-to-end metrics.

On a machine whose cores are shared, the same job can take a third longer
a minute later.  Each run of a job is therefore scaled to reference speed
by the speed samples that bracket it (see ``speed``), a job's latency is
the median of its scaled runs, and the job list's time is the sum of
those.  Short jobs run many times, spread over the whole run (see
``worker.measure``), so that one slow second cannot decide their latency.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

TAIL_BEYOND = 10  # jobs that must lie above the reported tail latency

OK, DECLINED, TIMEOUT, ERROR, WRONG = "ok", "declined", "timeout", "error", "wrong"
FAILED = (TIMEOUT, ERROR, WRONG)


@dataclass
class Outcome:
    job: str
    status: str
    latency_s: float
    detail: str = ""
    ref_s: float | None = None  # latency_s at reference speed, once known

    @property
    def time_s(self):
        return self.latency_s if self.ref_s is None else self.ref_s


def tail(latencies, beyond=TAIL_BEYOND):
    """The highest percentile with at least ``beyond`` samples above it.

    Returns (value, percentile, sample count): the (beyond+1)-th largest
    sample is the (n - beyond)/n quantile.
    """
    n = len(latencies)
    if n <= beyond:
        raise ValueError(f"{n} samples leave none below the {beyond} tail samples")
    return sorted(latencies)[n - beyond - 1], 100.0 * (n - beyond) / n, n


def by_job(outcomes):
    """Outcomes grouped per job, in job-list order."""
    groups = {}
    for o in outcomes:
        groups.setdefault(o.job, []).append(o)
    return list(groups.values())


def job_times(outcomes):
    """Median time of each job's runs, at reference speed where known."""
    return [statistics.median(o.time_s for o in runs) for runs in by_job(outcomes)]


def job_latencies(outcomes, limit_s):
    """``job_times``, except that a job that did not return the expected
    answer on every run counts as taking the whole per-job limit."""
    return [t if all(o.status == OK for o in runs) else limit_s
            for t, runs in zip(job_times(outcomes), by_job(outcomes))]


def list_time(outcomes):
    """Time the job list takes once, as measured: the fastest run of each
    job, summed.  The tracing overhead compares two of these."""
    return sum(min(o.latency_s for o in runs) for runs in by_job(outcomes))


def end_to_end(outcomes, limit_s):
    """Metrics of one run (without setup_s and peak_rss_mb) plus context."""
    attempted = len(outcomes)
    failed = sum(o.status in FAILED for o in outcomes)
    declined = sum(o.status == DECLINED for o in outcomes)
    per_job = job_latencies(outcomes, limit_s)
    value, pct, n = tail(per_job)
    metrics = {
        "wall_s": sum(job_times(outcomes)),
        "job_p50_ms": 1000.0 * statistics.median(per_job),
        "job_tail_ms": 1000.0 * value,
        "answered_frac": sum(all(o.status == OK for o in runs) for runs in by_job(outcomes)) / n,
    }
    context = {
        "jobs": n,
        "job_tail": f"p{pct:.2f} of {n} jobs, {TAIL_BEYOND} jobs above it",
        "measured_wall_s": list_time(outcomes),
        "declined": declined,
        "failed_frac": failed / attempted,
        "unanswered_frac": (failed + declined) / attempted,
        "failures": sorted({f"{o.job}: {o.status} {o.detail}".strip() for o in outcomes
                            if o.status in FAILED})[:20],
        "declined_jobs": sorted({o.job for o in outcomes if o.status == DECLINED}),
    }
    return attempted, failed, metrics, context
