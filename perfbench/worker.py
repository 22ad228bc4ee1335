"""One workload in one fresh single-threaded process.

Set-up imports ``axial`` from the checkout's ``src``, builds the seeded
inputs and warms the lazy sympy import.  Then the job list runs in a closed
loop with one client (each job starts when the previous verdict returned),
pass after pass, until ``--seconds`` have elapsed (after the first whole
pass, the run stops at the next job); short jobs also run in sweeps spread
over the run.  Each job runs under an in-process ``setitimer`` limit and
its output is checked after its latency is taken.  Between and inside jobs
the machine's speed is sampled (``speed``); latencies and the set-up time
are reported at reference speed.  The last stdout line is a JSON report
for ``run.py``.

With ``--trace 1`` the smoke group joins the job list, one untraced pass
runs, then traced passes without sweeps; the report holds the per-layer
metrics, and the context the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import speed  # noqa: E402
import summary  # noqa: E402
import workloads  # noqa: E402
from checks import Mismatch  # noqa: E402

JOB_LIMIT_S = 20.0
SWEEP_TIERS_S = (0.05, 0.25)  # first-pass latency below which a job joins a tier
SWEEP_RATIO = 6.0
E2E_UNITS = {"wall_s": "s", "job_p50_ms": "ms", "job_tail_ms": "ms", "answered_frac": "ratio",
             "peak_rss_mb": "MB"}


class JobTimeout(BaseException):
    """Raised by SIGALRM inside a job; BaseException so no handler in the
    program under test swallows it."""


def _alarm(_signum, _frame):
    raise JobTimeout


def import_axial(root):
    src = root / "src"
    sys.path.insert(0, str(src))
    import axial
    import axial.cli
    import axial.io

    if Path(axial.__file__).resolve().parent != (src / "axial").resolve():
        raise SystemExit(f"axial imported from {axial.__file__}, not from {src}")
    return axial


def set_up(root, workload, seed, work):
    ax = import_axial(root)
    with open(HERE / "expected.json") as fh:
        exp = json.load(fh)
    jobs = workloads.build(ax, workload, seed, exp, str(work))
    # sympy is imported lazily by the first Q(t) root extraction
    Qt = ax.RationalFunctions("t")
    Qt.poly_roots([Qt.from_int(-1), Qt.from_int(0), Qt.from_int(1)])
    return ax, exp, jobs


def run_job(job, index, rec, limit_s, now=time.perf_counter):
    """Run, time (by ``now``) and check one job; the recorder is on only
    while it runs."""
    rec.job = index
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    rec.on = rec.tracing
    start = now()
    try:
        out = job.run()
        latency = now() - start
    except JobTimeout:
        return summary.Outcome(job.id, summary.TIMEOUT, now() - start)
    except NotImplementedError as exc:
        latency = now() - start
        status = summary.DECLINED if job.declinable else summary.ERROR
        return summary.Outcome(job.id, status, latency, repr(exc)[:200])
    except Exception as exc:  # a crash of the program under test is a failed job
        return summary.Outcome(job.id, summary.ERROR, now() - start, repr(exc)[:200])
    finally:
        rec.on = False
        signal.setitimer(signal.ITIMER_REAL, 0)
    try:
        job.check(out)
    except Mismatch as exc:
        return summary.Outcome(job.id, summary.WRONG, latency, str(exc)[:200])
    except Exception as exc:  # output too malformed to check
        return summary.Outcome(job.id, summary.WRONG, latency, repr(exc)[:200])
    return summary.Outcome(job.id, summary.OK, latency)


class Runner:
    """Runs jobs against the per-job limit and keeps every outcome.  A job
    that hit the limit is not run again; it counts as timed out after.
    With a ``speed.Clock``, jobs are timed and sampled by it (traced runs
    go without: their spans would hold the samples)."""

    def __init__(self, jobs, rec, limit_s, clock=None):
        self.jobs, self.rec, self.limit_s, self.clock = jobs, rec, limit_s, clock
        self.outcomes = []
        self.timed_out = set()
        self._samples = []  # (first, last) speed sample of each outcome

    def run(self, i):
        job = self.jobs[i]
        clock = self.clock
        first = clock.job_start() if clock else None
        try:
            if job.id in self.timed_out:
                o = summary.Outcome(job.id, summary.TIMEOUT, 0.0, "skipped after a timeout")
            else:
                o = run_job(job, i, self.rec, self.limit_s, clock.now if clock else time.perf_counter)
        finally:
            if clock:
                self._samples.append((first, clock.job_end()))
        if o.status == summary.TIMEOUT:
            self.timed_out.add(job.id)
        self.outcomes.append(o)
        return o

    def close(self):
        """Scale every outcome to reference speed; call after the last job."""
        self.clock.close()
        for o, (first, last) in zip(self.outcomes, self._samples):
            o.ref_s = self.clock.at_ref(o.latency_s, first, last)


def measure(runner, seconds, sweeps, traced_passes=None):
    """Passes over the job list until ``seconds`` elapsed: at least one
    whole pass, and the last pass stops at the first job that starts
    after that, unless ``traced_passes`` needs whole passes.

    With ``sweeps``, the jobs of the first pass are sorted into tiers by
    latency (under 50 ms, under 250 ms, the rest in none).  A tier's jobs
    are also run once more each, in a sweep, whenever all jobs since its
    last sweep took SWEEP_RATIO times as long as it: short jobs collect
    samples all through the run, the shortest the most, at about
    1/SWEEP_RATIO extra cost per tier.  With a list in ``traced_passes``,
    each pass's per-layer metrics are appended to it.
    """
    start = time.monotonic()
    whole = traced_passes is not None
    tiers = [[] for _ in SWEEP_TIERS_S]
    cost = [0.0] * len(tiers)  # time of the tier's last sweep
    since = [0.0] * len(tiers)  # time of all jobs since then

    def run(i):
        o = runner.run(i)
        for t in range(len(tiers)):
            since[t] += o.latency_s
        return o

    passes = 0
    while not passes or time.monotonic() - start < seconds:
        for i in range(len(runner.jobs)):
            if passes and not whole and time.monotonic() - start >= seconds:
                break
            o = run(i)
            if not passes and o.status == summary.OK:
                tier = next((t for t, bound in enumerate(SWEEP_TIERS_S) if o.latency_s < bound), None)
                if tier is not None:
                    tiers[tier].append(i)
            for t, tier in enumerate(tiers):
                if sweeps and tier and since[t] >= SWEEP_RATIO * cost[t]:
                    cost[t] = sum(run(j).latency_s for j in tier)
                    since[t] = 0.0
        passes += 1
        if traced_passes is not None:
            traced_passes.append(spans.pass_metrics(runner.rec))
            runner.rec.clear()
    return passes


def traced_report(per_pass):
    """Counts of the first traced pass, median self times, and whether
    every traced pass made the same counts."""
    units = spans.metric_units()
    first = per_pass[0]
    metrics = {}
    for name, unit in units.items():
        if name.endswith(".self_s"):
            value = statistics.median(p[name] for p in per_pass)
        else:
            value = first[name]
        metrics[name] = {"value": value, "unit": unit}
    repeat = all({k: v for k, v in p.items() if not k.endswith(".self_s")}
                 == {k: v for k, v in first.items() if not k.endswith(".self_s")} for p in per_pass)
    return metrics, repeat


def run_context(ax, args):
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    backend = ax.fields._rational
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rational_backend": f"{backend.__module__}.{backend.__name__}",
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "job_limit_s": JOB_LIMIT_S,
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    root = Path(args.root)
    work = root / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        ax, exp, jobs = set_up(root, args.workload, args.seed, work)
        ready = time.monotonic()
        # ready - spawn time, scaled by this factor, is set-up at reference speed
        setup_scale = speed.ref_scale()
        if args.setup_only:
            print(json.dumps({"ready": ready, "setup_scale": setup_scale}))
            return 0
        signal.signal(signal.SIGALRM, _alarm)
        rec = spans.Recorder()
        context = run_context(ax, args)
        if args.trace:
            # the smoke group touches every traced layer, so no per-layer
            # time reads 0; call counts must repeat exactly, so no sweeps
            jobs += workloads.smoke(ax, exp, str(work))
            untraced = Runner(jobs, rec, JOB_LIMIT_S)
            measure(untraced, 0, False)
            traced = Runner(jobs, rec, JOB_LIMIT_S)
            inst = spans.install(rec)
            context["wrapped_names"] = len(inst.patches)
            rec.tracing = True
            per_pass = []
            try:
                context["passes"] = 1 + measure(traced, args.seconds, False, per_pass)
            finally:
                rec.tracing = False
                inst.restore()
            context["coverage_check"] = "no unwrapped original in any axial module; originals restored"
            metrics, repeat = traced_report(per_pass)
            context["counts_repeat_across_passes"] = repeat
            # one untraced pass against the first traced one, both without sweeps
            context["tracing_overhead"] = (summary.list_time(traced.outcomes[:len(jobs)])
                                           / summary.list_time(untraced.outcomes))
            attempted, failed, _e2e, extra = summary.end_to_end(untraced.outcomes + traced.outcomes,
                                                                JOB_LIMIT_S)
        else:
            runner = Runner(jobs, rec, JOB_LIMIT_S, speed.Clock())
            context["passes"] = measure(runner, args.seconds, True)
            runner.close()
            context["speed_samples"] = len(runner.clock.samples)
            context["speed_sample_median_s"] = statistics.median(runner.clock.samples)
            context["speed_ref_s"] = speed.REF_S
            attempted, failed, e2e, extra = summary.end_to_end(runner.outcomes, JOB_LIMIT_S)
            e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
        context.update(extra)
        print(json.dumps({"ready": ready, "setup_scale": setup_scale, "attempted": attempted, "failed": failed,
                          "metrics": metrics, "context": context}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
