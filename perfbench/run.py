"""Benchmark of the ``axial`` toolkit, run from the root of a checkout.

    python3 perfbench/run.py --workload matsuo_ladder --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40   # every workload, a metric per line

Each workload runs in its own fresh single-threaded process (``worker.py``)
against the checkout's ``src``.  Set-up time is measured from process spawn
to "ready" in ``SETUP_SAMPLES`` fresh processes, each scaled to reference
speed by the speed samples its process takes right after (``speed.py``),
and reported as their median.  ``wall_s``, ``job_p50_ms`` and
``job_tail_ms`` are at reference speed too; the context line holds the
measured set-up times and ``measured_wall_s``.
Prints one context line, then as the last line a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("matsuo_ladder", "identity_catalog", "axis_audit", "prime_field")
SETUP_SAMPLES = 5
RUN_DEADLINE_S = 170.0  # whole run, all processes; a run must end within 180 s


class BenchError(Exception):
    pass


def _spawn(args, deadline):
    """Run one worker; returns (spawn time, parsed last stdout line)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT)] + args
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=str(ROOT), text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {' '.join(args)} passed the run deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        raise BenchError("worker printed no report")
    return spawned, json.loads(lines[-1])


def src_digest():
    import hashlib

    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit():
    """HEAD of a git checkout, read without git; None elsewhere."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def run_workload(workload, seed, seconds, trace):
    deadline = time.monotonic() + RUN_DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            spawned, rep = _spawn(common + ["--setup-only"], deadline)
            setups.append((rep["ready"] - spawned, rep["setup_scale"]))
    spawned, rep = _spawn(common + ["--trace", str(trace)], deadline)
    setups.append((rep["ready"] - spawned, rep["setup_scale"]))
    metrics = rep["metrics"]
    if not trace:
        setup_s = statistics.median(measured * scale for measured, scale in setups)
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}, **metrics}
    context = dict(rep["context"], commit=commit(), src_digest=src_digest(),
                   measured_setup_s=[measured for measured, _ in setups],
                   setup_scale=[scale for _, scale in setups])
    result = {"correct": rep["failed"] == 0, "attempted": rep["attempted"], "failed": rep["failed"],
              "metrics": metrics}
    return result, context


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "axial" / "__init__.py").is_file():
        print(f"error: no axial sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            result, context = run_workload(name, args.seed, args.seconds, args.trace)
            print("context " + json.dumps(context, sort_keys=True))
            if args.workload == "all":
                for metric, m in result["metrics"].items():
                    print(f"{name:17s} {metric:45s} {m['value']:.6g} {m['unit']}")
            results[name] = result
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    final = results[args.workload] if args.workload != "all" else results
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
