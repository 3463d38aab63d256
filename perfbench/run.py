"""shdiff benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a shdiff checkout (it imports ``src/shdiff``; nothing is
installed).  Each workload runs in a fresh process, ``workload.py``, with
BLAS pinned to one thread.  With ``--trace 0`` the workload is first set up
in two extra processes, so that ``setup_s`` is a median of three, and the
last line printed is the end-to-end metrics.  With ``--trace 1`` one process
runs each job untraced and then traced, and the last line is the per-layer
metrics.  A report with every job, the output digests, the environment and,
when traced, the self-time and call-count tables is written to
``.perfbench/reports/``; traced runs also write their spans there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("build-simulate", "cached-sweep", "ancestral-deep")
SETUP_RUNS = 3
RUN_LIMIT_S = 170
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
REPORT_DIR = os.path.join(".perfbench", "reports")


class WorkloadFailed(Exception):
    pass


def spawn(args, deadline: float, setup_only: bool = False) -> dict:
    """Run one workload process to completion and return what it printed."""
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **PINNED_ENV)
    started = time.monotonic()  # same clock as the child's time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(started)],
                            stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
            # A killed workload process leaves its scratch directory behind.
            shutil.rmtree(os.path.join(".perfbench", f"work-{proc.pid}"), ignore_errors=True)
    if proc.returncode != 0:
        raise WorkloadFailed(f"workload process exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def digest_of(digests: dict) -> str:
    return hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()


def summarize(report: dict) -> None:
    w = sys.stderr.write
    w(f"{report['workload']} seed={report['seed']} trace={report['trace']}: "
      f"{report['attempted']} jobs, {report['failed']} failed, "
      f"set-up {'ok' if all(s['ok'] for s in report['setups']) else 'FAILED'}, "
      f"oracle {'ok' if report['oracle']['ok'] else 'FAILED'}, outputs {report['digest'][:16]}\n")
    for name, m in report["metrics"].items():
        w(f"  {name:32s} {m['value']:.6g} {m['unit']}\n")
    layers = report.get("layers")
    if layers:
        w(f"  trace overhead {layers['trace_overhead_s']:+.4f} s on a "
          f"{layers['untraced_job_s_p50']:.4f} s job; unmeasured: "
          f"{', '.join(layers['unmeasured']) or 'none'}\n")
        w(f"  {'span':20s} {'per job':>8s} {'total s':>10s} {'self s':>10s} {'self %':>7s}\n")
        for name, row in layers["self_time"].items():
            w(f"  {name:20s} {row['spans_per_job']:8.6g} {row['total_s_per_job']:10.4f} "
              f"{row['self_s_per_job']:10.4f} {100 * row['self_share_of_job']:6.1f}%\n")
        for label, row in layers["calls"].items():
            w(f"  {label:42s} setup {row['setup']:<8} per traced job {row['per_traced_job']}\n")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not os.path.isfile(os.path.join("src", "shdiff", "cli.py")):
        print("run.py: src/shdiff not found; run from the root of a shdiff checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        setups = [] if args.trace else [spawn(args, deadline, setup_only=True)["setup"]
                                        for _ in range(SETUP_RUNS - 1)]
        run = spawn(args, deadline)
    except (WorkloadFailed, subprocess.TimeoutExpired, ValueError, KeyError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    setups.append(run["setup"])
    jobs = run["jobs"]
    failed = sum(not j["ok"] for j in jobs)
    if args.trace:
        metrics = run["layers"]["metrics"]
    else:
        metrics = {"setup_s": (statistics.median(s["setup_s"] for s in setups), "s")}
        metrics.update(run["end_to_end"])
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": len(jobs), "failed": failed,
        "metrics": metrics, "oracle": run["oracle"], "env": run["env"],
        "digest": digest_of(run["digests"]), "digests": run["digests"],
        "setups": setups, "jobs": jobs, "layers": run.get("layers"),
    }
    os.makedirs(REPORT_DIR, exist_ok=True)
    with open(os.path.join(REPORT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1)
    summarize(report)
    correct = failed == 0 and run["oracle"]["ok"] and all(s["ok"] for s in setups)
    print(json.dumps({"correct": correct, "attempted": len(jobs),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
