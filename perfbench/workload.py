"""One workload process of the shdiff benchmark.

Started by ``run.py`` with BLAS pinned to one thread.  It generates its inputs
from the workload seed, sets up (cached tree and warm-up calls), then runs a
closed loop with one client: the next job starts when the previous one has
finished.  Each job is a fixed list of ``shdiff.cli.main(argv)`` calls made
in this process.  Every call's outputs are checked and digested outside the
timed part of the job.  The process prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import struct
import sys
import time
import traceback
from dataclasses import dataclass, replace

import numpy as np

SRC = os.path.abspath("src")
sys.path.insert(0, SRC)
import shdiff  # noqa: E402
from shdiff import cli, diffusion, tree as tree_mod  # noqa: E402

import tracing  # noqa: E402

ORACLE_K = 40  # the tau=0 oracle runs K=40 steps whatever the workload's K
WARMUP_CLUSTERS = (4, 8)  # clusters x prompts per cluster of the warm-up set
MAX_JOBS = 10_000
REPORT_DIR = os.path.join(".perfbench", "reports")


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is written in BENCHMARK.json and README.md."""

    fmt: str  # "jsonl" or "bin"
    clusters: int
    per_cluster: int
    dim: int
    jitters: tuple[float, ...]
    fresh_set_per_job: bool  # build-simulate: new set and tree build per job
    k: int
    taus: tuple[str, ...]
    variant: str
    sim_seeds: int  # distinct simulate seeds, cycled over jobs

    @property
    def n(self) -> int:
        return self.clusters * self.per_cluster

    @property
    def variants(self) -> int:
        """Jobs in one cycle; job j and job j + variants are configured alike."""
        return max(len(self.jitters), self.sim_seeds)


WORKLOADS = {
    "build-simulate": Workload("jsonl", 16, 32, 64, (0.05, 0.1, 0.2), True,
                               40, ("1",), "deterministic", 1),
    "cached-sweep": Workload("bin", 16, 16, 768, (0.03,), False,
                             40, ("0", "0.5", "1", "2"), "deterministic", 1),
    "ancestral-deep": Workload("bin", 16, 32, 64, (0.1,), False,
                               200, ("1",), "ancestral", 3),
}


def derive(seed: int, *parts: int) -> int:
    """A 32-bit integer that depends only on the workload seed and parts."""
    return int(np.random.SeedSequence([seed, *parts]).generate_state(1)[0])


def write_set(path: str, w: Workload, jitter: float, seed: int) -> tuple[str, ...]:
    """Write a clustered unit-norm prompt set; return its ids in file order."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((w.clusters, w.dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    rows = np.repeat(centers, w.per_cluster, axis=0)
    rows += jitter * rng.standard_normal(rows.shape)
    rows = (rows / np.linalg.norm(rows, axis=1, keepdims=True)).astype("<f4")
    if w.fmt == "bin":
        with open(path, "wb") as f:
            f.write(b"SHDF" + struct.pack("<HQI", 1, *rows.shape) + rows.tobytes())
        return tuple(str(i) for i in range(len(rows)))
    ids = tuple(f"p{i}" for i in range(len(rows)))
    with open(path, "w", encoding="utf-8") as f:
        for pid, row in zip(ids, rows.tolist()):
            f.write(json.dumps({"id": pid, "embedding": row}) + "\n")
    return ids


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class Call:
    argv: list[str]
    outputs: list[str]
    ids: tuple[str, ...] = ()  # simulate calls: prompt ids of the input set
    tree: str = ""
    k: int = 0
    tau: float = 0.0
    seed: int = 0

    @property
    def simulate(self) -> bool:
        return self.argv[0] == "simulate"


class Bench:
    def __init__(self, name: str, seed: int, work: str, tracer: tracing.Tracer | None):
        self.w = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.tracer = tracer
        self.sets: dict[int, tuple[str, tuple[str, ...]]] = {}
        self.cached_tree = os.path.join(work, "cached.tree.json")
        self.digests: dict[str, dict[str, str]] = {}
        self.leaves: dict[str, dict[str, int]] = {}  # tree sha256 -> leaf of prompt
        self.traced_calls: list[dict] = []

    # -- inputs and jobs ---------------------------------------------------

    def input_set(self, j: int) -> tuple[str, tuple[str, ...]]:
        """Path and ids of the set job j reads, generated on first use."""
        key = j if self.w.fresh_set_per_job else 0
        if key not in self.sets:
            path = os.path.join(self.work, f"set{key}.{self.w.fmt}")
            jitter = self.w.jitters[key % len(self.w.jitters)]
            self.sets[key] = (path, write_set(path, self.w, jitter, derive(self.seed, 1, key)))
        return self.sets[key]

    def tree_call(self, j: int) -> Call:
        path, _ = self.input_set(j)
        out = os.path.join(self.work, "job", "t.json") if self.w.fresh_set_per_job else self.cached_tree
        return Call(["tree", "--input", path, "--output", out], [out])

    def simulate_call(self, j: int, tau: str, k: int) -> Call:
        path, ids = self.input_set(j)
        tree = self.tree_call(j).outputs[0]
        seed = derive(self.seed, 2, j % self.w.sim_seeds)
        return self.simulate(path, ids, tree, tau, k, seed, f"k{k}-tau{tau}")

    def simulate(self, path: str, ids: tuple[str, ...], tree: str, tau: str, k: int,
                 seed: int, name: str) -> Call:
        stem = os.path.join(self.work, "job", name)
        argv = ["simulate", "--input", path, "--tree", tree, "--k", str(k), "--tau", tau,
                "--variant", self.w.variant, "--seed", str(seed),
                "--output", stem + ".samples.jsonl", "--metrics", stem + ".metrics.json"]
        return Call(argv, [stem + ".samples.jsonl", stem + ".metrics.json"],
                    ids, tree, k, float(tau), seed)

    def job_calls(self, j: int) -> list[Call]:
        calls = [self.tree_call(j)] if self.w.fresh_set_per_job else []
        return calls + [self.simulate_call(j, tau, self.w.k) for tau in self.w.taus]

    def warmup_calls(self) -> list[Call]:
        """A tree and a simulate call on a small set of the workload's format,
        dimension and K: first-use costs are paid before timing, at a small
        fraction of a job's cost."""
        small = replace(self.w, clusters=WARMUP_CLUSTERS[0], per_cluster=WARMUP_CLUSTERS[1])
        path = os.path.join(self.work, f"warmup.{small.fmt}")
        ids = write_set(path, small, small.jitters[0], derive(self.seed, 3))
        tree = os.path.join(self.work, "job", "warmup.tree.json")
        return [Call(["tree", "--input", path, "--output", tree], [tree]),
                self.simulate(path, ids, tree, self.w.taus[-1], self.w.k,
                              derive(self.seed, 4), "warmup")]

    # -- running and checking one call -------------------------------------

    def invoke(self, call: Call) -> tuple[int, str]:
        """Run one CLI call in-process; return its exit code and captured output.

        An exception escaping the CLI fails the job, not the benchmark."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            try:
                rc = cli.main(call.argv)
            except Exception:  # noqa: BLE001 - recorded as the job's failure
                traceback.print_exc(file=out)
                rc = -1
        return rc, out.getvalue()

    def check(self, call: Call, rc: int, captured: str) -> list[str]:
        """Output checks and digests of one finished call; returns the errors."""
        if rc != 0:
            return [f"exit code {rc}: {captured.strip()[-300:]}"]
        try:
            digests = {os.path.basename(p): sha256(p) for p in call.outputs}
            key = " ".join(call.argv).replace(self.work, "<work>")
            if self.digests.setdefault(key, digests) != digests:
                return [f"outputs differ from an identical earlier call: {key}"]
            return self.check_simulate(call) if call.simulate else []
        except (OSError, ValueError, KeyError, TypeError, IndexError) as e:
            return [f"unreadable output: {e!r}"]

    def leaf_map(self, tree_path: str) -> dict[str, int]:
        digest = sha256(tree_path)
        if digest not in self.leaves:
            with open(tree_path, encoding="utf-8") as f:
                nodes = json.load(f)["nodes"]
            self.leaves[digest] = {n["members"][0]: n["id"] for n in nodes if not n["children"]}
        return self.leaves[digest]

    def check_simulate(self, call: Call) -> list[str]:
        samples, metrics_path = call.outputs
        name = os.path.basename(samples)
        n, k = len(call.ids), call.k
        leaf = self.leaf_map(call.tree)
        with open(samples, encoding="utf-8") as f:
            rows = [json.loads(line) for line in f]
        with open(metrics_path, encoding="utf-8") as f:
            m = json.load(f)
        if [r["id"] for r in rows] != list(call.ids):
            return [f"{name}: expected {n} rows in input order"]
        evaluated = set()
        for r in rows:
            trace = r["trace"]
            if len(r["sample"]) != self.w.dim or [s for _, s in trace] != list(range(1, k + 1)):
                return [f"{name}: prompt {r['id']} has a malformed sample or trace"]
            if trace[-1][0] != leaf[r["id"]]:
                return [f"{name}: trace of prompt {r['id']} does not end at its leaf"]
            evaluated.update(map(tuple, trace))
        evals, baseline = len(evaluated), n * k
        expected = {"N": n, "K": k, "tau": call.tau, "evaluations_total": evals,
                    "baseline_evaluations": baseline, "savings_fraction": 1.0 - evals / baseline}
        return [f"{os.path.basename(metrics_path)}: {key}={m.get(key)!r}, expected {want!r}"
                for key, want in expected.items() if m.get(key) != want]

    def check_traced(self, call: Call, root: int) -> list[str]:
        """The denoiser must run once per planned evaluation inside this call."""
        if not call.simulate:
            return []
        with open(call.outputs[1], encoding="utf-8") as f:
            evals = json.load(f)["evaluations_total"]
        obs = self.tracer.observations[root]
        calls = obs[tracing.DENOISER]
        reported = obs["diffusion.executor_reported_calls"]
        if calls != evals or reported != evals:
            return [f"denoiser ran {calls} times (executor reports {reported}) "
                    f"for {evals} evaluations"]
        return []

    # -- jobs, set-up, loop ------------------------------------------------

    def run_calls(self, calls: list[Call], job, traced: bool) -> dict:
        """Run calls in order, timing them as one job; check them afterwards."""
        shutil.rmtree(os.path.join(self.work, "job"), ignore_errors=True)
        os.makedirs(os.path.join(self.work, "job"))
        if traced:
            self.tracer.job = job
            self.tracer.install()
        done = []
        t0 = time.perf_counter()
        try:
            for call in calls:
                rc, captured = self.invoke(call)
                root = self.tracer.last_root if traced else None
                done.append((call, rc, captured, time.perf_counter() - t0, root))
                if rc != 0:
                    break
        finally:
            wall = time.perf_counter() - t0
            if traced:
                self.tracer.uninstall()
        errors, savings = [], []
        for call, rc, captured, _, root in done:
            call_errors = self.check(call, rc, captured)
            if traced:
                self.traced_calls.append({
                    "job": job, "command": call.argv[0], "root": root,
                    "bytes": sum(os.path.getsize(p) for p in call.outputs if os.path.exists(p))})
                if not call_errors:
                    call_errors = self.check_traced(call, root)
            errors += call_errors
            if call.simulate and not call_errors:
                with open(call.outputs[1], encoding="utf-8") as f:
                    savings.append(json.load(f)["savings_fraction"])
        if len(done) < len(calls) and not errors:
            errors.append("job stopped early")
        return {"job": job, "traced": traced, "wall_s": wall, "ok": not errors,
                "errors": errors[:5], "savings": savings,
                "calls": [[c.argv[0], round(t, 6), rc] for c, rc, _, t, _ in done]}

    def run_job(self, j: int, traced: bool = False) -> dict:
        calls = self.job_calls(j)
        result = self.run_calls(calls, j, traced)
        result["variant"] = j % self.w.variants
        result["prompts"] = self.w.n * len(result["savings"])
        return result

    def setup(self) -> dict:
        """Inputs, the cached tree (cached workloads only) and a warm-up."""
        t0 = time.perf_counter()
        self.input_set(0)
        input_s = time.perf_counter() - t0
        calls = [] if self.w.fresh_set_per_job else [self.tree_call(0)]
        calls += self.warmup_calls()
        result = self.run_calls(calls, "setup", self.tracer is not None)
        return {"input_s": input_s, "calls": result["calls"],
                "ok": result["ok"], "errors": result["errors"]}

    def loop(self, seconds: float) -> list[dict]:
        """Closed loop, one client, until `seconds` of job time and one full
        cycle of job variants are done.  A traced run pairs each job with a
        traced copy of it, so the pair's difference is the tracing overhead."""
        jobs: list[dict] = []
        timed = 0.0
        start = time.monotonic()
        j = 0
        while (timed < seconds or j < self.w.variants) and j < MAX_JOBS:
            if time.monotonic() - start > 2 * seconds + 60:
                break  # a much slower program must still finish within run.py's limit
            for traced in ((False, True) if self.tracer else (False,)):
                jobs.append(self.run_job(j, traced))
                timed += jobs[-1]["wall_s"]
            j += 1
        return jobs

    def oracle(self) -> dict:
        """tau=0 on the last job's set and tree must equal per-prompt standard
        diffusion (run_standard) bit for bit, as stored in the samples file."""
        j = max(self.sets) if self.w.fresh_set_per_job else 0
        call = self.simulate_call(j, "0", ORACLE_K)
        tree = [self.tree_call(j)] if self.w.fresh_set_per_job else []
        result = self.run_calls(tree + [call], "oracle", False)
        if not result["ok"]:
            return {"ok": False, "errors": result["errors"]}
        with open(call.tree, encoding="utf-8") as f:
            tree = tree_mod.tree_from_json(f.read())
        world = diffusion.ToyWorld.create(self.w.dim, self.w.dim, 1.0)
        schedule = diffusion.make_schedule(ORACLE_K, self.w.variant, diffusion.CURVE_COSINE)
        standard = diffusion.run_standard(tree, world, schedule, call.seed).outputs
        with open(call.outputs[0], encoding="utf-8") as f:
            rows = [json.loads(line) for line in f]
        bad = [r["id"] for r in rows
               if r["trace"] != [list(t) for t in standard[r["id"]].trace]
               or not np.array_equal(np.array(r["sample"]),
                                     standard[r["id"]].sample.astype(np.float32))]
        errors = [f"{len(bad)} prompts differ from run_standard, first {bad[0]!r}"] if bad else []
        return {"ok": not bad, "errors": errors, "k": ORACLE_K, "variant": self.w.variant}


def end_to_end(jobs: list[dict]) -> dict:
    """End-to-end metrics of untraced jobs; the RSS peak so far is the loop's."""
    ok = [j for j in jobs if j["ok"]]
    by_variant: dict[int, list[float]] = {}
    for j in ok:
        if j["savings"]:
            by_variant.setdefault(j["variant"], []).append(statistics.fmean(j["savings"]))
    savings = [statistics.fmean(v) for v in by_variant.values()]
    return {
        "prompts_per_s": (sum(j["prompts"] for j in ok) / sum(j["wall_s"] for j in jobs), "prompts/s"),
        "job_s_p50": (statistics.median(j["wall_s"] for j in jobs), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": (len(ok) / len(jobs), "ratio"),
        "savings_fraction": (statistics.fmean(savings) if savings else 0.0, "ratio"),
    }


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "pinned": {k: os.environ.get(k) for k in
                   ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "PYTHONHASHSEED")},
        "machine": platform.machine(),
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() of the parent just before it started this process")
    args = p.parse_args()
    if not os.path.abspath(shdiff.__file__).startswith(SRC + os.sep):
        print(f"shdiff was imported from {shdiff.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    tracer = tracing.Tracer() if args.trace else None
    work = os.path.abspath(os.path.join(".perfbench", f"work-{os.getpid()}"))
    os.makedirs(work)
    try:
        bench = Bench(args.workload, args.seed, work, tracer)
        out = {"setup": bench.setup()}
        out["setup"]["setup_s"] = time.monotonic() - args.spawned_at
        if not args.setup_only:
            jobs = bench.loop(args.seconds)
            if tracer is None:
                out["end_to_end"] = end_to_end(jobs)
            out["oracle"] = bench.oracle()
            out["jobs"] = jobs
            out["digests"] = bench.digests
            out["env"] = environment()
            if tracer is not None:
                out["layers"] = tracing.layer_report(tracer, bench.traced_calls, jobs)
                os.makedirs(REPORT_DIR, exist_ok=True)
                tracer.write_spans(os.path.join(
                    REPORT_DIR, f"{args.workload}-seed{args.seed}.spans.jsonl"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
