"""In-memory span tracer for the traced benchmark run.

The tracer replaces shdiff's public functions at the module attributes their
callers look them up through (``shdiff.cli.load_prompt_set``,
``shdiff.metrics.execute_plan``, ...) and restores them on ``uninstall``.
Nothing inside ``src/`` changes.  A span is ``[id, parent id, job, name,
start_ns, end_ns]``; spans stay in memory until the run writes them out.
Counts derived from a call's arguments and result are added to the
observation counter of the enclosing root span (one ``shdiff.cli.main``
call) after the span has ended, inside a span of its own named
``trace.observe``, so deriving them is charged to the tracer, not to a layer.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter

from shdiff import cli, diffusion, metrics, planner, tree as tree_mod

ROOT = "cli.main"
OBSERVE = "trace.observe"


def _observe_tree(obs, args, kwargs, tree):
    obs["tree.trees"] += 1
    obs["tree.depth"] += tree.depth()
    obs["tree.inversions"] += tree.inversion_count


def _observe_plan(obs, args, kwargs, plan):
    sel_tree = kwargs.get("ablation_tree") or args[0]
    obs["planner.plans"] += 1
    obs["planner.evaluations"] += plan.total_evaluations
    obs["planner.active_max"] = max(obs["planner.active_max"],
                                    max(len(s.active) for s in plan.steps))
    for step in plan.steps:
        for node, src in step.inherit.items():
            if src == planner.FRESH:
                obs["planner.fresh_states"] += 1
            elif src != node:
                obs["planner.inherited_states"] += 1
    for pid, nodes in plan.assignment.items():
        obs["planner.solo_step_sum"] += nodes.index(sel_tree.leaf_of[pid]) + 1
        obs["planner.prompts"] += 1


def _observe_execute(obs, args, kwargs, result):
    obs["diffusion.executor_reported_calls"] += result.denoiser_calls


def _observe_quality(obs, args, kwargs, value):
    obs["metrics.quality_calls"] += 1
    obs["metrics.quality_mse_sum"] += value


# (module, attribute, span name, observer).  A span name of None counts calls
# without recording a span: the denoiser runs once per evaluation, and a span
# for each would cost more than the evaluation it brackets.
TARGETS = (
    (cli, "main", ROOT, None),
    (cli, "load_prompt_set", "embeddings.load", None),
    (tree_mod, "build_tree", "tree.build", _observe_tree),
    (tree_mod, "tree_from_json", "tree.from_json", _observe_tree),
    (tree_mod, "tree_to_json", "tree.to_json", None),
    (metrics, "compile_plan", "planner.compile", _observe_plan),
    (metrics, "execute_plan", "diffusion.execute", _observe_execute),
    (diffusion, "denoise_step", None, None),
    (diffusion, "stream", "rng.stream", None),
    (metrics, "stream", "rng.stream", None),
    (metrics, "quality_mse", "metrics.quality", _observe_quality),
    (metrics, "diversity_pairwise_cosine", "metrics.diversity", None),
)


def target_label(module, attr: str) -> str:
    return f"{module.__name__}.{attr}"


DENOISER = target_label(diffusion, "denoise_step")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.job: object = None
        self.observations: dict[int, Counter] = {}  # root span id -> counts
        self.last_root: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def install(self) -> None:
        for module, attr, name, observe in TARGETS:
            original = getattr(module, attr)
            self._patches.append((module, attr, original))
            setattr(module, attr, self._wrap(original, target_label(module, attr), name, observe))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, label: str, name: str | None, observe):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        if name is None:
            def counted(*args, **kwargs):
                if stack:
                    self.observations[stack[0]][label] += 1
                return fn(*args, **kwargs)
            return counted

        def traced(*args, **kwargs):
            sid = len(spans)
            span = [sid, stack[-1] if stack else None, self.job, name, 0, 0]
            spans.append(span)
            if not stack:
                self.observations[sid] = Counter()
                self.last_root = sid
            self.observations[stack[0] if stack else sid][label] += 1
            stack.append(sid)
            span[4] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = clock()
                stack.pop()
            if observe is not None:
                obs = self.observations[stack[0] if stack else sid]
                ospan = [len(spans), stack[-1] if stack else None, self.job, OBSERVE, clock(), 0]
                spans.append(ospan)
                observe(obs, args, kwargs, result)
                ospan[5] = clock()
            return result

        return traced

    def job_times(self, job) -> tuple[Counter, Counter, Counter]:
        """Spans, inclusive and self nanoseconds per span name for one job.

        Calls run on one thread, so a span's children never overlap and
        their summed durations are the time they cover."""
        count: Counter = Counter()
        incl: Counter = Counter()
        self_ns: Counter = Counter()
        for sid, parent, sjob, name, start, end in self.spans:
            if sjob != job:
                continue
            dur = end - start
            count[name] += 1
            incl[name] += dur
            self_ns[name] += dur
            if parent is not None:
                self_ns[self.spans[parent][3]] -= dur
        return count, incl, self_ns

    def write_spans(self, path: str) -> None:
        """JSON lines: a header naming the fields, then one array per span."""
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps(["id", "parent", "job", "name", "start_ns", "end_ns"]) + "\n")
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


# Per-layer time metric -> the span name whose inclusive time it reports.
LAYER_TIMES = {
    "embeddings.load_s": "embeddings.load",
    "tree.build_s": "tree.build",
    "tree.to_json_s": "tree.to_json",
    "tree.from_json_s": "tree.from_json",
    "planner.compile_s": "planner.compile",
    "diffusion.execute_s": "diffusion.execute",
    "rng.stream_s": "rng.stream",
    "metrics.quality_s": "metrics.quality",
    "metrics.diversity_s": "metrics.diversity",
    "cli.main_s": ROOT,
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_report(tracer: Tracer, traced_calls: list[dict], jobs: list[dict]) -> dict:
    """Per-layer metrics (means per traced job) and the tables behind them.

    A metric whose source function was never called in a traced job reads 0
    and is listed under "unmeasured"."""
    traced = [j for j in jobs if j["traced"]]
    ids = {j["job"] for j in traced}
    n = len(traced)
    count, incl, self_ns = Counter(), Counter(), Counter()
    for job in ids:
        c, i, s = tracer.job_times(job)
        count.update(c)
        incl.update(i)
        self_ns.update(s)
    obs: Counter = Counter()  # summed over the calls of traced jobs
    setup_obs: Counter = Counter()
    lookups = hits = active_max = 0
    for call in traced_calls:
        o = tracer.observations[call["root"]]
        if call["job"] not in ids:
            setup_obs.update(o)
            continue
        obs.update(o)
        obs["cli.bytes_written"] += call["bytes"]
        active_max = max(active_max, o["planner.active_max"])
        if call["command"] == "simulate":  # a simulate --tree call is one cache lookup
            lookups += 1
            loaded = o[target_label(tree_mod, "tree_from_json")]
            hits += loaded > 0 and o[target_label(tree_mod, "build_tree")] == 0
    streams = obs[target_label(diffusion, "stream")] + obs[target_label(metrics, "stream")]
    values = {name: (incl[span] / n / 1e9, "s") for name, span in LAYER_TIMES.items()}
    values.update({
        "tree.cache_hit_frac": (_ratio(hits, lookups), "ratio"),
        "tree.depth": (_ratio(obs["tree.depth"], obs["tree.trees"]), "count"),
        "tree.inversions": (_ratio(obs["tree.inversions"], obs["tree.trees"]), "count"),
        "planner.evaluations": (obs["planner.evaluations"] / n, "count"),
        "planner.active_max": (active_max, "count"),
        "planner.fresh_states": (obs["planner.fresh_states"] / n, "count"),
        "planner.inherited_states": (obs["planner.inherited_states"] / n, "count"),
        "planner.solo_step_mean": (_ratio(obs["planner.solo_step_sum"], obs["planner.prompts"]), "step"),
        "diffusion.us_per_eval": (_ratio(incl["diffusion.execute"] / 1e3, obs[DENOISER]), "us"),
        "diffusion.denoiser_calls": (obs[DENOISER] / n, "count"),
        "diffusion.calls_per_evaluation": (_ratio(obs[DENOISER], obs["planner.evaluations"]), "ratio"),
        "rng.streams": (streams / n, "count"),
        "metrics.quality_mse": (_ratio(obs["metrics.quality_mse_sum"], obs["metrics.quality_calls"]), "sq_err"),
        "cli.self_s": (self_ns[ROOT] / n / 1e9, "s"),
        "cli.bytes_written": (obs["cli.bytes_written"] / n, "bytes"),
    })
    # Calls behind each metric; a metric with none behind it is unmeasured.
    sources = {name: count[span] for name, span in LAYER_TIMES.items()}
    sources.update({
        "tree.cache_hit_frac": lookups, "tree.depth": obs["tree.trees"],
        "tree.inversions": obs["tree.trees"], "rng.streams": streams,
        "metrics.quality_mse": count["metrics.quality"], "cli.self_s": count[ROOT],
        "cli.bytes_written": count[ROOT],
    })
    sources.update({name: count["planner.compile"] for name in values if name.startswith("planner.")})
    sources.update({name: count["diffusion.execute"] for name in values
                    if name.startswith("diffusion.")})
    unmeasured = sorted(m for m in values if sources[m] == 0)
    job_wall = sum(j["wall_s"] for j in traced) / n
    self_table = {name: {"spans_per_job": count[name] / n,
                         "total_s_per_job": incl[name] / n / 1e9,
                         "self_s_per_job": self_ns[name] / n / 1e9,
                         "self_share_of_job": self_ns[name] / n / 1e9 / job_wall}
                  for name in sorted(self_ns, key=lambda k: -self_ns[k])}
    calls_table = {}
    for module, attr, _, _ in TARGETS:
        label = target_label(module, attr)
        calls_table[label] = {"setup": setup_obs[label],
                              "per_traced_job": obs[label] / n if obs[label] else "unmeasured"}
    untraced = [j["wall_s"] for j in jobs if not j["traced"]]
    return {
        "metrics": values,
        "unmeasured": unmeasured,
        "self_time": self_table,
        "calls": calls_table,
        "traced_jobs": n,
        "trace_overhead_s": statistics.median(j["wall_s"] for j in traced) - statistics.median(untraced),
        "untraced_job_s_p50": statistics.median(untraced),
    }
