"""Command-line interface: tree building, planning, simulation, tau sweeps.

Every subcommand is a pure function of its input files, flags, and seed;
repeated invocations produce byte-identical artifacts.  Output files are
written atomically (temp file + rename).  Exit codes: 0 success, 2 usage or
configuration error, 3 data error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import diffusion, metrics, planner, tree as tree_mod
from .embeddings import (atomic_write, float32_rows_text, generate_synthetic,
                         load_prompt_set, save_prompt_set)
from .errors import DataError, UsageError


def _require_input(path: str) -> None:
    if not os.path.isfile(path):
        raise UsageError(f"input file not found: {path}")


def _check_outputs(args) -> None:
    """Raise UsageError if an output path names an input or another output,
    which writing it would replace."""
    taken = {os.path.realpath(path): f"--{name}" for name in ("input", "tree", "world")
             if (path := getattr(args, name, None))}
    for name in ("output", "metrics"):
        path = getattr(args, name, None)
        if path:
            real = os.path.realpath(path)
            if real in taken:
                raise UsageError(f"--{name} {path} is the same file as {taken[real]}")
            taken[real] = f"--{name}"


def _seed(args, file_seed: int = 0) -> int:
    """The master seed: --seed when given, else the world file's, else 0."""
    return file_seed if args.seed is None else args.seed


def _load_prompts(args) -> "tuple":
    _require_input(args.input)
    try:
        prompts = load_prompt_set(args.input)
    except OSError as e:
        raise DataError(f"cannot read {args.input}: {e}") from e
    if getattr(args, "normalize", False):
        prompts = prompts.normalized()
    return prompts


def _leaves_match(tree, prompts) -> bool:
    """True if leaf i of the tree is prompt i, with its row bit for bit."""
    if tree.leaf_ids != prompts.ids:
        return False
    rows = tree.means[:len(prompts)].astype(np.float32)
    return rows.shape == prompts.embeddings.shape and \
        np.array_equal(rows.view(np.uint32), prompts.embeddings.view(np.uint32))


def _plan_tree(args, prompts, seed: int):
    """The one tree ``tree``, ``plan``, ``simulate`` and ``sweep`` run on.

    Under ``--ablation random-encodings`` it is the tree built on random
    encodings drawn with ``seed`` and re-embedded with the real prompts: its
    ids, parents and scores select the nodes, and real means condition
    generation.  Otherwise a cached tree JSON is reused when its leaves are
    this run's prompts after ``--normalize``, ids in input order and rows
    bit for bit: all that ``build_tree`` reads.  Any other loadable tree, a
    file in another format, or a path that is not a file, is rebuilt with a
    warning.
    """
    cached = getattr(args, "tree", None)
    if args.ablation is not None:
        if cached:
            raise UsageError("--tree cannot be combined with --ablation")
        random_tree = tree_mod.build_tree(tree_mod.randomize_encodings(prompts, seed))
        return tree_mod.reembed(random_tree, prompts)
    if cached:
        tree = None  # also for a path that is not a file
        try:
            if os.path.isfile(cached):
                with open(cached, "rb") as f:
                    tree = tree_mod.tree_from_json(f.read())  # the text is freed on return
        except tree_mod.TreeFormatError:
            pass
        except DataError as e:
            raise DataError(f"{cached}: {e}") from e
        if tree is not None and _leaves_match(tree, prompts):
            return tree
        print(f"warning: {cached} does not match input or options, rebuilding", file=sys.stderr)
    return tree_mod.build_tree(prompts)


def cmd_tree(args) -> int:
    if args.ablation is not None and args.output:
        raise UsageError("--output cannot be combined with --ablation: "
                         "no command reads an ablation tree")
    prompts = _load_prompts(args)
    tree = _plan_tree(args, prompts, _seed(args))
    if args.output:
        atomic_write(args.output, tree_mod.tree_to_json(tree))
    label = " (ablation: random encodings)" if args.ablation is not None else ""
    print(f"N: {len(prompts)}{label}")
    print(f"depth: {tree.depth()}")
    print(f"c_max: {tree.c_max}")
    print(f"inversion_count: {tree.inversion_count}")
    return 0


def cmd_plan(args) -> int:
    prompts = _load_prompts(args)
    tree = _plan_tree(args, prompts, _seed(args))
    params = planner.ScheduleParams(K=args.k, tau=args.tau, phi_variant=args.phi)
    plan = planner.compile_plan(tree, params)
    if args.output:
        atomic_write(args.output, planner.plan_to_json(plan))
    print(f"savings: {plan.savings_fraction * 100:.2f}%")
    return 0


def _resolve_world(args, prompts):
    """The world, schedule and seed of ``simulate`` and ``sweep``: the world
    file's values, or the defaults without one, each overridden by its flag."""
    d = prompts.dimension
    if args.world:
        _require_input(args.world)
        with open(args.world, "rb") as f:
            world, (k, variant, curve), file_seed = diffusion.world_from_json(f.read(), d)
        seed = _seed(args, file_seed)
    else:
        world = diffusion.ToyWorld.create(d, d, 1.0)
        k, variant, curve = 40, diffusion.DETERMINISTIC, diffusion.CURVE_COSINE
        seed = _seed(args)
    if args.target_std is not None:
        world = replace(world, target_std=args.target_std)
    schedule = diffusion.make_schedule(k if args.k is None else args.k,
                                       variant if args.variant is None else args.variant,
                                       curve if args.schedule is None else args.schedule)
    return world, schedule, seed


def cmd_simulate(args) -> int:
    prompts = _load_prompts(args)
    world, schedule, seed = _resolve_world(args, prompts)
    tree = _plan_tree(args, prompts, seed)
    params = planner.ScheduleParams(K=schedule.K, tau=args.tau, phi_variant=args.phi)
    plan, result, run_metrics = metrics.run_once(prompts, tree, world, schedule, params, seed)
    # Each span's "[node, k]" items are written as text once and joined per
    # prompt, which gives the bytes of json.dumps of the row's dict.
    span_text = {node: f"[{node}, " + f"], [{node}, ".join(map(str, range(start, stop))) + "]"
                 for node, (start, stop, _) in plan.spans.items()}
    with np.errstate(over="ignore"):  # a value beyond float32 becomes inf
        samples = np.array([result.outputs[pid].sample for pid in prompts.ids], dtype=np.float32)
    finite = np.isfinite(samples).all(axis=1)
    if not finite.all():  # strict JSON has no Infinity or NaN
        raise DataError(f"sample of prompt {prompts.ids[int(finite.argmin())]!r} "
                        "is not finite in float32")
    # One line at a time, so the file is never held in memory whole.
    atomic_write(args.output, (
        f'{{"id": {json.dumps(pid)}, "sample": {sample}, '
        f'"trace": [{", ".join(span_text[node] for node in plan.paths[pid])}]}}\n'
        for pid, sample in zip(prompts.ids, float32_rows_text(samples))))
    atomic_write(args.metrics,
                 metrics.metrics_to_json(run_metrics, schedule.K, len(prompts), args.tau))
    print(f"savings: {plan.savings_fraction * 100:.2f}%")
    print(f"quality_mse: {run_metrics.mean_squared_error_to_target:.6g}")
    return 0


def cmd_sweep(args) -> int:
    prompts = _load_prompts(args)
    world, schedule, seed = _resolve_world(args, prompts)
    try:
        taus = [float(v) for v in args.sweep.split(",") if v.strip() != ""]
    except ValueError as e:
        raise UsageError(f"bad --sweep list: {e}") from e
    if not taus:
        raise UsageError("--sweep needs at least one tau value")
    tree = _plan_tree(args, prompts, seed)
    rows = metrics.sweep_tau(prompts, tree, world, schedule, taus, seed, phi_variant=args.phi)
    csv_text = metrics.sweep_csv(rows, schedule.K, len(prompts))
    if args.output:
        atomic_write(args.output, csv_text)
    else:
        sys.stdout.write(csv_text)
    return 0


def cmd_synth(args) -> int:
    prompts = generate_synthetic(args.clusters, args.per_cluster, args.dim,
                                 args.jitter, args.seed)
    save_prompt_set(prompts, args.output, "binary" if args.output.endswith(".bin") else "jsonl")
    print(f"wrote {len(prompts)} embeddings (d={prompts.dimension}) to {args.output}")
    return 0


def _add_common(p, with_tau=True):
    p.add_argument("--input", required=True, help="prompt set (JSONL or SHDF binary)")
    p.add_argument("--output", help="output artifact path")
    p.add_argument("--seed", type=int, default=None, help="master seed (default 0)")
    p.add_argument("--normalize", action="store_true",
                   help="L2-normalize embeddings on ingestion")
    p.add_argument("--ablation", choices=["random-encodings"], default=None)
    if with_tau:
        p.add_argument("--tau", type=float, default=1.0)
        p.add_argument("--phi", choices=["main", "appendix"], default="main")


def _add_world(p):
    """The world and schedule options of ``simulate`` and ``sweep``."""
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--world", help="world config JSON")
    p.add_argument("--schedule", choices=["cosine", "linear-beta"], default=None)
    p.add_argument("--variant", choices=["deterministic", "ancestral"], default=None)
    p.add_argument("--target-std", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="shdiff",
                                     description="Shared-step diffusion planner and simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tree", help="build the embedding tree")
    _add_common(p, with_tau=False)

    p = sub.add_parser("plan", help="compile a shared-step plan")
    _add_common(p)
    p.add_argument("--k", type=int, default=40)
    p.add_argument("--tree", help="cached tree JSON (reused if its leaves are the input rows)")

    p = sub.add_parser("simulate", help="execute a plan against the toy world")
    _add_common(p)
    _add_world(p)
    p.add_argument("--tree", help="cached tree JSON")
    p.add_argument("--metrics", help="metrics JSON path")

    p = sub.add_parser("sweep", help="run a tau sweep and emit CSV")
    _add_common(p, with_tau=False)
    p.add_argument("--phi", choices=["main", "appendix"], default="main")
    _add_world(p)
    p.add_argument("--sweep", required=True, help="comma-separated tau values")

    p = sub.add_parser("synth", help="generate a synthetic prompt set")
    p.add_argument("--clusters", type=int, required=True)
    p.add_argument("--per-cluster", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--jitter", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    return parser


_COMMANDS = {
    "tree": cmd_tree,
    "plan": cmd_plan,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "synth": cmd_synth,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "simulate":
        args.output = args.output or "samples.jsonl"
        args.metrics = args.metrics or os.path.splitext(args.output)[0] + ".metrics.json"
    if getattr(args, "schedule", None) == "linear-beta":
        args.schedule = diffusion.CURVE_LINEAR_BETA
    try:
        _check_outputs(args)
        return _COMMANDS[args.command](args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (DataError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
