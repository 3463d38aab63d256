"""Oracles: slow, plain implementations that the tests check shdiff against.

Each is written from the definition it checks rather than from the code
under test, and no module of the package imports this one:

- ``reference_build_tree`` recomputes every cluster mean and pair distance
  each round, for ``tree.build_tree`` (Muellner's generic algorithm,
  arXiv:1109.2378), which must give the ``same_tree``;
- ``select_node`` walks one prompt's root path per step, for
  ``planner.compile_plan``;
- ``analytic_epsilon`` is the closed-form noise prediction, for
  ``diffusion.denoise_step``, and ``mc_epsilon_regression`` estimates the
  same quantity by Monte Carlo;
- ``per_call_step`` is ``denoise_step`` with its scalars derived per call,
  for ``diffusion.step_table``;
- ``replay_trace`` reruns one prompt's trace alone, for
  ``diffusion.execute_plan``.

``diffusion.run_standard`` stays in the package: the benchmark's oracle
calls it.
"""

import math

import numpy as np

from shdiff.diffusion import ANCESTRAL, DETERMINISTIC, denoise_step, step_table
from shdiff.embeddings import unit_distances, unit_rows
from shdiff.planner import phi
from shdiff.rng import TAG_INIT, TAG_STEP, stream
from shdiff.tree import _finalize

REFERENCE_MAX_N = 64


def _cluster_mean(prompts, members: list[int]) -> np.ndarray:
    """The members' float64 rows summed from -0.0 in sorted-id order, over
    their count (-0.0 + v is v for every v; numpy's default +0.0 is not)."""
    rows = prompts.embeddings[sorted(members, key=prompts.ids.__getitem__)].astype(np.float64)
    return np.sum(rows, axis=0, initial=-0.0) / len(rows)


def _tie_key(min_a: str, min_b: str) -> tuple[str, str]:
    # Deterministic order for equal distances: lexicographically smallest
    # (min member id, max member id) over the two clusters' representatives.
    return (min(min_a, min_b), max(min_a, min_b))


def reference_build_tree(prompts):
    """Centroid-linkage clustering by brute force: every round recomputes
    each live cluster's mean and every pair's cosine distance through the
    one kernel, ``unit_rows`` and ``unit_distances``, and merges the closest
    pair, ties going to the smallest ``_tie_key``.  Merge i makes node N+i."""
    n = len(prompts)
    if n > REFERENCE_MAX_N:
        raise ValueError(f"reference_build_tree is capped at N={REFERENCE_MAX_N}")
    members = {i: [i] for i in range(n)}
    minid = {i: prompts.ids[i] for i in range(n)}
    alive = list(range(n))
    means = np.empty((2 * n - 1, prompts.dimension))
    means[:n] = prompts.embeddings
    children: list[tuple[int, int]] = []
    distances: list[float] = []
    for nid in range(n, 2 * n - 1):
        units = unit_rows(np.array([_cluster_mean(prompts, members[c]) for c in alive]))
        best = None
        for x in range(len(alive)):
            for y in range(x + 1, len(alive)):
                a, b = alive[x], alive[y]
                d = float(unit_distances(units[x], units[y:y + 1])[0])
                cand = (d, _tie_key(minid[a], minid[b]), a, b)
                if best is None or cand < best:
                    best = cand
        d, _, a, b = best
        members[nid] = members[a] + members[b]
        means[nid] = _cluster_mean(prompts, members[nid])
        children.append((a, b))
        distances.append(d)
        minid[nid] = min(minid[a], minid[b])
        alive = [c for c in alive if c not in (a, b)] + [nid]
    return _finalize(prompts.ids, children, distances, means)


def same_tree(t1, t2) -> bool:
    """True if the trees number their nodes alike: the same leaves and
    parents, the same children up to the order within a pair, and raw
    scores and means equal bit for bit."""
    return (t1.leaf_ids == t2.leaf_ids and np.array_equal(t1.parent, t2.parent)
            and np.array_equal(np.sort(t1.children, axis=1), np.sort(t2.children, axis=1))
            and t1.raw_score.tobytes() == t2.raw_score.tobytes()
            and t1.means.tobytes() == t2.means.tobytes())


def path_to_root(tree, prompt_id: str) -> list[int]:
    """Node ids from the prompt's leaf up to the root (leaf first)."""
    path = [tree.leaf_of[prompt_id]]
    while tree.parent[path[-1]] >= 0:
        path.append(int(tree.parent[path[-1]]))
    return path


def select_node(tree, prompt_id: str, k: int, params) -> int:
    """Tree node whose mean embedding conditions step k for this prompt.

    On the prompt's root-first path a node is eligible while its parent's
    score is >= phi_k (the root's virtual parent has score +inf); the
    shallowest eligible node of least score is selected.  Defined for any
    scores, monotone or not.
    """
    phi_k = phi(k, params)
    path = path_to_root(tree, prompt_id)[::-1]  # root first
    best, parent_score = path[0], math.inf
    for node in path:
        if parent_score < phi_k:
            break
        if tree.score[node] < tree.score[best]:
            best = node
        parent_score = tree.score[node]
    return best


def analytic_epsilon(world, x_k, alpha_bar_k: float, mu) -> np.ndarray:
    """Optimal noise prediction E[eps | x_k] for the Gaussian target with
    mean mu = world.target_mean(condition) and std s = world.target_std.

    Posterior mean of the clean sample is
        x0_hat = mu + (sqrt(ab) s^2 / (ab s^2 + 1 - ab)) * (x_k - sqrt(ab) mu)
    and eps_hat = (x_k - sqrt(ab) x0_hat) / sqrt(1 - ab).
    """
    ab = alpha_bar_k
    if not 0.0 < ab < 1.0:
        raise ValueError("alpha_bar must be in (0, 1)")
    x_k, mu = np.asarray(x_k, dtype=np.float64), np.asarray(mu, dtype=np.float64)
    s2 = world.target_std ** 2
    x0_hat = mu + (math.sqrt(ab) * s2 / (ab * s2 + 1.0 - ab)) * (x_k - math.sqrt(ab) * mu)
    return (x_k - math.sqrt(ab) * x0_hat) / math.sqrt(1.0 - ab)


def mc_epsilon_regression(world, x_query, alpha_bar, condition, n=100_000, seed=11):
    """Per-coordinate OLS of eps on x over forward samples: an estimate of
    E[eps | x_query] and its standard error."""
    rng = np.random.default_rng(seed)
    m = world.data_dimension
    mu = world.target_mean(condition)
    x0 = mu + world.target_std * rng.standard_normal((n, m))
    eps = rng.standard_normal((n, m))
    x = np.sqrt(alpha_bar) * x0 + np.sqrt(1 - alpha_bar) * eps
    pred = np.empty(m)
    se = np.empty(m)
    for j in range(m):
        design = np.column_stack([np.ones(n), x[:, j]])
        coef, *_ = np.linalg.lstsq(design, eps[:, j], rcond=None)
        resid = eps[:, j] - design @ coef
        s2 = resid @ resid / (n - 2)
        xb = x[:, j].mean()
        sxx = ((x[:, j] - xb) ** 2).sum()
        pred[j] = coef[0] + coef[1] * x_query[j]
        se[j] = np.sqrt(s2 * (1.0 / n + (x_query[j] - xb) ** 2 / sxx))
    return pred, se


def per_call_step(x_k, k, mu, schedule, world, noise):
    """denoise_step as it was before the step table: every call converts its
    inputs and derives its scalars as Python floats, in the order
    ``analytic_epsilon`` gives."""
    t = schedule.K - k + 1
    ab, root_ab, root_one_minus_ab, a, b, sigma = schedule.coefficients[t].tolist()
    x_k = np.asarray(x_k, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    s2 = world.target_std ** 2
    gain = root_ab * s2 / (ab * s2 + 1.0 - ab)
    x0_hat = mu + gain * (x_k - root_ab * mu)
    eps_hat = (x_k - root_ab * x0_hat) / root_one_minus_ab
    if schedule.variant == DETERMINISTIC:
        prev_root_ab, prev_root_one_minus_ab = schedule.coefficients[t - 1, 1:3].tolist()
        x0_hat = (x_k - root_one_minus_ab * eps_hat) / root_ab
        return prev_root_ab * x0_hat + prev_root_one_minus_ab * eps_hat
    mean = a * x_k - b * eps_hat
    if sigma == 0.0:
        return mean
    return mean + sigma * noise


def replay_trace(output, tree, world, schedule, seed):
    """Rerun one prompt's own trace with no sharing.

    Starts from the first traced node's initial noise and applies one
    denoising step per traced (node, k), drawing ancestral noise from the
    (seed, node, k) stream, exactly as a lone run along that trace would.
    """
    m = world.data_dimension
    steps = step_table(schedule, world)
    x = stream(seed, TAG_INIT, output.trace[0][0]).standard_normal(m)
    for node, k in output.trace:
        noise = None
        if schedule.variant == ANCESTRAL:
            noise = stream(seed, TAG_STEP, node, k).standard_normal(m)
        x = denoise_step(x, k, world.target_mean(tree.means[node]), steps, noise)
    return x
