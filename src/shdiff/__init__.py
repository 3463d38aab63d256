"""Shared-step diffusion over prompt embedding trees.

Builds an agglomerative embedding tree over a prompt set, compiles a
deduplicated shared-step denoising plan, executes it against an analytic
toy diffusion model, and measures compute savings, quality, and diversity.
"""

from .diffusion import (
    ANCESTRAL,
    DETERMINISTIC,
    ExecutionResult,
    GenerationOutput,
    NoiseSchedule,
    StepTable,
    ToyWorld,
    denoise_step,
    execute_plan,
    make_schedule,
    run_standard,
    step_table,
)
from .embeddings import (
    PromptSet,
    float32_rows_text,
    generate_synthetic,
    load_prompt_set,
    save_prompt_set,
)
from .errors import DataError, ShdiffError, UsageError
from .metrics import (
    RunMetrics,
    diversity_pairwise_cosine,
    quality_mse,
    run_once,
    sweep_tau,
)
from .planner import (
    FRESH,
    ScheduleParams,
    SharePlan,
    compile_plan,
    phi,
)
from .tree import (
    EmbeddingTree,
    build_tree,
    randomize_encodings,
    reembed,
)

__all__ = [name for name in dir() if not name.startswith("_")]
