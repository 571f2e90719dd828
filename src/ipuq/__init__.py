"""ipuq: elicit, verify and score imprecise-probability uncertainty reports
from chat-completion endpoints, with analytic synthetic tasks for validation.
"""

from .coherence import (
    VerdictReport,
    Violation,
    normalize_possibility,
    verify_axioms,
    verify_interval_coherence,
)
from .core import (
    CandidateSet,
    CredalSet,
    IpuqError,
    PossibilityAssignment,
    PrecisePMF,
    ProbabilityIntervalSet,
    QARecord,
    build_pmf,
    interval_from_credal,
)
from .decision import (
    maximax,
    maximin,
    precise_argmax,
    utilitarian_aggregate,
)
from .elicit import (
    ChatClient,
    ElicitationResult,
    ModelEndpoint,
    PromptKind,
    elicit_credal_ensemble,
    elicit_with_retry,
    generate_candidates,
    render_prompt,
)
from .metrics import ScoredExample, auroc, concordance_index
from .mmi import (
    exact_mmi_credal,
    interval_width_mmi,
    mmi_upper_bound,
    possibility_binary_mmi,
    possibility_mmi,
)
from .scores import bernoulli_entropy, ce_kl_decomposition, combined_score, entropy
from .synth import (
    IclTask,
    NoiseSpec,
    TransformSpec,
    apply_cyclic_shift,
    apply_rotation,
    apply_transform,
    format_icl_prompt,
    generate_icl_task,
    ground_truth_variants,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "IpuqError",
    "CandidateSet",
    "PrecisePMF",
    "ProbabilityIntervalSet",
    "CredalSet",
    "PossibilityAssignment",
    "QARecord",
    "build_pmf",
    "interval_from_credal",
    "Violation",
    "VerdictReport",
    "verify_axioms",
    "verify_interval_coherence",
    "normalize_possibility",
    "interval_width_mmi",
    "mmi_upper_bound",
    "exact_mmi_credal",
    "possibility_mmi",
    "possibility_binary_mmi",
    "entropy",
    "bernoulli_entropy",
    "ce_kl_decomposition",
    "combined_score",
    "precise_argmax",
    "maximin",
    "maximax",
    "utilitarian_aggregate",
    "TransformSpec",
    "NoiseSpec",
    "IclTask",
    "apply_rotation",
    "apply_cyclic_shift",
    "apply_transform",
    "generate_icl_task",
    "format_icl_prompt",
    "ground_truth_variants",
    "ScoredExample",
    "auroc",
    "concordance_index",
    "PromptKind",
    "render_prompt",
    "ModelEndpoint",
    "ChatClient",
    "ElicitationResult",
    "elicit_with_retry",
    "elicit_credal_ensemble",
    "generate_candidates",
]
