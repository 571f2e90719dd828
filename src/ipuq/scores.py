"""First-order scores and the cross-entropy decomposition.

All logarithms are natural, so every value is in nats.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

from .core import InvalidValueError, PrecisePMF

logger = logging.getLogger(__name__)

#: Floor applied to predicted probabilities before KL when the prediction
#: misses part of the reference support.
KL_SMOOTHING_EPS = 1e-9

#: Identity tolerance: cross-entropy must equal entropy + KL this tightly.
DECOMPOSITION_TOL = 1e-9


@dataclass(frozen=True)
class Decomposition:
    """Cross-entropy split into an aleatoric and an epistemic part.

    ``entropy_au`` is the entropy of the reference distribution (the spread
    inherent to the question), ``kl_eu`` the divergence of the prediction
    from the reference (the part the predictor could in principle remove),
    and ``cross_entropy`` their sum.  ``smoothed`` records whether the
    prediction had to be floored before the divergence was finite.
    """

    cross_entropy: float
    entropy_au: float
    kl_eu: float
    smoothed: bool = False

    def __post_init__(self) -> None:
        for name in ("cross_entropy", "entropy_au", "kl_eu"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")
        if abs(self.cross_entropy - (self.entropy_au + self.kl_eu)) > DECOMPOSITION_TOL:
            raise ValueError("cross-entropy must equal entropy_au + kl_eu")


def entropy(pmf: PrecisePMF | Sequence[float]) -> float:
    """Shannon entropy in nats; ``0 * ln 0`` counts as 0."""
    probs = pmf.probs if isinstance(pmf, PrecisePMF) else [float(p) for p in pmf]
    # 0.0 - x rather than -x, so a point mass gives 0.0 and not -0.0
    return 0.0 - sum(p * math.log(p) for p in probs if p > 0.0)


def bernoulli_entropy(p: float) -> float:
    """Entropy of a yes/no event with success probability ``p``, in nats."""
    p = float(p)
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"probability must lie in [0, 1], got {p!r}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -(p * math.log(p) + (1.0 - p) * math.log(1.0 - p))


def ce_kl_decomposition(reference: PrecisePMF, predicted: PrecisePMF) -> Decomposition:
    """Split ``CE(reference, predicted)`` into entropy plus divergence.

    Both PMFs must live on the same candidate set.  When the prediction
    assigns zero to an answer the reference supports, the cross-entropy is
    infinite, so the prediction is floored at ``KL_SMOOTHING_EPS`` and
    renormalized first, and the result is marked ``smoothed``.  Tiny negative
    divergences from float rounding are clamped to 0.
    """
    if reference.candidates != predicted.candidates:
        raise InvalidValueError("decomposition needs PMFs on one candidate set")
    ref = reference.probs
    pred = list(predicted.probs)
    mismatch = any(r > 0.0 and q == 0.0 for r, q in zip(ref, pred))
    if mismatch:
        logger.debug("flooring predicted PMF at %g before KL", KL_SMOOTHING_EPS)
        pred = [max(q, KL_SMOOTHING_EPS) for q in pred]
        total = sum(pred)
        pred = [q / total for q in pred]
    h = -sum(r * math.log(r) for r in ref if r > 0.0)
    ce = -sum(r * math.log(q) for r, q in zip(ref, pred) if r > 0.0)
    kl = sum(r * math.log(r / q) for r, q in zip(ref, pred) if r > 0.0)
    if kl < 0.0:
        # Gibbs' inequality guarantees KL >= 0; anything below is rounding.
        kl = 0.0
    return Decomposition(cross_entropy=ce, entropy_au=h, kl_eu=kl, smoothed=mismatch)


def combined_score(first_order: float, second_order: float) -> float:
    """Multiplicative combination of a first- and a second-order score.

    The two live on different scales (nats vs. probability mass), so adding
    them is meaningless; the product preserves each factor's ranking and is
    invariant to rescaling either one.  Both inputs must be non-negative.
    """
    first_order = float(first_order)
    second_order = float(second_order)
    if first_order < 0.0 or second_order < 0.0:
        raise InvalidValueError(
            f"scores must be non-negative, got {first_order!r} and {second_order!r}"
        )
    return first_order * second_order


__all__ = [
    "KL_SMOOTHING_EPS",
    "DECOMPOSITION_TOL",
    "Decomposition",
    "entropy",
    "bernoulli_entropy",
    "ce_kl_decomposition",
    "combined_score",
]
