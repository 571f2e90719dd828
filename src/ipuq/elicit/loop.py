"""Verify-retry elicitation loops.

One attempt is render -> send -> parse -> verify.  A reply that parses and
passes its kind's coherence verifier ends the loop; anything else goes back
to the model with the full diagnosis appended to the prompt, up to a fixed
attempt budget.  Transport-level failures are not attempts -- the client
retries those itself with backoff and raises if the endpoint stays down.

What each kind returns on success:

* ``definetti``  -- a PMF built from the prices, scored by its entropy;
* ``probint``    -- per-answer intervals, scored by the MMI upper bound;
* ``credal``     -- a PMF (one ensemble member), unscored;
* ``possibility``-- the raw possibility assignment (normalization happens
  inside the MMI computation), unscored;
* ``vanilla``    -- a bare confidence, scored by one minus itself;
* ``candidates`` -- a deduplicated open-ended candidate set.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

from ..core import (
    CandidateSet,
    CredalSet,
    IpuqError,
    PossibilityAssignment,
    PrecisePMF,
    ProbabilityIntervalSet,
    InvertedIntervalError,
    build_pmf,
)
from ..coherence import (
    AllZeroError,
    ALL_ZERO,
    VerdictReport,
    Violation,
    normalize_possibility,
    verify_axioms,
    verify_interval_coherence,
)
from ..mmi import mmi_upper_bound
from ..scores import entropy
from .client import ChatClient, ChatReply, ModelEndpoint
from .parsing import ParseError, parse_structured_report
from .prompts import KINDS_WITH_CANDIDATES, SYSTEM_TEXT, PromptKind, render_prompt

logger = logging.getLogger(__name__)

DEFAULT_MAX_ATTEMPTS = 5

#: Violation code for structurally inverted intervals (lower above upper).
INVERTED = "INVERTED"

SCORE_ENTROPY = "entropy_nats"
SCORE_MMI_UPPER_BOUND = "mmi_upper_bound"
SCORE_ONE_MINUS_CONF = "one_minus_confidence"


class RetriesExhaustedError(IpuqError, RuntimeError):
    """All attempts failed; ``result`` holds the full attempt log."""

    def __init__(self, result: "ElicitationResult"):
        super().__init__(
            f"{result.kind} elicitation failed after {result.attempts} attempts"
        )
        self.result = result


class MemberQuorumNotMetError(IpuqError, RuntimeError):
    """Too few ensemble members produced a usable report."""

    def __init__(self, succeeded: int, required: int, results: list["ElicitationResult"]):
        super().__init__(f"only {succeeded} of required {required} members succeeded")
        self.results = results


@dataclass(frozen=True)
class AttemptRecord:
    """Everything about one attempt, verbatim enough to replay it."""

    attempt: int
    request_body: str
    response_body: str
    reply_text: str
    verdict: VerdictReport | None = None
    parse_error: str | None = None
    input_tokens: int = 0
    output_tokens: int = 0


@dataclass(frozen=True)
class ElicitationResult:
    """Outcome of one elicitation loop, successful or not."""

    kind: str
    question: str
    endpoint_key: str
    succeeded: bool
    attempts: int
    attempt_log: tuple[AttemptRecord, ...]
    payload: object | None = None
    score: float | None = None
    score_kind: str | None = None
    salvaged: bool = False

    @property
    def input_tokens(self) -> int:
        return sum(a.input_tokens for a in self.attempt_log)

    @property
    def output_tokens(self) -> int:
        return sum(a.output_tokens for a in self.attempt_log)

    @property
    def verdicts(self) -> tuple[VerdictReport, ...]:
        return tuple(a.verdict for a in self.attempt_log if a.verdict is not None)


def _verify_and_build(
    kind: PromptKind,
    parsed,
    candidates: CandidateSet | None,
) -> tuple[VerdictReport, object | None, float | None, str | None]:
    """Run the kind's coherence check; build the typed payload if it passes."""
    if kind == PromptKind.DEFINETTI:
        verdict = verify_axioms(parsed)
        if not verdict.passed:
            return verdict, None, None, None
        pmf = build_pmf(candidates, parsed)
        return verdict, pmf, entropy(pmf), SCORE_ENTROPY

    if kind == PromptKind.CREDAL:
        # A credal member must itself be a proper PMF, so the same two
        # betting axioms apply.
        verdict = verify_axioms(parsed)
        if not verdict.passed:
            return verdict, None, None, None
        return verdict, build_pmf(candidates, parsed), None, None

    if kind == PromptKind.PROBINT:
        lowers, uppers = parsed
        try:
            intervals = ProbabilityIntervalSet(
                candidates=candidates, lowers=tuple(lowers), uppers=tuple(uppers)
            )
        except InvertedIntervalError:
            bad = next(i for i, (lo, hi) in enumerate(zip(lowers, uppers)) if lo > hi)
            verdict = VerdictReport.from_violations(
                [Violation(INVERTED, bad, observed=lowers[bad], bound=uppers[bad])]
            )
            return verdict, None, None, None
        verdict = verify_interval_coherence(intervals)
        if not verdict.passed:
            return verdict, None, None, None
        return verdict, intervals, mmi_upper_bound(lowers).value, SCORE_MMI_UPPER_BOUND

    if kind == PromptKind.POSSIBILITY:
        scores, nota = parsed
        assignment = PossibilityAssignment(
            candidates=candidates, scores=tuple(scores), none_of_above=nota
        )
        try:
            normalize_possibility(assignment)
        except AllZeroError:
            verdict = VerdictReport.from_violations(
                [Violation(ALL_ZERO, -1, observed=0.0, bound=0.0)]
            )
            return verdict, None, None, None
        return VerdictReport(passed=True), assignment, None, None

    if kind == PromptKind.VANILLA:
        conf = float(parsed)
        return VerdictReport(passed=True), conf, 1.0 - conf, SCORE_ONE_MINUS_CONF

    if kind == PromptKind.CANDIDATES:
        candidate_set = CandidateSet(answers=tuple(parsed), open_ended=True)
        return VerdictReport(passed=True), candidate_set, None, None

    raise ValueError(f"unhandled kind {kind!r}")


def _parse_feedback(error: ParseError) -> str:
    return (
        f"Your reply could not be parsed: {error}.\n"
        "Reply again and end with the required block, formatted exactly as instructed."
    )


def _verdict_feedback(verdict: VerdictReport) -> str:
    lines = "\n".join(f"- {v.describe()}" for v in verdict.violations)
    return (
        f"The numbers you gave are not coherent:\n{lines}\n"
        "Reply again in the required format with corrected numbers."
    )


def _try_salvage(
    kind: PromptKind, parsed, candidates: CandidateSet | None
) -> tuple[object, float | None, str | None] | None:
    """Renormalize a sum-violating price vector on the last attempt."""
    if kind not in (PromptKind.DEFINETTI, PromptKind.CREDAL):
        return None
    if any(v < 0.0 for v in parsed) or sum(parsed) <= 0.0:
        return None
    pmf = build_pmf(candidates, parsed, renormalize=True)
    if kind == PromptKind.DEFINETTI:
        return pmf, entropy(pmf), SCORE_ENTROPY
    return pmf, None, None


def elicit_with_retry(
    client: ChatClient,
    endpoint: ModelEndpoint,
    kind: PromptKind,
    question: str,
    candidates: CandidateSet | None = None,
    *,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    salvage_renormalize: bool = False,
) -> ElicitationResult:
    """Elicit one report, re-prompting with feedback until it verifies.

    Parse failures and verifier failures both consume an attempt and both
    echo their diagnosis into the next prompt.  After the budget is spent,
    ``salvage_renormalize`` (off by default) may rescue a price vector whose
    only sin is its sum by renormalizing it; the result is then flagged
    ``salvaged``.  Otherwise :class:`RetriesExhaustedError` carries the
    failed result, including one verdict or parse error per attempt.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be at least 1")
    needs_candidates = kind in KINDS_WITH_CANDIDATES
    attempt_log: list[AttemptRecord] = []
    feedback: str | None = None
    last_parsed = None
    for attempt in range(1, max_attempts + 1):
        user_text = render_prompt(kind, question, candidates, feedback=feedback)
        reply: ChatReply = client.complete(endpoint, SYSTEM_TEXT, user_text)
        try:
            parsed = parse_structured_report(
                kind, reply.text, candidates if needs_candidates else None
            )
        except ParseError as exc:
            attempt_log.append(
                AttemptRecord(
                    attempt=attempt,
                    request_body=reply.raw_request,
                    response_body=reply.raw_response,
                    reply_text=reply.text,
                    parse_error=str(exc),
                    input_tokens=reply.input_tokens,
                    output_tokens=reply.output_tokens,
                )
            )
            feedback = _parse_feedback(exc)
            logger.debug("attempt %d/%d parse failure: %s", attempt, max_attempts, exc)
            continue
        last_parsed = parsed
        verdict, payload, score, score_kind = _verify_and_build(kind, parsed, candidates)
        attempt_log.append(
            AttemptRecord(
                attempt=attempt,
                request_body=reply.raw_request,
                response_body=reply.raw_response,
                reply_text=reply.text,
                verdict=verdict,
                input_tokens=reply.input_tokens,
                output_tokens=reply.output_tokens,
            )
        )
        if verdict.passed:
            return ElicitationResult(
                kind=kind.value,
                question=question,
                endpoint_key=endpoint.key,
                succeeded=True,
                attempts=attempt,
                attempt_log=tuple(attempt_log),
                payload=payload,
                score=score,
                score_kind=score_kind,
            )
        feedback = _verdict_feedback(verdict)
        logger.debug(
            "attempt %d/%d failed verification: %s", attempt, max_attempts, verdict.describe()
        )

    if salvage_renormalize and last_parsed is not None:
        salvaged = _try_salvage(kind, last_parsed, candidates)
        if salvaged is not None:
            payload, score, score_kind = salvaged
            logger.info("salvaged %s report by renormalization after %d attempts",
                        kind.value, max_attempts)
            return ElicitationResult(
                kind=kind.value,
                question=question,
                endpoint_key=endpoint.key,
                succeeded=True,
                attempts=max_attempts,
                attempt_log=tuple(attempt_log),
                payload=payload,
                score=score,
                score_kind=score_kind,
                salvaged=True,
            )

    raise RetriesExhaustedError(
        ElicitationResult(
            kind=kind.value,
            question=question,
            endpoint_key=endpoint.key,
            succeeded=False,
            attempts=max_attempts,
            attempt_log=tuple(attempt_log),
        )
    )


def elicit_credal_ensemble(
    client: ChatClient,
    members: Sequence[ModelEndpoint],
    question: str,
    candidates: CandidateSet,
    *,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    quorum: int | str = "all",
    salvage_renormalize: bool = False,
    member_results: list[ElicitationResult] | None = None,
) -> CredalSet:
    """Elicit one credal set: one PMF per member endpoint, same candidates.

    ``members`` are typically the same model under different seeds, or
    different models; each member's distinct belief becomes one extreme
    point.  ``quorum`` is how many members must succeed ("all" by default);
    falling short raises :class:`MemberQuorumNotMetError`.  Pass a list as
    ``member_results`` to collect every member's full result (including
    failed ones) for accounting.
    """
    if not members:
        raise ValueError("need at least one ensemble member")
    required = len(members) if quorum == "all" else int(quorum)
    if not (1 <= required <= len(members)):
        raise ValueError(f"quorum {quorum!r} incompatible with {len(members)} members")
    pmfs: list[PrecisePMF] = []
    tags: list[str] = []
    collected: list[ElicitationResult] = []
    for ep in members:
        try:
            result = elicit_with_retry(
                client,
                ep,
                PromptKind.CREDAL,
                question,
                candidates,
                max_attempts=max_attempts,
                salvage_renormalize=salvage_renormalize,
            )
        except RetriesExhaustedError as exc:
            logger.warning("credal member %s failed: %s", ep.key, exc)
            collected.append(exc.result)
            continue
        collected.append(result)
        pmfs.append(result.payload)
        tags.append(f"{ep.key}#seed={ep.seed}")
    if member_results is not None:
        member_results.extend(collected)
    if len(pmfs) < required:
        raise MemberQuorumNotMetError(len(pmfs), required, collected)
    return CredalSet(candidates=candidates, members=tuple(pmfs), member_tags=tuple(tags))


def generate_candidates(
    client: ChatClient,
    endpoint: ModelEndpoint,
    question: str,
    *,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> CandidateSet:
    """Ask the model to enumerate plausible answers to a question.

    The returned set is open-ended (it never claims exhaustiveness) and
    deduplicated under trimming and case-folding, first spelling kept.
    """
    result = elicit_with_retry(
        client, endpoint, PromptKind.CANDIDATES, question, None, max_attempts=max_attempts
    )
    return result.payload


__all__ = [
    "DEFAULT_MAX_ATTEMPTS",
    "INVERTED",
    "SCORE_ENTROPY",
    "SCORE_MMI_UPPER_BOUND",
    "SCORE_ONE_MINUS_CONF",
    "RetriesExhaustedError",
    "MemberQuorumNotMetError",
    "AttemptRecord",
    "ElicitationResult",
    "elicit_with_retry",
    "elicit_credal_ensemble",
    "generate_candidates",
]
