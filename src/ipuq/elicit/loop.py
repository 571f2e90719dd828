"""Verify-retry elicitation loops.

One attempt is render -> send -> parse -> verify.  A reply that parses and
passes its kind's coherence verifier ends the loop; anything else goes back
to the model with the full diagnosis appended to the prompt, up to a fixed
attempt budget.  Transport-level failures are not attempts -- the client
retries those itself with backoff and raises if the endpoint stays down.

What a kind's verified reply becomes -- its coherence check, typed payload,
loop score and whether it may be salvaged -- is that kind's entry in
:data:`ACCEPTANCE`; its prompt and reply rows are its entry in
:data:`~ipuq.elicit.prompts.WIRE`.  A transport failure that ends a loop
carries the attempts already billed in ``TransportError.results``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Any, Callable, Sequence

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
from .client import ChatClient, ChatReply, ModelEndpoint, TransportError
from .parsing import ParseError, parse_structured_report
from .prompts import SYSTEM_TEXT, PromptKind, render_prompt

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


_PASSED = VerdictReport(passed=True)


def _check_prices(prices: list[float], candidates: CandidateSet) -> tuple[VerdictReport, Any]:
    verdict = verify_axioms(prices)
    return verdict, build_pmf(candidates, prices) if verdict.passed else None


def _check_intervals(bounds, candidates: CandidateSet) -> tuple[VerdictReport, Any]:
    lowers, uppers = bounds
    try:
        intervals = ProbabilityIntervalSet(
            candidates=candidates, lowers=tuple(lowers), uppers=tuple(uppers)
        )
    except InvertedIntervalError:
        bad = next(i for i, (lo, hi) in enumerate(zip(lowers, uppers)) if lo > hi)
        violation = Violation(INVERTED, bad, observed=lowers[bad], bound=uppers[bad])
        return VerdictReport.from_violations([violation]), None
    verdict = verify_interval_coherence(intervals)
    return verdict, intervals if verdict.passed else None


def _check_possibility(reply, candidates: CandidateSet) -> tuple[VerdictReport, Any]:
    scores, nota = reply
    assignment = PossibilityAssignment(
        candidates=candidates, scores=tuple(scores), none_of_above=nota
    )
    try:
        # the payload stays raw; the MMI computation normalizes it again
        normalize_possibility(assignment)
    except AllZeroError:
        violation = Violation(ALL_ZERO, -1, observed=0.0, bound=0.0)
        return VerdictReport.from_violations([violation]), None
    return _PASSED, assignment


def _pmf_json(pmf: PrecisePMF) -> dict[str, Any]:
    return {"probs": list(pmf.probs)}


@dataclass(frozen=True)
class Acceptance:
    """What the loop does with one kind's parsed reply.

    ``check`` runs the kind's coherence check and returns its verdict with
    the typed payload (None unless it passed).  ``score`` is the loop's own
    score of a payload, recorded as ``score_kind``.  ``salvage`` marks price
    vectors that may be renormalized once the attempts are spent.
    ``to_json`` gives a payload's JSON form.
    """

    check: Callable[[Any, CandidateSet | None], tuple[VerdictReport, Any]]
    to_json: Callable[[Any], Any]
    score: Callable[[Any], float] | None = None
    score_kind: str | None = None
    salvage: bool = False


#: The loop's table: one entry per protocol.  A credal member must itself
#: be a proper PMF, so the betting axioms apply to it as to prices.
ACCEPTANCE: dict[PromptKind, Acceptance] = {
    PromptKind.DEFINETTI: Acceptance(
        _check_prices, _pmf_json, score=entropy, score_kind=SCORE_ENTROPY, salvage=True
    ),
    PromptKind.PROBINT: Acceptance(
        _check_intervals,
        lambda ivs: {"lowers": list(ivs.lowers), "uppers": list(ivs.uppers)},
        score=lambda ivs: mmi_upper_bound(ivs.lowers).value,
        score_kind=SCORE_MMI_UPPER_BOUND,
    ),
    PromptKind.CREDAL: Acceptance(_check_prices, _pmf_json, salvage=True),
    PromptKind.POSSIBILITY: Acceptance(
        _check_possibility,
        lambda a: {"scores": list(a.scores), "none_of_above": a.none_of_above},
    ),
    PromptKind.VANILLA: Acceptance(
        lambda conf, _: (_PASSED, float(conf)),
        lambda conf: {"confidence": conf},
        score=lambda conf: 1.0 - conf,
        score_kind=SCORE_ONE_MINUS_CONF,
    ),
    PromptKind.CANDIDATES: Acceptance(
        lambda answers, _: (_PASSED, CandidateSet(answers=tuple(answers), open_ended=True)),
        lambda c: list(c.answers),
    ),
}


def _attempt_record(attempt: int, reply: ChatReply, **outcome) -> AttemptRecord:
    return AttemptRecord(
        attempt=attempt,
        request_body=reply.raw_request,
        response_body=reply.raw_response,
        reply_text=reply.text,
        input_tokens=reply.input_tokens,
        output_tokens=reply.output_tokens,
        **outcome,
    )


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
    failed result, including one verdict or parse error per attempt.  A
    :class:`TransportError` leaves with the partial result in ``results``.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be at least 1")
    acceptance = ACCEPTANCE[kind]
    attempt_log: list[AttemptRecord] = []
    feedback: str | None = None
    last_parsed = None

    def result(succeeded: bool, payload=None, salvaged: bool = False) -> ElicitationResult:
        scored = succeeded and acceptance.score is not None
        return ElicitationResult(
            kind=kind.value,
            question=question,
            endpoint_key=endpoint.key,
            succeeded=succeeded,
            attempts=len(attempt_log),
            attempt_log=tuple(attempt_log),
            payload=payload,
            score=acceptance.score(payload) if scored else None,
            score_kind=acceptance.score_kind if scored else None,
            salvaged=salvaged,
        )

    for attempt in range(1, max_attempts + 1):
        user_text = render_prompt(kind, question, candidates, feedback=feedback)
        try:
            reply = client.complete(endpoint, SYSTEM_TEXT, user_text)
        except TransportError as exc:
            exc.results = (result(False),)
            raise

        try:
            parsed = parse_structured_report(kind, reply.text, candidates)
        except ParseError as exc:
            attempt_log.append(_attempt_record(attempt, reply, parse_error=str(exc)))
            feedback = _parse_feedback(exc)
            logger.debug("attempt %d/%d parse failure: %s", attempt, max_attempts, exc)
            continue
        last_parsed = parsed
        verdict, payload = acceptance.check(parsed, candidates)
        attempt_log.append(_attempt_record(attempt, reply, verdict=verdict))
        if verdict.passed:
            return result(True, payload)
        feedback = _verdict_feedback(verdict)
        logger.debug(
            "attempt %d/%d failed verification: %s", attempt, max_attempts, verdict.describe()
        )

    if (
        salvage_renormalize
        and acceptance.salvage
        and last_parsed is not None
        and min(last_parsed) >= 0.0
        and sum(last_parsed) > 0.0
    ):
        logger.info("salvaged %s report by renormalization after %d attempts",
                    kind.value, max_attempts)
        return result(True, build_pmf(candidates, last_parsed, renormalize=True), salvaged=True)

    raise RetriesExhaustedError(result(False))


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
        except TransportError as exc:
            exc.results = (*collected, *exc.results)
            raise
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
    "Acceptance",
    "ACCEPTANCE",
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
