"""Verify-retry elicitation loops.

One attempt is render -> send -> parse -> verify.  A reply that parses and
passes its kind's coherence verifier ends the loop; anything else goes back
to the model with the full diagnosis appended to the prompt, up to a fixed
attempt budget.  Transport-level failures are not attempts -- the client
retries those itself with backoff and raises if the endpoint stays down.

What a kind's verified reply becomes -- its coherence check, typed payload,
JSON form and whether it may be salvaged -- is that kind's entry in
:data:`ACCEPTANCE`; its prompt and reply rows are its entry in
:data:`~ipuq.elicit.prompts.WIRE`.  Every loop appends its result to the
caller's ``results`` list however it ends, exceptions included, so the
attempts already billed are not lost; no exception carries results.
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
from .client import ChatClient, ChatReply, ModelEndpoint
from .parsing import ParseError, parse_structured_report
from .prompts import SYSTEM_TEXT, PromptKind, render_prompt

logger = logging.getLogger(__name__)

DEFAULT_MAX_ATTEMPTS = 5

#: Violation code for structurally inverted intervals (lower above upper).
INVERTED = "INVERTED"


class RetriesExhaustedError(IpuqError, RuntimeError):
    """All attempts failed; ``result`` holds the full attempt log."""

    def __init__(self, result: "ElicitationResult"):
        super().__init__(
            f"{result.kind} elicitation failed after {result.attempts} attempts"
        )
        self.result = result


class MemberQuorumNotMetError(IpuqError, RuntimeError):
    """Not every ensemble member produced a usable report."""

    def __init__(self, succeeded: int, required: int):
        super().__init__(f"only {succeeded} of required {required} members succeeded")


@dataclass(frozen=True)
class AttemptRecord:
    """One attempt: the transport's reply, verbatim, and what became of it."""

    attempt: int
    reply: ChatReply
    verdict: VerdictReport | None = None
    parse_error: str | None = None


@dataclass(frozen=True)
class ElicitationResult:
    """Outcome of one elicitation loop, successful or not.  A loop that
    verified or salvaged a report has its payload; any other has none."""

    kind: str
    attempt_log: tuple[AttemptRecord, ...]
    payload: object | None = None
    salvaged: bool = False

    @property
    def succeeded(self) -> bool:
        return self.payload is not None

    @property
    def attempts(self) -> int:
        return len(self.attempt_log)

    @property
    def input_tokens(self) -> int:
        return sum(a.reply.input_tokens for a in self.attempt_log)

    @property
    def output_tokens(self) -> int:
        return sum(a.reply.output_tokens for a in self.attempt_log)


_PASSED = VerdictReport()


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
        return VerdictReport((violation,)), None
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
        return VerdictReport((violation,)), None
    return _PASSED, assignment


def _pmf_json(pmf: PrecisePMF) -> dict[str, Any]:
    return {"probs": list(pmf.probs)}


@dataclass(frozen=True)
class Acceptance:
    """What the loop does with one kind's parsed reply.

    ``check`` runs the kind's coherence check and returns its verdict with
    the typed payload (None unless it passed); ``to_json`` gives a payload's
    JSON form; ``salvage`` marks price vectors that may be renormalized once
    the attempts are spent.  Scores are the campaign's record table's job.
    """

    check: Callable[[Any, CandidateSet | None], tuple[VerdictReport, Any]]
    to_json: Callable[[Any], Any]
    salvage: bool = False


#: The loop's table: one entry per protocol.  A credal member must itself
#: be a proper PMF, so the betting axioms apply to it as to prices.
ACCEPTANCE: dict[PromptKind, Acceptance] = {
    PromptKind.DEFINETTI: Acceptance(_check_prices, _pmf_json, salvage=True),
    PromptKind.PROBINT: Acceptance(
        _check_intervals,
        lambda ivs: {"lowers": list(ivs.lowers), "uppers": list(ivs.uppers)},
    ),
    PromptKind.CREDAL: Acceptance(_check_prices, _pmf_json, salvage=True),
    PromptKind.POSSIBILITY: Acceptance(
        _check_possibility,
        lambda a: {"scores": list(a.scores), "none_of_above": a.none_of_above},
    ),
    PromptKind.VANILLA: Acceptance(
        lambda conf, _: (_PASSED, float(conf)),
        lambda conf: {"confidence": conf},
    ),
    PromptKind.CANDIDATES: Acceptance(
        lambda answers, _: (_PASSED, CandidateSet(answers=tuple(answers), open_ended=True)),
        lambda c: list(c.answers),
    ),
}


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
    results: list[ElicitationResult] | None = None,
) -> ElicitationResult:
    """Elicit one report, re-prompting with feedback until it verifies.

    Parse failures and verifier failures both consume an attempt and both
    echo their diagnosis into the next prompt.  After the budget is spent,
    ``salvage_renormalize`` (off by default) may rescue a price vector whose
    only sin is its sum by renormalizing it; the result is then flagged
    ``salvaged``.  Otherwise :class:`RetriesExhaustedError` carries the
    failed result, including one verdict or parse error per attempt.  Any
    other exception, a :class:`TransportError` or whatever the transport
    raised, propagates as it is.  However the loop ends, its result, with
    every attempt it billed, is appended to ``results`` when one is given.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be at least 1")
    acceptance = ACCEPTANCE[kind]
    attempt_log: list[AttemptRecord] = []
    feedback: str | None = None
    last_parsed = None

    def end(payload=None, salvaged: bool = False) -> ElicitationResult:
        result = ElicitationResult(
            kind=kind.value,
            attempt_log=tuple(attempt_log),
            payload=payload,
            salvaged=salvaged,
        )
        if results is not None:
            results.append(result)
        return result

    try:
        for attempt in range(1, max_attempts + 1):
            user_text = render_prompt(kind, question, candidates, feedback=feedback)
            reply = client.complete(endpoint, SYSTEM_TEXT, user_text)
            try:
                parsed = parse_structured_report(kind, reply.text, candidates)
            except ParseError as exc:
                attempt_log.append(AttemptRecord(attempt, reply, parse_error=str(exc)))
                feedback = _parse_feedback(exc)
                logger.debug("attempt %d/%d parse failure: %s", attempt, max_attempts, exc)
                continue
            last_parsed = parsed
            verdict, payload = acceptance.check(parsed, candidates)
            attempt_log.append(AttemptRecord(attempt, reply, verdict=verdict))
            if verdict.passed:
                return end(payload)
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
            pmf = build_pmf(candidates, last_parsed, renormalize=True)
            return end(pmf, salvaged=True)
    except Exception:
        end()
        raise

    raise RetriesExhaustedError(end())


def elicit_credal_ensemble(
    client: ChatClient,
    members: Sequence[ModelEndpoint],
    question: str,
    candidates: CandidateSet,
    *,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    salvage_renormalize: bool = False,
    results: list[ElicitationResult] | None = None,
) -> CredalSet:
    """Elicit one credal set: one PMF per member endpoint, same candidates.

    ``members`` are typically the same model under different seeds, or
    different models; each member's distinct belief becomes one extreme
    point.  Every member must succeed: each one is still asked, and if any
    ran out of attempts, :class:`MemberQuorumNotMetError` is raised once all
    have been.  Any other exception stops the ensemble at the member it cut
    short.  ``results`` is passed to each member's loop, so it gains one
    result per member reached, in member order, however the ensemble ends.
    """
    if not members:
        raise ValueError("need at least one ensemble member")
    pmfs: list[PrecisePMF] = []
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
                results=results,
            )
        except RetriesExhaustedError as exc:
            logger.warning("credal member %s failed: %s", ep.key, exc)
            continue
        pmfs.append(result.payload)
    if len(pmfs) < len(members):
        raise MemberQuorumNotMetError(len(pmfs), len(members))
    return CredalSet(candidates=candidates, members=tuple(pmfs))


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
    "RetriesExhaustedError",
    "MemberQuorumNotMetError",
    "AttemptRecord",
    "ElicitationResult",
    "elicit_with_retry",
    "elicit_credal_ensemble",
    "generate_candidates",
]
