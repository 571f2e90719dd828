"""Retry-loop behavior over scripted transports.

Every test drives the real loop through a MockTransport with canned
replies, so attempt counting, feedback echoing, salvage, and ensemble
quorum are exercised end to end without sockets.
"""

import math

import pytest

from ipuq.core import (
    CandidateSet,
    CredalSet,
    PossibilityAssignment,
    PrecisePMF,
    interval_from_credal,
)
from ipuq.coherence import ALL_ZERO, SUM
from ipuq.elicit.client import ChatClient, ModelEndpoint, TransportError
from ipuq.elicit.loop import (
    INVERTED,
    SCORE_ENTROPY,
    SCORE_MMI_UPPER_BOUND,
    SCORE_ONE_MINUS_CONF,
    MemberQuorumNotMetError,
    RetriesExhaustedError,
    elicit_credal_ensemble,
    elicit_with_retry,
    generate_candidates,
)
from ipuq.elicit.prompts import FEEDBACK_HEADER, NOTA_LABEL, PromptKind
from ipuq.mock import MockScript, MockTransport, ScriptEntry

QUESTION = "What is the capital of the Kingdom of the Netherlands?"
TWO = CandidateSet(answers=("Amsterdam", "The Hague"))


def block(rows):
    return "```\n" + "\n".join(rows) + "\n```"


def scripted_client(*entries):
    transport = MockTransport(MockScript(entries=tuple(entries)))
    return ChatClient(transport), transport


def entry(kind, replies, question=QUESTION, seed=None):
    return ScriptEntry(question=question, kind=kind, replies=tuple(replies), seed=seed)


ENDPOINT = ModelEndpoint(base_url="inproc://test", model_id="scripted")


class DownAfter:
    """Serves ``replies`` scripted replies, then fails without retry."""

    def __init__(self, replies, *entries):
        self.inner = MockTransport(MockScript(entries=entries))
        self.left = replies

    def send(self, endpoint, system_text, user_text):
        if not self.left:
            raise TransportError("endpoint went down", retryable=False)
        self.left -= 1
        return self.inner.send(endpoint, system_text, user_text)


class TestRetryLoop:
    def test_success_on_second_attempt(self):
        client, transport = scripted_client(
            entry(
                "definetti",
                [
                    block(["1|price=0.6", "2|price=0.6"]),
                    block(["1|price=0.5", "2|price=0.5"]),
                ],
            )
        )
        result = elicit_with_retry(client, ENDPOINT, PromptKind.DEFINETTI, QUESTION, TWO)
        assert result.succeeded and not result.salvaged
        assert result.attempts == 2
        assert transport.calls == 2
        assert isinstance(result.payload, PrecisePMF)
        assert result.payload.probs == (0.5, 0.5)
        assert result.score == math.log(2)
        assert result.score_kind == SCORE_ENTROPY
        # one verdict per attempt: first failed on the sum axiom, second clean
        assert [v.passed for v in result.verdicts] == [False, True]
        assert result.verdicts[0].violations[0].code == SUM

    def test_first_try_needs_one_call(self):
        client, transport = scripted_client(
            entry("definetti", [block(["1|price=0.25", "2|price=0.75"])])
        )
        result = elicit_with_retry(client, ENDPOINT, PromptKind.DEFINETTI, QUESTION, TWO)
        assert result.attempts == 1
        assert transport.calls == 1
        assert result.payload.probs == (0.25, 0.75)

    def test_budget_exhausted_collects_one_verdict_per_attempt(self):
        bad = block(["1|price=0.6", "2|price=0.6"])
        client, transport = scripted_client(entry("definetti", [bad] * 5))
        with pytest.raises(RetriesExhaustedError) as info:
            elicit_with_retry(
                client, ENDPOINT, PromptKind.DEFINETTI, QUESTION, TWO, max_attempts=5
            )
        result = info.value.result
        assert not result.succeeded
        assert result.attempts == 5
        assert transport.calls == 5
        assert len(result.attempt_log) == 5
        assert len(result.verdicts) == 5
        for verdict in result.verdicts:
            assert not verdict.passed
            assert [v.code for v in verdict.violations] == [SUM]
        assert result.payload is None and result.score is None

    def test_parse_failure_consumes_attempt(self):
        client, _ = scripted_client(
            entry(
                "definetti",
                ["I refuse to answer in the requested format.",
                 block(["1|price=0.3", "2|price=0.7"])],
            )
        )
        result = elicit_with_retry(client, ENDPOINT, PromptKind.DEFINETTI, QUESTION, TWO)
        assert result.attempts == 2
        first, second = result.attempt_log
        assert first.parse_error is not None
        assert first.verdict is None
        assert second.parse_error is None and second.verdict.passed

    def test_feedback_echoed_into_next_request(self):
        client, _ = scripted_client(
            entry(
                "definetti",
                [
                    block(["1|price=0.8", "2|price=0.8"]),
                    block(["1|price=0.5", "2|price=0.5"]),
                ],
            )
        )
        result = elicit_with_retry(client, ENDPOINT, PromptKind.DEFINETTI, QUESTION, TWO)
        first, second = result.attempt_log
        assert FEEDBACK_HEADER not in first.request_body
        assert FEEDBACK_HEADER in second.request_body
        # the diagnosis itself travels along
        assert "sum" in second.request_body.lower()

    def test_usage_tokens_sum_over_attempts(self):
        client, _ = scripted_client(
            entry(
                "definetti",
                [
                    "nonsense",
                    block(["1|price=0.6", "2|price=0.6"]),
                    block(["1|price=0.5", "2|price=0.5"]),
                ],
            )
        )
        result = elicit_with_retry(client, ENDPOINT, PromptKind.DEFINETTI, QUESTION, TWO)
        assert result.attempts == 3
        assert result.input_tokens == sum(a.input_tokens for a in result.attempt_log)
        assert result.output_tokens == sum(a.output_tokens for a in result.attempt_log)
        assert result.input_tokens > 0 and result.output_tokens > 0

    def test_max_attempts_must_be_positive(self):
        client, _ = scripted_client(entry("definetti", ["unused"]))
        with pytest.raises(ValueError):
            elicit_with_retry(
                client, ENDPOINT, PromptKind.DEFINETTI, QUESTION, TWO, max_attempts=0
            )

    def test_transport_error_propagates(self):
        class Failing:
            def send(self, endpoint, system_text, user_text):
                raise TransportError("boom", retryable=False)

        client = ChatClient(Failing())
        with pytest.raises(TransportError) as info:
            elicit_with_retry(client, ENDPOINT, PromptKind.DEFINETTI, QUESTION, TWO)
        (partial,) = info.value.results
        assert not partial.succeeded and partial.attempts == 0

    def test_transport_error_carries_the_billed_attempts(self):
        client = ChatClient(DownAfter(1, entry("definetti", ["no block"])))
        with pytest.raises(TransportError) as info:
            elicit_with_retry(client, ENDPOINT, PromptKind.DEFINETTI, QUESTION, TWO)
        (partial,) = info.value.results
        assert partial.attempts == 1 and partial.attempt_log[0].parse_error
        assert partial.input_tokens > 0 and partial.output_tokens == 2


class TestSalvage:
    def test_renormalizes_last_parse_on_final_attempt(self):
        bad = block(["1|price=0.6", "2|price=0.6"])
        client, _ = scripted_client(entry("definetti", [bad] * 3))
        result = elicit_with_retry(
            client,
            ENDPOINT,
            PromptKind.DEFINETTI,
            QUESTION,
            TWO,
            max_attempts=3,
            salvage_renormalize=True,
        )
        assert result.succeeded and result.salvaged
        assert result.attempts == 3
        assert result.payload.probs == (0.5, 0.5)
        assert result.score == math.log(2)
        assert result.score_kind == SCORE_ENTROPY

    def test_no_salvage_when_disabled(self):
        bad = block(["1|price=0.6", "2|price=0.6"])
        client, _ = scripted_client(entry("definetti", [bad] * 2))
        with pytest.raises(RetriesExhaustedError):
            elicit_with_retry(
                client, ENDPOINT, PromptKind.DEFINETTI, QUESTION, TWO, max_attempts=2
            )

    def test_negative_prices_are_not_salvageable(self):
        bad = block(["1|price=-0.2", "2|price=0.9"])
        client, _ = scripted_client(entry("definetti", [bad] * 2))
        with pytest.raises(RetriesExhaustedError):
            elicit_with_retry(
                client,
                ENDPOINT,
                PromptKind.DEFINETTI,
                QUESTION,
                TWO,
                max_attempts=2,
                salvage_renormalize=True,
            )

    def test_interval_reports_are_never_salvaged(self):
        bad = block(["1|lower=0.9|upper=0.2", "2|lower=0.1|upper=0.3"])
        client, _ = scripted_client(entry("probint", [bad] * 2))
        with pytest.raises(RetriesExhaustedError):
            elicit_with_retry(
                client,
                ENDPOINT,
                PromptKind.PROBINT,
                QUESTION,
                TWO,
                max_attempts=2,
                salvage_renormalize=True,
            )


class TestOtherKinds:
    def test_interval_success_scores_mmi_upper_bound(self):
        client, _ = scripted_client(
            entry("probint", [block(["1|lower=0.2|upper=0.6", "2|lower=0.3|upper=0.5"])])
        )
        result = elicit_with_retry(client, ENDPOINT, PromptKind.PROBINT, QUESTION, TWO)
        assert result.payload.lowers == (0.2, 0.3)
        assert result.payload.uppers == (0.6, 0.5)
        assert result.score == 1.0 - (0.2 + 0.3)
        assert result.score_kind == SCORE_MMI_UPPER_BOUND

    def test_inverted_interval_is_a_verdict_not_a_crash(self):
        client, _ = scripted_client(
            entry("probint", [block(["1|lower=0.7|upper=0.2", "2|lower=0.1|upper=0.3"])])
        )
        with pytest.raises(RetriesExhaustedError) as info:
            elicit_with_retry(
                client, ENDPOINT, PromptKind.PROBINT, QUESTION, TWO, max_attempts=1
            )
        (verdict,) = info.value.result.verdicts
        (violation,) = verdict.violations
        assert violation.code == INVERTED
        assert violation.index == 0
        assert violation.observed == 0.7 and violation.bound == 0.2

    def test_possibility_all_zero_fails_then_recovers(self):
        client, _ = scripted_client(
            entry(
                "possibility",
                [
                    block(["1|pos=0.0", "2|pos=0.0", f"{NOTA_LABEL}|pos=0.0"]),
                    block(["1|pos=1.0", "2|pos=0.4", f"{NOTA_LABEL}|pos=0.1"]),
                ],
            )
        )
        result = elicit_with_retry(client, ENDPOINT, PromptKind.POSSIBILITY, QUESTION, TWO)
        assert result.attempts == 2
        assert result.verdicts[0].violations[0].code == ALL_ZERO
        assert isinstance(result.payload, PossibilityAssignment)
        assert result.payload.scores == (1.0, 0.4)
        assert result.payload.none_of_above == 0.1
        # possibility reports carry no single first-order score
        assert result.score is None and result.score_kind is None

    def test_vanilla_scores_one_minus_confidence(self):
        client, _ = scripted_client(entry("vanilla", [block(["CONF|conf=0.85"])]))
        result = elicit_with_retry(client, ENDPOINT, PromptKind.VANILLA, QUESTION, TWO)
        assert result.payload == 0.85
        assert result.score == pytest.approx(0.15)
        assert result.score_kind == SCORE_ONE_MINUS_CONF

    def test_candidate_generation_returns_open_ended_set(self):
        client, _ = scripted_client(
            entry("candidates", ["1. Amsterdam\n2. The Hague\n3. amsterdam"])
        )
        got = generate_candidates(client, ENDPOINT, QUESTION)
        assert isinstance(got, CandidateSet)
        assert got.open_ended
        assert got.answers == ("Amsterdam", "The Hague")  # case-fold dedup


class TestCredalEnsemble:
    @staticmethod
    def member(seed):
        return ModelEndpoint(base_url="inproc://test", model_id="scripted", seed=seed)

    def test_three_members_become_three_extreme_points(self):
        entries = [
            entry("credal", [block(["1|prob=0.2", "2|prob=0.8"])], seed=0),
            entry("credal", [block(["1|prob=0.5", "2|prob=0.5"])], seed=1),
            entry("credal", [block(["1|prob=0.4", "2|prob=0.6"])], seed=2),
        ]
        client, _ = scripted_client(*entries)
        members = [self.member(s) for s in range(3)]
        credal = elicit_credal_ensemble(client, members, QUESTION, TWO)
        assert isinstance(credal, CredalSet)
        assert [m.probs for m in credal.members] == [(0.2, 0.8), (0.5, 0.5), (0.4, 0.6)]
        assert credal.member_tags == tuple(f"{ep.key}#seed={ep.seed}" for ep in members)
        envelope = interval_from_credal(credal)
        assert envelope.lowers == (0.2, 0.5)
        assert envelope.uppers == (0.5, 0.8)

    def test_quorum_all_fails_when_one_member_stays_incoherent(self):
        bad = block(["1|prob=0.9", "2|prob=0.9"])
        entries = [
            entry("credal", [block(["1|prob=0.3", "2|prob=0.7"])], seed=0),
            entry("credal", [bad] * 2, seed=1),
        ]
        client, _ = scripted_client(*entries)
        sink = []
        with pytest.raises(MemberQuorumNotMetError) as info:
            elicit_credal_ensemble(
                client,
                [self.member(0), self.member(1)],
                QUESTION,
                TWO,
                max_attempts=2,
                member_results=sink,
            )
        assert list(info.value.results) == sink
        assert len(sink) == 2
        assert sink[0].succeeded and not sink[1].succeeded

    def test_transport_error_carries_every_member_reached(self):
        good = block(["1|prob=0.3", "2|prob=0.7"])
        client = ChatClient(DownAfter(2, entry("credal", [good, "no block"])))
        with pytest.raises(TransportError) as info:
            elicit_credal_ensemble(
                client, [self.member(s) for s in range(3)], QUESTION, TWO
            )
        finished, cut_short = info.value.results
        assert finished.succeeded and finished.attempts == 1
        assert not cut_short.succeeded and cut_short.attempts == 1

    def test_numeric_quorum_tolerates_failures(self):
        bad = block(["1|prob=0.9", "2|prob=0.9"])
        entries = [
            entry("credal", [block(["1|prob=0.3", "2|prob=0.7"])], seed=0),
            entry("credal", [bad] * 2, seed=1),
        ]
        client, _ = scripted_client(*entries)
        credal = elicit_credal_ensemble(
            client,
            [self.member(0), self.member(1)],
            QUESTION,
            TWO,
            max_attempts=2,
            quorum=1,
        )
        assert len(credal.members) == 1
        assert credal.members[0].probs == (0.3, 0.7)

    def test_quorum_validation(self):
        client, _ = scripted_client(entry("credal", ["unused"], seed=0))
        with pytest.raises(ValueError):
            elicit_credal_ensemble(client, [], QUESTION, TWO)
        with pytest.raises(ValueError):
            elicit_credal_ensemble(client, [self.member(0)], QUESTION, TWO, quorum=2)
