"""Retry-loop behavior over scripted transports.

Every test drives the real loop through a MockTransport with canned
replies, so attempt counting, feedback echoing, salvage, and the
all-members ensemble are exercised end to end without sockets.
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
from ipuq.campaign import MODE_SET, score_payload
from ipuq.coherence import ALL_ZERO, SUM, UPPER_SUM
from ipuq.elicit.client import ChatClient, ModelEndpoint, TransportError
from ipuq.elicit.loop import (
    INVERTED,
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


def set_scores(kind, payload):
    """(first_order, second_order) of a loop payload, scored set-level by the
    campaign's record table: the loop itself does not score."""
    return score_payload(kind, payload, mode=MODE_SET)[:2]


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


class Recording:
    """Serves scripted replies and keeps each one it returned."""

    def __init__(self, *entries):
        self.inner = MockTransport(MockScript(entries=entries))
        self.replies = []

    def send(self, endpoint, system_text, user_text):
        self.replies.append(self.inner.send(endpoint, system_text, user_text))
        return self.replies[-1]


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
        assert result.attempts == 2 == len(result.attempt_log)
        assert transport.calls == 2
        assert isinstance(result.payload, PrecisePMF)
        assert result.payload.probs == (0.5, 0.5)
        assert set_scores("definetti", result.payload) == (math.log(2), None)
        # one verdict per attempt: first failed on the sum axiom, second clean
        assert [a.verdict.passed for a in result.attempt_log] == [False, True]
        assert result.attempt_log[0].verdict.violations[0].code == SUM

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
        assert result.attempts == 5 == len(result.attempt_log)
        assert transport.calls == 5
        assert len(result.attempt_log) == 5
        for attempt in result.attempt_log:
            verdict = attempt.verdict
            assert not verdict.passed
            assert [v.code for v in verdict.violations] == [SUM]
        assert result.payload is None

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
        assert FEEDBACK_HEADER not in first.reply.raw_request
        assert FEEDBACK_HEADER in second.reply.raw_request
        # the diagnosis itself travels along
        assert "sum" in second.reply.raw_request.lower()

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
        assert result.input_tokens == sum(a.reply.input_tokens for a in result.attempt_log)
        assert result.output_tokens == sum(a.reply.output_tokens for a in result.attempt_log)
        assert result.input_tokens > 0 and result.output_tokens > 0

    def test_each_attempt_keeps_the_reply_the_transport_returned(self):
        transport = Recording(
            entry(
                "definetti",
                [
                    "no block",
                    block(["1|price=0.6", "2|price=0.6"]),
                    block(["1|price=0.5", "2|price=0.5"]),
                ],
            )
        )
        result = elicit_with_retry(
            ChatClient(transport), ENDPOINT, PromptKind.DEFINETTI, QUESTION, TWO
        )
        parse_failure, failed, passed = result.attempt_log
        assert parse_failure.parse_error and failed.verdict.violations and passed.verdict.passed
        assert len(transport.replies) == 3
        for attempt, reply in zip(result.attempt_log, transport.replies):
            assert attempt.reply is reply

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
        results = []
        with pytest.raises(TransportError):
            elicit_with_retry(client, ENDPOINT, PromptKind.DEFINETTI, QUESTION, TWO,
                              results=results)
        (partial,) = results
        assert not partial.succeeded and partial.attempts == 0

    def test_transport_error_leaves_the_billed_attempts_in_the_list(self):
        client = ChatClient(DownAfter(1, entry("definetti", ["no block"])))
        results = []
        with pytest.raises(TransportError):
            elicit_with_retry(client, ENDPOINT, PromptKind.DEFINETTI, QUESTION, TWO,
                              results=results)
        (partial,) = results
        assert partial.attempts == 1 == len(partial.attempt_log)
        assert partial.attempt_log[0].parse_error
        assert partial.input_tokens > 0 and partial.output_tokens == 2


    def test_the_list_gains_one_result_per_loop_however_it_ends(self):
        good = block(["1|price=0.5", "2|price=0.5"])
        bad = block(["1|price=0.6", "2|price=0.6"])
        results = []
        client, _ = scripted_client(entry("definetti", [good]))
        verified = elicit_with_retry(client, ENDPOINT, PromptKind.DEFINETTI, QUESTION, TWO,
                                     results=results)
        assert results == [verified]

        client, _ = scripted_client(entry("definetti", [bad] * 2))
        salvaged = elicit_with_retry(client, ENDPOINT, PromptKind.DEFINETTI, QUESTION, TWO,
                                     max_attempts=2, salvage_renormalize=True, results=results)
        assert results == [verified, salvaged] and salvaged.salvaged

        client, _ = scripted_client(entry("definetti", [bad] * 2))
        with pytest.raises(RetriesExhaustedError) as info:
            elicit_with_retry(client, ENDPOINT, PromptKind.DEFINETTI, QUESTION, TWO,
                              max_attempts=2, results=results)
        assert len(results) == 3 and results[2] is info.value.result

        client = ChatClient(DownAfter(1, entry("definetti", [bad])))
        with pytest.raises(TransportError):
            elicit_with_retry(client, ENDPOINT, PromptKind.DEFINETTI, QUESTION, TWO,
                              results=results)
        assert [r.attempts for r in results] == [1, 2, 2, 1]
        assert [r.succeeded for r in results] == [True, True, False, False]
        assert not hasattr(info.value, "results")


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
        assert set_scores("definetti", result.payload) == (math.log(2), None)

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
        assert set_scores("probint", result.payload) == (None, 1.0 - (0.2 + 0.3))

    def test_uppers_summing_below_one_are_re_prompted(self):
        # no distribution fits under uppers that sum to 0.7
        client, transport = scripted_client(entry("probint", [
            block(["1|lower=0.1|upper=0.3", "2|lower=0.2|upper=0.4"]),
            block(["1|lower=0.1|upper=0.6", "2|lower=0.2|upper=0.5"]),
        ]))
        result = elicit_with_retry(client, ENDPOINT, PromptKind.PROBINT, QUESTION, TWO)
        assert result.succeeded and result.attempts == 2 == transport.calls
        (violation,) = result.attempt_log[0].verdict.violations
        assert violation.code == UPPER_SUM
        assert violation.observed == pytest.approx(0.7) and violation.bound == 1.0
        assert result.payload.uppers == (0.6, 0.5)

    def test_inverted_interval_is_a_verdict_not_a_crash(self):
        client, _ = scripted_client(
            entry("probint", [block(["1|lower=0.7|upper=0.2", "2|lower=0.1|upper=0.3"])])
        )
        with pytest.raises(RetriesExhaustedError) as info:
            elicit_with_retry(
                client, ENDPOINT, PromptKind.PROBINT, QUESTION, TWO, max_attempts=1
            )
        (attempt,) = info.value.result.attempt_log
        (violation,) = attempt.verdict.violations
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
        assert result.attempt_log[0].verdict.violations[0].code == ALL_ZERO
        assert isinstance(result.payload, PossibilityAssignment)
        assert result.payload.scores == (1.0, 0.4)
        assert result.payload.none_of_above == 0.1
        # possibility reports carry no single first-order score
        assert set_scores("possibility", result.payload)[0] is None

    def test_vanilla_scores_one_minus_confidence(self):
        client, _ = scripted_client(entry("vanilla", [block(["CONF|conf=0.85"])]))
        result = elicit_with_retry(client, ENDPOINT, PromptKind.VANILLA, QUESTION, TWO)
        assert result.payload == 0.85
        assert set_scores("vanilla", result.payload)[0] == pytest.approx(0.15)

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
        results = []
        with pytest.raises(MemberQuorumNotMetError):
            elicit_credal_ensemble(
                client,
                [self.member(0), self.member(1)],
                QUESTION,
                TWO,
                max_attempts=2,
                results=results,
            )
        assert [r.succeeded for r in results] == [True, False]

    def test_transport_error_leaves_every_member_reached_in_the_list(self):
        good = block(["1|prob=0.3", "2|prob=0.7"])
        client = ChatClient(DownAfter(2, entry("credal", [good, "no block"])))
        results = []
        with pytest.raises(TransportError):
            elicit_credal_ensemble(
                client, [self.member(s) for s in range(3)], QUESTION, TWO, results=results
            )
        finished, cut_short = results
        assert finished.succeeded and finished.attempts == 1 == len(finished.attempt_log)
        assert not cut_short.succeeded and cut_short.attempts == 1 == len(cut_short.attempt_log)

    def test_quorum_validation(self):
        client, _ = scripted_client(entry("credal", ["unused"], seed=0))
        with pytest.raises(ValueError):
            elicit_credal_ensemble(client, [], QUESTION, TWO)
