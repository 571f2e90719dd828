"""Acceptance gate: twelve end-to-end checks, one printed PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
print; under default capture they still appear for any failing check.
Each check pins its own tolerances and, where stated, its runtime budget.
"""

import contextlib
import json
import math
import random
import time

import pytest

from ipuq.campaign import (
    DATASET_SYNTH,
    MODE_SET,
    CampaignConfig,
    DatasetSource,
    canonical_json,
    load_run_records,
    records_path,
    recompute_scores,
    run_campaign,
    score_payload,
)
from ipuq.coherence import SUM
from ipuq.core import (
    CandidateSet,
    CredalSet,
    PossibilityAssignment,
    PrecisePMF,
    ProbabilityIntervalSet,
    interval_from_credal,
)
from ipuq.decision import maximax, maximin, precise_argmax
from ipuq.elicit.client import ChatClient, ModelEndpoint
from ipuq.elicit.loop import RetriesExhaustedError, elicit_with_retry
from ipuq.elicit.prompts import PromptKind
from ipuq.metrics import auroc, concordance_index
from ipuq.mmi import (
    exact_mmi_credal,
    interval_width_mmi,
    mmi_upper_bound,
    possibility_mmi,
)
from ipuq.mock import AgentConfig, MockScript, MockTransport, ScriptEntry
from ipuq.reporting import cost_rows
from ipuq.scores import ce_kl_decomposition
from ipuq.study import run_synthetic_study
from ipuq.synth import TransformSpec, apply_cyclic_shift, apply_rotation, ground_truth_variants

ALPHA = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


@contextlib.contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number:02d} — {title}", flush=True)
        raise
    print(f"[PASS] criterion {number:02d} — {title}", flush=True)


def candidate_letters(n):
    return CandidateSet(answers=tuple(ALPHA[i] for i in range(n)))


# -------------------------------------------------------------------------
# 1. analytic casing distribution
# -------------------------------------------------------------------------


def test_c01_casing_distribution_values_and_normalization():
    with criterion(1, "casing distribution matches analytic values and normalizes"):
        t0 = time.monotonic()
        variants = ground_truth_variants("ROCK", 0.25)
        by_count = {}
        for v in variants:
            lowered = sum(1 for c in v.text if c.islower())
            by_count.setdefault(lowered, set()).add(v.prob)
        targets = {0: 0.316, 1: 0.105, 2: 0.035, 3: 0.012, 4: 0.004}
        for lowered, target in targets.items():
            (prob,) = by_count[lowered]
            assert abs(prob - target) <= 5e-4, (lowered, prob)

        for length in range(1, 13):
            word = ALPHA[:length]
            for tenths in range(11):
                p = tenths / 10
                total = math.fsum(v.prob for v in ground_truth_variants(word, p))
                assert abs(total - 1.0) <= 1e-9, (length, p, total)
        assert time.monotonic() - t0 < 1.0


# -------------------------------------------------------------------------
# 2. exact credal MMI vs independent enumerator and its upper bound
# -------------------------------------------------------------------------


def enumerate_mmi(member_probs):
    """Independent exact MMI: walk all 2^n events, accumulate by index order."""
    n = len(member_probs[0])
    best = 0.0
    for mask in range(1, 2**n):
        event_probs = []
        for probs in member_probs:
            total = 0.0
            for i in range(n):
                if mask >> i & 1:
                    total += probs[i]
            event_probs.append(total)
        gap = max(event_probs) - min(event_probs)
        if gap > best:
            best = gap
    return best


def random_pmf(rng, n):
    cuts = sorted(rng.random() for _ in range(n - 1))
    edges = [0.0] + cuts + [1.0]
    return tuple(edges[i + 1] - edges[i] for i in range(n))


def test_c02_credal_mmi_bit_exact_and_dominated():
    with criterion(2, "exact credal MMI matches the 2^n enumerator and its bound"):
        rng = random.Random(20240817)
        t0 = time.monotonic()
        for _ in range(10_000):
            n = rng.randint(2, 8)
            m = rng.randint(1, 6)
            members = [random_pmf(rng, n) for _ in range(m)]
            candidates = candidate_letters(n)
            credal = CredalSet(
                candidates=candidates,
                members=tuple(
                    PrecisePMF(candidates=candidates, probs=probs) for probs in members
                ),
            )
            exact = exact_mmi_credal(credal).value
            assert exact == enumerate_mmi(members)  # bit-for-bit
            envelope = interval_from_credal(credal)
            bound = mmi_upper_bound(envelope.lowers).value
            assert exact <= bound + 1e-9
        assert time.monotonic() - t0 < 30.0


# -------------------------------------------------------------------------
# 3. worked single-interval and lower-sum figures
# -------------------------------------------------------------------------


def test_c03_worked_interval_figures_exact():
    with criterion(3, "single interval [0.2, 0.5] gives 0.3; lower sum 0.4 gives 0.6"):
        assert interval_width_mmi(0.2, 0.5).value == 0.3
        assert mmi_upper_bound((0.2, 0.2)).value == 0.6
        assert mmi_upper_bound((0.4,)).value == 0.6


# -------------------------------------------------------------------------
# 4. possibility MMI = second order statistic, scale invariant
# -------------------------------------------------------------------------


def test_c04_possibility_mmi_order_statistic_and_scaling():
    with criterion(4, "possibility MMI is the normalized second-largest score"):
        rng = random.Random(41)
        for _ in range(10_000):
            n = rng.randint(1, 7)
            scores = [rng.random() for _ in range(n)]
            nota = rng.random()
            if max(scores + [nota]) == 0.0:
                scores[0] = 0.5
            assignment = PossibilityAssignment(
                candidates=candidate_letters(n),
                scores=tuple(min(s, 1.0) for s in scores),
                none_of_above=min(nota, 1.0),
            )
            ours = possibility_mmi(assignment).value
            raw = list(assignment.scores) + [assignment.none_of_above]
            peak = max(raw)
            oracle = sorted((v / peak for v in raw), reverse=True)[1] if len(raw) > 1 else 0.0
            assert ours == oracle

            scale = 10 ** rng.uniform(-3, 0)
            scaled = PossibilityAssignment(
                candidates=assignment.candidates,
                scores=tuple(s * scale for s in assignment.scores),
                none_of_above=assignment.none_of_above * scale,
            )
            assert abs(possibility_mmi(scaled).value - ours) <= 1e-12


# -------------------------------------------------------------------------
# 5. cross-entropy = entropy + KL
# -------------------------------------------------------------------------


def test_c05_decomposition_identity():
    with criterion(5, "cross-entropy equals entropy plus KL, KL never negative"):
        rng = random.Random(5)
        for _ in range(10_000):
            n = rng.randint(2, 16)
            candidates = candidate_letters(n)
            ref = PrecisePMF(candidates=candidates, probs=random_pmf(rng, n))
            pred = PrecisePMF(candidates=candidates, probs=random_pmf(rng, n))
            d = ce_kl_decomposition(ref, pred)
            assert d.kl_eu >= 0.0
            assert abs(d.cross_entropy - (d.entropy_au + d.kl_eu)) <= 1e-9


# -------------------------------------------------------------------------
# 6. retry loop attempt accounting
# -------------------------------------------------------------------------


def test_c06_retry_loop_attempts_and_verdicts():
    with criterion(6, "retry loop: 2 attempts to coherence; budget 5 yields 5 SUM verdicts"):
        question = "Pick one."
        two = CandidateSet(answers=("A", "B"))
        endpoint = ModelEndpoint(base_url="inproc://gate", model_id="scripted")
        wrap = lambda rows: "```\n" + "\n".join(rows) + "\n```"  # noqa: E731

        script = MockScript(entries=(
            ScriptEntry(
                question=question,
                kind="definetti",
                replies=(
                    wrap(["1|price=0.6", "2|price=0.6"]),
                    wrap(["1|price=0.5", "2|price=0.5"]),
                ),
            ),
        ))
        result = elicit_with_retry(
            ChatClient(MockTransport(script)), endpoint,
            PromptKind.DEFINETTI, question, two,
        )
        assert result.attempts == 2
        assert result.payload.probs == (0.5, 0.5)
        assert score_payload("definetti", result.payload, mode=MODE_SET)[0] == math.log(2)

        incoherent = wrap(["1|price=0.6", "2|price=0.6"])
        script = MockScript(entries=(
            ScriptEntry(question=question, kind="definetti", replies=(incoherent,) * 5),
        ))
        with pytest.raises(RetriesExhaustedError) as info:
            elicit_with_retry(
                ChatClient(MockTransport(script)), endpoint,
                PromptKind.DEFINETTI, question, two, max_attempts=5,
            )
        failed = info.value.result
        assert failed.attempts == 5
        for attempt in failed.attempt_log:
            assert [v.code for v in attempt.verdict.violations] == [SUM]


# -------------------------------------------------------------------------
# 7. transform correctness and round trips
# -------------------------------------------------------------------------


def test_c07_transforms_round_trip():
    with criterion(7, "rotation worked example and 10^4 round-trip cases"):
        t0 = time.monotonic()
        assert apply_rotation("APPLE", 1) == "BQQMF"
        rng = random.Random(7)
        for _ in range(10_000):
            word = "".join(rng.choice(ALPHA) for _ in range(rng.randint(1, 10)))
            k = rng.randint(0, 25)
            assert apply_rotation(apply_rotation(word, k), 26 - k) == word
            s = rng.randint(0, len(word))
            shifted = apply_cyclic_shift(word, s, direction="left")
            assert apply_cyclic_shift(shifted, s, direction="right") == word
            assert sorted(shifted) == sorted(word)
        assert time.monotonic() - t0 < 5.0


# -------------------------------------------------------------------------
# 8. rank metrics vs brute force
# -------------------------------------------------------------------------


def pairwise_auroc(pairs):
    pos = [score for score, label in pairs if label == 1]
    neg = [score for score, label in pairs if label == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            total += 1.0 if p > q else (0.5 if p == q else 0.0)
    return total / (len(pos) * len(neg))


def pairwise_concordance(pairs):
    agree = 0.0
    used = 0
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            (a_score, a_ref), (b_score, b_ref) = pairs[i], pairs[j]
            if a_ref == b_ref:
                continue
            used += 1
            hi, lo = (a_score, b_score) if a_ref > b_ref else (b_score, a_score)
            agree += 1.0 if hi > lo else (0.5 if hi == lo else 0.0)
    return agree / used


def test_c08_rank_metrics_match_pair_enumeration():
    with criterion(8, "AUROC and concordance equal pairwise enumeration with ties"):
        rng = random.Random(88)
        done = 0
        while done < 1_000:
            n = rng.randint(2, 100)
            # coarse score grid makes ties frequent
            # (score, label, reference), drawn in that order
            examples = [
                (rng.randint(0, 12) / 12, rng.randint(0, 1), rng.randint(0, 8) / 8)
                for _ in range(n)
            ]
            labelled = [(score, label) for score, label, _ in examples]
            referenced = [(score, ref) for score, _, ref in examples]
            labels = {label for _, label in labelled}
            refs = {ref for _, ref in referenced}
            if labels != {0, 1} or len(refs) < 2:
                continue
            assert auroc(labelled) == pairwise_auroc(labelled)
            assert concordance_index(referenced) == pairwise_concordance(referenced)
            done += 1


# -------------------------------------------------------------------------
# 9. simulated disentanglement pattern
# -------------------------------------------------------------------------


def test_c09_disentangled_uncertainty_axes():
    with criterion(9, "first-order tracks noise only; imprecision tracks examples only"):
        t0 = time.monotonic()
        p_grid, m_grid = (0.0, 0.25, 0.5), (1, 5, 20, 80)
        run = lambda: run_synthetic_study(  # noqa: E731
            TransformSpec(steps=(("rotation", 1),)),
            noise_grid=p_grid, m_grid=m_grid, repeats=2, word_length=4,
        )
        cells = run()
        assert run() == cells  # deterministic end to end
        by_cell = {(c.method, c.p, c.m): c for c in cells}

        for m in m_grid:
            ent = [by_cell[("definetti", p, m)].first_order_mean for p in p_grid]
            assert ent[0] < ent[1] < ent[2], ent
            widths = [by_cell[("probint", p, m)].second_order_mean for p in p_grid]
            assert max(widths) - min(widths) < 0.05, widths
        for p in p_grid:
            widths = [by_cell[("probint", p, m)].second_order_mean for m in m_grid]
            assert widths[0] > widths[1] > widths[2] > widths[3], widths
            ent = [by_cell[("definetti", p, m)].first_order_mean for m in m_grid]
            assert max(ent) - min(ent) < 0.05, ent
        assert time.monotonic() - t0 < 10.0


# -------------------------------------------------------------------------
# 10. decision rules collapse on degenerate intervals
# -------------------------------------------------------------------------


def test_c10_decision_rules():
    with criterion(10, "degenerate intervals collapse the rules; wide ones split them"):
        rng = random.Random(10)
        for _ in range(1_000):
            n = rng.randint(2, 8)
            probs = random_pmf(rng, n)
            candidates = candidate_letters(n)
            degenerate = ProbabilityIntervalSet(
                candidates=candidates, lowers=probs, uppers=probs
            )
            pmf = PrecisePMF(candidates=candidates, probs=probs)
            chosen = precise_argmax(pmf).chosen_index
            assert maximin(degenerate).chosen_index == chosen
            assert maximax(degenerate).chosen_index == chosen

        two = CandidateSet(answers=("A", "B"))
        split = ProbabilityIntervalSet(
            candidates=two, lowers=(0.3, 0.4), uppers=(0.6, 0.5)
        )
        assert maximin(split).chosen_answer == "B"
        assert maximax(split).chosen_answer == "A"


# -------------------------------------------------------------------------
# 11. end-to-end campaign determinism over a live mock endpoint
# -------------------------------------------------------------------------

GATE_PORT = 8931  # pinned so both runs share one endpoint identity


def run_recorded_campaign(tmp_path, subdir, base_url):
    config = CampaignConfig(
        dataset=DatasetSource(
            kind=DATASET_SYNTH,
            transform=TransformSpec(steps=(("rotation", 1),)),
            noise_p=0.25,
            m=3,
            word_length=3,
            count=3,
            base_seed=0,
        ),
        methods=("definetti", "probint", "credal", "possibility", "vanilla"),
        endpoints=(ModelEndpoint(base_url=base_url, model_id="mock-agent"),),
        seeds=(0, 1),
        credal_members=3,
        output_dir=str(tmp_path / subdir),
    )
    run_campaign(config)
    return load_run_records(records_path(config.output_dir))


def test_c11_campaign_determinism_and_rescoring(tmp_path, serve):
    with criterion(11, "identical campaigns agree byte-for-byte (timing aside)"):
        script = MockScript(agent=AgentConfig(noise_p=0.25, width_c=1.0))
        with serve(script, port=GATE_PORT) as base_url:
            first = run_recorded_campaign(tmp_path, "run-a", base_url)
            second = run_recorded_campaign(tmp_path, "run-b", base_url)

        assert len(first) == 3 * 5 * 2
        def stripped(records):
            out = []
            for rec in records:
                rec = dict(rec)
                rec.pop("timing")
                out.append(canonical_json(rec))
            return out

        assert stripped(first) == stripped(second)

        for record in first:
            assert record["elicitation"]["succeeded"]
            redone = recompute_scores(record)
            for field in ("first_order", "second_order", "combined"):
                stored = record["scores"][field]
                if stored is None:
                    assert redone[field] is None
                else:
                    assert abs(redone[field] - stored) <= 1e-12


# -------------------------------------------------------------------------
# 12. cost rows arithmetic
# -------------------------------------------------------------------------


def test_c12_cost_rows_exactness():
    def usage(endpoint_key, method, tin, tout):
        return {"endpoint": {"key": endpoint_key}, "key": {"method": method},
                "elicitation": {"usage": {"input_tokens": tin, "output_tokens": tout}}}

    def totals(rows):
        return [r for r in rows if r["method"] == "__total__"]

    endpoints = (
        ModelEndpoint(base_url="u", model_id="m",
                      price_per_input_token=2e-6, price_per_output_token=6e-6),
        ModelEndpoint(base_url="u", model_id="other",
                      price_per_input_token=1e-6, price_per_output_token=2e-6),
    )
    with criterion(12, "cost rows reproduce hand totals and add across record sets"):
        a = [usage("m@u", "definetti", 1000, 100), usage("m@u", "definetti", 500, 50),
             usage("m@u", "vanilla", 200, 10)]
        [a_total] = totals(cost_rows(a, endpoints))
        hand_total = (1700 * 2e-6) + (160 * 6e-6)
        assert abs(a_total["currency"] - hand_total) <= 1e-12
        assert a_total["input_tokens"] == 1700 and a_total["output_tokens"] == 160

        b = [usage("m@u", "definetti", 10, 1), usage("other@u", "credal", 30, 3)]
        both = cost_rows(a + b, endpoints)
        assert abs(
            sum(r["currency"] for r in totals(both))
            - (a_total["currency"] + sum(r["currency"] for r in totals(cost_rows(b, endpoints))))
        ) <= 1e-12
        by_line = {(r["endpoint"], r["method"]): r for r in both}
        assert by_line[("m@u", "definetti")]["input_tokens"] == 1510
