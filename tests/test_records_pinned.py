"""Records format pin: four small campaigns must keep writing the same bytes.

Each campaign runs all five methods over two seeds, with three credal
members, retry budget 2 and salvage on, against the in-process simulated
agent behind a content-keyed fault injector.  The injector breaks some
first attempts (missing block, out-of-range or renamed fields, dropped or
extra rows, inverted intervals, halved prices, all-zero possibilities) and
some cells on every attempt, so the records cover parse errors, coherence
verdicts, retries, salvage and failed cells as well as clean ones.

``PINNED`` holds, per (source, score mode), the SHA-256 of the canonical
JSON (``campaign.canonical_json``) of the list of records read back with
``load_run_records``, each without its ``timing`` subrecord: the value of
``records_digest`` below.  ``PYTHONPATH=src python
tests/test_records_pinned.py`` runs the four campaigns and prints their
digests.  They were last re-pinned when records stopped writing three
members that restate other stored fields: the ``labels`` block (eval works
the labels out from the record), the endpoint's ``model_id`` and
``base_url`` (``endpoint.key`` names both) and a credal payload's ``tags``
(each member's request bodies hold its seed).  ``scripts/records_diff.py``
showed ``labels``, ``endpoint.model_id``, ``endpoint.base_url`` and
``elicitation.payload.tags`` as the only differences.  ``WITH_LABELS``
keeps the digests from before, which the records give again once
:func:`with_labels` restores the three members.  The re-pin before that
dropped four views (``elicitation.kind``, ``decision``,
``prediction_in_set`` and each checked attempt's ``passed``), and
``WITH_VIEWS`` keeps the digests from before it, which :func:`with_views`
gives back.  A change that alters any record byte outside ``timing`` fails
here; if the change is meant, recompute the digests the same way and say
why in CHANGES.md.
"""

import collections
import copy
import hashlib
import json
import math
import re
import tempfile
import zlib
from dataclasses import replace
from pathlib import Path

import pytest

from ipuq.campaign import (
    DATASET_QA_FILE,
    DATASET_SYNTH,
    METHODS,
    MODE_AUTO,
    MODE_SET,
    SCORE_FIELDS,
    CampaignConfig,
    DatasetSource,
    append_records,
    canonical_json,
    candidates_from_dict,
    decide,
    decode_record_payload,
    load_run_records,
    records_path,
    recompute_scores,
    run_campaign,
)
from ipuq.elicit.client import ChatClient, ModelEndpoint, parse_response_body
from ipuq.elicit.loop import ACCEPTANCE
from ipuq.elicit.parsing import ParseError, parse_structured_report
from ipuq.elicit.prompts import FEEDBACK_HEADER, PromptKind, detect_kind, extract_question
from ipuq.mock import AgentConfig, MockScript, MockTransport
from ipuq.reporting import (
    LABEL_AMBIGUOUS,
    LABEL_INCORRECT,
    LABEL_KINDS,
    cost_rows,
    metric_rows,
    record_label,
)
from ipuq.synth import TransformSpec

PINNED = {
    ("synth", MODE_AUTO):
        "12c715d26635a203fb7d9b5b549d3de1414d85fe7794565c9ba8cf0a9509e760",
    ("synth", MODE_SET):
        "8f71c5bd01bb00cd5589e1c45f930c484226084cda26109d059ee11868d7bf4c",
    ("qa_file", MODE_AUTO):
        "b0a61ec682855704e7e687723403f50962c51f540ebc0533714c93c0defbba5a",
    ("qa_file", MODE_SET):
        "7c9220035b6168bb0b00b23f61e959fd233c5ad50897e3a50c86ad12a3f4598c",
}

#: The same campaigns' digests while records still held the three members
#: that :func:`with_labels` restores: ``PINNED`` before they were dropped.
WITH_LABELS = {
    ("synth", MODE_AUTO):
        "039e4be5d49f10db72e46b85f7274d7d2048eaf5e645761f79dc404843eb77da",
    ("synth", MODE_SET):
        "a027084a3949a0e79b49ebe7dc1f2b86ed7dcc8b6cb6536401ce81523618451b",
    ("qa_file", MODE_AUTO):
        "442eb86694c71a3a85d47b6e215f3b2becac49fb6fe8f6689a2d2f89f9d9497c",
    ("qa_file", MODE_SET):
        "e989f4d064dd76de8d8e86bc7195e6f977c3dea18d6685d156a0ab1ebb3235c2",
}

#: The same campaigns' digests while records also held the four views that
#: :func:`with_views` restores besides those three members.
WITH_VIEWS = {
    ("synth", MODE_AUTO):
        "8d8f3678601400042937ce19ad47ff18ef351bde9c68c78baf6331ce2de7e66d",
    ("synth", MODE_SET):
        "84c5b89cf630c56efd0e674c3bd256c9e79713670dd55d5314400a59a8ab759e",
    ("qa_file", MODE_AUTO):
        "3585791f87c9a2b3a9a1af24fd0c4cc08fde5f1585b502f377d86a2be0b93381",
    ("qa_file", MODE_SET):
        "97264406af3f43607272473e90d49cde13606876bfefaa32db228c46c8e001d7",
}

QA_ROWS = [
    {"id": "q0", "question": "Which river runs through Lyon?",
     "answers": ["Rhone", "Saone"], "pstar": [0.6, 0.4], "prediction": "Saone"},
    {"id": "q1", "question": "Capital of the Netherlands?",
     "answers": ["Amsterdam"], "pstar": [1.0]},
    {"id": "q2", "question": "Which planet is called the red planet?",
     "answers": ["Mars", "mars", "Ares"], "pstar": [0.5, 0.3, 0.2],
     "reference": "Ares", "prediction": "Venus"},
    {"id": "q3", "question": "Name a prime below ten.",
     "answers": ["Two", "Three", "Five", "Seven"], "prediction": "Five"},
]

_VALUE_RE = re.compile(r"=([^|\n`]+)")


def _no_block(text):
    return "I would rather not put numbers on this one."


def _out_of_range(text):
    return _VALUE_RE.sub("=1.5", text, count=1)


def _rename_field(text):
    return re.sub(r"\|(\w+)=", r"|value=", text, count=1)


def _drop_last_row(text):
    rows = text.split("\n")
    return "\n".join(rows[:-2] + rows[-1:])


def _extra_nota(text):
    return text.replace("\n```", "\nNOTA|pos=0.5\n```", 1)


def _halve(text):
    return _VALUE_RE.sub(lambda m: f"={float(m.group(1)) / 2!r}", text)


def _invert_first(text):
    return re.sub(r"^1\|lower=([^|\n]+)\|upper=([^|\n]+)$", r"1|lower=\2|upper=\1", text,
                  count=1, flags=re.MULTILINE)


def _zeros(text):
    return _VALUE_RE.sub("=0.0", text)


FIRST_ATTEMPT_FAULTS = {
    PromptKind.DEFINETTI: (_no_block, _halve, _extra_nota, _rename_field),
    PromptKind.PROBINT: (_invert_first, _drop_last_row, _out_of_range),
    PromptKind.CREDAL: (_halve, _no_block, _out_of_range),
    PromptKind.POSSIBILITY: (_zeros, _drop_last_row, _extra_nota),
    PromptKind.VANILLA: (_out_of_range, _no_block, _rename_field),
}
# A cell broken on every attempt: price kinds end salvaged, the rest fail.
EVERY_ATTEMPT_FAULTS = {
    PromptKind.DEFINETTI: _halve,
    PromptKind.PROBINT: _invert_first,
    PromptKind.CREDAL: _halve,
    PromptKind.POSSIBILITY: _no_block,
    PromptKind.VANILLA: _no_block,
}


class FaultyAgent:
    """The simulated agent, with faults chosen from the request content."""

    def __init__(self):
        self.inner = MockTransport(MockScript(agent=AgentConfig()))

    def send(self, endpoint, system_text, user_text):
        reply = self.inner.send(endpoint, system_text, user_text)
        kind = detect_kind(user_text)
        h = zlib.crc32(f"{kind.value}|{endpoint.seed}|{extract_question(user_text)}".encode())
        if h % 7 == 0:
            fault = EVERY_ATTEMPT_FAULTS[kind]
        elif h % 3 == 0 and FEEDBACK_HEADER not in user_text:
            faults = FIRST_ATTEMPT_FAULTS[kind]
            fault = faults[h // 3 % len(faults)]
        else:
            return reply
        text = fault(reply.text)
        body = json.loads(reply.raw_response)
        body["choices"][0]["message"]["content"] = text
        body["usage"]["completion_tokens"] = len(text.split())
        return replace(reply, text=text, output_tokens=len(text.split()),
                       raw_response=json.dumps(body, sort_keys=True, ensure_ascii=False))


def _source(name, tmp_path):
    if name == "synth":
        return DatasetSource(kind=DATASET_SYNTH, transform=TransformSpec(steps=(("rotation", 2),)),
                             noise_p=0.25, m=2, word_length=3, count=4, base_seed=2)
    path = tmp_path / "qa.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in QA_ROWS), encoding="utf-8")
    return DatasetSource(kind=DATASET_QA_FILE, path=str(path), format="maqa_like")


def records_digest(records):
    stripped = [{k: v for k, v in rec.items() if k != "timing"} for rec in records]
    return hashlib.sha256(canonical_json(stripped).encode("utf-8")).hexdigest()


def pinned_config(tmp_path, source_name, mode):
    return CampaignConfig(
        dataset=_source(source_name, tmp_path),
        methods=METHODS,
        endpoints=(ModelEndpoint(base_url="inproc://agent", model_id="mock-agent"),),
        seeds=(0, 1),
        retry_budget=2,
        output_dir=str(tmp_path / "runs"),
        credal_members=3,
        score_mode=mode,
        salvage_renormalize=True,
    )


def run_pinned_campaign(tmp_path, source_name, mode):
    config = pinned_config(tmp_path, source_name, mode)
    run_campaign(config, client=ChatClient(FaultyAgent()))
    return load_run_records(records_path(config.output_dir))


@pytest.mark.parametrize("source_name,mode", sorted(PINNED))
def test_records_match_the_pinned_digest(tmp_path, source_name, mode):
    records = run_pinned_campaign(tmp_path, source_name, mode)

    # The injected faults reach every path the digest is meant to cover.
    elicitations = [r["elicitation"] for r in records]
    attempts = [a for e in elicitations for m in e["verdicts"] for a in m["attempts"]]
    assert any("parse_error" in a for a in attempts)
    assert any(a.get("violations") for a in attempts)
    assert any(e["salvaged"] for e in elicitations)
    assert any(not e["succeeded"] for e in elicitations)
    for rec in records:
        stored = {k: rec["scores"][k] for k in ("first_order", "second_order", "combined")}
        assert recompute_scores(rec) == stored

    assert records_digest(records) == PINNED[(source_name, mode)]


@pytest.mark.parametrize("source_name,mode", sorted(PINNED))
def test_each_verdict_recomputes_from_its_transcript(tmp_path, source_name, mode):
    # the reply text is one call away from the stored bodies, and parsing and
    # checking it again under the record's kind and candidates gives the
    # recorded parse error or verdict
    outcomes = collections.Counter()
    for rec in run_pinned_campaign(tmp_path, source_name, mode):
        kind = PromptKind(rec["key"]["method"])
        candidates = candidates_from_dict(rec["candidates"])
        verdicts, transcripts = rec["elicitation"]["verdicts"], rec["elicitation"]["transcripts"]
        assert [m["member"] for m in verdicts] == [m["member"] for m in transcripts]
        for checked, sent in zip(verdicts, transcripts):
            assert [a["attempt"] for a in checked["attempts"]] == [
                a["attempt"] for a in sent["attempts"]]
            for entry, bodies in zip(checked["attempts"], sent["attempts"]):
                text = parse_response_body(bodies["request"], bodies["response"]).text
                try:
                    parsed = parse_structured_report(kind, text, candidates)
                except ParseError as exc:
                    assert entry == {"attempt": entry["attempt"], "parse_error": str(exc)}
                    outcomes["parse_error"] += 1
                    continue
                verdict, _ = ACCEPTANCE[kind].check(parsed, candidates)
                assert entry == {
                    "attempt": entry["attempt"],
                    "violations": [
                        {"code": v.code, "index": v.index, "observed": v.observed,
                         "bound": v.bound}
                        for v in verdict.violations
                    ],
                }
                outcomes[verdict.passed] += 1
    assert outcomes["parse_error"] and outcomes[True] and outcomes[False]


def with_labels(record, endpoint):
    """``record`` as it was written while records also stored three members
    that restate other fields: the ``labels`` block, by the rule that wrote
    it, the parts of the endpoint ``endpoint.key`` names, and a credal
    payload's member ``tags``."""
    old = copy.deepcopy(record)
    prediction, reference = record["prediction"], record["reference_answer"]
    old["labels"] = {
        "ambiguous": int(len(record["truth_set"]) > 1),
        "correct": None if prediction is None or reference is None else int(
            candidates_from_dict(record["candidates"]).matches(prediction, reference)),
    }
    assert record["endpoint"] == {"key": endpoint.key}
    old["endpoint"].update(model_id=endpoint.model_id, base_url=endpoint.base_url)
    payload = old["elicitation"]["payload"]
    if record["key"]["method"] == "credal" and payload is not None:
        # member j of record seed s ran under seed 100 * s + j
        payload["tags"] = [f"{endpoint.key}#seed={record['key']['seed'] * 100 + j}"
                           for j in range(len(payload["members"]))]
    return old


def with_views(record, endpoint):
    """``record`` as it was written while records also stored, besides what
    :func:`with_labels` restores, four views of other fields: the method as
    ``elicitation.kind``, the ``decision`` block, ``prediction_in_set`` and
    each checked attempt's ``passed``."""
    old = with_labels(record, endpoint)
    method, prediction = record["key"]["method"], record["prediction"]
    old["elicitation"]["kind"] = method
    old["prediction_in_set"] = None if prediction is None else (
        candidates_from_dict(record["candidates"]).index_of(prediction) is not None)
    outcome = None
    if record["elicitation"]["payload"] is not None:
        outcome = decide(method, decode_record_payload(record)[1])
    old["decision"] = None if outcome is None else {
        "rule": outcome.rule, "chosen_index": outcome.chosen_index,
        "chosen_answer": outcome.chosen_answer, "tie_broken": outcome.tie_broken}
    for member in old["elicitation"]["verdicts"]:
        for attempt in member["attempts"]:
            if "violations" in attempt:
                attempt["passed"] = not attempt["violations"]
    return old


#: Per older form of the records, what restores it and its digests.
OLDER = {"with labels": (with_labels, WITH_LABELS), "with views": (with_views, WITH_VIEWS)}


def _eval_rows(records, config):
    rows = [metric_rows(records, "auroc", dataset="pinned", score_field=field, label_kind=label)
            for label in LABEL_KINDS for field in SCORE_FIELDS]
    rows += [metric_rows(records, "concordance", dataset="pinned", score_field=field)
             for field in SCORE_FIELDS]
    return rows + [cost_rows(records, config.endpoints)]


@pytest.mark.parametrize("written", sorted(OLDER))
@pytest.mark.parametrize("source_name,mode", sorted(PINNED))
def test_an_older_file_loads_evaluates_and_resumes(tmp_path, source_name, mode, written):
    # a records file written before the labels or the views were dropped is
    # still ipuq.runrecord.v1: nothing reads them, so it is read as before
    config = pinned_config(tmp_path, source_name, mode)
    run_campaign(config, client=ChatClient(FaultyAgent()))
    records = load_run_records(records_path(config.output_dir))
    restore, digests = OLDER[written]
    old = [restore(record, config.endpoints[0]) for record in records]
    assert records_digest(old) == digests[(source_name, mode)]
    # the labels worked out on read are the labels the older code stored
    for record in old:
        correct = record["labels"]["correct"]
        assert (record_label(record, LABEL_AMBIGUOUS), record_label(record, LABEL_INCORRECT)) == (
            record["labels"]["ambiguous"], None if correct is None else 1 - correct)

    old_config = replace(config, output_dir=str(tmp_path / "old"))
    append_records(records_path(old_config.output_dir), old)
    loaded = load_run_records(records_path(old_config.output_dir))
    assert loaded == old
    assert _eval_rows(loaded, old_config) == _eval_rows(records, config)
    for record in loaded:
        for field, value in recompute_scores(record).items():
            stored = record["scores"][field]
            assert value == stored or math.isclose(value, stored, rel_tol=0, abs_tol=1e-12)

    agent = FaultyAgent()
    assert run_campaign(old_config, client=ChatClient(agent)) == []
    assert agent.inner.calls == 0


if __name__ == "__main__":
    for source_name, mode in sorted(PINNED):
        with tempfile.TemporaryDirectory() as tmp:
            digest = records_digest(run_pinned_campaign(Path(tmp), source_name, mode))
        print(f"({source_name!r}, {mode!r}): {digest!r},")
