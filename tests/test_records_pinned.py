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
``records_digest`` below.  The digests were computed by running this very
module against the code before the per-method tables replaced the
per-method if-chains, and printing ``records_digest`` for each campaign.
A change that alters any record byte outside ``timing`` fails here; if the
change is meant, recompute the digests the same way and say why in
CHANGES.md.
"""

import hashlib
import json
import re
import zlib
from dataclasses import replace

import pytest

from ipuq.campaign import (
    DATASET_QA_FILE,
    DATASET_SYNTH,
    METHODS,
    MODE_AUTO,
    MODE_SET,
    CampaignConfig,
    DatasetSource,
    canonical_json,
    load_run_records,
    records_path,
    recompute_scores,
    run_campaign,
)
from ipuq.elicit.client import ChatClient, ModelEndpoint
from ipuq.elicit.prompts import FEEDBACK_HEADER, PromptKind, detect_kind, extract_question
from ipuq.mock import AgentConfig, MockScript, MockTransport
from ipuq.synth import TransformSpec

PINNED = {
    ("synth", MODE_AUTO):
        "da9e85a08387fbfa07e59b5fcd5004843e55a52d71417d795c321de9fe2c0217",
    ("synth", MODE_SET):
        "adb749f2f2ba780d0c569372ee2216c0747baf7f992ca8f55e933a48019e75e1",
    ("qa_file", MODE_AUTO):
        "59c33305f1f977763e8085b2a8a6645e97765eb0f75cc8406c6ab90bbbb40c03",
    ("qa_file", MODE_SET):
        "fc0462bfd341a698c62dcc16077bf991baf1ad0d457fd9280ec69a4eae3836f1",
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


@pytest.mark.parametrize("source_name,mode", sorted(PINNED))
def test_records_match_the_pinned_digest(tmp_path, source_name, mode):
    config = CampaignConfig(
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
    run_campaign(config, client=ChatClient(FaultyAgent()))
    records = load_run_records(records_path(config.output_dir))

    # The injected faults reach every path the digest is meant to cover.
    elicitations = [r["elicitation"] for r in records]
    attempts = [a for e in elicitations for m in e["verdicts"] for a in m["attempts"]]
    assert any("parse_error" in a for a in attempts)
    assert any(a.get("passed") is False for a in attempts)
    assert any(e["salvaged"] for e in elicitations)
    assert any(not e["succeeded"] for e in elicitations)
    for rec in records:
        stored = {k: rec["scores"][k] for k in ("first_order", "second_order", "combined")}
        assert recompute_scores(rec) == stored

    assert records_digest(records) == PINNED[(source_name, mode)]
