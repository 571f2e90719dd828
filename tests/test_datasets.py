"""Dataset ingestion: three JSONL row schemas and their failure modes."""

import json
import math
import random

import pytest

from ipuq.campaign import (
    DATASET_QA_FILE,
    METHODS,
    CampaignConfig,
    DatasetSource,
    load_run_records,
    records_path,
    run_campaign,
)
from ipuq.datasets import (
    FORMAT_AMBIGQA,
    FORMAT_MAQA,
    FORMAT_MC,
    FORMATS,
    SchemaViolationError,
    ingest_qa_dataset,
)
from ipuq.elicit.client import ChatClient, ModelEndpoint
from ipuq.mock import AgentConfig, MockScript, MockTransport


def write_jsonl(tmp_path, rows, name="data.jsonl"):
    path = tmp_path / name
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(row if isinstance(row, str) else json.dumps(row))
            fh.write("\n")
    return str(path)


class TestMaqaLike:
    def test_single_answer_is_unambiguous(self, tmp_path):
        path = write_jsonl(
            tmp_path,
            [{"question": "Capital of France?", "answers": ["Paris"]}],
        )
        (record,) = ingest_qa_dataset(path, FORMAT_MAQA)
        assert record.question == "Capital of France?"
        assert record.truth_set == ("Paris",)
        assert record.reference_answer == "Paris"
        assert record.candidates.open_ended

    def test_multiple_answers_mark_ambiguity(self, tmp_path):
        path = write_jsonl(
            tmp_path,
            [{"question": "Capital of the Netherlands?",
              "answers": ["Amsterdam", "The Hague"]}],
        )
        (record,) = ingest_qa_dataset(path, FORMAT_MAQA)
        assert record.truth_set == ("Amsterdam", "The Hague")

    def test_optional_fields_flow_through(self, tmp_path):
        path = write_jsonl(
            tmp_path,
            [{"question": "q", "answers": ["a", "b"], "reference": "b",
              "pstar": [0.25, 0.75], "prediction": "a", "id": "item-7"}],
        )
        (record,) = ingest_qa_dataset(path, FORMAT_MAQA)
        assert record.reference_answer == "b"
        assert record.pstar == (0.25, 0.75)
        assert record.prediction == "a"
        assert record.question_id == "item-7"

    def test_pstar_must_align(self, tmp_path):
        path = write_jsonl(
            tmp_path, [{"question": "q", "answers": ["a", "b"], "pstar": [1.0]}]
        )
        with pytest.raises(SchemaViolationError):
            ingest_qa_dataset(path, FORMAT_MAQA)

    def test_missing_answers_names_the_line(self, tmp_path):
        path = write_jsonl(
            tmp_path,
            [
                {"question": "fine", "answers": ["a"]},
                {"question": "broken"},
            ],
        )
        with pytest.raises(SchemaViolationError) as info:
            ingest_qa_dataset(path, FORMAT_MAQA)
        assert "line 2" in str(info.value)
        assert "answers" in str(info.value)

    def test_an_answer_that_is_not_a_string_is_shown_in_at_most_60_characters(self, tmp_path):
        path = write_jsonl(tmp_path, ['{"question": "q", "answers": ["a", ' + "7" * 401 + "]}"])
        with pytest.raises(SchemaViolationError) as info:
            ingest_qa_dataset(path, FORMAT_MAQA)
        assert str(info.value) == (
            f"{path}: line 1: candidate answers must be strings, got {'7' * 60}")


class TestAmbigqaLike:
    def test_union_of_pair_answers_in_first_appearance_order(self, tmp_path):
        path = write_jsonl(
            tmp_path,
            [{
                "question": "Who won?",
                "qa_pairs": [
                    {"question": "Who won in 2019?", "answers": ["Alice", "Bob"]},
                    {"question": "Who won in 2020?", "answers": ["bob", "Carol"]},
                ],
            }],
        )
        (record,) = ingest_qa_dataset(path, FORMAT_AMBIGQA)
        # "bob" folds into the already-seen "Bob"
        assert record.truth_set == ("Alice", "Bob", "Carol")
        assert record.reference_answer == "Alice"

    def test_empty_pairs_rejected(self, tmp_path):
        path = write_jsonl(tmp_path, [{"question": "q", "qa_pairs": []}])
        with pytest.raises(SchemaViolationError):
            ingest_qa_dataset(path, FORMAT_AMBIGQA)


class TestMcLike:
    def test_answer_by_index(self, tmp_path):
        path = write_jsonl(
            tmp_path,
            [{"question": "2+2?", "options": ["3", "4", "5"], "answer": 1}],
        )
        (record,) = ingest_qa_dataset(path, FORMAT_MC)
        assert record.truth_set == ("4",)
        assert record.candidates.answers == ("3", "4", "5")
        assert not record.candidates.open_ended

    def test_answer_by_string(self, tmp_path):
        path = write_jsonl(
            tmp_path,
            [{"question": "q", "options": ["yes", "no"], "answer": "no"}],
        )
        (record,) = ingest_qa_dataset(path, FORMAT_MC)
        assert record.reference_answer == "no"

    def test_answer_index_out_of_range(self, tmp_path):
        path = write_jsonl(
            tmp_path, [{"question": "q", "options": ["a"], "answer": 3}]
        )
        with pytest.raises(SchemaViolationError):
            ingest_qa_dataset(path, FORMAT_MC)

    def test_answer_not_among_options(self, tmp_path):
        path = write_jsonl(
            tmp_path, [{"question": "q", "options": ["a", "b"], "answer": "c"}]
        )
        with pytest.raises(SchemaViolationError):
            ingest_qa_dataset(path, FORMAT_MC)

    @pytest.mark.parametrize("answer", [True, False])
    def test_answer_true_or_false_is_not_an_index(self, tmp_path, answer):
        path = write_jsonl(
            tmp_path, [{"question": "q", "options": ["a", "b"], "answer": answer}]
        )
        with pytest.raises(SchemaViolationError) as info:
            ingest_qa_dataset(path, FORMAT_MC)
        assert str(info.value) == (
            f"{path}: line 1: answer must be an option string or index")


def test_blank_lines_are_skipped_but_numbering_is_physical(tmp_path):
    path = write_jsonl(
        tmp_path,
        [
            {"question": "q1", "answers": ["a"]},
            "",
            {"question": "q2", "answers": ["b"]},
            "not json at all {",
        ],
    )
    with pytest.raises(SchemaViolationError) as info:
        ingest_qa_dataset(path, FORMAT_MAQA)
    assert str(info.value).startswith(f"{path}: line 4: invalid JSON: ")


def test_default_question_ids_use_line_numbers(tmp_path):
    path = write_jsonl(
        tmp_path,
        [
            {"question": "q1", "answers": ["a"]},
            "",
            {"question": "q2", "answers": ["b"]},
        ],
    )
    records = ingest_qa_dataset(path, FORMAT_MAQA)
    assert [r.question_id for r in records] == ["q00001", "q00003"]


def test_duplicate_question_id_is_rejected_at_its_second_row(tmp_path):
    path = write_jsonl(
        tmp_path,
        [
            {"id": "a", "question": "q1", "answers": ["x"]},
            {"id": "a", "question": "q2", "answers": ["y"]},
        ],
    )
    with pytest.raises(SchemaViolationError, match="duplicate question id 'a'") as info:
        ingest_qa_dataset(path, FORMAT_MAQA)
    assert str(info.value) == f"{path}: line 2: duplicate question id 'a' (first on line 1)"


@pytest.mark.parametrize("explicit_first", [True, False])
def test_explicit_id_colliding_with_a_default_id_is_rejected(tmp_path, explicit_first):
    rows = [
        {"id": "q00002", "question": "q1", "answers": ["x"]},
        {"question": "q2", "answers": ["y"]},  # default id q00002
    ]
    if not explicit_first:
        rows = [
            {"question": "q1", "answers": ["x"]},  # default id q00001
            {"id": "q00001", "question": "q2", "answers": ["y"]},
        ]
    path = write_jsonl(tmp_path, rows)
    with pytest.raises(SchemaViolationError) as info:
        ingest_qa_dataset(path, FORMAT_MAQA)
    assert str(info.value).startswith(f"{path}: line 2: duplicate question id ")


@pytest.mark.parametrize("row, fmt", [
    ({"question": "q", "answers": ["a"]}, FORMAT_MAQA),
    ({"question": "q", "qa_pairs": [{"question": "q", "answers": ["a"]}]}, FORMAT_AMBIGQA),
    ({"question": "q", "options": ["a", "b"], "answer": "a"}, FORMAT_MC),
])
@pytest.mark.parametrize("bad_id", [7, ["q"], True])
def test_an_id_that_is_not_a_string_is_rejected(tmp_path, row, fmt, bad_id):
    path = write_jsonl(tmp_path, [{**row, "id": "a"}, {**row, "id": bad_id}])
    with pytest.raises(SchemaViolationError) as info:
        ingest_qa_dataset(path, fmt)
    assert str(info.value) == f"{path}: line 2: id must be a string"


def test_row_must_be_an_object(tmp_path):
    path = write_jsonl(tmp_path, ['["list", "not", "object"]'])
    with pytest.raises(SchemaViolationError):
        ingest_qa_dataset(path, FORMAT_MAQA)


def test_unknown_format_rejected(tmp_path):
    path = write_jsonl(tmp_path, [{"question": "q", "answers": ["a"]}])
    with pytest.raises(ValueError):
        ingest_qa_dataset(path, "csv")


@pytest.mark.parametrize("bad, reason", [
    (b"\xff", "not UTF-8 (invalid start byte at byte offset 30)"),
    (b"@", "invalid JSON: Expecting value: line 1 column 31 (char 30)"),
], ids=["not utf-8", "not json"])
def test_an_undecodable_row_names_the_file_and_its_line(tmp_path, bad, reason):
    path = tmp_path / "data.jsonl"
    path.write_bytes(b'{"question": "q1", "answers": ["a"]}\n'
                     b'{"question": "q2", "answers": ' + bad + b'}\n')
    with pytest.raises(SchemaViolationError) as info:
        ingest_qa_dataset(str(path), FORMAT_MAQA)
    assert str(info.value) == f"{path}: line 2: {reason}"


# -------------------------------------------------------------------------
# Boundary agreement: a file that ingest accepts yields records eval accepts
# -------------------------------------------------------------------------

_WORDS = ["Paris", "paris", "Lyon", "  Nice ", "Rhône", "Köln", "東京", "\U0001f600 smile",
          "Ares", "Mars"]


def _well_formed(fmt, rng, i):
    """A seeded row that every reader accepts."""
    question = rng.choice(["Which one?", "Où est-il ?", "Quelle ville \U0001f600?"]) + f" #{i}"
    answers = rng.sample(_WORDS, rng.randint(1, 4))
    row = {"question": question}
    if fmt == FORMAT_MAQA:
        row["answers"] = answers
        if rng.random() < 0.5:
            row["reference"] = rng.choice(answers)
        if rng.random() < 0.5:
            weights = [rng.randint(0, 3) for _ in answers]
            row["pstar"] = [w / max(sum(weights), 1) for w in weights]
    elif fmt == FORMAT_AMBIGQA:
        row["qa_pairs"] = [{"question": f"reading {j}", "answers": [answer]}
                           for j, answer in enumerate(answers)]
    else:
        answers = list(dict.fromkeys(a.strip().casefold() for a in answers)) + ["none"]
        row["options"] = answers
        index = rng.randrange(len(answers))
        row["answer"] = index if rng.random() < 0.5 else answers[index].upper()
        if rng.random() < 0.5:
            row["pstar"] = rng.choice([[1.0], [1]])
    if rng.random() < 0.5:
        row["prediction"] = rng.choice([*answers, "Venus"])
    return row


def _with_surrogate(text, rng):
    at = rng.randint(0, len(text))
    return text[:at] + rng.choice(["\ud800", "\udbff", "\udc00", "\udfff"]) + text[at:]


def _answer_key(fmt):
    return {FORMAT_MAQA: "answers", FORMAT_MC: "options"}.get(fmt)


def _set_pstar_entry(row, value):
    row["pstar"] = [0.5] * len(row.get("answers", [None]))
    row["pstar"][-1] = value


def _surrogate_answer(row, fmt, rng):
    if fmt == FORMAT_AMBIGQA:
        pair = rng.choice(row["qa_pairs"])
        pair["answers"][0] = _with_surrogate(pair["answers"][0], rng)
    else:
        answers = row[_answer_key(fmt)]
        k = rng.randrange(len(answers))
        answers[k] = _with_surrogate(answers[k], rng)


def _surrogate_reference(row, fmt, rng):
    if fmt == FORMAT_MAQA:
        row["reference"] = _with_surrogate(row.get("reference", row["answers"][0]), rng)
    else:
        row["answer"] = _with_surrogate(row["options"][0], rng)


#: Each shape of a row that no reader may accept, by name, with the formats
#: that have the field it breaks.
_REFUSED = {
    "negative pstar": ((FORMAT_MAQA, FORMAT_MC), lambda row, fmt, rng: _set_pstar_entry(
        row, -rng.choice([0.5, 1e-9, 3.0]))),
    "nan pstar": ((FORMAT_MAQA, FORMAT_MC), lambda row, fmt, rng: _set_pstar_entry(
        row, rng.choice([math.nan, math.inf]))),
    "string pstar": ((FORMAT_MAQA, FORMAT_MC), lambda row, fmt, rng: row.update(
        pstar=rng.choice(["1", ["1.0"] * len(row.get("answers", [None]))]))),
    "question not a string": (FORMATS, lambda row, fmt, rng: row.update(
        question=rng.choice([7, None, ["q"], True]))),
    "reference not a string": ((FORMAT_MAQA, FORMAT_MC), lambda row, fmt, rng: row.update(
        {"reference" if fmt == FORMAT_MAQA else "answer": rng.choice([1.5, ["a"], {}])})),
    "prediction not a string": (FORMATS, lambda row, fmt, rng: row.update(
        prediction=rng.choice([7, 0.5, ["a"], True]))),
    "surrogate in the question": (FORMATS, lambda row, fmt, rng: row.update(
        question=_with_surrogate(row["question"], rng))),
    "surrogate in an answer": (FORMATS, _surrogate_answer),
    "surrogate in the reference": ((FORMAT_MAQA, FORMAT_MC), _surrogate_reference),
    "surrogate in the prediction": (FORMATS, lambda row, fmt, rng: row.update(
        prediction=_with_surrogate(rng.choice(["Venus", "a"]), rng))),
}

_CASES = [(fmt, shape, seed) for fmt in FORMATS
          for shape in ("well-formed", *_REFUSED)
          if shape == "well-formed" or fmt in _REFUSED[shape][0]
          for seed in (0, 1)]


@pytest.mark.parametrize("fmt, shape, seed", _CASES, ids=lambda v: str(v))
def test_what_ingest_accepts_eval_accepts(tmp_path, fmt, shape, seed):
    rng = random.Random(f"{fmt}/{shape}/{seed}")
    lead = rng.randint(0, 2)
    rows = [_well_formed(fmt, rng, i) for i in range(lead + 1)]
    if shape != "well-formed":
        _REFUSED[shape][1](rows[-1], fmt, rng)
    path = tmp_path / "qa.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")

    if shape != "well-formed":
        with pytest.raises(SchemaViolationError) as info:
            ingest_qa_dataset(str(path), fmt)
        assert str(info.value).startswith(f"{path}: line {lead + 1}: ")
        return
    config = CampaignConfig(
        dataset=DatasetSource(kind=DATASET_QA_FILE, path=str(path), format=fmt),
        methods=METHODS,
        endpoints=(ModelEndpoint(base_url="inproc://agent", model_id="mock-agent"),),
        output_dir=str(tmp_path / "runs"),
        credal_members=2,
    )
    client = ChatClient(MockTransport(MockScript(agent=AgentConfig(noise_p=0.25))))
    assert len(run_campaign(config, client=client)) == len(rows) * len(METHODS)
    records = load_run_records(records_path(config.output_dir))
    assert len(records) == len(rows) * len(METHODS)
    assert [r["question"] for r in records[::len(METHODS)]] == [row["question"] for row in rows]
