"""Dataset ingestion: three JSONL row schemas and their failure modes."""

import json

import pytest

from ipuq.datasets import (
    FORMAT_AMBIGQA,
    FORMAT_MAQA,
    FORMAT_MC,
    SchemaViolationError,
    ingest_qa_dataset,
)


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
        assert not record.ambiguous
        assert record.candidates.open_ended

    def test_multiple_answers_mark_ambiguity(self, tmp_path):
        path = write_jsonl(
            tmp_path,
            [{"question": "Capital of the Netherlands?",
              "answers": ["Amsterdam", "The Hague"]}],
        )
        (record,) = ingest_qa_dataset(path, FORMAT_MAQA)
        assert record.ambiguous
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
        assert info.value.line_no == 2
        assert "line 2" in str(info.value)
        assert "answers" in str(info.value)


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
        assert record.ambiguous

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
    assert info.value.line_no == 4


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
    assert info.value.line_no == 2
    assert "first on line 1" in str(info.value)


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
    with pytest.raises(SchemaViolationError, match="duplicate question id") as info:
        ingest_qa_dataset(path, FORMAT_MAQA)
    assert info.value.line_no == 2


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
    assert info.value.line_no == 2
    assert str(info.value) == f"{path}: line 2: {reason}"
