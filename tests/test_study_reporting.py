"""Synthetic disentanglement study and record-level reporting."""

import csv
import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ipuq.campaign import RecordsSchemaError
from ipuq.core import ConfigError
from ipuq.reporting import (
    COST_CSV_COLUMNS,
    LABEL_AMBIGUOUS,
    LABEL_INCORRECT,
    METRIC_CSV_COLUMNS,
    REF_ENTROPY_PSTAR,
    REF_KL_PSTAR,
    _pstar_reference,
    cost_rows,
    metric_rows,
    record_label,
    write_csv,
)
from ipuq.elicit.client import ChatClient, ChatReply, ModelEndpoint
from ipuq.study import (
    STUDY_CSV_COLUMNS,
    run_synthetic_study,
    simulated_agent_client_factory,
)
from ipuq.synth import TransformSpec

ROT1 = TransformSpec(steps=(("rotation", 1),))

# The study CSV for the four single-report agent methods, as the
# study wrote it before it ran on the campaign engine.
PINNED_STUDY_CSV = "".join(line + "\r\n" for line in (
    "method,p,m,n,first_order_mean,first_order_std,second_order_mean,second_order_std,"
    "error_rate",
    "definetti,0.0,1,2,0.0,0.0,,,0.0",
    "probint,0.0,1,2,,,1.0,0.0,0.0",
    "possibility,0.0,1,2,,,0.0,0.0,",
    "vanilla,0.0,1,2,0.0,0.0,,,",
    "definetti,0.0,5,2,0.0,0.0,,,0.0",
    "probint,0.0,5,2,,,0.19999999999999996,0.0,0.0",
    "possibility,0.0,5,2,,,0.0,0.0,",
    "vanilla,0.0,5,2,0.0,0.0,,,",
    "definetti,0.25,1,2,1.687005433856425,0.0,,,0.0",
    "probint,0.25,1,2,,,1.0,0.0,0.0",
    "possibility,0.25,1,2,,,0.3333333333333333,0.0,",
    "vanilla,0.25,1,2,0.0,0.0,,,",
    "definetti,0.25,5,2,1.687005433856425,0.0,,,0.0",
    "probint,0.25,5,2,,,0.20000000000000007,0.0,0.0",
    "possibility,0.25,5,2,,,0.3333333333333333,0.0,",
    "vanilla,0.25,5,2,0.0,0.0,,,",
))


class TestSyntheticStudy:
    def test_grid_shape_and_determinism(self):
        cells = run_synthetic_study(ROT1, noise_grid=(0.0, 0.25), m_grid=(1, 5),
                                    repeats=2, word_length=3)
        assert len(cells) == 2 * 2 * 2  # methods x p x m
        assert {(c.method, c.p, c.m) for c in cells} == {
            (meth, p, m)
            for meth in ("definetti", "probint")
            for p in (0.0, 0.25)
            for m in (1, 5)
        }
        assert all(c.n == 2 for c in cells)
        again = run_synthetic_study(ROT1, noise_grid=(0.0, 0.25), m_grid=(1, 5),
                                    repeats=2, word_length=3)
        assert again == cells

    def test_first_order_rises_with_noise_not_with_examples(self):
        cells = run_synthetic_study(ROT1, noise_grid=(0.0, 0.25, 0.5), m_grid=(2, 8),
                                    repeats=2, word_length=3)
        by_cell = {(c.method, c.p, c.m): c for c in cells}
        for m in (2, 8):
            ent = [by_cell[("definetti", p, m)].first_order_mean for p in (0.0, 0.25, 0.5)]
            assert ent[0] < ent[1] < ent[2]
            assert ent[0] == 0.0
            assert ent[2] == pytest.approx(math.log(8))  # uniform over 2^3 casings
        # and the same method's entropy ignores the demonstration count
        for p in (0.0, 0.25, 0.5):
            assert by_cell[("definetti", p, 2)].first_order_mean == pytest.approx(
                by_cell[("definetti", p, 8)].first_order_mean, abs=1e-12
            )

    def test_second_order_falls_with_examples_not_with_noise(self):
        cells = run_synthetic_study(ROT1, noise_grid=(0.0, 0.5), m_grid=(1, 5, 20),
                                    repeats=2, word_length=3)
        by_cell = {(c.method, c.p, c.m): c for c in cells}
        for p in (0.0, 0.5):
            widths = [by_cell[("probint", p, m)].second_order_mean for m in (1, 5, 20)]
            assert widths[0] > widths[1] > widths[2]
            assert widths[0] == pytest.approx(1.0)
            assert widths[1] == pytest.approx(0.2, abs=1e-9)
        for m in (1, 5, 20):
            assert by_cell[("probint", 0.0, m)].second_order_mean == pytest.approx(
                by_cell[("probint", 0.5, m)].second_order_mean, abs=1e-9
            )

    def test_agent_decisions_match_the_clean_answer(self):
        cells = run_synthetic_study(ROT1, noise_grid=(0.25,), m_grid=(4,),
                                    repeats=3, word_length=3)
        for cell in cells:
            assert cell.error_rate == 0.0

    def test_a_lowered_prediction_is_an_error(self):
        # the matched agent picks the clean casing below p = 0.5 and the
        # all-lowercase one above; only the clean casing is the reference,
        # and at p = 1 it is no candidate at all
        methods = ("definetti", "probint", "credal")
        cells = run_synthetic_study(ROT1, noise_grid=(0.25, 0.75, 1.0), m_grid=(4,),
                                    repeats=2, word_length=3, methods=methods)
        assert {(c.method, c.p): c.error_rate for c in cells} == {
            (method, p): float(p > 0.5) for method in methods for p in (0.25, 0.75, 1.0)}

    def test_validation(self):
        with pytest.raises(ValueError):
            run_synthetic_study(ROT1, noise_grid=(), m_grid=(1,), repeats=1)
        with pytest.raises(ValueError):
            run_synthetic_study(ROT1, noise_grid=(0.1,), m_grid=(1,), repeats=0)

    def test_factory_width_parameter_controls_intervals(self):
        wide = run_synthetic_study(
            ROT1, noise_grid=(0.25,), m_grid=(10,), repeats=1, word_length=3,
            client_factory=simulated_agent_client_factory(width_c=5.0),
            methods=("probint",),
        )
        narrow = run_synthetic_study(
            ROT1, noise_grid=(0.25,), m_grid=(10,), repeats=1, word_length=3,
            client_factory=simulated_agent_client_factory(width_c=1.0),
            methods=("probint",),
        )
        assert wide[0].second_order_mean == pytest.approx(0.5, abs=1e-9)
        assert narrow[0].second_order_mean == pytest.approx(0.1, abs=1e-9)

    def test_four_method_csv_bytes_are_pinned(self, tmp_path):
        cells = run_synthetic_study(
            ROT1, noise_grid=(0.0, 0.25), m_grid=(1, 5), repeats=2, word_length=3,
            methods=("definetti", "probint", "possibility", "vanilla"),
        )
        path = tmp_path / "study.csv"
        write_csv(map(dataclasses.asdict, cells), STUDY_CSV_COLUMNS, str(path))
        assert path.read_bytes() == PINNED_STUDY_CSV.encode("utf-8")

    def test_credal_runs_in_the_study(self):
        cells = run_synthetic_study(ROT1, noise_grid=(0.25,), m_grid=(1, 5), repeats=2,
                                    word_length=3, methods=("credal",))
        assert [(c.method, c.m, c.n) for c in cells] == [("credal", 1, 2), ("credal", 5, 2)]
        for cell in cells:
            assert math.isfinite(cell.first_order_mean)
            assert math.isfinite(cell.second_order_mean)
            assert cell.second_order_mean > 0.0  # the ensemble members disagree
            assert cell.error_rate == 0.0

    def test_failed_cells_leave_the_row_empty(self):
        class GarbledTransport:
            def send(self, endpoint, system_text, user_text):
                return ChatReply(text="no report here", input_tokens=1, output_tokens=1,
                                 raw_request="", raw_response="")

        cells = run_synthetic_study(
            ROT1, noise_grid=(0.25,), m_grid=(2,), repeats=2, word_length=3,
            client_factory=lambda p: ChatClient(GarbledTransport()), max_attempts=1,
        )
        assert [c.n for c in cells] == [0, 0]
        for cell in cells:
            assert cell.first_order_mean is None and cell.second_order_mean is None
            assert cell.error_rate is None

    def test_csv_has_pinned_columns(self, tmp_path):
        cells = run_synthetic_study(ROT1, noise_grid=(0.25,), m_grid=(1,), repeats=1,
                                    word_length=3)
        path = tmp_path / "study.csv"
        write_csv(map(dataclasses.asdict, cells), STUDY_CSV_COLUMNS, str(path))
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(STUDY_CSV_COLUMNS)
        assert len(rows) == 1 + len(cells)


def fake_record(method, seed, *, first=None, second=None, combined=None,
                pstar=None, truth=None, prediction=None, reference=None,
                candidates=("A", "B"), probs=None, question_id="q1",
                tokens=(10, 3), endpoint_key="m@url"):
    payload = None
    if probs is not None:
        payload = {"probs": list(probs)}
    return {
        "key": {"question_id": question_id, "method": method, "seed": seed},
        "candidates": {"answers": list(candidates), "open_ended": False,
                       "case_sensitive": False},
        "truth_set": list(truth) if truth else list(candidates[:1]),
        "pstar": list(pstar) if pstar else None,
        "prediction": prediction,
        "reference_answer": reference,
        "endpoint": {"key": endpoint_key},
        "elicitation": {
            "payload": payload,
            "usage": {"input_tokens": tokens[0], "output_tokens": tokens[1]},
        },
        "scores": {"mode": "set", "first_order": first, "second_order": second,
                   "combined": combined},
    }


class TestMetricTargets:
    def test_auroc_skips_missing_scores(self):
        records = [
            fake_record("definetti", 0, first=0.9, truth=("A", "B")),
            fake_record("definetti", 0, first=None, truth=("A",)),
            fake_record("definetti", 0, first=0.1, truth=("A",)),
        ]
        assert [record_label(r, LABEL_AMBIGUOUS) for r in records] == [1, 0, 0]
        (row,) = metric_rows(records, "auroc", dataset="toy")
        assert (row["value"], row["n"]) == (1.0, 2)

    def test_incorrect_label_compares_prediction_and_reference(self):
        records = [
            fake_record("definetti", 0, first=0.9, prediction="B", reference="A"),
            fake_record("definetti", 0, first=0.1, prediction=" a", reference="A"),
            fake_record("definetti", 0, first=0.5, reference="A"),
            fake_record("definetti", 0, first=0.5, prediction="A"),
        ]
        assert [record_label(r, LABEL_INCORRECT) for r in records] == [1, 0, None, None]
        (row,) = metric_rows(records, "auroc", dataset="toy", label_kind=LABEL_INCORRECT)
        assert (row["value"], row["n"]) == (1.0, 2)

    def test_incorrect_label_follows_the_stored_matching_rule(self):
        record = fake_record("definetti", 0, prediction="a", reference="A")
        assert record_label(record, LABEL_INCORRECT) == 0
        record["candidates"]["case_sensitive"] = True
        assert record_label(record, LABEL_INCORRECT) == 1
        del record["candidates"]["case_sensitive"]  # absent reads as false
        assert record_label(record, LABEL_INCORRECT) == 0

    @pytest.mark.parametrize("answers", [[], ["A", " "]])
    def test_candidates_that_do_not_build_fail_the_incorrect_label(self, answers):
        record = fake_record("definetti", 0, prediction="A", reference="A")
        record["candidates"]["answers"] = answers
        assert record_label(record, LABEL_AMBIGUOUS) == 0
        with pytest.raises(RecordsSchemaError, match="record q1/definetti/0: candidates do not"):
            record_label(record, LABEL_INCORRECT)

    def test_concordance_reference_entropy_of_pstar(self):
        records = [
            fake_record("definetti", 0, first=0.3, pstar=(0.5, 0.5)),
            fake_record("definetti", 0, first=0.1, pstar=(1.0, 0.0)),
        ]
        assert [_pstar_reference(r, REF_ENTROPY_PSTAR) for r in records] == [
            pytest.approx(math.log(2)), 0.0]

    def test_concordance_kl_needs_a_predicted_pmf(self):
        with_pmf = fake_record(
            "definetti", 0, first=0.3, pstar=(0.5, 0.5),
            truth=("A", "B"), probs=(0.5, 0.5),
        )
        without = fake_record("vanilla", 0, first=0.3, pstar=(0.5, 0.5),
                              truth=("A", "B"))
        assert _pstar_reference(with_pmf, REF_KL_PSTAR) == pytest.approx(0.0, abs=1e-9)
        assert _pstar_reference(without, REF_KL_PSTAR) is None

    def test_kl_reference_grows_with_disagreement(self):
        agree = fake_record("definetti", 0, first=0.1, pstar=(0.9, 0.1),
                            truth=("A", "B"), probs=(0.9, 0.1))
        disagree = fake_record("definetti", 0, first=0.1, pstar=(0.9, 0.1),
                               truth=("A", "B"), probs=(0.1, 0.9))
        assert (_pstar_reference(agree, REF_KL_PSTAR)
                < _pstar_reference(disagree, REF_KL_PSTAR))

    def test_a_reference_that_cannot_be_read_fails_the_call_without_a_score(self):
        records = [
            fake_record("definetti", 0, first=0.1, pstar=(0.9, 0.1), probs=(0.9, 0.1)),
            fake_record("definetti", 0, first=0.9, pstar=(0.5, 0.5), probs=(0.1, 0.9)),
            fake_record("definetti", 0, first=None, pstar=(0.5, 0.5), probs=("x", 0.5)),
        ]
        with pytest.raises(RecordsSchemaError, match="payload does not decode"):
            metric_rows(records, "concordance", dataset="toy", ref_kind=REF_KL_PSTAR)


class TestMetricRows:
    def test_mean_and_stderr_over_seeds(self):
        records = []
        # seed 0 separates perfectly; seed 1 is inverted
        for seed, (hi, lo) in ((0, (0.9, 0.1)), (1, (0.1, 0.9))):
            records.append(fake_record("definetti", seed, first=hi, truth=("A", "B")))
            records.append(fake_record("definetti", seed, first=lo, truth=("A",)))
        rows = metric_rows(records, "auroc", dataset="toy")
        (row,) = rows
        assert row["method"] == "definetti"
        assert row["value"] == pytest.approx(0.5)  # mean of 1.0 and 0.0
        assert row["stderr"] == pytest.approx(
            (2 * (0.5**2) / 1) ** 0.5 / math.sqrt(2)
        )
        assert row["n"] == 4

    def test_degenerate_seed_is_dropped(self):
        records = [
            fake_record("definetti", 0, first=0.9, truth=("A", "B")),
            fake_record("definetti", 0, first=0.1, truth=("A",)),
            # seed 1 has one class only
            fake_record("definetti", 1, first=0.9, truth=("A", "B")),
            fake_record("definetti", 1, first=0.8, truth=("A", "B")),
        ]
        (row,) = metric_rows(records, "auroc", dataset="toy")
        assert row["value"] == 1.0
        assert row["n"] == 2

    def test_method_with_no_usable_seed_is_skipped(self):
        records = [
            fake_record("vanilla", 0, first=0.9, truth=("A", "B")),
            fake_record("vanilla", 0, first=0.8, truth=("A", "B")),
        ]
        assert metric_rows(records, "auroc", dataset="toy") == []

    @pytest.mark.parametrize("change", [{"first": "abc"}], ids=["first_order 'abc'"])
    def test_a_value_no_metric_can_read_fails_the_call(self, caplog, change):
        # only a degenerate slice is skipped; anything else is not one seed's fault
        values = {"first": 0.5, **change}
        records = [
            fake_record("definetti", 0, first=0.9, truth=("A", "B")),
            fake_record("definetti", 0, first=0.1, truth=("A",)),
            fake_record("definetti", 0, **values),
        ]
        with pytest.raises(ValueError):
            metric_rows(records, "auroc", dataset="toy")
        assert "skipped" not in caplog.text

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError):
            metric_rows([], "f1", dataset="toy")

    @pytest.mark.parametrize("argument, message", [
        ("score_field", "unknown score field 'bogus'"),
        ("label_kind", "unknown label kind 'bogus'"),
        ("ref_kind", "unknown reference kind 'bogus'"),
    ])
    def test_an_unknown_argument_is_refused_before_any_record_is_read(self, argument,
                                                                      message):
        def unread():
            raise AssertionError("a record was read")
            yield

        bad = {argument: "bogus"}
        for metric in ("auroc", "concordance"):
            with pytest.raises(ValueError, match=message):
                metric_rows(unread(), metric, dataset="toy", **bad)

    def test_csv_round_trip(self, tmp_path):
        records = [
            fake_record("definetti", 0, first=0.9, truth=("A", "B")),
            fake_record("definetti", 0, first=0.1, truth=("A",)),
        ]
        rows = metric_rows(records, "auroc", dataset="toy")
        path = tmp_path / "metrics.csv"
        write_csv(rows, METRIC_CSV_COLUMNS, str(path))
        with open(path, encoding="utf-8", newline="") as fh:
            parsed = list(csv.DictReader(fh))
        assert list(parsed[0].keys()) == list(METRIC_CSV_COLUMNS)
        assert parsed[0]["method"] == "definetti"
        assert float(parsed[0]["value"]) == 1.0


class TestCostRows:
    def endpoints(self):
        return (
            ModelEndpoint(base_url="url", model_id="m",
                          price_per_input_token=1e-6, price_per_output_token=2e-6),
        )

    def test_rows_and_totals(self):
        records = [
            fake_record("definetti", 0, tokens=(100, 10)),
            fake_record("definetti", 1, tokens=(100, 10)),
            fake_record("vanilla", 0, tokens=(50, 5)),
        ]
        rows = cost_rows(records, self.endpoints())
        by_method = {r["method"]: r for r in rows}
        assert by_method["definetti"]["input_tokens"] == 200
        assert by_method["definetti"]["currency"] == pytest.approx(200e-6 + 40e-6)
        assert by_method["vanilla"]["currency"] == pytest.approx(50e-6 + 10e-6)
        total = by_method["__total__"]
        assert total["input_tokens"] == 250
        assert total["currency"] == pytest.approx(
            by_method["definetti"]["currency"] + by_method["vanilla"]["currency"]
        )

    def test_arithmetic(self):
        line, _ = cost_rows([fake_record("definetti", 0, tokens=(1000, 500))], self.endpoints())
        assert line["currency"] == pytest.approx(0.002, abs=1e-15)
        assert line["input_tokens"] == 1000
        assert line["output_tokens"] == 500

    def test_empty_and_unknown_endpoint(self):
        assert cost_rows([], self.endpoints()) == []
        with pytest.raises(ConfigError, match="'ghost@url'.*lists \\['m@url'\\]"):
            cost_rows([fake_record("vanilla", 0, endpoint_key="ghost@url")], self.endpoints())

    def test_lines_sum_to_endpoint_total(self):
        ep = ModelEndpoint(base_url="url", model_id="m",
                           price_per_input_token=2e-6, price_per_output_token=3e-6)
        records = [
            fake_record("definetti", 0, tokens=(100, 10)),
            fake_record("probint", 0, tokens=(200, 20)),
            fake_record("definetti", 1, tokens=(50, 5)),
        ]
        *lines, total = cost_rows(records, [ep])
        assert total["input_tokens"] == 350
        assert total["output_tokens"] == 35
        by_hand = sum(line["currency"] for line in lines)
        assert total["currency"] == pytest.approx(by_hand, abs=1e-15)
        assert total["currency"] == pytest.approx(350 * 2e-6 + 35 * 3e-6, abs=1e-12)

    def test_record_sets_add(self):
        endpoints = [
            ModelEndpoint(base_url="url", model_id="e1",
                          price_per_input_token=5e-5, price_per_output_token=1e-4),
            ModelEndpoint(base_url="url", model_id="e2",
                          price_per_input_token=5e-5, price_per_output_token=5e-5),
        ]
        a = [fake_record("definetti", 0, tokens=(10, 5), endpoint_key="e1@url")]
        b = [fake_record("definetti", 1, tokens=(30, 15), endpoint_key="e1@url"),
             fake_record("vanilla", 0, tokens=(1, 1), endpoint_key="e2@url")]
        lines = {(r["endpoint"], r["method"]): r for r in cost_rows(a + b, endpoints)}
        definetti, vanilla = lines[("e1@url", "definetti")], lines[("e2@url", "vanilla")]
        assert (definetti["input_tokens"], definetti["output_tokens"]) == (40, 20)
        assert definetti["currency"] == pytest.approx(0.004, abs=1e-15)
        assert (vanilla["input_tokens"], vanilla["output_tokens"]) == (1, 1)
        assert vanilla["currency"] == pytest.approx(0.0001, abs=1e-15)
        # pricing reads the records and leaves them as they were
        line, _ = cost_rows(a, endpoints)
        assert (line["input_tokens"], line["output_tokens"]) == (10, 5)
        assert line["currency"] == pytest.approx(0.001, abs=1e-15)

    @given(st.lists(st.tuples(st.integers(0, 10_000), st.integers(0, 10_000)), max_size=20))
    def test_total_matches_manual_sum(self, pairs):
        ep = ModelEndpoint(base_url="url", model_id="e",
                           price_per_input_token=1.5e-6, price_per_output_token=2.5e-6)
        records = [fake_record(f"k{i % 3}", 0, tokens=pair, endpoint_key="e@url")
                   for i, pair in enumerate(pairs)]
        totals = [r for r in cost_rows(records, [ep]) if r["method"] == "__total__"]
        want_in = sum(a for a, _ in pairs)
        want_out = sum(b for _, b in pairs)
        total = totals[0] if totals else {"input_tokens": 0, "output_tokens": 0, "currency": 0.0}
        assert total["input_tokens"] == want_in
        assert total["output_tokens"] == want_out
        assert total["currency"] == pytest.approx(
            want_in * 1.5e-6 + want_out * 2.5e-6, abs=1e-12
        )

    def test_currency_sums_run_left_to_right(self):
        # Float addition does not associate on these currencies, so exact
        # equality pins the order: each (endpoint, method) sum adds its
        # records in record order from 0.0, and each endpoint total adds
        # its method sums in the order the methods first appear.
        prices = {"a": (0.1, 0.2), "b": (0.3, 0.7)}
        tokens = {
            "a": {"vanilla": [(9, 0), (6, 5), (6, 5)], "definetti": [(2, 9), (1, 4), (5, 7)],
                  "credal": [(2, 9), (1, 1), (1, 1)]},
            "b": {"vanilla": [(6, 5), (4, 1), (3, 6)], "definetti": [(8, 5), (6, 8), (5, 5)],
                  "credal": [(6, 2), (1, 5), (1, 9)]},
        }
        endpoints = [ModelEndpoint(base_url=url, model_id="m", price_per_input_token=p_in,
                                   price_per_output_token=p_out)
                     for url, (p_in, p_out) in prices.items()]
        records = [fake_record(method, k, endpoint_key=f"m@{url}", tokens=by_method[method][k])
                   for k in range(3)
                   for url, by_method in tokens.items()
                   for method in by_method]

        def left_to_right(values):
            total = 0.0
            for value in values:
                total += value
            return total

        rows = {(r["endpoint"], r["method"]): r for r in cost_rows(records, endpoints)}
        assert len(rows) == 8
        for url, by_method in tokens.items():
            p_in, p_out = prices[url]
            currencies = {method: [tin * p_in + tout * p_out for tin, tout in cell]
                          for method, cell in by_method.items()}
            sums = {}
            for method, values in currencies.items():
                assert left_to_right(values) != left_to_right(values[::-1])
                sums[method] = left_to_right(values)
                assert rows[(f"m@{url}", method)]["currency"] == sums[method]
            total = left_to_right(sums.values())
            assert total != left_to_right(sums[m] for m in sorted(sums))
            assert total != left_to_right(
                currencies[m][k] for k in range(3) for m in currencies)
            assert rows[(f"m@{url}", "__total__")]["currency"] == total

    def test_csv_columns(self, tmp_path):
        rows = cost_rows([fake_record("definetti", 0)], self.endpoints())
        path = tmp_path / "costs.csv"
        write_csv(rows, COST_CSV_COLUMNS, str(path))
        with open(path, encoding="utf-8", newline="") as fh:
            parsed = list(csv.DictReader(fh))
        assert list(parsed[0].keys()) == list(COST_CSV_COLUMNS)
