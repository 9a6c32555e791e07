"""Dataset loading, model scoring, and serialization."""

import json
import math

import numpy as np
import pytest

from nbvoi import FeatureTable, InputError, ModelSpec, ValidationSample, scored_sample
from nbvoi.io import load_dataset, load_model_spec, render_csv, score, voi_table


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestLoadDataset:
    def test_two_row_file(self, tmp_path):
        p = write(tmp_path, "d.csv", "y,p\n1,0.9\n0,0.1\n")
        s = load_dataset(p, outcome_col="y", risk_col="p")
        assert isinstance(s, ValidationSample)
        assert s.n == 2
        assert s.prevalence == 0.5

    def test_tab_delimiter_autodetected(self, tmp_path):
        p = write(tmp_path, "d.tsv", "y\tp\n1\t0.9\n0\t0.1\n")
        s = load_dataset(p, outcome_col="y", risk_col="p")
        assert s.n == 2

    def test_delimiter_override(self, tmp_path):
        p = write(tmp_path, "d.txt", "y;p\n1;0.9\n")
        s = load_dataset(p, outcome_col="y", risk_col="p", delimiter=";")
        assert s.n == 1

    def test_risk_out_of_range_names_row(self, tmp_path):
        p = write(tmp_path, "d.csv", "y,p\n1,0.9\n0,1.2\n")
        with pytest.raises(InputError, match="row 3"):
            load_dataset(p, outcome_col="y", risk_col="p")

    def test_nonbinary_outcome_names_row(self, tmp_path):
        p = write(tmp_path, "d.csv", "y,p\n1,0.9\n2,0.5\n0,0.1\n")
        with pytest.raises(InputError, match="row 3"):
            load_dataset(p, outcome_col="y", risk_col="p")

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        p = write(tmp_path, "d.csv", "y,p\n1,high\n")
        with pytest.raises(InputError, match="'p'.*row 2"):
            load_dataset(p, outcome_col="y", risk_col="p")

    def test_utf8_byte_order_mark_is_skipped(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("\ufeffy,p\n1,0.9\n0,0.1\n", encoding="utf-8")
        assert p.read_bytes().startswith(b"\xef\xbb\xbfy,p")
        s = load_dataset(p, outcome_col="y", risk_col="p")
        assert s.outcomes.tolist() == [1, 0]

    def test_non_utf8_byte_names_file_and_line_past_the_first_read(self, tmp_path):
        """The text layer decodes in chunks; the line comes from a rescan."""
        p = tmp_path / "d.csv"
        p.write_bytes(b"\xef\xbb\xbfy,p\n" + b"1,0.25\n" * 5000 + b"0,0.\xff3\n1,0.5\n")
        with pytest.raises(InputError, match="not UTF-8") as exc:
            load_dataset(p, outcome_col="y", risk_col="p")
        assert exc.value.row == 5002 and str(p) in str(exc.value)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_feature_names_row_and_column(self, tmp_path, value):
        p = write(tmp_path, "d.csv", f"y,age\n1,63\n0,{value}\n")
        with pytest.raises(InputError, match="non-finite.*'age'") as exc:
            load_dataset(p, outcome_col="y", feature_cols=["age"])
        assert exc.value.row == 3

    def test_missing_column(self, tmp_path):
        p = write(tmp_path, "d.csv", "y,p\n1,0.9\n")
        with pytest.raises(InputError, match="'risk'"):
            load_dataset(p, outcome_col="y", risk_col="risk")

    def test_empty_file(self, tmp_path):
        p = write(tmp_path, "d.csv", "")
        with pytest.raises(InputError, match="empty"):
            load_dataset(p, outcome_col="y", risk_col="p")

    def test_header_only_file(self, tmp_path):
        p = write(tmp_path, "d.csv", "y,p\n")
        with pytest.raises(InputError, match="no data rows"):
            load_dataset(p, outcome_col="y", risk_col="p")

    def test_missing_file(self, tmp_path):
        """The command line turns it into an input error naming the file."""
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "nope.csv", outcome_col="y", risk_col="p")

    def test_feature_columns(self, tmp_path):
        p = write(tmp_path, "d.csv", "y,age,bp\n1,63,100\n0,40,95\n")
        table = load_dataset(p, outcome_col="y", feature_cols=["age", "bp"])
        assert isinstance(table, FeatureTable)
        assert table.n == 2
        assert table.columns["age"].tolist() == [63.0, 40.0]

    def test_requires_exactly_one_schema(self, tmp_path):
        p = write(tmp_path, "d.csv", "y,p\n1,0.9\n")
        with pytest.raises(InputError):
            load_dataset(p, outcome_col="y")
        with pytest.raises(InputError):
            load_dataset(p, outcome_col="y", risk_col="p", feature_cols=["p"])


class TestModelSpec:
    def test_duplicate_columns_rejected(self):
        with pytest.raises(InputError):
            ModelSpec(intercept=0.0, terms=(("age", 1.0), ("age", 2.0)))

    def test_nonfinite_coefficient_rejected(self):
        with pytest.raises(InputError):
            ModelSpec(intercept=math.inf, terms=(("age", 1.0),))

    def test_load_from_json_object_terms(self, tmp_path):
        p = write(tmp_path, "m.json",
                  json.dumps({"intercept": -2.084, "terms": {"age": 0.078}}))
        spec = load_model_spec(p)
        assert spec.intercept == -2.084
        assert spec.terms == (("age", 0.078),)

    def test_load_from_json_pair_list(self, tmp_path):
        p = write(tmp_path, "m.json",
                  json.dumps({"intercept": 0.5, "terms": [["a", 1.0], ["b", -2.0]]}))
        spec = load_model_spec(p)
        assert spec.columns == ("a", "b")

    def test_bad_json_rejected(self, tmp_path):
        p = write(tmp_path, "m.json", "{not json")
        with pytest.raises(InputError):
            load_model_spec(p)


class TestScore:
    def _table(self, **cols):
        n = len(next(iter(cols.values())))
        return FeatureTable(
            columns={k: np.asarray(v, dtype=float) for k, v in cols.items()},
            outcomes=np.zeros(n, dtype=np.int64),
        )

    def test_zero_coefficients_give_half(self):
        t = self._table(age=[10, 50, 90])
        spec = ModelSpec(intercept=0.0, terms=(("age", 0.0),))
        assert np.all(score(t, spec) == 0.5)

    def test_intercept_only_inverse_logit(self):
        t = self._table(age=[1.0, 2.0])
        spec = ModelSpec(intercept=-2.084, terms=())
        risks = score(t, spec)
        assert risks[0] == pytest.approx(1.0 / (1.0 + math.exp(2.084)), rel=1e-12)
        assert risks[0] == pytest.approx(0.1105, abs=2.5e-4)

    def test_saturates_without_overflow(self):
        t = self._table(x=[1e6, -1e6])
        spec = ModelSpec(intercept=0.0, terms=(("x", 50.0),))
        with np.errstate(over="raise"):
            risks = score(t, spec)
        assert risks[0] == 1.0
        assert risks[1] == 0.0

    def test_missing_column_rejected(self):
        t = self._table(age=[1.0])
        spec = ModelSpec(intercept=0.0, terms=(("pulse", 0.018),))
        with pytest.raises(InputError, match="pulse"):
            score(t, spec)

    def test_scored_sample_risks_validated(self):
        t = self._table(age=[1.0, 2.0])
        spec = ModelSpec(intercept=-1.0, terms=(("age", 0.5),))
        s = scored_sample(t, spec)
        assert isinstance(s, ValidationSample)
        assert np.all((s.risks > 0) & (s.risks < 1))


class TestWriters:
    def test_csv_full_precision_round_trip(self):
        records = [{"a": 0.1 + 0.2, "b": 1}, {"a": 1e-17, "b": 2}]
        text = render_csv(records)
        lines = text.splitlines()
        assert lines[0] == "a,b"
        assert float(lines[1].split(",")[0]) == 0.1 + 0.2

    def test_csv_comments(self):
        text = render_csv([{"a": 1}], comments=["tool x", "seed: 5"])
        assert text.startswith("# tool x\n# seed: 5\na\n")

    def test_human_table_rounds_to_four_decimals(self):
        recs = [{
            "threshold": 0.02, "method": "asymptotic", "evpi": 0.000512345,
            "r_evpi": 1.2512345, "p_useful": 0.7591234,
            "best_strategy": "model", "mc_se": None,
        }]
        table = voi_table(recs)
        assert "0.0005" in table
        assert "1.2512" in table
        assert "0.7591" in table
        assert "-" in table  # absent mc_se rendered as a dash
