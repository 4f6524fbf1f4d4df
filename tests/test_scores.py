"""Score containers and external score ingestion."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clustercal.data import DataError, load_external_scores
from clustercal.scores import ScoreSet, logit, sigmoid


class TestTransforms:
    @settings(max_examples=100, deadline=None)
    @given(st.floats(-15.0, 15.0))
    def test_logit_sigmoid_roundtrip(self, m):
        assert logit(sigmoid(m)) == pytest.approx(m, abs=1e-6)

    def test_sigmoid_midpoint(self):
        assert sigmoid(0.0) == pytest.approx(0.5)


class TestScoreSet:
    def test_from_margins(self):
        s = ScoreSet.from_margins([0.0, 2.0])
        np.testing.assert_allclose(s.probabilities, sigmoid([0.0, 2.0]))

    def test_from_probabilities_clips_and_recovers_margins(self):
        s = ScoreSet.from_probabilities([0.0, 0.5, 1.0])
        assert s.probabilities.min() >= 1e-6
        assert s.probabilities.max() <= 1 - 1e-6
        np.testing.assert_allclose(s.margins, logit(s.probabilities))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="strictly"):
            ScoreSet(np.zeros(2), np.array([0.0, 0.5]))
        with pytest.raises(ValueError, match="strictly"):
            ScoreSet(np.zeros(2), np.array([0.5, 1.0]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            ScoreSet(np.array([0.0]), np.array([0.5, 0.5]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("big", [40.0, 800.0])
    def test_from_margins_accepts_saturated_margins(self, big):
        s = ScoreSet.from_margins([big, 0.0, -big])
        p = s.probabilities
        assert ((p > 0) & (p < 1)).all()
        assert p[0] > 0.5 > p[2]
        np.testing.assert_array_equal(s.margins, [big, 0.0, -big])

    def test_from_margins_keeps_unsaturated_probabilities(self):
        m = np.linspace(-30.0, 30.0, 61)
        np.testing.assert_array_equal(ScoreSet.from_margins(m).probabilities, sigmoid(m))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_from_margins_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ScoreSet.from_margins([bad, 1.0])

    def test_rejects_nan_probabilities(self):
        with pytest.raises(ValueError, match="strictly"):
            ScoreSet(np.zeros(2), np.array([np.nan, 0.5]))
        with pytest.raises(ValueError):
            ScoreSet.from_probabilities([np.nan, 0.5])

    def test_take(self):
        s = ScoreSet.from_margins([0.0, 1.0, 2.0])
        sub = s.take([2, 0])
        np.testing.assert_allclose(sub.margins, [2.0, 0.0])
        assert len(sub) == 2

    def test_take_mask(self):
        s = ScoreSet.from_margins([0.0, 1.0, 2.0])
        sub = s.take(np.array([True, False, True]))
        np.testing.assert_allclose(sub.margins, [0.0, 2.0])


class TestLoadExternal:
    def write(self, tmp_path, text):
        p = tmp_path / "scores.csv"
        p.write_text(text)
        return str(p)

    def test_margin_only(self, tmp_path):
        path = self.write(tmp_path, "sample_id,margin\na,0.0\nb,1.5\n")
        s = load_external_scores(path)
        np.testing.assert_allclose(s.margins, [0.0, 1.5])
        np.testing.assert_allclose(s.probabilities, sigmoid([0.0, 1.5]))

    def test_probability_only(self, tmp_path):
        path = self.write(tmp_path, "sample_id,probability\na,0.25\nb,0.75\n")
        s = load_external_scores(path)
        np.testing.assert_allclose(s.probabilities, [0.25, 0.75])
        np.testing.assert_allclose(s.margins, logit([0.25, 0.75]))

    def test_both_columns(self, tmp_path):
        path = self.write(tmp_path, "sample_id,margin,probability\na,0.0,0.4\n")
        s = load_external_scores(path)
        assert s.margins[0] == 0.0
        assert s.probabilities[0] == 0.4

    def test_expected_ids_checked(self, tmp_path):
        path = self.write(tmp_path, "sample_id,margin\nx,0.0\n")
        with pytest.raises(ValueError, match="sample ids"):
            load_external_scores(path, expected_ids=["y"])
        load_external_scores(path, expected_ids=["x"])

    def test_needs_score_column(self, tmp_path):
        path = self.write(tmp_path, "sample_id,foo\na,1\n")
        with pytest.raises(ValueError, match="margin or probability"):
            load_external_scores(path)

    def test_header_only_names_the_file(self, tmp_path):
        path = self.write(tmp_path, "sample_id,margin\n")
        with pytest.raises(ValueError, match=f"^{re.escape(path)}: no data rows$"):
            load_external_scores(path, expected_ids=[])

    def test_rejects_probability_out_of_range(self, tmp_path):
        path = self.write(tmp_path, "sample_id,probability\na,1.5\n")
        with pytest.raises(ValueError, match="outside"):
            load_external_scores(path)

    @pytest.mark.parametrize("text", ["sample_id,margin\na,nan\n",
                                      "sample_id,margin\na,inf\n",
                                      "sample_id,margin,probability\na,nan,0.5\n"])
    def test_non_finite_margin_names_the_file(self, tmp_path, text):
        path = self.write(tmp_path, text)
        with pytest.raises(ValueError, match=f"^{re.escape(path)}: margins must be finite$"):
            load_external_scores(path)

    @pytest.mark.parametrize("text, message", [
        ("sample_id,margin\na,0.5\nb,\nc,1.0\n", "row 3, column 'margin': unparseable cell ''"),
        ("sample_id,probability\na,\nb,0.5\n", "row 2, column 'probability': unparseable cell ''"),
        ("sample_id,margin,probability\na,0.5,0.6\nb,,0.7\nc,1.0,0.8\n",
         "row 3, column 'margin': unparseable cell ''"),
        ("sample_id,margin,probability\na,0.5,0.6\nb,0.7,0.8\nc,1.0,\n",
         "row 4, column 'probability': unparseable cell ''"),
        ("sample_id,margin,probability\na,0.5,0.6\nb,0.7\n", "row 3 has 2 cells, expected 3"),
        ("sample_id,margin\na,0.5\nb,abc\n", "row 3, column 'margin': unparseable cell 'abc'"),
    ])
    def test_cell_without_a_number_names_file_line_and_column(self, tmp_path, text, message):
        # a skipped cell would shift every later value onto the wrong row
        path = self.write(tmp_path, text)
        with pytest.raises(DataError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_external_scores(path)

    @pytest.mark.parametrize("text", ["sample_id,margin\na,nan\n",
                                      "sample_id,probability\na,nan\n"])
    def test_rejects_nan_scores(self, tmp_path, text):
        with pytest.raises(ValueError):
            load_external_scores(self.write(tmp_path, text))
