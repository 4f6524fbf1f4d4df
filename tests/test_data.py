"""Dataset ingestion, splitting and synthetic generation."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clustercal.data import (
    CsvSpec, DataError, Dataset, SplitIndices, SyntheticSpec,
    gen_synthetic_full, load_csv, load_external_scores, load_vectors, split,
)


def make_ds(n=10, d=2, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = rng.integers(0, 2, size=n)
    if (y == y[0]).all():
        y[0] = 1 - y[0]
    return Dataset(X, y, tuple(f"f{j}" for j in range(d)), tuple(str(i) for i in range(n)))


class TestDataset:
    def test_valid_roundtrip(self):
        ds = make_ds()
        assert ds.n == 10 and ds.d == 2
        assert ds.features.dtype == np.float64
        assert ds.labels.dtype == np.int64

    def test_rejects_bad_labels(self):
        with pytest.raises(DataError, match="0/1"):
            Dataset(np.zeros((2, 1)), [0, 2], ("f0",), ("a", "b"))

    def test_rejects_nonfinite_features(self):
        with pytest.raises(DataError, match="non-finite"):
            Dataset(np.array([[np.nan], [0.0]]), [0, 1], ("f0",), ("a", "b"))

    def test_rejects_shape_mismatches(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((2, 1)), [0, 1, 0], ("f0",), ("a", "b"))
        with pytest.raises(DataError):
            Dataset(np.zeros((2, 1)), [0, 1], ("f0", "f1"), ("a", "b"))
        with pytest.raises(DataError):
            Dataset(np.zeros((2, 1)), [0, 1], ("f0",), ("a",))


class TestLoadCsv:
    def write(self, tmp_path, text):
        p = tmp_path / "d.csv"
        p.write_text(text)
        return str(p)

    def test_basic(self, tmp_path):
        path = self.write(tmp_path, "a,b,y\n1,2,0\n3,4,1\n")
        ds = load_csv(CsvSpec(path, "y"))
        assert ds.feature_names == ("a", "b")
        assert ds.labels.tolist() == [0, 1]
        np.testing.assert_allclose(ds.features, [[1, 2], [3, 4]])

    def test_id_column_and_label_map(self, tmp_path):
        path = self.write(tmp_path, "id,a,y\nr1,1,no\nr2,2,yes\n")
        ds = load_csv(CsvSpec(path, "y", id_column="id", label_map={"no": 0, "yes": 1}))
        assert ds.sample_ids == ("r1", "r2")
        assert ds.feature_names == ("a",)
        assert ds.labels.tolist() == [0, 1]

    def test_category_maps(self, tmp_path):
        path = self.write(tmp_path, "col,y\nred,0\nblue,1\n")
        ds = load_csv(CsvSpec(path, "y", category_maps={"col": {"red": 0, "blue": 5}}))
        assert ds.features[:, 0].tolist() == [0.0, 5.0]

    def test_impute_reject_drops_rows(self, tmp_path):
        path = self.write(tmp_path, "a,y\n1,0\n,1\n3,1\n")
        ds = load_csv(CsvSpec(path, "y"))
        assert ds.n == 2
        assert ds.features[:, 0].tolist() == [1.0, 3.0]

    def test_impute_mean_fills(self, tmp_path):
        path = self.write(tmp_path, "a,y\n1,0\n,1\n3,1\n")
        ds = load_csv(CsvSpec(path, "y", impute="mean"))
        assert ds.n == 3
        assert ds.features[1, 0] == pytest.approx(2.0)

    def test_error_messages_name_row_and_column(self, tmp_path):
        path = self.write(tmp_path, "a,y\n1,0\nbogus,1\n")
        with pytest.raises(DataError, match="row 3.*'a'"):
            load_csv(CsvSpec(path, "y"))
        path = self.write(tmp_path, "a,y\n1,maybe\n")
        with pytest.raises(DataError, match="row 2.*'y'"):
            load_csv(CsvSpec(path, "y"))

    @pytest.mark.parametrize("sid", ["p5,v", 'p"5', "p5\rv", "p5\nv"])
    def test_sample_id_the_artifact_csvs_cannot_write_raw(self, tmp_path, sid):
        quoted = '"' + sid.replace('"', '""') + '"'
        path = self.write(tmp_path, f"id,a,y\nr1,1,0\n{quoted},2,1\n")
        msg = f"{path}: row 3, column 'id': sample id {sid!r} holds a comma, quote or line break"
        with pytest.raises(DataError, match=re.escape(msg)):
            load_csv(CsvSpec(path, "y", id_column="id"))

    def test_missing_label_column(self, tmp_path):
        path = self.write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(DataError, match="missing label column"):
            load_csv(CsvSpec(path, "y"))

    def test_missing_id_column(self, tmp_path):
        path = self.write(tmp_path, "id,a,y\nr0,1,0\n")
        with pytest.raises(DataError, match=f"^{re.escape(path)}: missing id column 'nope'$"):
            load_csv(CsvSpec(path, "y", id_column="nope"))

    def test_id_column_may_not_be_the_label_column(self, tmp_path):
        path = self.write(tmp_path, "id,a,y\nr0,1,0\n")
        msg = f"{path}: id column 'y' is the label column"
        with pytest.raises(DataError, match=f"^{re.escape(msg)}$"):
            load_csv(CsvSpec(path, "y", id_column="y"))

    def test_ragged_row(self, tmp_path):
        path = self.write(tmp_path, "a,y\n1,0,9\n")
        with pytest.raises(DataError, match="row 2 has 3 cells"):
            load_csv(CsvSpec(path, "y"))

    def test_empty_file(self, tmp_path):
        with pytest.raises(DataError, match="empty"):
            load_csv(CsvSpec(self.write(tmp_path, ""), "y"))

    def test_bad_impute_mode(self, tmp_path):
        path = self.write(tmp_path, "a,y\n1,0\n")
        with pytest.raises(DataError, match="impute"):
            load_csv(CsvSpec(path, "y", impute="zero"))

    def test_a_repeated_label_name_is_not_read_as_a_feature(self, tmp_path):
        path = self.write(tmp_path, "a,y,y\n1,0,0\n2,1,1\n")
        msg = f"{path}: column 'y' appears twice in the header"
        with pytest.raises(DataError, match=f"^{re.escape(msg)}$"):
            load_csv(CsvSpec(path, "y"))

    @pytest.mark.filterwarnings("error")
    def test_impute_mean_needs_a_value_in_every_column(self, tmp_path):
        path = self.write(tmp_path, "a,b,y\n1,,0\n2,nan,1\n")
        msg = f"{path}: column 'b' has no finite value to impute from"
        with pytest.raises(DataError, match=f"^{re.escape(msg)}$"):
            load_csv(CsvSpec(path, "y", impute="mean"))

    def test_impute_mean_is_the_mean_of_the_column_values(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(30, 3))
        X[rng.random(X.shape) < 0.3] = np.nan
        text = "a,b,c,y\n" + "".join(",".join("" if np.isnan(v) else repr(v) for v in row)
                                     + f",{i % 2}\n" for i, row in enumerate(X.tolist()))
        ds = load_csv(CsvSpec(self.write(tmp_path, text), "y", impute="mean"))
        np.testing.assert_array_equal(ds.features, np.where(np.isnan(X), np.nanmean(X, 0), X))

    def test_category_maps_may_only_name_feature_columns(self, tmp_path):
        path = self.write(tmp_path, "col,y\nred,0\nblue,1\n")
        msg = f"{path}: category_maps names 'nope', not a feature column"
        with pytest.raises(DataError, match=f"^{re.escape(msg)}$"):
            load_csv(CsvSpec(path, "y", category_maps={"col": {"red": 0, "blue": 5},
                                                       "nope": {"x": 1}}))


# input file -> (header, a data row, its reader); column 1 holds a number
INPUT_FILES = {
    "data": (["y", "a", "b"], ["0", "1", "2"], lambda p: load_csv(CsvSpec(p, "y"))),
    "scores": (["sample_id", "margin", "probability"], ["0", "0.5", "0.6"],
               load_external_scores),
    "embedding": (["sample_id", "e0", "e1"], ["0", "1.0", "2.0"],
                  lambda p: load_vectors(p, None)),
}
# fault -> the file's rows, given its header and a data row, and the message
FAULTS = {
    "ragged row": (lambda h, r: [h, r, r + ["9"]], lambda h: "row 3 has 4 cells, expected 3"),
    "blank line": (lambda h, r: [h, r, [], r], lambda h: "row 3 has 0 cells, expected 3"),
    "blank first line": (lambda h, r: [[], h, r], lambda h: "row 1 is blank"),
    "repeated name": (lambda h, r: [h[:2] + h[1:2], r],
                      lambda h: f"column {h[1]!r} appears twice in the header"),
    "unparseable cell": (lambda h, r: [h, r, [r[0], "x", r[2]]],
                         lambda h: f"row 3, column {h[1]!r}: unparseable cell 'x'"),
    "empty file": (lambda h, r: [], lambda h: "empty file"),
    "header only": (lambda h, r: [h], lambda h: "no data rows"),
}


class TestReader:
    """Data, score and embedding files go through one reader with one rule
    set; each message names the file."""

    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("kind", INPUT_FILES)
    def test_fault_names_the_file(self, tmp_path, kind, fault):
        header, row, read = INPUT_FILES[kind]
        rows, message = FAULTS[fault]
        lines = rows(header, row)
        path = tmp_path / f"{kind}.csv"
        path.write_text("".join(",".join(cells) + "\n" for cells in lines))
        with pytest.raises(DataError, match=f"^{re.escape(f'{path}: {message(header)}')}$"):
            read(str(path))

    @pytest.mark.parametrize("kind", INPUT_FILES)
    def test_unreadable_file_names_the_file(self, tmp_path, kind):
        with pytest.raises(DataError, match=f"^{re.escape(str(tmp_path))}: cannot read the file"):
            INPUT_FILES[kind][2](str(tmp_path))

    def test_one_row_headerless_embedding(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("1.0,2.0\n")
        np.testing.assert_array_equal(load_vectors(str(path), None), [[1.0, 2.0]])

    def test_headerless_embedding_rows_may_repeat_values(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("1.0,1.0\n1.0,1.0\n")
        np.testing.assert_array_equal(load_vectors(str(path), None), np.ones((2, 2)))

    def test_headerless_embedding_numbers_its_columns_from_1(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("1.0,2.0\n3.0,x\n")
        with pytest.raises(DataError, match=re.escape(f"{path}: row 2, column 2: unparseable")):
            load_vectors(str(path), None)


class TestSplit:
    def test_partition_and_determinism(self):
        ds = make_ds(101)
        s1 = split(ds, (0.6, 0.2, 0.2), 7)
        s2 = split(ds, (0.6, 0.2, 0.2), 7)
        s1.check_partition(ds.n)
        for part in ("train", "calibration", "test"):
            assert getattr(s1, part).tolist() == getattr(s2, part).tolist()
        s3 = split(ds, (0.6, 0.2, 0.2), 8)
        assert s3.train.tolist() != s1.train.tolist()

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(30, 300), seed=st.integers(0, 10_000))
    def test_partition_property(self, n, seed):
        ds = make_ds(n, seed=seed)
        sp = split(ds, (0.5, 0.25, 0.25), seed)
        sp.check_partition(n)

    def test_stratified_keeps_both_classes(self):
        rng = np.random.default_rng(0)
        y = np.r_[np.ones(12, dtype=int), np.zeros(88, dtype=int)]
        ds = Dataset(rng.normal(size=(100, 2)), y, ("f0", "f1"),
                     tuple(str(i) for i in range(100)))
        sp = split(ds, (0.6, 0.2, 0.2), 0, stratify=True)
        for part in (sp.train, sp.calibration, sp.test):
            assert set(ds.labels[part]) == {0, 1}

    def test_unstratified(self):
        ds = make_ds(50)
        sp = split(ds, (0.6, 0.2, 0.2), 0, stratify=False)
        sp.check_partition(50)

    def test_bad_ratios(self):
        ds = make_ds()
        with pytest.raises(DataError):
            split(ds, (0.5, 0.5, 0.5), 0)
        with pytest.raises(DataError):
            split(ds, (1.0, 0.0, 0.0), 0)

    def test_check_partition_detects_overlap(self):
        sp = SplitIndices([0, 1], [1, 2], [3], 0)
        with pytest.raises(DataError, match="overlap"):
            sp.check_partition(4)


class TestSynthetic:
    def test_shapes_and_types(self):
        spec = SyntheticSpec(3, 100, 4, (0.2, 0.5, 0.8), (1.0, -1.0, 0.0), seed=1)
        ds, margins, sub = gen_synthetic_full(spec)
        assert ds.n == 300 and ds.d == 4
        assert margins.shape == (300,)
        assert np.isfinite(margins).all()
        assert sub.tolist() == np.repeat([0, 1, 2], 100).tolist()
        assert gen_synthetic_full(spec)[0].n == 300

    def test_deterministic(self):
        spec = SyntheticSpec(2, 50, 2, (0.3, 0.7), (0.0, 0.0), seed=5)
        a, ma, _ = gen_synthetic_full(spec)
        b, mb, _ = gen_synthetic_full(spec)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(ma, mb)

    def test_subpops_are_separated(self):
        spec = SyntheticSpec(3, 50, 2, (0.3, 0.5, 0.7), (0.0, 0.0, 0.0), seed=0)
        ds, _, sub = gen_synthetic_full(spec)
        centers = np.array([ds.features[sub == c].mean(axis=0) for c in range(3)])
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.linalg.norm(centers[i] - centers[j]) > 5.0

    def test_miscal_offsets_shift_margins_not_labels(self):
        base = SyntheticSpec(2, 200, 2, (0.4, 0.6), (0.0, 0.0), seed=3)
        shifted = SyntheticSpec(2, 200, 2, (0.4, 0.6), (2.0, -2.0), seed=3)
        ds_a, ma, sub = gen_synthetic_full(base)
        ds_b, mb, _ = gen_synthetic_full(shifted)
        np.testing.assert_array_equal(ds_a.labels, ds_b.labels)
        np.testing.assert_allclose(mb[sub == 0] - ma[sub == 0], 2.0)
        np.testing.assert_allclose(mb[sub == 1] - ma[sub == 1], -2.0)

    def test_spec_validation(self):
        with pytest.raises(DataError):
            SyntheticSpec(0, 10)
        with pytest.raises(DataError):
            SyntheticSpec(2, 10, base_rates=(0.5,), miscal_offsets=(0.0, 0.0))
        with pytest.raises(DataError):
            SyntheticSpec(2, 10, base_rates=(0.0, 0.5), miscal_offsets=(0.0, 0.0))
