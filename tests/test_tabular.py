"""Dataset loading, typing, discretization, and encoding."""

import numpy as np
import pytest

from featscan.errors import (
    MissingValueError,
    NonBinaryOutcomeError,
    ParseError,
    SchemaMismatchError,
    UnknownFeatureError,
)
from featscan.tabular import (
    BinMethod,
    Dataset,
    DiscretizationSpec,
    FeatureKind,
    MissingPolicy,
    Schema,
    assign_bins,
    discretize,
    load_csv,
    one_hot,
    write_csv,
)


def make_schema(missing=MissingPolicy.ERROR):
    return Schema(
        feature_names=("age", "sex", "dept"),
        kinds={
            "age": FeatureKind.CONTINUOUS,
            "sex": FeatureKind.BINARY,
            "dept": FeatureKind.NOMINAL,
        },
        outcome_name="died",
        missing_policy=missing,
    )


def write_lines(tmp_path, lines, name="data.csv"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestLoadCsv:
    def test_reads_back_directly(self, tmp_path):
        path = write_lines(tmp_path, [
            "age,sex,dept,died",
            "34.5,M,icu,0",
            "51.0,F,er,1",
            "40.25,M,icu,0",
        ])
        d = load_csv(path, make_schema())
        assert d.n_rows == 3
        assert d.outcome_mean() == pytest.approx(1 / 3)
        np.testing.assert_allclose(d.column("age"), [34.5, 51.0, 40.25])
        assert list(d.column("sex")) == ["M", "F", "M"]

    def test_nonbinary_outcome(self, tmp_path):
        path = write_lines(tmp_path, ["age,sex,dept,died", "1.0,M,icu,2"])
        with pytest.raises(NonBinaryOutcomeError):
            load_csv(path, make_schema())

    def test_drop_row_policy(self, tmp_path):
        rows = ["age,sex,dept,died"]
        rows += [f"{i}.0,M,icu,{i % 2}" for i in range(9)]
        rows.append(",M,icu,1")    # missing continuous cell
        path = write_lines(tmp_path, rows)
        d = load_csv(path, make_schema(MissingPolicy.DROP_ROW))
        assert d.n_rows == 9

    def test_error_policy_on_missing(self, tmp_path):
        path = write_lines(tmp_path, ["age,sex,dept,died", ",M,icu,1"])
        with pytest.raises(MissingValueError):
            load_csv(path, make_schema())

    def test_header_mismatch(self, tmp_path):
        path = write_lines(tmp_path, ["age,sex,died", "1.0,M,0"])
        with pytest.raises(SchemaMismatchError):
            load_csv(path, make_schema())

    def test_unparseable_continuous(self, tmp_path):
        path = write_lines(tmp_path, ["age,sex,dept,died", "abc,M,icu,0"])
        with pytest.raises(ParseError):
            load_csv(path, make_schema())

    @pytest.mark.parametrize("cell", ["inf", "-inf", "Infinity", "-nan"])
    def test_non_finite_continuous(self, tmp_path, cell):
        path = write_lines(tmp_path, [
            "age,sex,dept,died", "1.0,M,icu,0", f"{cell},F,er,1", "3.0,M,icu,0",
        ])
        with pytest.raises(ParseError, match=f"non-finite continuous value '{cell}'"):
            load_csv(path, make_schema())

    def test_header_order_free(self, tmp_path):
        path = write_lines(tmp_path, ["died,dept,age,sex", "0,icu,5.0,M"])
        d = load_csv(path, make_schema())
        assert d.column("age")[0] == 5.0

    def test_three_valued_binary_rejected(self, tmp_path):
        path = write_lines(tmp_path, [
            "age,sex,dept,died", "1,M,icu,0", "2,F,icu,0", "3,X,icu,1",
        ])
        with pytest.raises(SchemaMismatchError):
            load_csv(path, make_schema())

    def test_round_trip(self, tmp_path):
        path = write_lines(tmp_path, [
            "age,sex,dept,died",
            "34.5,M,icu,0",
            "51.125,F,er,1",
        ])
        d = load_csv(path, make_schema())
        out = tmp_path / "copy.csv"
        write_csv(d, out)
        d2 = load_csv(out, make_schema())
        np.testing.assert_array_equal(d.column("age"), d2.column("age"))
        np.testing.assert_array_equal(d.outcome, d2.outcome)


def continuous_dataset(values, name="x"):
    schema = Schema((name,), {name: FeatureKind.CONTINUOUS}, "y")
    outcome = np.zeros(len(values), dtype=np.int8)
    outcome[0] = 1
    return Dataset(schema, {name: np.asarray(values, float)}, outcome)


class TestDiscretize:
    def test_equal_frequency_quartiles(self):
        # 8 evenly spaced values into 4 bins: nearest-rank quartile cuts
        # land at 2, 4, 6, so the bins pair up consecutive values
        d = continuous_dataset([1, 2, 3, 4, 5, 6, 7, 8])
        dd = discretize(d, DiscretizationSpec(BinMethod.EQUAL_FREQUENCY, 4))
        np.testing.assert_array_equal(dd.codes("x"), [0, 0, 1, 1, 2, 2, 3, 3])
        np.testing.assert_allclose(dd.cut_points["x"], [2.0, 4.0, 6.0])

    def test_constant_column_single_bin(self):
        d = continuous_dataset([5.0, 5.0, 5.0, 5.0])
        dd = discretize(d, DiscretizationSpec(n_bins=3))
        assert len(set(dd.codes("x").tolist())) == 1

    def test_binary_passthrough(self):
        schema = Schema(("b",), {"b": FeatureKind.BINARY}, "y")
        d = Dataset(schema, {"b": np.array(["0", "1", "0", "1"])},
                    np.array([0, 1, 0, 1]))
        dd = discretize(d, DiscretizationSpec(n_bins=2))
        assert dd.levels("b") == ("0", "1")
        np.testing.assert_array_equal(dd.codes("b"), [0, 1, 0, 1])

    def test_nominal_codes_follow_sorted_labels(self):
        # non-ASCII labels sort by code point, as Python sorts strings
        labels = ["é", "a", "Z", "ß", "a", "Ω", "z", "é"]
        schema = Schema(("g",), {"g": FeatureKind.NOMINAL}, "y")
        d = Dataset(schema, {"g": np.array(labels)},
                    np.array([0, 1, 0, 1, 0, 1, 0, 1]))
        dd = discretize(d, DiscretizationSpec())
        assert dd.levels("g") == tuple(sorted(set(labels)))
        assert dd.codes("g").dtype == np.int64
        np.testing.assert_array_equal(
            dd.codes("g"), [dd.levels("g").index(v) for v in labels]
        )

    def test_equal_width(self):
        d = continuous_dataset([0.0, 1.0, 2.0, 3.0, 4.0])
        dd = discretize(d, DiscretizationSpec(BinMethod.EQUAL_WIDTH, 4))
        np.testing.assert_allclose(dd.cut_points["x"], [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(dd.codes("x"), [0, 0, 1, 2, 3])

    def test_round_trip_through_cut_points(self):
        # any cell's bin must contain the original value
        rng = np.random.default_rng(3)
        vals = rng.normal(size=200)
        d = continuous_dataset(vals)
        dd = discretize(d, DiscretizationSpec(n_bins=5))
        cuts = dd.cut_points["x"]
        edges = np.concatenate([[-np.inf], cuts, [np.inf]])
        for v, code in zip(vals, dd.codes("x")):
            assert edges[code] < v <= edges[code + 1] or (
                code == 0 and v <= edges[1]
            )

    def test_equal_frequency_balance(self):
        # each bin deviates from n/k by at most the multiplicity of its
        # boundary cut values
        rng = np.random.default_rng(5)
        vals = np.round(rng.normal(size=400), 1)   # plenty of ties
        d = continuous_dataset(vals)
        dd = discretize(d, DiscretizationSpec(n_bins=4))
        counts = np.bincount(dd.codes("x"), minlength=len(dd.cut_points["x"]) + 1)
        boundary_ties = max((vals == c).sum() for c in dd.cut_points["x"])
        assert np.abs(counts - 400 / 4).max() <= boundary_ties

    def test_idempotent_outcome_preserved(self):
        d = continuous_dataset([1.0, 2.0, 3.0])
        dd = discretize(d, DiscretizationSpec(n_bins=2))
        np.testing.assert_array_equal(dd.outcome, d.outcome)
        assert dd.n_rows == d.n_rows

    def test_assign_bins_tie_goes_lower(self):
        codes = assign_bins(np.array([2.0, 2.0001]), np.array([2.0]))
        np.testing.assert_array_equal(codes, [0, 1])


class TestOneHot:
    def make(self):
        schema = Schema(
            ("x", "b", "g"),
            {"x": FeatureKind.CONTINUOUS, "b": FeatureKind.BINARY,
             "g": FeatureKind.NOMINAL},
            "y",
        )
        return Dataset(
            schema,
            {
                "x": np.array([1.5, 2.5, 3.5]),
                "b": np.array(["0", "1", "0"]),
                "g": np.array(["A", "B", "C"]),
            },
            np.array([0, 1, 0]),
        )

    def test_nominal_reference_dropped(self):
        d = self.make()
        X, names, sources = one_hot(d, ["g"])
        assert names == ["g=B", "g=C"]
        np.testing.assert_array_equal(X, [[0, 0], [1, 0], [0, 1]])
        assert sources == ["g", "g"]

    def test_binary_single_column(self):
        d = self.make()
        X, names, _ = one_hot(d, ["b"])
        assert X.shape == (3, 1)
        np.testing.assert_array_equal(X[:, 0], [0, 1, 0])

    def test_empty_list(self):
        d = self.make()
        X, names, sources = one_hot(d, [])
        assert X.shape == (3, 0)
        assert names == [] and sources == []

    def test_unknown_feature(self):
        with pytest.raises(UnknownFeatureError):
            one_hot(self.make(), ["nope"])

    def test_column_count_formula(self):
        d = self.make()
        X, _, _ = one_hot(d, ["x", "b", "g"])
        # continuous 1 + binary 1 + nominal (3-1) = 4
        assert X.shape[1] == 4


class TestSchema:
    def test_json_round_trip(self):
        s = make_schema()
        s2 = Schema.from_json_dict(s.to_json_dict())
        assert s2 == s

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaMismatchError):
            Schema(("a", "a"), {"a": FeatureKind.BINARY}, "y")

    def test_outcome_among_features_rejected(self):
        with pytest.raises(SchemaMismatchError):
            Schema(("a",), {"a": FeatureKind.BINARY}, "a")
