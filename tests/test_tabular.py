"""Dataset loading, typing, discretization, and encoding."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from featscan import tabular
from featscan.embedded import Preset, encode_design
from featscan.errors import (
    DegenerateColumnError,
    MissingValueError,
    NonBinaryOutcomeError,
    ParseError,
    SchemaMismatchError,
    UnknownFeatureError,
)
from featscan.synth import SynthSpec, generate
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

from helpers import raw_matrix, traced_peak
from oracles import (
    reference_encode_design,
    reference_load_csv,
    reference_one_hot,
    reference_write_csv,
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
    """Write UTF-8 lines; a lone surrogate "\\udcXX" writes the raw byte XX."""
    path = tmp_path / name
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
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

    def test_byte_order_mark_skipped(self, tmp_path):
        # Excel writes a CSV with a leading UTF-8 byte-order mark
        lines = [HEADER, "34.5,M,icu,0", "51.0,F,er,1"]
        plain = write_lines(tmp_path, lines)
        bom = write_lines(tmp_path, ["\ufeff" + HEADER, *lines[1:]], name="bom.csv")
        assert bom.read_bytes()[:3] == b"\xef\xbb\xbf"
        assert_same_dataset(load_csv(bom, make_schema()),
                            load_csv(plain, make_schema()))

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
        with pytest.raises(SchemaMismatchError,
                           match=r"'sex' has 3 distinct values: \['F', 'M', 'X'\]$"):
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


HEADER = "age,sex,dept,died"


class TestLoadCsvErrorLines:
    """Each load error names its file line; blank lines are counted."""

    @pytest.mark.parametrize("bad_row, policy, error, detail", [
        ("2.0,F,er", MissingPolicy.ERROR, ParseError,
         "expected 4 cells, got 3"),
        ("2.0,F,NA,1", MissingPolicy.ERROR, MissingValueError, "missing value"),
        ("2.0,F,er,2", MissingPolicy.ERROR, NonBinaryOutcomeError,
         "outcome value '2' is not 0 or 1"),
        ("2.0,F,er, yes ", MissingPolicy.DROP_ROW, NonBinaryOutcomeError,
         "outcome value 'yes' is not 0 or 1"),
        (" abc ,F,er,1", MissingPolicy.ERROR, ParseError,
         "cannot parse 'abc' as continuous value for 'age'"),
        ("-inf,F,er,1", MissingPolicy.DROP_ROW, ParseError,
         "non-finite continuous value '-inf' for 'age'"),
    ])
    def test_error_class_and_line(self, tmp_path, bad_row, policy, error, detail):
        # line 3 is dropped under DROP_ROW, lines 4-5 are blank
        path = write_lines(tmp_path, [
            HEADER, "1.0,M,icu,0", "null,M,icu,1" if policy is
            MissingPolicy.DROP_ROW else "1.5,M,icu,1", "", "", bad_row,
            "3.0,M,icu,0",
        ])
        with pytest.raises(error) as info:
            load_csv(path, make_schema(policy))
        assert info.type is error
        assert str(info.value) == f"{path}:6: {detail}"

    @pytest.mark.parametrize("rows, error, line", [
        # a wrong width anywhere wins over an earlier missing cell
        (["NA,M,icu,0", "1.0,M,icu"], ParseError, 3),
        # a bad outcome wins over an earlier unparseable cell
        (["abc,M,icu,0", "1.0,M,icu,5"], NonBinaryOutcomeError, 3),
        # within a feature, an unparseable cell wins over an earlier non-finite one
        (["inf,M,icu,0", "abc,M,icu,0"], ParseError, 3),
        # a bad outcome wins over a third binary value
        (["1,X,icu,0", "2,M,icu,0", "3,F,icu,3"], NonBinaryOutcomeError, 4),
        # a continuous cell that does not parse wins over a third binary value
        (["1,X,icu,0", "2,M,icu,0", "3,F,icu,1", "abc,M,icu,0"], ParseError, 5),
        # the first record holding a binary feature's third distinct label,
        # where labels that strip alike are one
        (["1, M ,icu,0", "2,M,icu,0", "3,F ,icu,1", "4,X,icu,0", "5,Y,icu,1"],
         SchemaMismatchError, 5),
        # a byte that is not UTF-8 raises when it is met, so it wins over an
        # earlier missing cell and bad outcome; it names the file, no line
        (["NA,M,icu,0", "1.0,M,icu,5", "2.0,F,\udcffer,1"], ParseError, None),
        # so does a cell longer than the csv module's field limit
        (["NA,M,icu,0", "1.0,M,icu,5", "2.0,F," + "e" * 131_073 + ",1"],
         ParseError, None),
    ])
    def test_documented_precedence(self, tmp_path, rows, error, line):
        path = write_lines(tmp_path, [HEADER] + rows)
        with pytest.raises(error) as info:
            load_csv(path, make_schema())
        assert info.type is error
        where = path if line is None else f"{path}:{line}"
        assert str(info.value).startswith(f"{where}: ")


@pytest.fixture(params=[1, 2], ids=lambda n: f"block{n}")
def small_blocks(request, monkeypatch):
    """Make load_csv read one or two records per block."""
    monkeypatch.setattr(tabular, "BLOCK_ROWS", request.param)


@pytest.mark.usefixtures("small_blocks")
class TestLoadCsvErrorLinesInSmallBlocks(TestLoadCsvErrorLines):
    """The same errors and lines when every defect sits in its own block."""


class TestLoadCsvBlockEdges:
    """Defects in different blocks keep the whole file's precedence."""

    @pytest.mark.parametrize("block", [1, 2, 3])
    @pytest.mark.parametrize("rows, error, line", [
        # a wrong width in a later block wins over a missing cell in block 1
        (["NA,M,icu,0", "1.0,M,icu,0", "2.0,F,er,1", "1.0,M,icu"], ParseError, 5),
        # a bad outcome in a later block wins over an unparseable cell
        (["abc,M,icu,0", "1.0,M,icu,0", "2.0,F,er,1", "1.0,M,icu,5"],
         NonBinaryOutcomeError, 5),
        # the first missing cell names its line, not a later block's
        (["1.0,M,icu,0", "2.0,,er,1", "3.0,F,NA,1", "NA,M,icu,0"],
         MissingValueError, 3),
        # within a feature, a later block's unparseable cell wins over a
        # non-finite one; across features, schema order decides
        (["inf,M,icu,0", "1.0,M,icu,0", "abc,F,er,1"], ParseError, 4),
        # of several bad outcomes new to one block, the first line is named
        (["1.0,M,icu,0", "1.0,M,icu,3", "1.0,M,icu,2", "1.0,M,icu,4"],
         NonBinaryOutcomeError, 3),
        # blank records at a block edge still count as lines
        (["1.0,M,icu,0", "", "", "", "2.0,F,er,2"], NonBinaryOutcomeError, 6),
        # a third binary label in a later block names its own line
        (["1.0,M,icu,0", "2.0,M,er,1", "3.0, F,icu,0", "4.0,F,er,0",
          "5.0,X,icu,1", "6.0,Y,icu,0"], SchemaMismatchError, 6),
    ])
    def test_precedence_across_blocks(self, tmp_path, monkeypatch, block, rows,
                                      error, line):
        monkeypatch.setattr(tabular, "BLOCK_ROWS", block)
        path = write_lines(tmp_path, [HEADER] + rows)
        with pytest.raises(error) as info:
            load_csv(path, make_schema())
        assert info.type is error
        assert str(info.value).startswith(f"{path}:{line}: ")

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_multi_line_cell_counts_as_one_record(self, tmp_path, monkeypatch,
                                                  block):
        # record 3 spans file lines 3-4, so the bad outcome on file line 6
        # is record 5, whichever block the quoted cell ends
        monkeypatch.setattr(tabular, "BLOCK_ROWS", block)
        path = write_lines(tmp_path, [
            HEADER, "1.0,M,icu,0", '1.5,F,"two', 'lines",1', "2.0,M,icu,0",
            "2.5,F,er,7",
        ])
        with pytest.raises(NonBinaryOutcomeError, match=f"^{path}:5: "):
            load_csv(path, make_schema())

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_drop_row_empties_a_block(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(tabular, "BLOCK_ROWS", block)
        path = write_lines(tmp_path, [
            HEADER, "1.0,M,icu,0", "NA,F,er,1", "2.0,,er,1", "null,M,NA,0",
            "", "3.0,F,er,1",
        ])
        schema = make_schema(MissingPolicy.DROP_ROW)
        got = load_csv(path, schema)
        np.testing.assert_array_equal(got.column("age"), [1.0, 3.0])
        assert_same_dataset(got, reference_load_csv(path, schema))

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_drop_row_empties_every_block(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(tabular, "BLOCK_ROWS", block)
        path = write_lines(tmp_path, [
            HEADER, "NA,F,er,1", "", "2.0,,er,1", "null,M,NA,0", "4.0,M,icu,",
        ])
        with pytest.raises(DegenerateColumnError):
            load_csv(path, make_schema(MissingPolicy.DROP_ROW))


RICH_SCHEMA = Schema(
    feature_names=("x1", "b", "x2", "ward", "grp"),
    kinds={
        "x1": FeatureKind.CONTINUOUS,
        "b": FeatureKind.BINARY,
        "x2": FeatureKind.CONTINUOUS,
        "ward": FeatureKind.NOMINAL,
        "grp": FeatureKind.NOMINAL,
    },
    outcome_name="y",
    missing_policy=MissingPolicy.DROP_ROW,
)
RICH_HEADER = ["ward", "y", "x1", "grp", "b", "x2"]
MISSING = ["", "NA", " na ", "null", "NULL", "None", "nan", " NaN"]


def rich_csv(tmp_path, seed, n_rows=60, missing_rate=0.1):
    """A CSV in column order unlike the schema, with awkward but valid cells.

    Labels carry quoted commas, quotes, padding and non-ASCII text;
    numbers carry padding and exponents; blank lines are scattered and a
    share of cells hold missing tokens in every kind of column.
    """
    rng = np.random.default_rng(seed)
    pools = {
        "ward": ["icu", "a, b", ' "q" ', "é-ward", "日本", "  icu", "er "],
        "grp": ["g1", "g2", "Ω", "g1 , g2"],
        "b": ["M", " F", "F "],
        "y": ["0", "1", " 1", "0 "],
    }
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(RICH_HEADER)
    for _ in range(n_rows):
        row = []
        for name in RICH_HEADER:
            if rng.random() < missing_rate:
                row.append(MISSING[rng.integers(len(MISSING))])
            elif name in pools:
                row.append(pools[name][rng.integers(len(pools[name]))])
            else:
                value = float(rng.normal(scale=10.0 ** rng.integers(-3, 4)))
                text = [repr(value), f"{value:.3e}", f" {value:g} "][rng.integers(3)]
                row.append(text)
        writer.writerow(row)
        if rng.random() < 0.1:
            out.write("\n")
    path = tmp_path / f"rich_{seed}.csv"
    path.write_text(out.getvalue(), encoding="utf-8")
    return path


def assert_same_dataset(got, want):
    assert got.n_rows == want.n_rows
    assert got.outcome.dtype == want.outcome.dtype
    np.testing.assert_array_equal(got.outcome, want.outcome)
    for name in want.feature_names:
        assert got.column(name).dtype == want.column(name).dtype, name
        np.testing.assert_array_equal(got.column(name), want.column(name))


class TestLoadCsvMatchesReference:
    """The columnar reader agrees with the cell-by-cell reference reader."""

    @pytest.mark.parametrize("seed", range(8))
    def test_same_arrays_and_dtypes(self, tmp_path, seed):
        path = rich_csv(tmp_path, seed)
        want = reference_load_csv(path, RICH_SCHEMA)
        assert 0 < want.n_rows < 60
        assert_same_dataset(load_csv(path, RICH_SCHEMA), want)

    def test_clean_continuous_column_loses_dropped_rows(self, tmp_path):
        # every age cell parses, so age skips the token scan; the rows
        # dropped for other columns' missing cells must still leave it
        path = write_lines(tmp_path, [
            HEADER, "1.5,M,icu,0", "2.5,NA,er,1", "3.5,F,,1", "4.5,F,er,null",
            "5.5,M,er,1",
        ])
        schema = make_schema(MissingPolicy.DROP_ROW)
        got = load_csv(path, schema)
        np.testing.assert_array_equal(got.column("age"), [1.5, 5.5])
        assert_same_dataset(got, reference_load_csv(path, schema))

    def test_labels_only_in_dropped_rows_do_not_widen_dtype(self, tmp_path):
        path = write_lines(tmp_path, [
            HEADER, "1.0,M,icu,0", "NA,F,a-much-longer-label,1", "2.0,F,er,1",
        ])
        schema = make_schema(MissingPolicy.DROP_ROW)
        got = load_csv(path, schema)
        assert got.column("dept").dtype == np.dtype("<U3")
        assert_same_dataset(got, reference_load_csv(path, schema))

    @pytest.mark.parametrize("pad", ["\t", " ", "\x1f", "\u3000"])
    def test_whitespace_padding_is_stripped_alike(self, tmp_path, pad):
        # float() alone does not strip the \x1c-\x1f separators str.strip() does
        path = write_lines(tmp_path, [
            HEADER, f"{pad}1.5{pad},M,{pad}icu,0", f"2.5{pad},F{pad},er,{pad}1",
            f"{pad}NA,F,er,1",
        ])
        schema = make_schema(MissingPolicy.DROP_ROW)
        assert_same_dataset(load_csv(path, schema), reference_load_csv(path, schema))

    @pytest.mark.parametrize("pad", ["\x1c", "\x1d", "\x1e", "\x1f"])
    def test_separator_padded_column_without_missing_cells(self, tmp_path, pad):
        # the four code points str.strip() removes and float() rejects; with
        # no missing cell the column is parsed once, and must be stripped
        path = write_lines(tmp_path, [
            HEADER, f"{pad}1.5,M,icu,0", f"{pad}2.5{pad},F,er,1", "3.5,F,er,1",
        ])
        got = load_csv(path, make_schema())
        np.testing.assert_array_equal(got.column("age"), [1.5, 2.5, 3.5])
        assert_same_dataset(got, reference_load_csv(path, make_schema()))

    @pytest.mark.parametrize("seed", range(3))
    def test_error_policy_names_same_missing_line(self, tmp_path, seed):
        path = rich_csv(tmp_path, seed, missing_rate=0.01)
        schema = Schema(RICH_SCHEMA.feature_names, RICH_SCHEMA.kinds, "y",
                        MissingPolicy.ERROR)
        with pytest.raises(MissingValueError) as want:
            reference_load_csv(path, schema)
        with pytest.raises(MissingValueError) as got:
            load_csv(path, schema)
        assert str(got.value) == str(want.value)

    def test_every_row_dropped(self, tmp_path):
        path = rich_csv(tmp_path, 3, n_rows=20, missing_rate=0.9)
        with pytest.raises(DegenerateColumnError):
            reference_load_csv(path, RICH_SCHEMA)
        with pytest.raises(DegenerateColumnError):
            load_csv(path, RICH_SCHEMA)


@pytest.mark.usefixtures("small_blocks")
class TestLoadCsvMatchesReferenceInSmallBlocks(TestLoadCsvMatchesReference):
    """The same arrays when every block holds one or two records."""


def test_load_peak_memory_near_finished_arrays(tmp_path):
    # a whole-file reader holds every cell as a string at once, about 4.8
    # times the finished arrays on a table like this; blocks keep it near 1
    spec = SynthSpec(n_rows=50_000, base_rate=0.1, n_continuous=2,
                     arities=(2, 3, 4, 2, 5), seed=11)
    dataset, _ = generate(spec)
    path = tmp_path / "tall.csv"
    write_csv(dataset, path)
    loaded, peak = traced_peak(load_csv, path, dataset.schema)
    arrays = loaded.outcome.nbytes + sum(
        loaded.column(f).nbytes if loaded.kind(f) is FeatureKind.CONTINUOUS
        else loaded.codes(f).nbytes for f in loaded.feature_names)
    assert loaded.n_rows == 50_000
    assert peak < 2.5 * arrays


class TestWriteCsv:
    def test_bytes_match_row_writer(self, tmp_path):
        d = load_csv(rich_csv(tmp_path, 5), RICH_SCHEMA)
        extreme = Dataset(
            RICH_SCHEMA,
            {"x1": np.array([0.1, -0.0, 1e-300, 1e16, 5.0]),
             "b": np.array(["M", "F", "M", "M", "F"]),
             "x2": np.array([2.5, np.pi, -1.0, 123456789.125, 7.0]),
             "ward": np.array(['a, "b"', "日本", "x", "", "é"]),
             "grp": np.array(["g1", "g2", "g1", "g2", "line\nbreak"])},
            np.array([0, 1, 0, 1, 1]),
        )
        for i, data in enumerate((d, extreme)):
            got, want = tmp_path / f"got{i}.csv", tmp_path / f"want{i}.csv"
            write_csv(data, got)
            reference_write_csv(data, want)
            assert got.read_bytes() == want.read_bytes()


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
        assert dd.codes("g").dtype == np.uint8
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


def non_ascii_labels(tmp_path):
    rng = np.random.default_rng(0)
    schema = Schema(
        ("x", "b", "g"),
        {"x": FeatureKind.CONTINUOUS, "b": FeatureKind.BINARY,
         "g": FeatureKind.NOMINAL},
        "y",
    )
    return Dataset(
        schema,
        {
            "x": rng.normal(size=40),
            "b": rng.choice(["Ω", "ß"], size=40),
            "g": rng.choice(["é", "a", "Z", "ß", "Ω", "z", "日本"], size=40),
        },
        rng.integers(0, 2, size=40),
    )


def one_level_columns(tmp_path):
    schema = Schema(
        ("b", "g", "h"),
        {"b": FeatureKind.BINARY, "g": FeatureKind.NOMINAL,
         "h": FeatureKind.NOMINAL},
        "y",
    )
    return Dataset(
        schema,
        {"b": np.array(["M"] * 6), "g": np.array(["x"] * 6),
         "h": np.array(["p", "q", "r", "p", "q", "r"])},
        np.array([0, 1, 0, 1, 1, 0]),
    )


def padded_labels_from_csv(tmp_path):
    path = write_lines(tmp_path, [
        HEADER, " 1.5 ,M , icu,0", "2.5, F,er ,1", "3.5,M,icu  ,1",
        "4.5,F,\u3000ward,0", "5.5, M,er,1",
    ])
    return load_csv(path, make_schema())


def rows_dropped_from_csv(tmp_path):
    d = load_csv(rich_csv(tmp_path, 5), RICH_SCHEMA)
    assert d.n_rows < 60
    return d


AWKWARD = [non_ascii_labels, one_level_columns, padded_labels_from_csv,
           rows_dropped_from_csv]


def assert_same_design(got, want):
    (X, *labels), (X_ref, *labels_ref) = got, want
    assert X.shape == X_ref.shape and X.dtype == X_ref.dtype
    assert X.tobytes() == X_ref.tobytes()
    assert labels == labels_ref


class TestEncodersMatchReference:
    """The code-based encoders equal the string-comparison references."""

    @pytest.mark.parametrize("make", AWKWARD, ids=lambda f: f.__name__)
    def test_one_hot(self, tmp_path, make):
        d = make(tmp_path)
        features = list(d.feature_names)
        assert_same_design(one_hot(d, features), reference_one_hot(d, features))

    @pytest.mark.parametrize("preset", list(Preset))
    @pytest.mark.parametrize("make", AWKWARD, ids=lambda f: f.__name__)
    def test_encode_design(self, tmp_path, make, preset):
        # the columns of every row, level blocks written out as indicators
        d = make(tmp_path)
        for train in (None, np.arange(0, d.n_rows, 2)):
            encoding = encode_design(d, preset, train)
            XT, _ = raw_matrix(encoding.columns(np.arange(d.n_rows)))
            assert_same_design((XT.T, encoding.sources),
                               reference_encode_design(d, preset, train))

    @pytest.mark.parametrize("preset", list(Preset))
    @pytest.mark.parametrize("make", AWKWARD, ids=lambda f: f.__name__)
    def test_encode_design_in_row_order(self, tmp_path, make, preset):
        # row i of the design is rows[i]; a row may repeat or be left out
        d = make(tmp_path)
        train = np.arange(0, d.n_rows, 2)
        rows = np.random.default_rng(3).integers(0, d.n_rows, size=d.n_rows + 3)
        encoding = encode_design(d, preset, train)
        XT, _ = raw_matrix(encoding.columns(rows))
        want, sources = reference_encode_design(d, preset, train)
        assert_same_design((XT.T, encoding.sources), (want[rows], sources))


class TestCategoricalCoding:
    def test_discretize_shares_code_arrays(self, tmp_path):
        d = load_csv(rich_csv(tmp_path, 1), RICH_SCHEMA)
        dd = discretize(d, DiscretizationSpec())
        for f in ("b", "ward", "grp"):
            assert dd.codes(f) is d.codes(f)
            assert dd.levels(f) == d.levels(f)

    @pytest.mark.parametrize("values", [
        np.array(["bb", "a", "bb"]),
        np.array(["a", "b", "a"], dtype="<U10"),
        np.array(["x", "yy", "x"], dtype=object),
        np.array([3, 12, 3]),
    ], ids=["exact-width", "wide", "object", "int"])
    def test_column_keeps_label_dtype_and_is_read_only(self, values):
        schema = Schema(("g",), {"g": FeatureKind.NOMINAL}, "y")
        col = Dataset(schema, {"g": values}, np.array([0, 1, 0])).column("g")
        want = values.astype(str)
        assert col.dtype == want.dtype
        np.testing.assert_array_equal(col, want)
        assert not col.flags.writeable
        with pytest.raises(ValueError):
            col[0] = "z"


def many_labels_csv(tmp_path, labels, seed=0, n_rows=700):
    """A CSV in ``make_schema``'s layout whose dept cells take every label.

    The rows are shuffled, so a 256-record block meets only some labels
    and later blocks bring new ones.
    """
    rng = np.random.default_rng(seed)
    depts = list(labels) + rng.choice(labels, size=n_rows - len(labels)).tolist()
    rng.shuffle(depts)
    lines = [HEADER] + [
        f"{rng.normal():.6f},{'MF'[i % 2]},{dept},{i % 3 % 2}"
        for i, dept in enumerate(depts)
    ]
    return write_lines(tmp_path, lines)


class TestCodeWidth:
    """Codes take the narrowest unsigned type their level count needs."""

    @pytest.mark.parametrize("block", [1, tabular.BLOCK_ROWS])
    @pytest.mark.parametrize("n_labels, dtype", [(256, np.uint8), (257, np.uint16)])
    def test_load_csv(self, tmp_path, monkeypatch, block, n_labels, dtype):
        monkeypatch.setattr(tabular, "BLOCK_ROWS", block)
        path = many_labels_csv(tmp_path, [f"d{i:03d}" for i in range(n_labels)])
        got = load_csv(path, make_schema())
        want = reference_load_csv(path, make_schema())
        assert_same_dataset(got, want)
        assert got.arity("dept") == n_labels
        assert got.codes("dept").dtype == want.codes("dept").dtype == dtype
        np.testing.assert_array_equal(got.codes("dept"), want.codes("dept"))
        assert got.codes("sex").dtype == np.uint8

    def test_padded_cells_widen_the_buffer_not_the_codes(self, tmp_path):
        # 400 raw cells strip to 200 labels: the reader's buffer outgrows
        # one byte, the finished codes do not
        labels = [f"d{i:03d}" for i in range(200)]
        path = many_labels_csv(tmp_path, labels + [f" {v}" for v in labels])
        got = load_csv(path, make_schema())
        assert_same_dataset(got, reference_load_csv(path, make_schema()))
        assert got.arity("dept") == 200
        assert got.codes("dept").dtype == np.uint8

    @pytest.mark.parametrize("n_labels, dtype", [
        (1, np.uint8), (256, np.uint8), (257, np.uint16), (65_536, np.uint16),
        (65_537, np.uint32),
    ])
    def test_constructor(self, n_labels, dtype):
        labels = np.array([f"v{i:05d}" for i in range(n_labels)])[::-1]
        schema = Schema(("g",), {"g": FeatureKind.NOMINAL}, "y")
        d = Dataset(schema, {"g": labels}, np.arange(n_labels) % 2)
        assert d.codes("g").dtype == dtype
        np.testing.assert_array_equal(d.codes("g"), np.arange(n_labels)[::-1])
        np.testing.assert_array_equal(d.column("g"), labels)

    @pytest.mark.parametrize("n_bins, dtype", [(256, np.uint8), (257, np.uint16)])
    def test_discretize(self, n_bins, dtype):
        values = np.random.default_rng(4).normal(size=1000)
        dd = discretize(continuous_dataset(values), DiscretizationSpec(n_bins=n_bins))
        cuts = dd.cut_points["x"]
        assert len(cuts) + 1 == dd.arity("x") == n_bins
        assert dd.codes("x").dtype == dtype
        np.testing.assert_array_equal(dd.codes("x"), np.searchsorted(cuts, values))


class TestSchema:
    def test_json_round_trip(self):
        s = make_schema()
        s2 = Schema.from_json_dict(s.to_json_dict())
        assert s2 == s

    def test_json_file_byte_order_mark_skipped(self, tmp_path):
        text = json.dumps(make_schema().to_json_dict())
        (tmp_path / "plain.json").write_text(text, encoding="utf-8")
        (tmp_path / "bom.json").write_text(text, encoding="utf-8-sig")
        assert (Schema.from_json_file(tmp_path / "bom.json")
                == Schema.from_json_file(tmp_path / "plain.json") == make_schema())

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaMismatchError):
            Schema(("a", "a"), {"a": FeatureKind.BINARY}, "y")

    def test_outcome_among_features_rejected(self):
        with pytest.raises(SchemaMismatchError):
            Schema(("a",), {"a": FeatureKind.BINARY}, "a")


def test_import_loads_only_what_tabular_imports():
    src = str(Path(tabular.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, featscan.tabular; "
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'featscan'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["featscan", "featscan.errors", "featscan.tabular"]
