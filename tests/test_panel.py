import csv
import io
import math

import numpy as np
import pytest

from csv_oracle import reference_ingest_csv
from sparsefactors import (
    DegenerateSeriesError,
    InsufficientSampleError,
    InvalidArgumentError,
    Panel,
    SparseFactorsError,
    PanelParseError,
    TransformError,
    align_and_trim,
    apply_tcode,
    export_csv,
    ingest_csv,
    standardize,
)


ORIENTATIONS = ("series_in_rows", "series_in_columns")


def make_csv(names, matrix, time_ids=None, groups=None, holes=(), orientation="series_in_rows",
             newline="\n", final_newline=True):
    """Build CSV text; holes is a set of (series_index, time_index) blanks."""
    t = len(matrix[0])
    time_ids = time_ids or [f"t{j}" for j in range(t)]
    rows = [["series"] + (["group"] if groups else []) + list(time_ids)]
    for i, name in enumerate(names):
        cells = ["" if (i, j) in holes else repr(matrix[i][j]) for j in range(t)]
        rows.append([name] + ([str(groups[i])] if groups else []) + cells)
    if orientation == "series_in_columns":
        rows = list(zip(*rows))
    buf = io.StringIO()
    csv.writer(buf, lineterminator=newline).writerows(rows)
    text = buf.getvalue()
    return text if final_newline else text[: -len(newline)]


def layouts(names, matrix, **kwargs):
    """``(text, orientation)`` of one panel in both orientations, each with "\\n" and "\\r\\n"
    line endings and without a newline after the last line."""
    for orientation in ORIENTATIONS:
        for newline, final_newline in (("\n", True), ("\r\n", True), ("\n", False)):
            yield make_csv(names, matrix, orientation=orientation, newline=newline,
                           final_newline=final_newline, **kwargs), orientation


def panel_texts():
    """Hypothesis strategy: UTF-8 CSV text of short rows of names and mostly numeric cells,
    with "\\n" or "\\r\\n" line endings; about a fifth of them are panels in either
    orientation. A cell may hold a bare "\\r" or U+2028, which are not line breaks."""
    st = pytest.importorskip("hypothesis.strategies")
    name = st.sampled_from(["a", "b", " c ", '"d\ne"', "f", "g", "", "group"])
    value = st.sampled_from(["1", "-2.5", "0.125", " 7 ", "3.0", "1e3", "-0.0"] * 4
                            + ["", "x", "inf", "1.5", "group", "4\rh", "5\u2028h"])
    row = st.tuples(name, st.lists(value, min_size=2, max_size=4)).map(
        lambda r: ",".join([r[0], *r[1]]))
    return st.tuples(st.lists(row, min_size=1, max_size=6), st.sampled_from(["\n", "\r\n"]),
                     st.booleans()).map(lambda t: (t[1].join(t[0]) + t[1] * t[2]).encode())


class TestIngest:
    def test_dense_file_is_ingested_bit_exactly(self):
        vals = [[1.5, -2.25, 0.125, 3.0], [0.1, 0.2, 0.3, 0.4], [9.0, 8.0, 7.0, 6.0]]
        for names in (["a", "b", "c"], ["a", "quoted\nname", "c"]):
            for text, orientation in layouts(names, vals):
                panel, report = ingest_csv(text, orientation=orientation)
                assert panel.values.shape == (3, 4)
                assert np.array_equal(panel.values, np.array(vals))
                assert panel.series_ids == tuple(names)
                assert panel.time_ids == ("t0", "t1", "t2", "t3")
                assert len(report) == 0

    def test_gappy_series_are_dropped_with_report(self):
        # FRED-QD-style: 181 series, 2 of them with gaps -> 179 survivors
        rng = np.random.default_rng(0)
        names = [f"v{i:03d}" for i in range(181)]
        vals = rng.normal(size=(181, 40)).tolist()
        holes = {(17, 5), (90, 0), (90, 39)}
        for text, orientation in layouts(names, vals, holes=holes):
            panel, report = ingest_csv(text, orientation=orientation)
            assert panel.n_series == 179
            assert len(report) == 2
            assert {name for name, _ in report.dropped} == {"v017", "v090"}
            assert "v017" not in panel.series_ids

    def test_duplicate_series_name_raises(self):
        for text, orientation in layouts(["a", "a"], [[1.0, 2.0], [3.0, 4.0]]):
            with pytest.raises(PanelParseError, match="duplicate series") as exc:
                ingest_csv(text, orientation=orientation)
            assert exc.value.location == "row 3"

    def test_empty_file_raises(self):
        with pytest.raises(PanelParseError, match="empty"):
            ingest_csv("")

    def test_single_time_point_raises(self):
        with pytest.raises(PanelParseError, match="fewer than 2 time points"):
            ingest_csv("series,t0\na,1.0\n")

    def test_group_column_is_parsed(self):
        for text, orientation in layouts(["a", "b"], [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]],
                                         groups=[3, 11]):
            panel, _ = ingest_csv(text, orientation=orientation)
            assert panel.group_ids == (3, 11)
            assert panel.time_ids == ("t0", "t1", "t2")
        panel, _ = ingest_csv("series,group,t1,t2\na,1e3,1,2\nb,4.0,3,4\n")  # integral floats
        assert panel.group_ids == (1000, 4)

    def test_series_in_columns_orientation(self):
        text = "series,a,b\nt0,1.0,10.0\nt1,2.0,20.0\nt2,3.0,30.0\n"
        panel, _ = ingest_csv(text, orientation="series_in_columns")
        assert panel.series_ids == ("a", "b")
        assert panel.time_ids == ("t0", "t1", "t2")
        assert np.array_equal(panel.values, np.array([[1.0, 2.0, 3.0], [10.0, 20.0, 30.0]]))

    @pytest.mark.parametrize("cell", ["inf", "-inf", "1e999", "nan"])
    def test_non_finite_cells_drop_the_series(self, cell):
        text = "series,t0,t1,t2\na,1.0,2.0,3.0\nb,4.0,%s,6.0\n" % cell
        panel, report = ingest_csv(text)
        assert panel.series_ids == ("a",)
        assert [name for name, _ in report.dropped] == ["b"]

    def test_non_utf8_bytes_raise_parse_error(self):
        with pytest.raises(PanelParseError, match=r"not UTF-8 text \(at byte 14\)"):
            ingest_csv("series,t0,t1\nSérie,1.0,2.0\n".encode("latin-1"))

    def test_malformed_csv_raises_parse_error(self):
        with pytest.raises(PanelParseError, match=r"malformed CSV.*\(at line 2\)"):
            ingest_csv("series,t0,t1\na,1.0\r2.0,3.0\n")

    @pytest.mark.parametrize("group", ["inf", "1.5", "2.9"])
    def test_overflowing_group_id_raises_parse_error(self, group):
        with pytest.raises(PanelParseError, match=f"group id '{group}' is not an integer") as exc:
            ingest_csv(f"series,group,t1,t2,t3\na,{group},1,2,3\n")
        assert exc.value.location == "row 2"

    def test_byte_stream_input(self):
        text = make_csv(["a", "b"], [[1.0, 2.0], [3.0, 4.0]])
        panel, _ = ingest_csv(io.BytesIO(text.encode()))
        assert panel.n_series == 2

    @pytest.mark.parametrize("orientation", ORIENTATIONS)
    def test_peak_memory_stays_near_the_text_size(self, orientation, peak_bytes):
        # a FRED-QD-sized file: no per-cell strings may outlive their row
        rng = np.random.default_rng(7)
        names = [f"S{i:03d}" for i in range(248)]
        text = make_csv(names, rng.normal(size=(248, 260)).tolist(), orientation=orientation)
        assert peak_bytes(lambda: ingest_csv(text, orientation=orientation)) < 2 * len(text)

    @pytest.mark.parametrize("orientation", ORIENTATIONS)
    def test_matches_the_materializing_reader(self, orientation, fuzz_bytes):
        hypothesis = pytest.importorskip("hypothesis")

        def outcome(read, payload):
            try:
                panel, report = read(payload, orientation=orientation)
            except Exception as exc:  # the error type is what is compared
                return type(exc)
            return (panel.values.shape, panel.values.tobytes(), panel.series_ids,
                    panel.time_ids, panel.group_ids, report.dropped)

        @hypothesis.settings(max_examples=300, deadline=None, database=None)
        @hypothesis.given(fuzz_bytes | panel_texts())
        def check(payload):
            assert outcome(ingest_csv, payload) == outcome(reference_ingest_csv, payload)

        check()

    def test_round_trip_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        label = st.text(st.characters(codec="utf-8", exclude_categories=("Cs",)), min_size=1,
                        max_size=8).filter(lambda s: s == s.strip() and s.lower() != "group")

        @hypothesis.settings(max_examples=100, deadline=None, database=None)
        @hypothesis.given(st.data())
        def check(data):
            n, t = data.draw(st.integers(1, 5)), data.draw(st.integers(2, 6))
            names = data.draw(st.lists(label, min_size=n, max_size=n, unique=True))
            times = data.draw(st.lists(label, min_size=t, max_size=t))
            vals = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                      min_size=n * t, max_size=n * t))
            panel = Panel(np.reshape(vals, (n, t)), names, times)
            again, report = ingest_csv(export_csv(panel))
            assert len(report) == 0
            assert np.array_equal(again.values, panel.values)
            assert (again.series_ids, again.time_ids) == (panel.series_ids, panel.time_ids)

        check()

    def test_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(3)
        vals = rng.normal(size=(5, 7))
        panel = Panel(vals, [f"s{i}" for i in range(5)], [f"t{j}" for j in range(7)])
        again, _ = ingest_csv(export_csv(panel))
        assert np.array_equal(again.values, panel.values)
        assert again.series_ids == panel.series_ids
        assert again.time_ids == panel.time_ids


class TestTransformCodes:
    def test_unknown_code_is_an_invalid_argument(self):
        with pytest.raises(InvalidArgumentError, match="must be in 1..7, got 9") as info:
            apply_tcode([1.0, 2.0, 3.0], 9)
        assert isinstance(info.value, SparseFactorsError)
        assert isinstance(info.value, ValueError)

    def test_code1_is_identity(self):
        x = np.array([2.0, 5.0, 3.0, 8.0])
        assert np.array_equal(apply_tcode(x, 1), x)

    def test_code2_first_difference(self):
        assert np.array_equal(apply_tcode([1.0, 3.0, 6.0, 10.0], 2), [2.0, 3.0, 4.0])

    def test_code3_equals_code2_twice(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=25)
        assert np.allclose(apply_tcode(x, 3), apply_tcode(apply_tcode(x, 2), 2), atol=1e-14)

    def test_code6_double_log_difference(self):
        x = np.exp([0.0, 1.0, 3.0, 6.0])
        assert np.allclose(apply_tcode(x, 6), [1.0, 1.0], atol=1e-12)

    def test_code5_geometric_series_gives_constant(self):
        rho, g = 1.7, 0.3
        x = g * rho ** np.arange(12)
        out = apply_tcode(x, 5)
        assert np.allclose(out, math.log(rho), atol=1e-12)

    def test_code7_growth_rate_difference(self):
        out = apply_tcode([1.0, 2.0, 4.0, 8.0], 7)
        assert np.allclose(out, [0.0, 0.0], atol=1e-14)

    @pytest.mark.parametrize("code,drop", [(1, 0), (2, 1), (3, 2), (4, 0), (5, 1), (6, 2), (7, 2)])
    def test_output_lengths(self, code, drop):
        x = np.linspace(1.0, 2.0, 9)
        assert apply_tcode(x, code).size == 9 - drop

    def test_nonpositive_under_log_reports_index(self):
        with pytest.raises(TransformError) as err:
            apply_tcode([1.0, 2.0, -3.0, 4.0], 5)
        assert err.value.index == 2

    def test_bad_code_rejected(self):
        with pytest.raises(ValueError):
            apply_tcode([1.0, 2.0, 3.0], 8)

    def test_short_series_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            apply_tcode([1.0, 2.0], 2)


class TestAlignAndTrim:
    def test_uniform_level_codes_drop_two_leading_points(self):
        rng = np.random.default_rng(2)
        vals = rng.normal(size=(4, 120))
        panel = Panel(vals, [f"s{i}" for i in range(4)], [f"t{j}" for j in range(120)])
        out = align_and_trim(panel, [1, 1, 1, 1])
        assert out.n_periods == 118
        assert np.array_equal(out.values, vals[:, 2:])
        assert out.time_ids == panel.time_ids[2:]

    def test_mixed_codes_hand_fixture(self):
        t = np.arange(12, dtype=float)
        panel = Panel(np.vstack([t, t**2, t**2]), ["lin", "sq2", "sq3"], [f"t{j}" for j in range(12)])
        out = align_and_trim(panel, [1, 2, 3])
        assert out.n_periods == 10
        assert np.array_equal(out.values[0], np.arange(2.0, 12.0))          # levels lose 2 points
        assert np.array_equal(out.values[1], np.arange(3.0, 22.0, 2.0))    # odd gaps 3,5,...,21
        assert np.array_equal(out.values[2], np.full(10, 2.0))             # second difference of t^2

    def test_insufficient_sample_raises(self):
        vals = np.random.default_rng(0).normal(size=(2, 10))
        panel = Panel(vals, ["a", "b"], [f"t{j}" for j in range(10)])
        with pytest.raises(InsufficientSampleError):
            align_and_trim(panel, [1, 3])

    def test_code_count_must_match(self):
        vals = np.zeros((2, 30)) + np.arange(30)
        panel = Panel(vals, ["a", "b"], [f"t{j}" for j in range(30)])
        with pytest.raises(ValueError):
            align_and_trim(panel, [1])

    def test_overflowing_transform_names_the_series(self):
        vals = np.vstack([np.arange(12.0), np.arange(12.0)])
        vals[1, 4:6] = 1e308, -1e308  # the code-2 difference at period 5 is -inf
        panel = Panel(vals, ["ok", "big"], [f"t{j}" for j in range(12)])
        with pytest.raises(TransformError, match=r"'big' overflows under code 2 at period 't5'") as err:
            align_and_trim(panel, [1, 2])
        assert err.value.index == 5


class TestStandardize:
    def test_simple_row(self):
        panel = Panel(np.array([[1.0, 2.0, 3.0]]), ["a"], ["t0", "t1", "t2"])
        out = standardize(panel)
        assert np.allclose(out.values, [[-1.0, 0.0, 1.0]], atol=1e-14)

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        panel = Panel(rng.normal(size=(6, 40)), [f"s{i}" for i in range(6)],
                      [f"t{j}" for j in range(40)])
        once = standardize(panel)
        twice = standardize(once)
        assert np.max(np.abs(twice.values - once.values)) < 1e-12

    def test_moments(self):
        rng = np.random.default_rng(6)
        panel = Panel(rng.normal(loc=3.0, scale=7.0, size=(8, 90)),
                      [f"s{i}" for i in range(8)], [f"t{j}" for j in range(90)])
        out = standardize(panel)
        assert np.max(np.abs(out.values.mean(axis=1))) < 1e-10
        assert np.max(np.abs(out.values.var(axis=1, ddof=1) - 1.0)) < 1e-8

    @pytest.mark.parametrize("seed", range(4))
    def test_bit_identical_to_mean_and_std(self, seed):
        rng = np.random.default_rng(seed)
        n, t = rng.integers(2, 250, size=2)
        full = rng.standard_t(3, size=(n, t + 30)) * 10.0 ** rng.integers(-4, 5) + 40.0
        for values in (full[:, :t], full[:, 7 : 7 + t], full[:, 7 : 7 + t : 2]):
            panel = Panel(values, [f"s{i}" for i in range(n)],
                          [f"t{j}" for j in range(values.shape[1])])
            x = panel.values
            expected = (x - x.mean(axis=1, keepdims=True)) / x.std(axis=1, ddof=1, keepdims=True)
            assert np.array_equal(standardize(panel).values, expected)

    def test_constant_series_is_named(self):
        for c in (1.0, 0.1, 1 / 3):  # 20 copies of 0.1 or 1/3 have an inexact mean: sd ~ 1e-17
            vals = np.vstack([np.full(20, c), np.arange(20.0)])
            panel = Panel(vals, ["flat", "ok"], [f"t{j}" for j in range(20)])
            with pytest.raises(DegenerateSeriesError, match="'flat' is constant"):
                standardize(panel)

    def test_overflowing_variance_is_named(self):
        # the squared deviations overflow, so sd = inf would zero the series
        vals = np.vstack([np.arange(10.0), 1e307 * np.arange(10.0)])
        panel = Panel(vals, ["ok", "huge"], [f"t{j}" for j in range(10)])
        with pytest.raises(DegenerateSeriesError, match="'huge' overflows"):
            standardize(panel)

    def test_overflowing_mean_is_named(self):
        # the row sum overflows, so mean = inf would turn every cell into NaN
        vals = np.vstack([np.arange(10.0), np.full(10, 1.5e308) - 1e300 * np.arange(10.0)])
        panel = Panel(vals, ["ok", "huge"], [f"t{j}" for j in range(10)])
        with pytest.raises(DegenerateSeriesError, match="'huge' overflows"):
            standardize(panel)


class TestPanelInvariants:
    def test_nonfinite_values_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Panel(np.array([[1.0, np.nan]]), ["a"], ["t0", "t1"])

    def test_label_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Panel(np.zeros((2, 3)), ["a"], ["t0", "t1", "t2"])
        with pytest.raises(ValueError):
            Panel(np.zeros((2, 3)), ["a", "b"], ["t0", "t1"])

    @pytest.mark.parametrize("group", [1.5, True, "3"])
    def test_non_integral_group_id_rejected(self, group):
        with pytest.raises(InvalidArgumentError, match=f"group id {group!r} at position 1 "):
            Panel(np.zeros((2, 2)), ["a", "b"], ["t0", "t1"], group_ids=(2, group))

    def test_integral_group_ids_are_stored_as_int(self):
        panel = Panel(np.zeros((3, 2)), ["a", "b", "c"], ["t0", "t1"],
                      group_ids=(np.int64(4), 3.0, 7))
        assert panel.group_ids == (4, 3, 7)
        assert all(type(g) is int for g in panel.group_ids)

    def test_values_are_immutable(self):
        panel = Panel(np.zeros((2, 2)), ["a", "b"], ["t0", "t1"])
        with pytest.raises(ValueError):
            panel.values[0, 0] = 1.0

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_callers_array_stays_writeable(self, order):
        values = np.zeros((2, 2), order=order)
        panel = Panel(values, ["a", "b"], ["t0", "t1"])
        assert values.flags.writeable and not panel.values.flags.writeable
        assert not np.shares_memory(panel.values, values)  # the panel owns a copy
        values[0, 0] = 1.0

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_a_later_write_to_the_callers_array_leaves_the_panel_unchanged(self, order):
        values = np.arange(6.0).reshape(2, 3).copy(order=order)
        panel = Panel(values, ["a", "b"], ["t0", "t1", "t2"])
        values[0, 0] = np.nan
        assert np.array_equal(panel.values, np.arange(6.0).reshape(2, 3))
        assert np.all(np.isfinite(standardize(panel).values))  # the checked values are the ones read

    @pytest.mark.parametrize("view", [np.s_[::2, ::3], np.s_[::-1, :], np.s_[:, 1:5], "F"])
    def test_values_are_c_or_f_contiguous(self, view):
        base = np.arange(60.0).reshape(6, 10)
        values = np.asfortranarray(base) if view == "F" else base[view]
        n, t = values.shape
        panel = Panel(values, [f"s{i}" for i in range(n)], [f"t{j}" for j in range(t)])
        assert np.array_equal(panel.values, values)
        if view == "F":  # copied in its own order
            assert panel.values.flags.f_contiguous
        else:
            assert panel.values.flags.c_contiguous

    def test_derived_panels_are_read_only_and_keep_the_labels(self):
        panel = Panel(np.arange(12.0).reshape(3, 4), ["a", "b", "c"], ["t0", "t1", "t2", "t3"],
                      group_ids=(np.int64(2), 1, 2))
        window = panel._derived(panel.values[:, 1:3], panel.time_ids[1:3])
        std = standardize(window)
        for derived in (window, std):
            assert not derived.values.flags.writeable
            assert derived.series_ids == panel.series_ids and derived.group_ids == (2, 1, 2)
            assert derived.time_ids == ("t1", "t2")
        assert np.array_equal(window.values, panel.values[:, 1:3])
