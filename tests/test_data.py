import csv
import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryptocast import data as dataio
from cryptocast.errors import (
    CryptocastError,
    DataError,
    DegenerateScaleError,
    DomainError,
    OrderingError,
    ParseError,
    SchemaError,
    SizeError,
)


def make_frame(n, columns=("close", "volume", "fgi"), start=dt.date(2021, 1, 1), values=None):
    dates = [start + dt.timedelta(days=i) for i in range(n)]
    if values is None:
        values = np.column_stack([
            100.0 + np.arange(n, dtype=float),
            1e6 + 10.0 * np.arange(n),
            np.linspace(10, 90, n),
        ])[:, :len(columns)]
    return dataio.SeriesFrame.build(dates, list(columns), values)


class TestLoadSeries:
    def test_three_well_formed_rows(self, tmp_path):
        path = tmp_path / "ok.csv"
        path.write_text(
            "date,close,volume,fgi\n"
            "2021-01-01,100.0,5e6,50\n"
            "2021-01-02,101.5,6e6,55\n"
            "2021-01-03,99.75,4.5e6,45\n"
        )
        frame = dataio.load_series(path)
        assert len(frame) == 3
        assert frame.columns == ["close", "volume", "fgi"]
        assert frame.column("close").tolist() == [100.0, 101.5, 99.75]

    def test_repeated_date_is_ordering_error(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            "date,close\n2021-01-01,1\n2021-01-01,2\n"
        )
        with pytest.raises(OrderingError):
            dataio.load_series(path)

    def test_decreasing_date_is_ordering_error(self, tmp_path):
        path = tmp_path / "bad_order.csv"
        path.write_text("date,close\n2021-01-02,1\n2021-01-01,2\n")
        with pytest.raises(OrderingError):
            dataio.load_series(path)

    def test_ordering_error_names_the_file_and_its_row(self, tmp_path):
        # rows are counted as a ParseError counts them: the header is row 1
        # and a blank row counts
        path = tmp_path / "gap.csv"
        path.write_text("date,close\n2021-01-02,1\n\n2021-01-01,2\n")
        with pytest.raises(OrderingError) as raised:
            dataio.load_series(path)
        assert str(raised.value) == (f"{path} row 4: date 2021-01-01 does not follow "
                                     f"2021-01-02; dates must be strictly increasing")

    def test_missing_column_is_schema_error(self, tmp_path):
        path = tmp_path / "missing.csv"
        path.write_text("date,close\n2021-01-01,1\n")
        with pytest.raises(SchemaError, match="volume"):
            dataio.load_series(path).select(["close", "volume"])

    def test_duplicate_header_is_schema_error(self, tmp_path):
        path = tmp_path / "duplicate.csv"
        path.write_text("date,close,close\n2021-01-01,1,2\n")
        with pytest.raises(SchemaError, match="'close'"):
            dataio.load_series(path)

    def test_bad_cell_reports_row_number(self, tmp_path):
        path = tmp_path / "bad_cell.csv"
        path.write_text("date,close\n2021-01-01,1\n2021-01-02,oops\n")
        with pytest.raises(ParseError, match="row 3"):
            dataio.load_series(path)

    def test_csv_round_trip(self, tmp_path):
        frame = make_frame(12)
        path = tmp_path / "round.csv"
        dataio.write_series_csv(frame, path)
        loaded = dataio.load_series(path)
        assert loaded.dates == frame.dates
        assert np.array_equal(loaded.values, frame.values)

    def test_multi_year_daily_file(self, tmp_path):
        # 2014-09-17 through 2025-02-28 is 3818 daily rows
        start = dt.date(2014, 9, 17)
        end = dt.date(2025, 2, 28)
        n = (end - start).days + 1
        assert n == 3818
        path = tmp_path / "long.csv"
        with open(path, "w") as fh:
            fh.write("date,close,volume,fgi\n")
            for i in range(n):
                day = start + dt.timedelta(days=i)
                fh.write(f"{day.isoformat()},{100 + i * 0.5},{1e6 + i},{(i % 101)}\n")
        frame = dataio.load_series(path)
        assert len(frame) == 3818
        assert frame.dates[0] == start and frame.dates[-1] == end


# CSV-shaped text: a header and rows built from cells near the valid ones
_CELLS = st.one_of(
    st.sampled_from(["date", "close", "fgi", "volume", " date ", "", "2021-01-01",
                     "2021-01-02", "2021-02-30", "20210103", "1", "-2.5e3", "1e400", "nan",
                     "inf", "150", "1_0", '"1,5"', '"a""b"', "\x00", "\r"]),
    st.dates().map(dt.date.isoformat),
    st.floats().map(repr),
    st.text(max_size=8),
)
_NOISY_ROWS = st.lists(st.lists(_CELLS, max_size=5).map(",".join), max_size=8)
# well-formed rows: increasing dates, one or two values in the fgi range
_ROWS = st.lists(st.tuples(st.dates(), st.lists(st.floats(0, 100), min_size=1, max_size=2)),
                 min_size=1, max_size=6, unique_by=lambda row: row[0]).map(
    lambda rows: [",".join([d.isoformat(), *map(repr, v)]) for d, v in sorted(rows)])
_CSV_TEXT = st.one_of(_NOISY_ROWS, _ROWS, st.tuples(_ROWS, _NOISY_ROWS).map(lambda parts: parts[0] + parts[1])).map("\n".join)


class TestLoadSeriesFuzz:
    """Whatever a file holds, load_series returns a valid frame or raises a
    CryptocastError; evaluate, compare, report and predict all read through it."""

    @staticmethod
    def check(path):
        try:
            frame = dataio.load_series(path)
        except CryptocastError:
            return
        assert isinstance(frame, dataio.SeriesFrame)
        assert len(frame) >= 1 and frame.values.shape == (len(frame), len(frame.columns))
        assert np.all(np.isfinite(frame.values))
        assert all(a < b for a, b in zip(frame.dates, frame.dates[1:]))
        assert "date" not in frame.columns and len(set(frame.columns)) == len(frame.columns)

    @given(st.binary(max_size=400))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes(self, tmp_path_factory, raw):
        path = tmp_path_factory.mktemp("fuzz") / "bytes.csv"
        path.write_bytes(raw)
        self.check(path)

    @given(st.sampled_from(["date,close", "date,close,fgi", "close,date", "date"]), _CSV_TEXT)
    @settings(max_examples=300, deadline=None)
    def test_csv_shaped_text(self, tmp_path_factory, header, body):
        path = tmp_path_factory.mktemp("fuzz") / "text.csv"
        path.write_bytes((header + "\n" + body).encode("utf-8", "surrogatepass"))
        self.check(path)


# --- parity of the one-pass reader with the row-by-row reader it replaced -----

def oracle_load_series(path) -> dataio.SeriesFrame:
    """load_series as it read a file one Python step per cell: the oracle
    for the one-pass reader's values, errors and messages."""
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot open data file {path}: {exc}") from exc
    try:
        with fh:
            return oracle_read_series(path, csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"{path} is not a readable UTF-8 CSV: {exc}") from None


def oracle_read_series(path, reader) -> dataio.SeriesFrame:
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(f"{path} is empty") from None
    header = [h.strip() for h in header]
    repeated = [h for i, h in enumerate(header) if h in header[:i]]
    if repeated:
        raise SchemaError(f"{path} header repeats column {repeated[0]!r}")
    if "date" not in header:
        raise SchemaError(f"column 'date' not found in {path} header {header}")
    date_index = header.index("date")
    feature_names = [h for h in header if h != "date"]
    if not feature_names:
        raise SchemaError(f"{path} declares no value columns")
    col_index = [header.index(name) for name in feature_names]
    dates: list[dt.date] = []
    numbers: list[int] = []
    rows: list[list[float]] = []
    for row_number, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        try:
            date = dt.date.fromisoformat(row[date_index].strip())
        except (ValueError, IndexError):
            raise ParseError(
                f"{path} row {row_number}: unparseable date "
                f"{row[date_index] if len(row) > date_index else '<missing>'!r}"
            ) from None
        parsed: list[float] = []
        for name, j in zip(feature_names, col_index):
            try:
                value = float(row[j])
            except (ValueError, IndexError):
                raise ParseError(
                    f"{path} row {row_number}: non-numeric value for column {name!r}"
                ) from None
            if not math.isfinite(value):
                raise ParseError(
                    f"{path} row {row_number}: non-finite value for column {name!r}"
                )
            parsed.append(value)
        dates.append(date)
        numbers.append(row_number)
        rows.append(parsed)
    if not rows:
        raise SizeError(f"{path} contains no data rows")
    for i in range(1, len(dates)):
        if dates[i] <= dates[i - 1]:
            raise OrderingError(f"{path} row {numbers[i]}: date {dates[i]} does not follow "
                                f"{dates[i - 1]}; dates must be strictly increasing")
    return dataio.SeriesFrame.build(dates, feature_names, np.array(rows, dtype=np.float64))


def outcome(load, path):
    """A loader's frame as (dates, columns, value bytes), or its error as
    (type, message)."""
    try:
        frame = load(path)
    except CryptocastError as exc:
        return type(exc), str(exc)
    return frame.dates, frame.columns, frame.values.shape, frame.values.tobytes()


_ODD_VALUES = ["1_000", "1__0", " 1.5 ", "\t2.5", '"3,5"', '"4.25"', '"a""b"', "nan", "-nan",
               "inf", "-Infinity", "1e400", "-0.0", "5e-324", "", "  ", "abc", "0x10",
               "\u0661\u0662\u0663", "\uff11\uff12", "+7", ".5", "5."]
_VALUE = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                   st.integers(-10**20, 10**20).map(str), st.sampled_from(_ODD_VALUES))
_BAD_DATES = ["2021-02-30", "20210103", "", " ", "2021-1-5", "date", "2021-01-01T00:00"]
# a data row (date, then values), a blank row, or a row of whitespace cells
_ROW = st.one_of(
    st.tuples(st.one_of(st.dates(dt.date(2000, 1, 1), dt.date(2030, 12, 31)).map(
                  dt.date.isoformat), st.sampled_from(_BAD_DATES)),
              st.lists(_VALUE, max_size=4)).map(lambda row: [row[0], *row[1]]),
    st.just([]),
    st.lists(st.sampled_from([" ", "\t", ""]), min_size=1, max_size=3),
)


def _csv_body(rows, ordered):
    """Rows as CSV lines; data rows sorted by their date cell when `ordered`,
    so that most files pass the date-order check."""
    if ordered:
        rows = sorted(rows, key=lambda row: row[0] if row else "")
    return "".join(",".join(row) + "\n" for row in rows)


class TestLoadSeriesParity:
    """The one-pass reader gives the row-by-row reader's dates, columns and
    float64 bits, or the same error type and message: blank and whitespace
    rows keep their row numbers, short and long rows, quoted cells,
    underscores, nan/inf, non-numeric cells, bad and decreasing dates."""

    @given(st.sampled_from(["date,close", "date,close,fgi", "close,date,volume",
                            "date,close,volume,fgi", " date , close "]),
           st.lists(_ROW, max_size=8), st.booleans())
    @settings(max_examples=500, deadline=None)
    def test_same_frame_or_same_error(self, tmp_path_factory, header, rows, ordered):
        path = tmp_path_factory.mktemp("parity") / "p.csv"
        path.write_text(header + "\n" + _csv_body(rows, ordered), encoding="utf-8")
        assert outcome(dataio.load_series, path) == outcome(oracle_load_series, path)

    @given(st.lists(st.tuples(st.dates(dt.date(2000, 1, 1), dt.date(2030, 12, 31)),
                              st.lists(st.one_of(st.floats(-1e6, 1e6).map(repr), _VALUE),
                                       min_size=2, max_size=2),
                              st.sampled_from(["", "\n", " , \n"])),
                    min_size=1, max_size=8, unique_by=lambda row: row[0]))
    @settings(max_examples=300, deadline=None)
    def test_well_formed_rows_read_bit_for_bit(self, tmp_path_factory, rows):
        # each data row may be followed by a blank or whitespace row
        path = tmp_path_factory.mktemp("parity") / "w.csv"
        path.write_text("date,close,volume\n" + "".join(
            f"{d.isoformat()},{a},{b}\n{gap}" for d, (a, b), gap in sorted(rows)))
        assert outcome(dataio.load_series, path) == outcome(oracle_load_series, path)

    @pytest.mark.parametrize("body, error", [
        ("2021-01-01,1\n\n  ,\t\n2021-01-04,oops\n", "row 5: non-numeric value"),
        ("2021-01-01,1,2\n2021-01-02,1e400\n2021-01-03,x\n", "row 3: non-finite value"),
        ("2021-01-01,1\n2021-01-02\n", "row 3: non-numeric value"),
        ("2021-01-01,nan\n2021-13-01,1\n", "row 2: non-finite value"),
        ("2021-01-02,1\nnot-a-date,x\n", "row 3: unparseable date 'not-a-date'"),
        ("2021-01-02,1\n2021-01-01,2\n", "row 3: date 2021-01-01 does not follow 2021-01-02"),
    ])
    def test_first_error_in_row_order(self, tmp_path, body, error):
        path = tmp_path / "e.csv"
        path.write_text("date,close\n" + body)
        kind, message = outcome(dataio.load_series, path)
        assert (kind, message) == outcome(oracle_load_series, path)
        assert issubclass(kind, DataError) and error in message

    def test_unreadable_line_after_a_bad_cell(self, tmp_path):
        # a bad cell before the first undecodable byte is reported first, as
        # when the rows were read one at a time
        path = tmp_path / "late.csv"
        path.write_bytes(b"date,close\n2021-01-01,oops\n" + b"2021-01-02,1\n" * 2000 + b"\xff\n")
        assert outcome(dataio.load_series, path) == outcome(oracle_load_series, path)
        assert "row 2: non-numeric value" in outcome(dataio.load_series, path)[1]


class TestComposeFgi:
    def test_neutral_midpoint(self):
        assert dataio.compose_fgi(0.0, 50.0, 0.5, 0.5) == 50.0

    def test_maximum(self):
        assert dataio.compose_fgi(1.0, 100.0, 0.5, 0.5) == 100.0

    def test_minimum(self):
        assert dataio.compose_fgi(-1.0, 0.0, 0.5, 0.5) == 0.0

    def test_out_of_range_sentiment(self):
        with pytest.raises(DomainError):
            dataio.compose_fgi(1.5, 50.0)

    def test_out_of_range_trends(self):
        with pytest.raises(DomainError):
            dataio.compose_fgi(0.0, 120.0)

    def test_bad_weights(self):
        with pytest.raises(DomainError):
            dataio.compose_fgi(0.0, 50.0, 0.7, 0.6)

    @given(
        st.floats(-1, 1), st.floats(-1, 1),
        st.floats(0, 100), st.floats(0, 100),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_monotone_in_both_arguments(self, s1, s2, t1, t2, w1):
        w2 = 1.0 - w1
        lo_s, hi_s = sorted((s1, s2))
        lo_t, hi_t = sorted((t1, t2))
        assert dataio.compose_fgi(lo_s, lo_t, w1, w2) <= dataio.compose_fgi(hi_s, lo_t, w1, w2) + 1e-12
        assert dataio.compose_fgi(lo_s, lo_t, w1, w2) <= dataio.compose_fgi(lo_s, hi_t, w1, w2) + 1e-12

    def test_vectorized(self):
        out = dataio.compose_fgi(np.array([0.0, 1.0]), np.array([50.0, 100.0]))
        assert out.tolist() == [50.0, 100.0]


class TestClassifyFgi:
    @pytest.mark.parametrize("score,band", [
        (0.0, "extreme_fear"), (10.0, "extreme_fear"), (24.0, "extreme_fear"),
        (25.0, "fear"), (49.0, "fear"),
        (50.0, "greed"), (60.0, "greed"), (74.0, "greed"),
        (75.0, "extreme_greed"), (100.0, "extreme_greed"),
    ])
    def test_band_assignment(self, score, band):
        assert dataio.classify_fgi(score) == band

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            dataio.classify_fgi(101.0)
        with pytest.raises(DomainError):
            dataio.classify_fgi(-0.5)

    @given(st.floats(0, 100))
    @settings(max_examples=100, deadline=None)
    def test_partitions_the_range(self, score):
        band = dataio.classify_fgi(score)
        assert band in dataio.FGI_BANDS
        # exactly one band claims the score
        count = sum(dataio.classify_fgi(score) == b for b in dataio.FGI_BANDS)
        assert count == 1


class TestSplit:
    def test_ten_rows_eighty_twenty(self):
        train, test = dataio.chronological_split(make_frame(10), 0.8)
        assert len(train) == 8 and len(test) == 2

    def test_floor_rule_on_large_count(self):
        train, test = dataio.chronological_split(make_frame(3818), 0.8)
        assert len(train) == 3054 and len(test) == 764

    def test_no_shared_dates_and_ordering(self):
        frame = make_frame(37)
        train, test = dataio.chronological_split(frame, 0.61)
        assert set(train.dates).isdisjoint(test.dates)
        assert max(train.dates) < min(test.dates)
        assert len(train) + len(test) == 37

    def test_too_few_rows(self):
        with pytest.raises(SizeError):
            dataio.chronological_split(make_frame(4), 0.8)

    def test_bad_ratio(self):
        with pytest.raises(DomainError):
            dataio.chronological_split(make_frame(10), 1.0)


class TestMinMax:
    def test_fit_definition(self):
        frame = make_frame(3, columns=("close",), values=np.array([[2.0], [4.0], [6.0]]))
        stats = dataio.fit_minmax(frame)
        assert stats.for_column("close") == (2.0, 6.0)

    def test_constant_column_rejected(self):
        frame = make_frame(3, columns=("close",), values=np.array([[5.0], [5.0], [5.0]]))
        with pytest.raises(DegenerateScaleError, match="close"):
            dataio.fit_minmax(frame)

    def test_range_beyond_float64_rejected(self):
        # max - min overflows to inf, which would scale every value to 0 or NaN
        frame = make_frame(3, columns=("close",), values=np.array([[1.7e308], [0.0], [-1.7e308]]))
        with pytest.raises(DegenerateScaleError, match="close' spans"):
            dataio.fit_minmax(frame)

    @pytest.mark.parametrize("pair", [[-1e308, 1e308], [-10**308, 10**308], [10**20, 10**20 + 1]],
                             ids=["floats", "ints", "equal-as-floats"])
    def test_stored_range_must_be_a_finite_positive_float(self, pair):
        with pytest.raises(DomainError, match="finite max - min"):
            dataio.NormStats.from_json_dict({"close": pair})

    def test_apply_endpoints(self):
        frame = make_frame(3, columns=("close",), values=np.array([[2.0], [4.0], [6.0]]))
        stats = dataio.fit_minmax(frame)
        out = dataio.apply_minmax(frame, stats)
        assert out.column("close").tolist() == [0.0, 0.5, 1.0]

    def test_value_above_train_max_exceeds_one(self):
        train = make_frame(3, columns=("close",), values=np.array([[2.0], [4.0], [6.0]]))
        stats = dataio.fit_minmax(train)
        test = make_frame(1, columns=("close",), values=np.array([[8.0]]),
                          start=dt.date(2022, 1, 1))
        out = dataio.apply_minmax(test, stats)
        assert out.column("close")[0] == pytest.approx(1.5)

    def test_invert_hand_case(self):
        stats = dataio.NormStats(["close"], np.array([10000.0]), np.array([70000.0]))
        assert dataio.invert_minmax(0.5, "close", stats) == 40000.0

    def test_unknown_column_schema_error(self):
        stats = dataio.NormStats(["close"], np.array([0.0]), np.array([1.0]))
        frame = make_frame(3, columns=("volume",), values=np.array([[1.0], [2.0], [3.0]]))
        with pytest.raises(SchemaError):
            dataio.apply_minmax(frame, stats)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=30, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_identity(self, values):
        arr = np.array(sorted(values))[:, None]
        frame = make_frame(arr.shape[0], columns=("close",), values=arr)
        stats = dataio.fit_minmax(frame)
        normalized = dataio.apply_minmax(frame, stats)
        back = dataio.invert_minmax(normalized.column("close"), "close", stats)
        scale = max(1.0, np.abs(arr).max())
        assert np.all(np.abs(back - arr[:, 0]) < 1e-10 * scale)

    def test_no_leakage_stats_ignore_test_rows(self):
        frame = make_frame(20)
        train, test = dataio.chronological_split(frame, 0.8)
        stats_before = dataio.fit_minmax(train)
        # poison the test rows; training stats must be unaffected
        test.values[:] = 1e12
        stats_after = dataio.fit_minmax(train)
        assert np.array_equal(stats_before.mins, stats_after.mins)
        assert np.array_equal(stats_before.maxs, stats_after.maxs)


class TestWindows:
    def test_exhaustive_enumeration_n5_t2(self):
        frame = make_frame(5, columns=("close",), values=np.arange(5, dtype=float)[:, None] + 1)
        ws = dataio.make_windows(frame, 2, "close")
        assert len(ws) == 3
        # sample j: rows j..j+1, target row j+2 (values are 1..5)
        assert ws.X[:, :, 0].tolist() == [[1, 2], [2, 3], [3, 4]]
        assert ws.y.tolist() == [3.0, 4.0, 5.0]
        assert ws.target_dates == frame.dates[2:]

    def test_boundary_single_sample(self):
        frame = make_frame(5, columns=("close",), values=np.arange(5, dtype=float)[:, None])
        ws = dataio.make_windows(frame, 4, "close")
        assert len(ws) == 1

    def test_window_too_long(self):
        frame = make_frame(5, columns=("close",), values=np.arange(5, dtype=float)[:, None])
        with pytest.raises(SizeError):
            dataio.make_windows(frame, 5, "close")

    def test_targets_strictly_after_inputs(self):
        frame = make_frame(30)
        ws = dataio.make_windows(frame, 7, "close")
        for j, target_date in enumerate(ws.target_dates):
            input_dates = frame.dates[j:j + 7]
            assert all(d < target_date for d in input_dates)

    def test_normalized_training_windows_stay_in_unit_box(self):
        frame = make_frame(40)
        stats = dataio.fit_minmax(frame)
        ws = dataio.make_windows(dataio.apply_minmax(frame, stats), 5, "close")
        assert ws.X.min() >= 0.0 and ws.X.max() <= 1.0
        assert ws.y.min() >= 0.0 and ws.y.max() <= 1.0

    def test_flatten_shape(self):
        frame = make_frame(20)
        ws = dataio.make_windows(frame, 4, "close")
        assert ws.flatten().shape == (16, 12)

    def test_strict_policy_drops_first_test_targets(self):
        frame = make_frame(50)
        train, test = dataio.chronological_split(frame, 0.8)
        normalized = dataio.apply_minmax(frame, dataio.fit_minmax(train))
        strict = dataio.build_eval_windows(normalized, len(train), 3, "close", "strict")
        assert len(strict) == len(test) - 3
        assert strict.target_dates[0] == test.dates[3]

    def test_borrow_policy_predicts_every_test_row(self):
        frame = make_frame(50)
        train, test = dataio.chronological_split(frame, 0.8)
        normalized = dataio.apply_minmax(frame, dataio.fit_minmax(train))
        borrowed = dataio.build_eval_windows(normalized, len(train), 3, "close", "borrow")
        assert len(borrowed) == len(test)
        assert borrowed.target_dates[0] == test.dates[0]

    def test_unknown_policy(self):
        frame = make_frame(50)
        train, test = dataio.chronological_split(frame, 0.8)
        normalized = dataio.apply_minmax(frame, dataio.fit_minmax(train))
        with pytest.raises(DomainError):
            dataio.build_eval_windows(normalized, len(train), 3, "close", "lenient")


class TestSynthesize:
    def test_same_seed_identical(self):
        a = dataio.synthesize_series(42, 50)
        b = dataio.synthesize_series(42, 50)
        assert a.dates == b.dates
        assert np.array_equal(a.values, b.values)

    def test_different_seed_differs(self):
        a = dataio.synthesize_series(1, 50)
        b = dataio.synthesize_series(2, 50)
        assert not np.array_equal(a.values, b.values)

    def test_construction_bounds(self):
        frame = dataio.synthesize_series(7, 300)
        assert np.all(frame.column("close") > 0)
        assert np.all(frame.column("volume") > 0)
        fgi = frame.column("fgi")
        assert fgi.min() >= 0.0 and fgi.max() <= 100.0

    def test_zero_volatility_gives_exponential_path(self):
        params = dataio.SynthParams(drift=0.002, volatility=0.0, price_cycle=0.0)
        frame = dataio.synthesize_series(5, 40, params)
        t = np.arange(40)
        expected = params.start_price * np.exp(params.drift * t)
        assert np.allclose(frame.column("close"), expected, rtol=1e-12)

    def test_minimum_length(self):
        with pytest.raises(SizeError):
            dataio.synthesize_series(1, 9)


class TestFrameBasics:
    def test_fgi_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            make_frame(3, columns=("fgi",), values=np.array([[50.0], [120.0], [60.0]]))

    def test_select_preserves_order(self):
        frame = make_frame(5)
        sub = frame.select(["fgi", "close"])
        assert sub.columns == ["fgi", "close"]
        assert np.array_equal(sub.column("close"), frame.column("close"))

    def test_select_unknown_column(self):
        with pytest.raises(SchemaError, match="btc_close"):
            make_frame(5).select(["close", "btc_close"])

    def test_with_column_and_add_fgi(self):
        n = 6
        dates = [dt.date(2021, 1, 1) + dt.timedelta(days=i) for i in range(n)]
        values = np.column_stack([
            np.linspace(100, 105, n),
            np.linspace(-0.5, 0.5, n),
            np.linspace(20, 80, n),
        ])
        frame = dataio.SeriesFrame.build(dates, ["close", "sentiment", "trends"], values)
        enriched = dataio.add_fgi_column(frame)
        expected = 0.5 * ((values[:, 1] + 1) / 2 * 100) + 0.5 * values[:, 2]
        assert np.allclose(enriched.column("fgi"), expected)

    def test_non_finite_rejected(self):
        with pytest.raises(Exception):
            make_frame(3, columns=("close",), values=np.array([[1.0], [np.nan], [3.0]]))
