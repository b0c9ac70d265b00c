"""Data ingestion, sentiment-index composition, scaling, and windowing.

A SeriesFrame is an immutable-by-convention bundle of strictly increasing
calendar dates and a float64 value matrix with named columns. Everything
downstream (normalization stats, supervised windows) derives from it.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import math
import sys
from dataclasses import dataclass, field
from itertools import chain, compress, count
from operator import itemgetter, le

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DataError,
    DegenerateScaleError,
    DomainError,
    OrderingError,
    ParseError,
    SchemaError,
    SizeError,
)
from .rng import Rng

_FLOAT_MAX = sys.float_info.max  # compares exactly with ints of any size; NaN fails

FGI_BANDS = ("extreme_fear", "fear", "greed", "extreme_greed")
_FGI_THRESHOLDS = (25.0, 50.0, 75.0)


@dataclass
class SeriesFrame:
    """Date-indexed rows of named float columns, in original units."""

    dates: list[dt.date]
    columns: list[str]
    values: np.ndarray  # (n_rows, n_columns) float64

    @classmethod
    def build(cls, dates, columns, values) -> "SeriesFrame":
        dates = list(dates)
        columns = list(columns)
        values = np.array(values, dtype=np.float64)
        if values.ndim != 2 or values.shape != (len(dates), len(columns)):
            raise DataError(
                f"value matrix shape {values.shape} does not match "
                f"{len(dates)} dates x {len(columns)} columns"
            )
        if len(set(columns)) != len(columns):
            raise SchemaError(f"duplicate column names in {columns}")
        i = _first_unordered(dates)
        if i:
            raise OrderingError(
                f"dates must be strictly increasing; row {i + 1} "
                f"({dates[i]}) does not follow {dates[i - 1]}"
            )
        if not np.all(np.isfinite(values)):
            raise DataError("frame contains non-finite values")
        return _fgi_checked(cls(dates=dates, columns=columns, values=values))

    def __len__(self) -> int:
        return len(self.dates)

    def column(self, name: str) -> np.ndarray:
        try:
            j = self.columns.index(name)
        except ValueError:
            raise SchemaError(f"unknown column {name!r}; have {self.columns}") from None
        return self.values[:, j]

    def select(self, columns) -> "SeriesFrame":
        """New frame restricted to the given columns, in the given order."""
        idx = [self.columns.index(c) if c in self.columns else -1 for c in columns]
        missing = [c for c, j in zip(columns, idx) if j < 0]
        if missing:
            raise SchemaError(f"unknown column(s) {missing}; have {self.columns}")
        return SeriesFrame(list(self.dates), list(columns), self.values[:, idx].copy())

    def slice_rows(self, start: int, stop: int) -> "SeriesFrame":
        return SeriesFrame(
            self.dates[start:stop], list(self.columns), self.values[start:stop].copy()
        )

    def with_column(self, name: str, values: np.ndarray) -> "SeriesFrame":
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (len(self),):
            raise DataError(f"column {name!r} has {values.shape[0]} rows, expected {len(self)}")
        return SeriesFrame.build(
            self.dates, self.columns + [name], np.column_stack([self.values, values])
        )

    def to_json_dict(self) -> dict:
        return {
            "format": "series-frame/1",
            "columns": list(self.columns),
            "dates": [d.isoformat() for d in self.dates],
            "values": {c: self.column(c).tolist() for c in self.columns},
        }


def _fgi_checked(frame: SeriesFrame) -> SeriesFrame:
    """`frame`, once its fgi column, if it has one, lies within [0, 100]."""
    if "fgi" in frame.columns:
        fgi = frame.column("fgi")
        if fgi.min() < 0.0 or fgi.max() > 100.0:
            raise DomainError("fgi column must lie within [0, 100]")
    return frame


def _first_unordered(dates: list) -> int:
    """The index of the first date not later than the one before it; 0 when
    the dates strictly increase."""
    return next(compress(count(1), map(le, dates[1:], dates[:-1])), 0)


def load_series(path) -> SeriesFrame:
    """Read a UTF-8 CSV of ISO-dated float columns into a SeriesFrame.

    The file must carry a header with a `date` column; every other header
    becomes a float column under its own name. Data files and predictions
    CSVs alike go through here, so every cell must be finite and the dates
    strictly increasing. Any malformed file raises a DataError subclass.
    """
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot open data file {path}: {exc}") from exc
    try:
        with fh:
            return _read_series(path, csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"{path} is not a readable UTF-8 CSV: {exc}") from None


def _read_series(path, reader) -> SeriesFrame:
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
    lines: list[list[str]] = []
    try:
        lines.extend(reader)
    except (UnicodeDecodeError, csv.Error):
        # a bad cell in the rows read before the unreadable one comes first
        _raise_first_error(path, lines, date_index, feature_names, col_index)
        raise
    rows = [row for row in lines if _has_text(row)]
    if not rows:
        raise SizeError(f"{path} contains no data rows")
    width = 1 + len(col_index)
    try:
        # each row's date cell and value cells, one row after another; a
        # short row is an IndexError
        cells = list(chain.from_iterable(map(itemgetter(date_index, *col_index), rows)))
        dates = [dt.date.fromisoformat(cell.strip()) for cell in cells[::width]]
        del cells[::width]
        # numpy converts each cell by float(), so it takes and refuses what
        # float() does and gives its values
        values = np.array(cells, dtype=np.float64).reshape(len(rows), width - 1)
        ok = bool(np.isfinite(values).all())
    except (ValueError, IndexError):
        ok = False
    if not ok:
        _raise_first_error(path, lines, date_index, feature_names, col_index)
        raise AssertionError(f"{path}: numpy refused a cell that float() reads")
    i = _first_unordered(dates)
    if i:
        row_number = [n for n, row in enumerate(lines, start=2) if _has_text(row)][i]
        raise OrderingError(f"{path} row {row_number}: date {dates[i]} does not follow "
                            f"{dates[i - 1]}; dates must be strictly increasing")
    # every check of SeriesFrame.build but the fgi range has run above
    return _fgi_checked(SeriesFrame(dates, feature_names, values))


def _has_text(row: list[str]) -> bool:
    """False for a blank row or one of whitespace cells, which is skipped."""
    return bool("".join(row).strip())


def _raise_first_error(path, lines, date_index: int, feature_names, col_index) -> None:
    """Raise the ParseError of the first bad date or cell of the data rows
    `lines` (the header's row 1 excluded), each row's date before its cells
    in column order; return if there is none."""
    for row_number, row in enumerate(lines, start=2):
        if not _has_text(row):
            continue
        try:
            dt.date.fromisoformat(row[date_index].strip())
        except (ValueError, IndexError):
            raise ParseError(
                f"{path} row {row_number}: unparseable date "
                f"{row[date_index] if len(row) > date_index else '<missing>'!r}"
            ) from None
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


def series_csv(frame: SeriesFrame) -> str:
    """The frame as data-CSV text: the csv module's default dialect, so each
    line ends in CRLF, and each value the repr of its float."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["date"] + frame.columns)
    for i, date in enumerate(frame.dates):
        writer.writerow([date.isoformat()] + [repr(float(v)) for v in frame.values[i]])
    return out.getvalue()


def write_series_csv(frame: SeriesFrame, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(series_csv(frame))


def check_fgi_weights(w1: float, w2: float) -> None:
    """The one rule on the (sentiment, trends) weights: nonnegative, summing to 1."""
    if not (w1 >= 0.0 and w2 >= 0.0 and abs(w1 + w2 - 1.0) <= 1e-9):
        raise DomainError(f"fgi weights must be nonnegative and sum to 1, got {w1}, {w2}")


def compose_fgi(sentiment, trends, w1: float = 0.5, w2: float = 0.5):
    """Blend a [-1, 1] sentiment score and a [0, 100] search-interest score
    into a 0-100 fear/greed value: w1 * ((sentiment+1)/2 * 100) + w2 * trends.
    """
    sentiment = np.asarray(sentiment, dtype=np.float64)
    trends = np.asarray(trends, dtype=np.float64)
    check_fgi_weights(w1, w2)
    if np.any(sentiment < -1.0) or np.any(sentiment > 1.0):
        raise DomainError("sentiment scores must lie in [-1, 1]")
    if np.any(trends < 0.0) or np.any(trends > 100.0):
        raise DomainError("trend scores must lie in [0, 100]")
    out = w1 * ((sentiment + 1.0) / 2.0 * 100.0) + w2 * trends
    return float(out) if out.ndim == 0 else out


def classify_fgi(score: float) -> str:
    """Market-mood band for a 0-100 score.

    Bands: [0, 25) extreme_fear, [25, 50) fear, [50, 75) greed,
    [75, 100] extreme_greed.
    """
    if not math.isfinite(score) or score < 0.0 or score > 100.0:
        raise DomainError(f"fgi score {score} outside [0, 100]")
    for threshold, band in zip(_FGI_THRESHOLDS, FGI_BANDS):
        if score < threshold:
            return band
    return FGI_BANDS[-1]


def add_fgi_column(frame: SeriesFrame, sentiment_column: str = "sentiment",
                   trends_column: str = "trends", w1: float = 0.5,
                   w2: float = 0.5) -> SeriesFrame:
    fgi = compose_fgi(frame.column(sentiment_column), frame.column(trends_column), w1, w2)
    return frame.with_column("fgi", fgi)


def with_composed_fgi(frame: SeriesFrame, compose: bool = True,
                      weights=(0.5, 0.5)) -> SeriesFrame:
    """`frame` plus an fgi column composed from its sentiment and trends columns when
    `compose` is on and it has both but no fgi; run, predict and report all use this."""
    if compose and "fgi" not in frame.columns and {"sentiment", "trends"} <= set(frame.columns):
        return add_fgi_column(frame, w1=weights[0], w2=weights[1])
    return frame


def chronological_split(frame: SeriesFrame, ratio: float = 0.8):
    """First floor(ratio * n) rows train, the rest test."""
    if not 0.0 < ratio < 1.0:
        raise DomainError(f"split ratio must lie in (0, 1), got {ratio}")
    n = len(frame)
    if n < 5:
        raise SizeError(f"need at least 5 rows to split, got {n}")
    n_train = int(math.floor(ratio * n))
    if n_train < 1 or n_train >= n:
        raise SizeError(f"ratio {ratio} leaves an empty train or test part for n={n}")
    return frame.slice_rows(0, n_train), frame.slice_rows(n_train, n)


@dataclass
class NormStats:
    """Per-column min/max fitted on training rows only."""

    columns: list[str]
    mins: np.ndarray
    maxs: np.ndarray

    def for_column(self, name: str) -> tuple[float, float]:
        try:
            j = self.columns.index(name)
        except ValueError:
            raise SchemaError(f"no normalization stats for column {name!r}") from None
        return float(self.mins[j]), float(self.maxs[j])

    def to_json_dict(self) -> dict:
        return {c: [float(lo), float(hi)]
                for c, lo, hi in zip(self.columns, self.mins, self.maxs)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "NormStats":
        """Inverse of to_json_dict: each column maps to [min, max], two finite
        numbers with min < max and a finite max - min, as fit_minmax
        produces them."""
        if not isinstance(d, dict):
            raise DomainError(f"normalization must map columns to [min, max], got {d!r}")
        for c, pair in d.items():
            if not (isinstance(pair, list) and len(pair) == 2
                    and all(type(v) in (int, float) and -_FLOAT_MAX <= v <= _FLOAT_MAX
                            for v in pair)
                    and 0.0 < float(pair[1]) - float(pair[0]) <= _FLOAT_MAX):
                raise DomainError(f"normalization of column {c!r} must be [min, max] with "
                                  f"finite min < max and a finite max - min, got {pair!r}")
        cols = list(d.keys())
        mins = np.array([d[c][0] for c in cols], dtype=np.float64)
        maxs = np.array([d[c][1] for c in cols], dtype=np.float64)
        return cls(cols, mins, maxs)


def fit_minmax(train: SeriesFrame) -> NormStats:
    """Column-wise (min, max) over the training rows; rejects constants and
    ranges wider than float64 holds."""
    mins = train.values.min(axis=0)
    maxs = train.values.max(axis=0)
    for name, lo, hi in zip(train.columns, mins, maxs):
        if hi <= lo:
            raise DegenerateScaleError(
                f"column {name!r} is constant ({lo}); min-max scale undefined"
            )
        if float(hi) - float(lo) > _FLOAT_MAX:
            raise DegenerateScaleError(
                f"column {name!r} spans {lo}..{hi}, a range float64 cannot hold; "
                f"min-max scale undefined"
            )
    return NormStats(list(train.columns), mins.copy(), maxs.copy())


def apply_minmax(frame: SeriesFrame, stats: NormStats) -> SeriesFrame:
    """(x - min) / (max - min) per column. Values outside the fitted range
    map outside [0, 1]; they are intentionally not clamped so that
    inversion stays exact.
    """
    idx = []
    for name in frame.columns:
        if name not in stats.columns:
            raise SchemaError(f"no normalization stats for column {name!r}")
        idx.append(stats.columns.index(name))
    mins = stats.mins[idx]
    maxs = stats.maxs[idx]
    scaled = (frame.values - mins) / (maxs - mins)
    return SeriesFrame(list(frame.dates), list(frame.columns), scaled)


def invert_minmax(value, column: str, stats: NormStats):
    lo, hi = stats.for_column(column)
    return np.asarray(value, dtype=np.float64) * (hi - lo) + lo


@dataclass
class WindowSet:
    """Supervised samples: inputs are T consecutive normalized feature rows,
    the target is the next row's target column."""

    X: np.ndarray  # (n_samples, T, k)
    y: np.ndarray  # (n_samples,)
    window: int
    target_dates: list[dt.date]
    feature_columns: list[str] = field(default_factory=list)
    target_column: str = ""

    def __len__(self) -> int:
        return self.X.shape[0]

    def flatten(self) -> np.ndarray:
        """(n_samples, T*k) view for feedforward models."""
        return self.X.reshape(self.X.shape[0], -1)

    def to_json_dict(self) -> dict:
        return {
            "format": "window-set/1",
            "window": self.window,
            "feature_columns": list(self.feature_columns),
            "target_column": self.target_column,
            "target_dates": [d.isoformat() for d in self.target_dates],
            "X": self.X.tolist(),
            "y": self.y.tolist(),
        }


def make_windows(frame: SeriesFrame, window: int, target_column: str) -> WindowSet:
    """Slide a length-`window` input block over the frame; sample j uses rows
    j..j+window-1 of every column and targets row j+window of the target."""
    if window < 1:
        raise SizeError(f"window length must be >= 1, got {window}")
    n = len(frame)
    if n <= window:
        raise SizeError(f"frame has {n} rows; need more than window={window}")
    target = frame.column(target_column)
    # sample j holds rows j..j+window-1: an owned, C-contiguous (n - window, window, k) array
    X = sliding_window_view(frame.values[:-1], window, axis=0).transpose(0, 2, 1).copy()
    y = target[window:].copy()
    return WindowSet(
        X=X, y=y, window=window,
        target_dates=list(frame.dates[window:]),
        feature_columns=list(frame.columns),
        target_column=target_column,
    )


def build_eval_windows(normalized: SeriesFrame, train_rows: int, window: int,
                       target_column: str, policy: str = "strict") -> WindowSet:
    """Windows whose targets are the rows of `normalized` from `train_rows` on.

    policy='strict': inputs come from those test rows only, so the first
    `window` test rows serve as inputs and are never predicted.
    policy='borrow': inputs start `window` rows earlier, in the training
    rows, so every test row gets a prediction.
    """
    if policy == "strict":
        start = train_rows
    elif policy == "borrow":
        start = train_rows - window
        if start < 0:
            raise SizeError(
                f"borrow policy needs {window} trailing training rows, have {train_rows}"
            )
    else:
        raise DomainError(f"unknown test window policy {policy!r}")
    return make_windows(normalized.slice_rows(start, len(normalized)), window, target_column)


@dataclass
class SynthParams:
    """Controls for the synthetic fixture generator."""

    start_price: float = 100.0
    drift: float = 0.0005
    volatility: float = 0.01
    cycle_period: float = 60.0
    cycle_amplitude: float = 40.0  # fgi units
    price_cycle: float = 0.0       # log-return amplitude of the cyclic component
    fgi_lead: float = 15.0         # days by which fgi leads the price cycle
    fgi_noise: float = 2.0
    volume_base: float = 1e6
    volume_cycle: float = 0.25
    volume_noise: float = 0.1


def synthesize_series(seed: int, n: int, params: SynthParams | None = None) -> SeriesFrame:
    """Deterministic geometric random walk with a sinusoidal sentiment cycle.

    Prices stay positive, fgi stays within [0, 100], and identical seeds
    reproduce the frame bit for bit. With volatility and price_cycle both
    zero the price path is exactly start_price * exp(drift * t).
    """
    if n < 10:
        raise SizeError(f"synthetic series needs n >= 10, got {n}")
    p = params or SynthParams()
    rng = Rng(seed)
    price_shocks = rng.normal(size=n)
    fgi_shocks = rng.normal(size=n)
    volume_shocks = rng.normal(size=n)

    t = np.arange(n, dtype=np.float64)
    phase = 2.0 * np.pi * t / p.cycle_period
    log_price = np.empty(n)
    log_price[0] = np.log(p.start_price)
    returns = p.drift + p.price_cycle * np.sin(phase) + p.volatility * price_shocks
    for i in range(1, n):
        log_price[i] = log_price[i - 1] + returns[i]
    price = np.exp(log_price)

    fgi_phase = 2.0 * np.pi * (t + p.fgi_lead) / p.cycle_period
    fgi = 50.0 + p.cycle_amplitude * np.sin(fgi_phase) + p.fgi_noise * fgi_shocks
    fgi = np.clip(fgi, 0.0, 100.0)

    # volume shares the market cycle, a third of a period out of phase
    volume = p.volume_base * np.exp(
        p.volume_cycle * np.sin(2.0 * np.pi * (t + p.cycle_period / 3.0) / p.cycle_period)
        + p.volume_noise * volume_shocks
    )

    start = dt.date(2020, 1, 1)
    dates = [start + dt.timedelta(days=int(i)) for i in range(n)]
    return SeriesFrame.build(
        dates, ["close", "volume", "fgi"], np.column_stack([price, volume, fgi])
    )
