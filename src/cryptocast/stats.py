"""Error metrics, empirical prediction intervals, and nonparametric
model-comparison tests (Friedman, Wilcoxon signed-rank, Bonferroni).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, SizeError

EXACT_WILCOXON_LIMIT = 25


@dataclass
class MetricReport:
    mse: float
    rmse: float
    mae: float
    mape_percent: float
    n: int


def compute_metrics(y, yhat) -> MetricReport:
    """MSE, RMSE, MAE, and MAPE (in percent) of predictions against actuals.

    MAPE divides by the actual values, so every actual must be nonzero. The
    first metric that is not finite, as an overflow makes it, raises
    NumericalError naming it, with no numpy warning.
    """
    y = np.asarray(y, dtype=np.float64)
    yhat = np.asarray(yhat, dtype=np.float64)
    if y.shape != yhat.shape or y.ndim != 1:
        raise SizeError(f"metric inputs must be equal-length vectors, got {y.shape} and {yhat.shape}")
    if y.size == 0:
        raise SizeError("metric inputs are empty")
    if np.any(y == 0.0):
        raise DomainError("MAPE undefined: at least one actual value is zero")
    with np.errstate(over="ignore"):
        err = y - yhat
        mse = float((err**2).mean())
        report = MetricReport(
            mse=mse,
            rmse=float(math.sqrt(mse)),
            mae=float(np.abs(err).mean()),
            mape_percent=float((np.abs(err) / np.abs(y)).mean() * 100.0),
            n=int(y.size),
        )
    for name, value in vars(report).items():
        if not math.isfinite(value):
            raise NumericalError(f"non-finite {name}: {value}")
    return report


@dataclass
class IntervalBand:
    """Per-date interval bounds on the original scale; always contains the
    point forecast."""

    lower: np.ndarray
    upper: np.ndarray
    level: float


def prediction_interval(train_residuals, yhat_test, level: float = 0.95) -> IntervalBand:
    """Empirical-quantile band: the (1-level)/2 and (1+level)/2 quantiles of
    the training residuals are added to each point forecast. The band is
    widened (if needed) to include the point forecast itself."""
    residuals = np.asarray(train_residuals, dtype=np.float64)
    yhat = np.asarray(yhat_test, dtype=np.float64)
    if not 0.0 < level < 1.0:
        raise DomainError(f"interval level must lie in (0, 1), got {level}")
    if residuals.size < 20:
        raise SizeError(
            f"need at least 20 residuals for an empirical band, got {residuals.size}"
        )
    if not np.all(np.isfinite(residuals)):
        raise DomainError("residuals must be finite")
    q_lo = float(np.quantile(residuals, (1.0 - level) / 2.0, method="linear"))
    q_hi = float(np.quantile(residuals, (1.0 + level) / 2.0, method="linear"))
    return IntervalBand(
        lower=yhat + min(q_lo, 0.0),
        upper=yhat + max(q_hi, 0.0),
        level=level,
    )


# ---------------------------------------------------------------------------
# ranks and tests
# ---------------------------------------------------------------------------

def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks starting at 1 with tied values sharing their average rank."""
    k = values.shape[0]
    order = np.argsort(values, kind="stable")
    ranks = np.empty(k, dtype=np.float64)
    i = 0
    while i < k:
        j = i
        while j + 1 < k and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def rank_blocks(errors) -> tuple[np.ndarray, np.ndarray]:
    """Within-block ranks (1 = smallest error) and per-model mean ranks.

    `errors` is (n_blocks, k_models); ties share average ranks.
    """
    errors = np.asarray(errors, dtype=np.float64)
    if errors.ndim != 2:
        raise SizeError(f"expected a 2-D block matrix, got shape {errors.shape}")
    n, k = errors.shape
    if n < 2 or k < 2:
        raise SizeError(f"need at least 2 blocks and 2 models, got {errors.shape}")
    if not np.all(np.isfinite(errors)):
        raise DomainError("errors must be finite")
    ranks = np.vstack([_average_ranks(errors[i]) for i in range(n)])
    return ranks, ranks.mean(axis=0)


@dataclass
class FriedmanResult:
    chi2: float
    df: int
    p_value: float
    mean_ranks: np.ndarray


def friedman_test(errors) -> FriedmanResult:
    """Rank test for identical performance of k models over n blocks:
    chi2 = 12n / (k(k+1)) * sum_j Rbar_j^2 - 3n(k+1), referred to the
    chi-square distribution with k-1 degrees of freedom."""
    _, mean_ranks = rank_blocks(errors)
    n, k = np.asarray(errors).shape
    chi2 = 12.0 * n / (k * (k + 1.0)) * float((mean_ranks**2).sum()) - 3.0 * n * (k + 1.0)
    chi2 = max(chi2, 0.0)  # full ties can round a hair below zero
    df = k - 1
    return FriedmanResult(
        chi2=chi2, df=df,
        p_value=chi_square_tail(chi2, df),
        mean_ranks=mean_ranks,
    )


@dataclass
class WilcoxonResult:
    r_plus: float
    r_minus: float
    r_stat: float
    n_effective: int
    p_value: float


def _signed_rank_exact_cdf_leq(doubled_ranks: np.ndarray, target: int) -> float:
    """P(R+ <= target) under random signs, by full convolution of the rank
    multiset (equivalent to enumerating all 2^n sign patterns). Ranks enter
    doubled so tied half-integer ranks become integers."""
    total = int(doubled_ranks.sum())
    counts = np.zeros(total + 1, dtype=np.float64)
    counts[0] = 1.0
    upper = 0
    for r in doubled_ranks:
        r = int(r)
        new = counts.copy()
        new[r:upper + r + 1] += counts[:upper + 1]
        counts = new
        upper += r
    n = doubled_ranks.shape[0]
    return float(counts[:target + 1].sum() / 2.0**n)


def wilcoxon_signed_rank(a, b) -> WilcoxonResult:
    """Paired signed-rank test on the differences a - b.

    Zero differences are dropped; |d| is ranked with average ties. The
    two-sided p-value is exact (full sign-pattern distribution) for up to
    25 effective pairs and a tie-corrected, continuity-corrected normal
    approximation beyond that.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise SizeError(f"paired samples must be equal-length vectors, got {a.shape} and {b.shape}")
    d = a - b
    d = d[d != 0.0]
    n = d.shape[0]
    if n == 0:
        raise DomainError("all differences are zero; the signed-rank test is undefined")
    if n < 5:
        raise SizeError(f"need at least 5 nonzero differences, got {n}")
    ranks = _average_ranks(np.abs(d))
    r_plus = float(ranks[d > 0].sum())
    r_minus = float(ranks[d < 0].sum())
    r_stat = min(r_plus, r_minus)

    if n <= EXACT_WILCOXON_LIMIT:
        doubled = np.rint(2.0 * ranks).astype(np.int64)
        target = int(round(2.0 * r_stat))
        p = 2.0 * _signed_rank_exact_cdf_leq(doubled, target)
    else:
        mu = n * (n + 1) / 4.0
        var = n * (n + 1) * (2 * n + 1) / 24.0
        _, tie_counts = np.unique(np.abs(d), return_counts=True)
        var -= float((tie_counts.astype(np.float64)**3 - tie_counts).sum()) / 48.0
        z = (r_stat - mu + 0.5) / math.sqrt(var)
        # 2 P(Z <= z) as an upper tail, which keeps tiny p-values from
        # cancelling to 0; z > 0 only when r_stat sits at mu, where p caps at 1
        p = 2.0 * standard_normal_tail(-z)
    return WilcoxonResult(
        r_plus=r_plus, r_minus=r_minus, r_stat=r_stat,
        n_effective=n, p_value=min(1.0, p),
    )


def bonferroni_adjust(p_values, m: int) -> list[float]:
    """Family-wise correction: each p-value is multiplied by the number of
    comparisons and capped at 1."""
    if m < 1:
        raise DomainError(f"comparison count must be >= 1, got {m}")
    adjusted = []
    for p in np.asarray(p_values, dtype=np.float64).reshape(-1):
        if not 0.0 <= p <= 1.0:
            raise DomainError(f"p-value {p} outside [0, 1]")
        adjusted.append(min(1.0, float(p) * m))
    return adjusted


# ---------------------------------------------------------------------------
# distribution tails
# ---------------------------------------------------------------------------

def chi_square_tail(x: float, df: int) -> float:
    """Upper tail of the chi-square distribution with integer df, in closed
    form with h = x/2: for even df, exp(-h) * sum_{i < df/2} h^i / i!; for
    odd df, erfc(sqrt(h)) + exp(-h) * sum_{1 <= i <= df//2} h^(i-1/2) / G(i+1/2).
    The sum enters through its logarithm, so exp(-h) cannot underflow first."""
    if df < 1:
        raise DomainError(f"degrees of freedom must be >= 1, got {df}")
    if x <= 0.0:
        return 1.0
    h = x / 2.0
    if df % 2 == 0:
        head, term, first = 0.0, 1.0, 1.0
    else:
        head, term, first = math.erfc(math.sqrt(h)), 2.0 * math.sqrt(h / math.pi), 1.5
    total = 0.0
    for i in range(df // 2):
        total += term
        term *= h / (first + i)
    return head + (math.exp(math.log(total) - h) if total > 0.0 else 0.0)


def standard_normal_tail(x: float) -> float:
    """P(Z > x) for standard normal Z, via the complementary error function."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# model comparison report
# ---------------------------------------------------------------------------

@dataclass
class PairwiseComparison:
    model_1: str
    model_2: str
    wilcoxon_r: float
    n_effective: int
    p_raw: float
    p_corrected: float
    significant: bool


@dataclass
class ComparisonReport:
    models: list[str]
    friedman: FriedmanResult
    pairwise: list[PairwiseComparison]
    alpha: float
    bonferroni_m: int


def compare_models(abs_errors: dict[str, np.ndarray], alpha: float = 0.05) -> ComparisonReport:
    """Friedman test over per-date absolute errors (each date is a block)
    followed by all pairwise signed-rank tests with Bonferroni correction
    over the k(k-1)/2 comparisons."""
    models = list(abs_errors.keys())
    if len(models) < 2:
        raise SizeError(f"need at least 2 models to compare, got {len(models)}")
    matrix = np.column_stack([abs_errors[name] for name in models])
    friedman = friedman_test(matrix)
    m_comparisons = len(models) * (len(models) - 1) // 2
    pairwise = []
    for i in range(len(models)):
        for j in range(i + 1, len(models)):
            res = wilcoxon_signed_rank(matrix[:, i], matrix[:, j])
            corrected = bonferroni_adjust([res.p_value], m_comparisons)[0]
            pairwise.append(PairwiseComparison(
                model_1=models[i], model_2=models[j],
                wilcoxon_r=res.r_stat, n_effective=res.n_effective,
                p_raw=res.p_value, p_corrected=corrected,
                significant=corrected < alpha,
            ))
    return ComparisonReport(
        models=models, friedman=friedman, pairwise=pairwise,
        alpha=alpha, bonferroni_m=m_comparisons,
    )
