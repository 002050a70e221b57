"""Three-feature test for a takeoff from stagnation to growth.

The signature being tested: (1) a prominent change in the pattern of growth,
(2) stagnation before the change, (3) the change occurring at the predicted
year.  A candidate break is located by fitting a stagnation-then-takeoff
model (constant level until the break, exponential afterwards) by least
squares on log-values, and the verdict is positive only when all three
criteria hold and that model beats a single hyperbolic description of the
whole span by a decisive small-sample-corrected information-criterion gap.

Only the timing criterion depends on the predicted year: the best break,
the growth rates around it and the information-criterion gap belong to the
series alone, so ``takeoff_scan`` computes them once per series.  The break
search screens every candidate from suffix sums in O(n), takes the earliest
whose cost ties the least under ``fit``'s tie rule, and fits only that one
exactly.  A growth rate within the same relative tolerance of zero counts as
zero, so the sign of rounding noise on an exactly flat series cannot pass
for a prominent change.

A transition from growth to growth is not a takeoff: on data that are simply
hyperbolic throughout, the pre-break growth rate is too large for the
stagnation criterion and the piecewise model earns no decisive gap, so the
verdict stays negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, FitError, TooFewPointsError, _finite
from .fit import _TIE_RTOL, _centred_line, _CumulativeSums, _max, _min, _solve, _sum
from .model import evaluate
from .series import YearValueSeries


# Decision thresholds, chosen so verdicts are stable over a wide threshold
# range (verified by the Monte-Carlo suite).
STAGNATION_MAX_RATE = 0.001  # 0.1 %/year pre-break growth bound
PROMINENCE_MIN_RATIO = 10.0  # post/pre growth-rate ratio
IC_MIN_GAP = 10.0  # AICc(single hyperbolic) - AICc(takeoff model)
SEARCH_HALFWIDTH = 50.0  # default years either side of the predicted year


@dataclass(frozen=True)
class TakeoffHypothesis:
    """Predicted takeoff year plus the half-width of the break search window."""

    predicted_year: float
    search_halfwidth: float = SEARCH_HALFWIDTH

    def __post_init__(self):
        if not _finite(self.predicted_year):
            raise ArgumentError(f"predicted_year must be finite, got {self.predicted_year}")
        if not (_finite(self.search_halfwidth) and self.search_halfwidth > 0):
            raise ArgumentError(
                f"search_halfwidth must be finite and > 0, got {self.search_halfwidth}"
            )


@dataclass(frozen=True)
class TakeoffTestResult:
    verdict: str  # "positive" | "negative"
    prominence_ok: bool
    prominence_score: float  # post/pre growth-rate ratio (inf if pre <= 0)
    stagnation_ok: bool
    pre_break_rate: float  # fitted log-growth per year before the break
    timing_ok: bool
    break_year: float | None  # best-fitting break, None if no candidate
    ic_gap: float  # AICc difference, single hyperbolic minus takeoff model
    hypothesis: TakeoffHypothesis

    @property
    def positive(self) -> bool:
        return self.verdict == "positive"


def _aicc(n: int, sse: float, n_params: int) -> float:
    # Gaussian log-likelihood up to constants; sse floored to keep the
    # comparison finite on exact synthetic data.
    sse = max(sse, 1e-300)
    aic = n * math.log(sse / n) + 2 * n_params
    denom = n - n_params - 1
    return aic + (2 * n_params * (n_params + 1) / denom if denom > 0 else math.inf)


_ONE_SIDED = "series needs observations on both sides of the predicted year"
_TOO_FEW = "search window contains fewer than 2 observed points"


def _infeasible(t: np.ndarray, hyps) -> list[str | None]:
    """Per hypothesis, the first unmet need of a test on the sorted years ``t``
    (a point on each side of the predicted year, then 2 in the search window),
    or None; two ``searchsorted`` calls count the points in every window."""
    p = np.array([h.predicted_year for h in hyps], dtype=float)
    hw = np.array([h.search_halfwidth for h in hyps], dtype=float)
    enough = (t.searchsorted(p + hw, side="right") - t.searchsorted(p - hw) >= 2).tolist()
    sides = ((t[0] < p) & (t[-1] > p)).tolist()
    return [None if s and e else _TOO_FEW if s else _ONE_SIDED for s, e in zip(sides, enough)]


def _judged(evidence, hypothesis: TakeoffHypothesis) -> TakeoffTestResult:
    """The result for a series' break evidence, with timing judged at ``hypothesis``.

    ``evidence`` is (prominence_ok, score, stagnation_ok, pre_rate, break_year,
    ic_gap), or None when the series has no candidate break.
    """
    if evidence is None:
        return TakeoffTestResult("negative", False, 0.0, False, math.nan, False, None, 0.0,
                                 hypothesis)
    prominence_ok, score, stagnation_ok, pre_rate, break_year, ic_gap = evidence
    timing_ok = abs(break_year - hypothesis.predicted_year) <= hypothesis.search_halfwidth
    positive = stagnation_ok and prominence_ok and timing_ok and ic_gap > IC_MIN_GAP
    return TakeoffTestResult("positive" if positive else "negative", prominence_ok, score,
                             stagnation_ok, pre_rate, timing_ok, break_year, ic_gap, hypothesis)


def _evidence(series: YearValueSeries):
    """The series' break evidence for ``_judged``, or None below 4 points."""
    t = series.years
    n = len(series)
    if n < 4:
        return None

    # Candidate breaks: any observed year with at least 2 points on each side
    # (a pre-break growth rate needs a slope).  The search is global so the
    # timing criterion is a real test: the best-fitting break must land
    # within the search window of the predicted year, not merely be the best
    # compromise inside it.  Each candidate fits logy ~ c + r * max(t - b, 0).
    logy = np.log(series.values)
    sums = _CumulativeSums(t, logy)
    # The earliest break whose screened SSE ties the least, refitted exactly.
    cost = sums.hinges(slice(1, n - 2))
    best_i = 1 + int((cost <= _min(cost) + sums.tolerance).argmax())
    x = np.maximum(t - t[best_i], 0.0)
    best_r, xc, ybar = _centred_line(x, logy)
    best_sse = float(_sum((logy - ybar - best_r * (x - xc)) ** 2))
    pre_rate = _centred_line(t[: best_i + 1], logy[: best_i + 1])[0]
    # A rate whose change over the span is within _TIE_RTOL of the largest log
    # value is zero: on an exactly flat stretch its sign is rounding noise and
    # must not decide prominence.
    zero = _TIE_RTOL * float(_max(np.abs(logy))) / (t[-1] - t[0])
    best_r, pre_rate = (0.0 if abs(r) <= zero else float(r) for r in (best_r, pre_rate))

    stagnation_ok = pre_rate < STAGNATION_MAX_RATE
    if best_r <= 0:
        prominence_ok, score = False, 0.0
    elif pre_rate <= 0:
        prominence_ok, score = True, math.inf
    else:
        score = best_r / pre_rate
        prominence_ok = score > PROMINENCE_MIN_RATIO

    aicc_take = _aicc(n, best_sse, 3)  # level, break, rate
    try:
        # The single hyperbola's model alone: uniform weights over the whole span.
        model = _solve(t, 1.0 / series.values, None, t[-1])
        sse_hyp = float(_sum((logy - np.log(evaluate(model, t))) ** 2))
        ic_gap = _aicc(n, sse_hyp, 2) - aicc_take
    except FitError:
        # No competing hyperbolic description exists; the comparison cannot
        # veto the takeoff model.
        ic_gap = math.inf

    return prominence_ok, score, stagnation_ok, pre_rate, float(t[best_i]), ic_gap


def takeoff_test(series: YearValueSeries, hypothesis: TakeoffHypothesis) -> TakeoffTestResult:
    """Evaluate the three-feature takeoff signature at the predicted year.

    Raises TooFewPointsError naming the first unmet need: an observation on
    each side of the predicted year, then 2 points in the search window.
    """
    why = _infeasible(series.years, [hypothesis])[0]
    if why is not None:
        raise TooFewPointsError(why)
    return _judged(_evidence(series), hypothesis)


def takeoff_scan(series: YearValueSeries, year_grid,
                 search_halfwidth: float = SEARCH_HALFWIDTH) -> list[TakeoffTestResult]:
    """takeoff_test at every grid year: the series' evidence once, judged at each year.

    Years where the test is infeasible (no data on one side, fewer than 2
    points in the search window) yield a plain negative result, so the list
    always matches the grid and "no takeoff anywhere" is simply "every
    verdict is negative".  Feasibility is decided for the whole grid at once.
    """
    hyps = [TakeoffHypothesis(float(year), search_halfwidth) for year in year_grid]
    whys = _infeasible(series.years, hyps)
    evidence = _evidence(series) if None in whys else None
    return [_judged(evidence if why is None else None, hyp) for hyp, why in zip(hyps, whys)]
