"""Self-contained verification suite.

Every check here runs without external data, using either published
reference results of the historical-GDP analysis this package reproduces
(parameter pairs, singularities, diversion years for the world and seven
regional series) or synthetic series whose ground truth is known by
construction.  The CLI ``verify`` verb and the pytest acceptance module both
drive these functions.

The one data-dependent reproduction check (refitting the world series from a
Maddison-2010 CSV export) lives in :func:`check_world_reproduction` and is
exercised only when such a file is supplied.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .errors import ArgumentError, HypergrowthError
from .fit import DEFAULT_WEIGHTING, WEIGHTINGS, FitWindow, best_fit, fit_hyperbolic
from .ingest import DatasetTable, RegionDefinition, build_region_series
from .model import HyperbolicModel, relative_deviation, round_half_up
from .regime import detect_diversion, proximity, segment_two_hyperbolic
from .report import _study
from .series import YearValueSeries
from .synth import GeneratorSpec, generate, maddison_year_grid, spliced_models
from .takeoff import TakeoffHypothesis, takeoff_test


@dataclass(frozen=True)
class ReferenceRow:
    """One published reference result row."""

    region: str
    a: float
    k: float
    range_start: float
    range_end: float
    singularity: int
    diversion_year: float | None = None
    proximity: int | None = None


REFERENCE_ROWS: tuple[ReferenceRow, ...] = (
    ReferenceRow("World", 1.684e-2, 8.539e-6, 1000, 1955, 1972, 1955, 17),
    ReferenceRow("Western Europe", 9.859e-2, 5.112e-5, 1500, 1900, 1929, 1900, 29),
    ReferenceRow("Western Europe (4)", 3.821e-1, 1.986e-4, 1, 1875, 1923, 1875, 48),
    ReferenceRow("Eastern Europe", 7.749e-1, 4.048e-4, 1000, 1890, 1915, 1890, 25),
    ReferenceRow("Former USSR", 6.547e-1, 3.452e-4, 1, 1870, 1897, 1870, 27),
    ReferenceRow("Asia", 2.303e-2, 1.129e-5, 1000, 1950, 2040, 1950, 90),
    ReferenceRow("Africa (first regime)", 1.244e-1, 5.030e-5, 1, 1820, 2473),
    ReferenceRow("Africa (second regime)", 4.192e-1, 2.126e-4, 1820, 1950, 1972, 1950, 22),
    ReferenceRow("Latin America (first regime)", 4.421e-1, 2.093e-4, 1, 1500, 2113),
    ReferenceRow("Latin America (second regime)", 1.570e0, 8.224e-4, 1600, 1870, 1910, 1870, 40),
)

# Published second-to-first-regime k ratios; both k's come from REFERENCE_ROWS.
REFERENCE_K_RATIOS = (("Africa", 4.2), ("Latin America", 3.9))

# World's published parameters, which the synthetic world-like shapes use.
_WORLD = {"a": REFERENCE_ROWS[0].a, "k": REFERENCE_ROWS[0].k}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _verdict(name: str, problems: list, ok: str) -> CheckResult:
    """PASS with ``ok`` when there are no ``problems``, else FAIL listing them."""
    return CheckResult(name, not problems, "; ".join(problems) or ok)


def check_singularity_arithmetic() -> CheckResult:
    """round(a/k) matches the published singularity within +-1 year."""
    failures = []
    for row in REFERENCE_ROWS:
        computed = round_half_up(HyperbolicModel(row.a, row.k).singularity_year)
        if abs(computed - row.singularity) > 1:
            failures.append(f"{row.region}: {computed} != {row.singularity}")
    return _verdict("singularity arithmetic (10 reference rows, +-1 year)", failures,
                    f"all {len(REFERENCE_ROWS)} rows match")


def check_proximity_reproduction() -> CheckResult:
    """Published singularity minus diversion year equals the stated proximity."""
    failures = []
    checked = 0
    for row in REFERENCE_ROWS:
        if row.diversion_year is None:
            continue
        checked += 1
        direct = row.singularity - round_half_up(row.diversion_year)
        via_model = proximity(HyperbolicModel(row.a, row.k), row.diversion_year)
        if abs(direct - row.proximity) > 1 or abs(via_model - row.proximity) > 1:
            failures.append(f"{row.region}: {direct}/{via_model} != {row.proximity}")
    return _verdict("proximity reproduction (8 diversions, +-1 year)", failures,
                    f"all {checked} proximities match")


def check_k_ratios() -> CheckResult:
    """Second-to-first-regime k ratios match the published factors +-0.05."""
    k = {row.region: row.k for row in REFERENCE_ROWS}
    failures = []
    for region, expected in REFERENCE_K_RATIOS:
        ratio = k[f"{region} (second regime)"] / k[f"{region} (first regime)"]
        if abs(ratio - expected) > 0.05:
            failures.append(f"{region}: {ratio:.3f} != {expected}")
    return _verdict("two-regime k ratios (+-0.05)", failures,
                    " and ".join(str(r) for _, r in REFERENCE_K_RATIOS) + " reproduced")


def check_parameter_recovery_exact() -> CheckResult:
    """Noiseless hyperbolic data on the sparse grid recovers (a, k) to 1e-9."""
    a, k = 1.0, 4.0e-4  # singularity 2500, past the grid's last year
    grid = maddison_year_grid()
    series = generate(GeneratorSpec("hyperbolic", {"a": a, "k": k}, tuple(grid)))
    failures = []
    for weighting in WEIGHTINGS:
        fit = fit_hyperbolic(series, FitWindow(grid[0], grid[-1]), weighting)
        err_a = abs(fit.model.a - a) / a
        err_k = abs(fit.model.k - k) / k
        if err_a > 1e-9 or err_k > 1e-9:
            failures.append(f"{weighting}: rel err a={err_a:.2e} k={err_k:.2e}")
    return _verdict("exact parameter recovery (noiseless, both weightings, 1e-9 rel)", failures,
                    "recovered to 1e-9 relative")


def _trial_count(trials) -> int:
    """``trials`` as an int >= 1; a float, text or smaller count is an ArgumentError."""
    try:
        count = operator.index(trials)
    except TypeError:
        count = 0
    if count < 1:
        raise ArgumentError(f"trials must be >= 1, got {trials!r}")
    return count


def _noisy_series(kind: str, params: dict, years: tuple, seeds):
    """The Monte-Carlo trials of one spec: its 1%-noise series for each seed, in order."""
    for seed in seeds:
        yield generate(GeneratorSpec(kind, params, years, noise=0.01, seed=seed))


def check_parameter_recovery_noisy(trials: int = 1000) -> CheckResult:
    """1% multiplicative noise, 30 points: (a, k) within 2% in >= 95% of trials."""
    trials = _trial_count(trials)
    a, k = 1.0, 1.0e-3
    years = tuple(float(y) for y in range(0, 900, 30))  # 30 points, well clear of 1000
    window = FitWindow(years[0], years[-1])
    models = (fit_hyperbolic(s, window).model
              for s in _noisy_series("hyperbolic", {"a": a, "k": k}, years, range(trials)))
    rate = sum(1 for m in models if abs(m.a - a) / a < 0.02 and abs(m.k - k) / k < 0.02) / trials
    return CheckResult(
        f"noisy parameter recovery (2% in >= 95% of {trials} trials)",
        rate >= 0.95,
        f"success rate {rate:.1%}",
    )


def check_diversion_detection(trials: int = 1000) -> CheckResult:
    """Spliced series: detection within one year of the splice, >= 95%;
    pure hyperbolic: no finding in >= 99%; direction always slower."""
    trials = _trial_count(trials)
    years, window = tuple(float(y) for y in range(980, 1000)), FitWindow(980.0, 995.0)
    hyperbola = {"a": 1.0, "k": 1.0e-3}

    def findings(kind, params, seeds):
        return [detect_diversion(s, fit_hyperbolic(s, window))
                for s in _noisy_series(kind, params, years, seeds)]

    spliced = findings("hyperbolic-then-slower",
                       hyperbola | {"break_year": 995.0, "slow_factor": 0.1}, range(trials))
    pure = findings("hyperbolic", hyperbola, range(trials, 2 * trials))
    slower = [f for f in spliced if f is not None and f.direction == "slower"]
    wrong_direction = sum(f is not None for f in spliced) - len(slower)
    hit_rate = sum(abs(f.year - 995.0) <= 1.0 for f in slower) / trials
    fp_rate = sum(f is not None for f in pure) / trials
    passed = hit_rate >= 0.95 and fp_rate <= 0.01 and wrong_direction == 0
    return CheckResult(
        f"diversion detection ({trials} trials each way)",
        passed,
        f"hit rate {hit_rate:.1%}, false-positive rate {fp_rate:.1%}, "
        f"wrong direction {wrong_direction}",
    )


_SPLICE_PARAMS = {"a": 0.242, "k": 1.0e-4, "break_year": 1820.0, "k_ratio": 4.2}


def check_two_regime_exact() -> CheckResult:
    """Noiseless spliced series: exact breakpoint, parameters to 1e-9 rel."""
    years = tuple(float(y) for y in range(1000, 1951, 5))
    series = generate(GeneratorSpec("spliced-two-hyperbolic", _SPLICE_PARAMS, years))
    seg = segment_two_hyperbolic(series)
    m1, m2 = spliced_models(_SPLICE_PARAMS)
    problems = []
    if seg.breakpoint_year != 1820.0:
        problems.append(f"breakpoint {seg.breakpoint_year} != 1820")
    segs = seg.hyperbolic_segments()
    if len(segs) != 2:
        problems.append(f"{len(segs)} hyperbolic segments, expected 2")
    else:
        for name, fitted, truth in (
            ("first", segs[0].fit.model, m1),
            ("second", segs[1].fit.model, m2),
        ):
            for p in ("a", "k"):
                rel = abs(getattr(fitted, p) - getattr(truth, p)) / getattr(truth, p)
                if rel > 1e-9:
                    problems.append(f"{name} regime {p} rel err {rel:.2e}")
    return _verdict("two-regime exact recovery (noiseless, 1e-9 rel)", problems,
                    "breakpoint 1820 and both models recovered")


def check_two_regime_noisy() -> CheckResult:
    """1% noise, annual sampling: recovered k-ratio within 1% of 4.2."""
    years = tuple(float(y) for y in range(1000, 1951))
    (series,) = _noisy_series("spliced-two-hyperbolic", _SPLICE_PARAMS, years, (42,))
    seg = segment_two_hyperbolic(series)
    name = "two-regime noisy k-ratio (within 1% of 4.2)"
    if seg.k_ratio is None:
        return CheckResult(name, False, "no valid k-ratio")
    rel = abs(float(seg.k_ratio) - 4.2) / 4.2
    return CheckResult(
        name,
        rel < 0.01,
        f"recovered ratio {seg.k_ratio:.4f} (rel err {rel:.2%}), "
        f"breakpoint {seg.breakpoint_year:g}",
    )


_TAKEOFF_YEARS = tuple(sorted(set(maddison_year_grid()) | {1750.0}))

# The takeoff check's shapes on the base grid at scale 1 and no shift: name,
# generator kind, parameters and years.  Only the first is a takeoff.
_TAKEOFF_SHAPES = (
    ("stagnation-takeoff", "stagnation-then-takeoff",
     {"level": 1.0, "break_year": 1750.0, "rate": 0.02}, _TAKEOFF_YEARS),
    ("pure hyperbolic", "hyperbolic", _WORLD, tuple(y for y in _TAKEOFF_YEARS if y < 1971)),
    ("constant series", "constant", {"level": 5.0}, _TAKEOFF_YEARS),
)


def check_takeoff_verdicts() -> CheckResult:
    """Positive on the stagnation-takeoff shape at 1750, negative on
    hyperbolic and constant shapes; stable under rescaling and year shifts."""
    shapes = [(name, generate(GeneratorSpec(kind, params, years)))
              for name, kind, params, years in _TAKEOFF_SHAPES]
    problems = []
    for scale, shift in ((1.0, 0.0), (1e3, 0.0), (1.0, 100.0), (1.0, -100.0)):
        hyp = TakeoffHypothesis(1750.0 + shift)
        for i, (name, s) in enumerate(shapes):
            r = takeoff_test(YearValueSeries(s.years + shift, s.values * scale, s.label), hyp)
            if r.positive != (i == 0):
                problems.append(f"{name} {r.verdict} at scale={scale} shift={shift}")
            elif i == 0 and abs(r.break_year - hyp.predicted_year) > hyp.search_halfwidth:
                problems.append(f"break {r.break_year} outside halfwidth (shift={shift})")
    return _verdict("takeoff verdicts (positive/negative + rescale/shift stability)", problems,
                    "all verdicts correct and stable")


_SLOWER_PARAMS = _WORLD | {"break_year": 1955.0, "slow_factor": 0.4}


def check_automatic_window() -> CheckResult:
    """1% noise on an annual (1000-2008) and the sparse grid, 200 seeds each.

    Every automatic window recovers k within 1% (annual) or 5% (sparse).
    hyperbolic-then-slower (break 1955): the window ends within one year, one
    grid step, of the break in >= 90% of seeds.  Pure hyperbolic: every
    annual window keeps the full span.
    """
    grids = {"annual": (tuple(float(y) for y in range(1000, 2009)), 0.01),
             "sparse": (tuple(maddison_year_grid()), 0.05)}
    seeds, problems, notes = 200, [], []
    for kind, params in (("hyperbolic-then-slower", _SLOWER_PARAMS),
                         ("hyperbolic", {"a": 1.0, "k": 4.0e-4})):
        for grid, (years, k_tol) in grids.items():
            fits = [best_fit(s, None, DEFAULT_WEIGHTING)
                    for s in _noisy_series(kind, params, years, range(seeds))]
            k_err = max(abs(f.model.k / params["k"] - 1) for f in fits)
            if k_err > k_tol:
                problems.append(f"{kind} {grid}: k off by {k_err:.1%}")
            if kind == "hyperbolic":
                kept = sum(f.window.end_year == years[-1] for f in fits)
                notes.append(f"{kind} {grid}: full span {kept}/{seeds}, k within {k_err:.1%}")
                if grid == "annual" and kept < seeds:
                    problems.append(f"{kind} {grid}: full span kept in {kept}/{seeds}")
                continue
            near = sum(abs(f.window.end_year - 1955.0) <= 1 for f in fits) / seeds
            notes.append(f"{kind} {grid}: end at 1955 +-1 in {near:.1%}, k within {k_err:.1%}")
            if near < 0.9:
                problems.append(f"{kind} {grid}: end at 1955 +-1 in only {near:.1%}")
    return _verdict(f"automatic window ({seeds} seeds per shape and grid, 1% noise)", problems,
                    "; ".join(notes))


def _guarded(check, *args) -> CheckResult:
    """``check(*args)``, or a FAIL naming the ``HypergrowthError`` it raised."""
    try:
        return check(*args)
    except HypergrowthError as exc:
        return CheckResult(check.__name__, False, f"{type(exc).__name__}: {exc}")


def run_all_checks(trials: int = 1000) -> list[CheckResult]:
    """The full data-free acceptance battery, in criteria order.

    A check that raises a ``HypergrowthError`` fails, naming the error, and
    the battery goes on.
    """
    return [
        _guarded(check_singularity_arithmetic),
        _guarded(check_proximity_reproduction),
        _guarded(check_k_ratios),
        _guarded(check_parameter_recovery_exact),
        _guarded(check_parameter_recovery_noisy, trials),
        _guarded(check_diversion_detection, trials),
        _guarded(check_two_regime_exact),
        _guarded(check_two_regime_noisy),
        _guarded(check_takeoff_verdicts),
        _guarded(check_automatic_window),
    ]


def check_world_reproduction(table: DatasetTable) -> CheckResult:
    """Optional data-dependent check against a Maddison-2010 world GDP export.

    Expects the world aggregate under an entity named 'World', in billions
    (the table's unit_scale converts it).  Refits 1000-1955 and checks
    parameters within 5% of the reference, a slower diversion in [1950,
    1960], and an AD 1 relative deviation in [70%, 85%].  A World series that
    cannot be built or studied fails the check, naming the error.
    """
    name = "world-series reproduction (data-dependent)"
    try:
        series = build_region_series(table, RegionDefinition("World", ("World",)))
        (fit,), _, finding, _ = _study(series, FitWindow(1000.0, 1955.0), False,
                                       DEFAULT_WEIGHTING)
    except HypergrowthError as exc:
        return CheckResult(name, False, f"World series not studied: {type(exc).__name__}: {exc}")
    ref = REFERENCE_ROWS[0]
    problems = []
    if abs(fit.model.a - ref.a) / ref.a > 0.05:
        problems.append(f"a {fit.model.a:.4e} not within 5% of {ref.a:.4e}")
    if abs(fit.model.k - ref.k) / ref.k > 0.05:
        problems.append(f"k {fit.model.k:.4e} not within 5% of {ref.k:.4e}")
    if finding is None or finding.direction != "slower" or not (1950 <= finding.year <= 1960):
        seen = "None" if finding is None else f"{finding.direction} at {finding.year}"
        problems.append(f"diversion {seen} not a slower departure in [1950, 1960]")
    ad1 = series.values[series.years == 1.0]
    if len(ad1) == 0:
        problems.append("no AD 1 observation in the World series")
    else:
        dev = relative_deviation(1.0, ad1[0], fit.model)
        if not (70.0 <= dev <= 85.0):
            problems.append(f"AD 1 deviation {dev} outside [70%, 85%]")
    return _verdict(name, problems, "parameters, diversion and AD 1 deviation reproduced")
