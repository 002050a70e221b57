"""Deterministic benchmark inputs and their ground truth.

Everything here is a pure function of the benchmark seed (numpy PCG64
streams keyed by ``[seed, stream, index]``), and the values are computed by
this file's own model code, not by ``hypergrowth.synth``, so a change to the
program cannot change its inputs.  Tolerances are fixed here from the
generator parameters and never from the program's outputs.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

NOISE = 0.01  # sigma of the multiplicative log-normal noise on every value

# ---------------------------------------------------------------- models


def slower_values(p: dict, t: np.ndarray) -> np.ndarray:
    """Hyperbola 1/(a - k t) up to the break, then exponential growth at
    ``slow_factor`` times the hyperbola's log-growth rate at the break."""
    a, k, b, f = p["a"], p["k"], p["break_year"], p["slow_factor"]
    s_b = 1.0 / (a - k * b)
    rate = f * k / (a - k * b)
    return np.where(t <= b, 1.0 / (a - k * np.minimum(t, b)), s_b * np.exp(rate * (t - b)))


def spliced_values(p: dict, t: np.ndarray) -> np.ndarray:
    """Two hyperbolas whose reciprocal lines meet at the break."""
    a, k, b, ratio = p["a"], p["k"], p["break_year"], p["k_ratio"]
    k2 = ratio * k
    a2 = a + (k2 - k) * b
    return np.where(t <= b, 1.0 / (a - k * t), 1.0 / (a2 - k2 * t))


def stagnation_values(p: dict, t: np.ndarray) -> np.ndarray:
    """Constant level until the break, exponential growth afterwards."""
    level, b, rate = p["level"], p["break_year"], p["rate"]
    return np.where(t <= b, level, level * np.exp(rate * (t - b)))


MODELS = {"slower": slower_values, "spliced": spliced_values, "stagnation": stagnation_values}


def noisy(kind: str, p: dict, years: np.ndarray, rng) -> np.ndarray:
    return MODELS[kind](p, years) * np.exp(rng.normal(0.0, NOISE, size=len(years)))


def singularity_sd(p: dict, years: np.ndarray, rel_sd: float) -> float:
    """Standard error of the fitted singularity a/k of a uniform-weighted
    reciprocal-space line through ``years`` of an exact hyperbola whose
    values carry relative noise ``rel_sd`` (heteroscedastic sandwich)."""
    y = p["a"] - p["k"] * years
    c = years.mean()
    X = np.column_stack([np.ones_like(years), years - c])
    a_inv = np.linalg.inv(X.T @ X)
    cov = a_inv @ (X.T * (y * rel_sd) ** 2) @ X @ a_inv
    a_c = p["a"] - p["k"] * c  # intercept at the centre; slope is -k
    grad = np.array([1.0 / p["k"], a_c / p["k"] ** 2])
    return float(math.sqrt(grad @ cov @ grad))


# Singularity tolerance: this many standard errors, plus one year for the
# half-up rounding of both the fitted and the true year.
SINGULARITY_SDS = 4.0
# A slower diversion is found from the first post-break year on; with the
# regions' parameters the departure exceeds the detection threshold within
# two years, and this allows five times that.
DIVERSION_LAG = 10.0
# Two-regime breakpoints: one step of the decadal grid either way.
BREAKPOINT_TOL = 10.0
# k-ratio of the two regimes: relative tolerance.
K_RATIO_TOL = 0.05


def singularity_tolerance(p, years, rel_sd) -> float:
    return SINGULARITY_SDS * singularity_sd(p, years, rel_sd) + 1.0


# --------------------------------------------------- report-maddison table

HEAD = (1.0, 1000.0, 1500.0, 1600.0, 1700.0, 1820.0, 1870.0, 1900.0, 1913.0)
COVERAGE = {
    "sparse": HEAD + tuple(float(y) for y in range(1950, 2009)),
    "annual1820": HEAD[:5] + tuple(float(y) for y in range(1820, 2009)),
    "annual1700": HEAD[:4] + tuple(float(y) for y in range(1700, 2009)),
    "decadal": tuple(float(y) for y in range(1000, 1951, 10)),
}
GAP_PROB = 0.03  # chance an annual year is missing from a gappy member


@dataclass(frozen=True)
class RegionSpec:
    """One configured region: its ground-truth model and its INI keys."""

    name: str
    kind: str  # "slower" (hyperbola, then slower growth) | "spliced"
    params: dict
    coverage: tuple[str, ...]  # per-member coverage, cycled over members
    members: int
    window: tuple[float, float] | None = None
    two_regime: bool = False
    takeoff_year: float | None = None
    gappy: bool = True


def _slower(a, k, b):
    return {"a": a, "k": k, "break_year": b, "slow_factor": 0.3}


# Shaped like the paper's table: (a, k) and diversion years of its rows,
# two spliced two-regime regions, and one region on the sparse grid without
# a window, which takes the automatic window path.
REGIONS = (
    RegionSpec("World", "slower", _slower(1.684e-2, 8.539e-6, 1955.0), ("annual1820",), 12,
               window=(1000.0, 1955.0)),
    RegionSpec("Western Europe", "slower", _slower(9.859e-2, 5.112e-5, 1900.0), ("annual1700",), 12,
               window=(1500.0, 1900.0), takeoff_year=1800.0),
    RegionSpec("Western Europe (4)", "slower", _slower(3.821e-1, 1.986e-4, 1875.0), ("annual1820",), 4,
               window=(1.0, 1875.0)),
    RegionSpec("Eastern Europe", "slower", _slower(7.749e-1, 4.048e-4, 1890.0), ("annual1700",), 8,
               window=(1000.0, 1890.0), takeoff_year=1750.0),
    RegionSpec("Former USSR", "slower", _slower(6.547e-1, 3.452e-4, 1870.0), ("annual1820",), 10,
               window=(1.0, 1870.0)),
    RegionSpec("Asia", "slower", _slower(2.303e-2, 1.129e-5, 1950.0), ("annual1820",), 20,
               window=(1000.0, 1950.0), takeoff_year=1850.0),
    RegionSpec("Oceania", "slower", _slower(1.2e-1, 6.0e-5, 1900.0), ("annual1700", "annual1820"), 6,
               window=(1000.0, 1900.0)),
    RegionSpec("Africa", "spliced", {"a": 0.242, "k": 1.0e-4, "break_year": 1820.0, "k_ratio": 4.2},
               ("decadal",), 10, two_regime=True, gappy=False),
    RegionSpec("Latin America", "spliced", {"a": 0.4421, "k": 1.0e-4, "break_year": 1600.0, "k_ratio": 3.9},
               ("decadal",), 8, two_regime=True, gappy=False),
    RegionSpec("Rest of World", "slower", _slower(1.684e-2, 8.539e-6, 1955.0), ("sparse",), 6,
               gappy=False),
)
N_ENTITIES = 200
TABLE_VARIANTS = 4  # tables per seed; report ops cycle through them
FILLER_COVERAGE = (("annual1700", 0.5), ("annual1820", 0.25), ("sparse", 0.15), ("decadal", 0.1))


def region_config() -> str:
    """The INI region file; member names do not depend on the seed."""
    out = ["[global]", "unit_scale = 0.001", ""]
    for r in REGIONS:
        out.append(f"[{r.name}]")
        out.append("members = " + ", ".join(member_names(r)))
        if r.window:
            out.append(f"window = {r.window[0]:g}:{r.window[1]:g}")
        if r.two_regime:
            out.append("two_regime = true")
        if r.takeoff_year is not None:
            out.append(f"takeoff_year = {r.takeoff_year:g}")
        out.append("")
    return "\n".join(out)


def member_names(r: RegionSpec) -> list[str]:
    return [f"R{REGIONS.index(r):02d}-{i:02d}" for i in range(r.members)]


@dataclass(frozen=True)
class RegionTruth:
    spec: RegionSpec
    years: np.ndarray  # years the region keeps (every member reports them)
    rel_sd: float  # relative noise sd of the region sum


@dataclass(frozen=True)
class MaddisonTable:
    csv: bytes
    truths: tuple[RegionTruth, ...]
    cells: int  # rows with a value; gap rows are written but hold none
    years: int  # distinct years among those rows


def maddison_table(seed: int, variant: int) -> MaddisonTable:
    """A ~200-entity long CSV (values in millions) plus each region's truth.

    Members of a region carry random shares of the region's exact series,
    each with its own noise, so the region sum is the model times noise of
    relative sd NOISE * sqrt(sum of squared shares).  Gappy members miss
    random annual years; the region keeps a year only if every member has it.
    """
    rng = np.random.default_rng([seed, 1, variant])
    rows: list[tuple[str, np.ndarray, np.ndarray]] = []  # name, grid, values (nan = gap)
    truths = []

    def cut_gaps(grid: np.ndarray, values: np.ndarray) -> np.ndarray:
        annual = ~np.isin(grid, HEAD)
        return np.where(annual & (rng.random(len(grid)) < GAP_PROB), np.nan, values)

    for r in REGIONS:
        shares = rng.uniform(0.2, 1.0, size=r.members)
        shares /= shares.sum()
        kept = None
        for i, name in enumerate(member_names(r)):
            grid = np.array(COVERAGE[r.coverage[i % len(r.coverage)]])
            values = shares[i] * noisy(r.kind, r.params, grid, rng)
            if r.gappy and i % 3 == 0:
                values = cut_gaps(grid, values)
            rows.append((name, grid, values))
            years = set(grid[~np.isnan(values)].tolist())
            kept = years if kept is None else kept & years
        rel_sd = NOISE * float(np.sqrt((shares**2).sum()))
        truths.append(RegionTruth(r, np.array(sorted(kept)), rel_sd))
    for j in range(N_ENTITIES - len(rows)):
        cov = rng.choice([c for c, _ in FILLER_COVERAGE], p=[w for _, w in FILLER_COVERAGE])
        grid = np.array(COVERAGE[cov])
        level, rate = rng.uniform(0.5, 50.0), rng.uniform(0.0005, 0.004)
        values = level * np.exp(rate * (grid - grid[0]) + rng.normal(0.0, NOISE, len(grid)))
        if j % 3 == 0:
            values = cut_gaps(grid, values)
        rows.append((f"X{j:03d}", grid, values))
    out = io.StringIO()
    out.write("entity,year,value\n")
    cells, years = 0, set()
    for idx in rng.permutation(len(rows)):
        name, grid, values = rows[idx]
        for y, v in zip(grid.tolist(), values.tolist()):
            # A missing year is written with an empty value, as in exports.
            cell = "" if math.isnan(v) else format(v * 1000.0, ".10g")
            out.write(f"{name},{int(y)},{cell}\n")
            if cell:
                cells += 1
                years.add(y)
    return MaddisonTable(out.getvalue().encode("utf-8"), tuple(truths), cells, len(years))


# --------------------------------------------------- search-annual studies

WORLD_ANNUAL = tuple(float(y) for y in range(1836, 1956))  # n = 120
LONG_ANNUAL = tuple(float(y) for y in range(1000, 1951))  # n = 951
TAKEOFF_GRID = tuple(float(y) for y in range(1650, 1851, 10))
TAKEOFF_HALFWIDTH = 50.0
# The best break of a 1%-noise, 2%/year takeoff sits within a year of the
# truth (noise / rate = 0.5 year); allow ten times that.
TAKEOFF_BREAK_TOL = 5.0


@dataclass(frozen=True)
class StudySeries:
    kind: str
    params: dict
    years: np.ndarray
    values: np.ndarray


def annual_study(seed: int, index: int) -> tuple[StudySeries, StudySeries, StudySeries]:
    """World-like slower series (auto window), Africa-like spliced series
    (segmentation) and a stagnation-then-takeoff series (takeoff scan)."""
    rng = np.random.default_rng([seed, 2, index])
    out = []
    for kind, params, years in (
        ("slower", _slower(1.684e-2, 8.539e-6, 1930.0 + int(rng.integers(-5, 6))), WORLD_ANNUAL),
        ("spliced", {"a": 0.242, "k": 1.0e-4, "break_year": 1820.0, "k_ratio": 4.2}, LONG_ANNUAL),
        ("stagnation",
         {"level": 1.0, "break_year": 1750.0 + int(rng.integers(-20, 21)), "rate": 0.02},
         LONG_ANNUAL),
    ):
        t = np.array(years)
        out.append(StudySeries(kind, params, t, noisy(kind, params, t, rng)))
    return tuple(out)


# ---------------------------------------------------- montecarlo-small

TRIAL_KINDS = ("recovery", "diversion", "false-positive")
RECOVERY_YEARS = tuple(float(y) for y in range(0, 900, 30))  # 30 points
DIVERSION_YEARS = tuple(float(y) for y in range(980, 1000))  # 20 points
DIVERSION_WINDOW = (980.0, 995.0)
RECOVERY_TOL = 0.02  # relative error of a and k, as in ``verify``
DIVERSION_YEAR_TOL = 1.0


@dataclass(frozen=True)
class TrialSpec:
    kind: str  # one of TRIAL_KINDS
    generator_kind: str  # hypergrowth.synth kind
    params: dict
    years: tuple
    noise_seed: int


def trial_spec(seed: int, index: int) -> TrialSpec:
    """The ``verify`` trials, rotating in a fixed order."""
    kind = TRIAL_KINDS[index % 3]
    params = {"a": 1.0, "k": 1.0e-3}
    noise_seed = seed * 1_000_003 + index
    if kind == "recovery":
        return TrialSpec(kind, "hyperbolic", params, RECOVERY_YEARS, noise_seed)
    if kind == "diversion":
        params = params | {"break_year": 995.0, "slow_factor": 0.1}
        return TrialSpec(kind, "hyperbolic-then-slower", params, DIVERSION_YEARS, noise_seed)
    return TrialSpec(kind, "hyperbolic", params, DIVERSION_YEARS, noise_seed)
