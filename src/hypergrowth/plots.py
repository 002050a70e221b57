"""Figure data emission in the two display conventions.

``reciprocal-linear`` plots (year, 1/S) with the fitted straight line(s)
a - k*t on linear axes; a hyperbolic regime is a decreasing straight line and
a diversion is visible as bending away from it.  ``semilog-direct`` plots
(year, S) with the fitted hyperbola(s) on a log-scaled value axis.

Sheets serialize to a CSV of observed points (header
``year,observed,fitted,residual_reciprocal``) and to a self-contained static
SVG (inline styles, no scripts).  Fitted-curve sampling always stops at least
one year before a model's singularity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError
from .fit import HyperbolicFit
from .model import evaluate, reciprocal_line
from .series import YearValueSeries

MODES = ("reciprocal-linear", "semilog-direct")
CURVE_POINTS = 200  # samples per dense fitted curve


@dataclass(frozen=True)
class PlotSheet:
    """Display-ready data for one figure."""

    mode: str
    title: str
    observed_years: np.ndarray
    observed: np.ndarray  # 1/S in reciprocal mode, S in semilog mode
    fitted: np.ndarray  # same convention; NaN where no model applies
    residual_reciprocal: np.ndarray  # observed minus fitted reciprocal
    curves: tuple[tuple[np.ndarray, np.ndarray], ...]  # dense (years, display values)
    annotations: tuple[tuple[str, float], ...]  # (label, year) vertical markers


def _fit_for_year(fits: list[HyperbolicFit], year: float) -> HyperbolicFit:
    for f in fits:
        if f.window.contains(year):
            return f
    # Outside every window: extrapolate the regime whose window is nearest,
    # preferring the latest window ending before the year (post-regime tail).
    before = [f for f in fits if f.window.end_year < year]
    if before:
        return max(before, key=lambda f: f.window.end_year)
    return min(fits, key=lambda f: f.window.start_year)


def build_plot_sheet(
    series: YearValueSeries,
    fits,
    mode: str = "reciprocal-linear",
    annotations=(),
) -> PlotSheet:
    """Assemble observed/fitted columns and dense fitted curves.

    ``fits`` is one HyperbolicFit or a sequence of them (multi-regime).
    ``annotations`` are (label, year) pairs, drawn as vertical markers.
    """
    if mode not in MODES:
        raise ArgumentError(f"mode must be one of {MODES}, got {mode!r}")
    if isinstance(fits, HyperbolicFit):
        fits = [fits]
    fits = list(fits)
    if not fits:
        raise ArgumentError("at least one fit is required")

    years = series.years
    obs_recip = 1.0 / series.values
    fitted_recip = np.empty_like(years)
    for i, year in enumerate(years):
        fitted_recip[i] = reciprocal_line(_fit_for_year(fits, year).model, year)
    residual = obs_recip - fitted_recip

    if mode == "reciprocal-linear":
        observed = obs_recip
        fitted = fitted_recip.copy()
    else:
        observed = series.values.copy()
        # Direct values exist only strictly before the singularity.
        fitted = np.where(fitted_recip > 0, 1.0 / fitted_recip, np.nan)

    curves = []
    for f in fits:
        start = f.window.start_year
        end = min(float(years[-1]), f.model.singularity_year - 1.0)
        if end <= start:
            continue
        grid = np.linspace(start, end, CURVE_POINTS)
        if mode == "reciprocal-linear":
            curves.append((grid, np.asarray(reciprocal_line(f.model, grid))))
        else:
            curves.append((grid, np.asarray(evaluate(f.model, grid))))

    return PlotSheet(
        mode=mode,
        title=series.label,
        observed_years=years,
        observed=observed,
        fitted=fitted,
        residual_reciprocal=residual,
        curves=tuple(curves),
        annotations=tuple((str(l), float(y)) for l, y in annotations),
    )


def plot_sheet_csv(sheet: PlotSheet) -> bytes:
    lines = ["year,observed,fitted,residual_reciprocal"]
    for y, o, f, r in zip(
        sheet.observed_years, sheet.observed, sheet.fitted, sheet.residual_reciprocal
    ):
        fs = "" if math.isnan(f) else repr(float(f))
        lines.append(f"{y:g},{float(o)!r},{fs},{float(r)!r}")
    return ("\n".join(lines) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# SVG rendering.  Deliberately minimal: static axes, points, lines, markers.
# ---------------------------------------------------------------------------

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 70, 20, 40, 50
_CURVE_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def _nice_ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / 5  # the step of about 6 ticks
    mag = 10 ** math.floor(math.log10(raw))
    for mult in (1, 2, 2.5, 5, 10):
        step = mult * mag
        if step >= raw:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(round(t, 10))
        t += step
    return ticks


def _escape(text: str) -> str:
    """``text`` with ``&``, ``<`` and ``>`` written as XML entities."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt_tick(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.1e}"
    return f"{v:g}"


def plot_sheet_svg(sheet: PlotSheet) -> bytes:
    """Self-contained SVG chart; log-scaled value axis in semilog mode."""
    logy = sheet.mode == "semilog-direct"

    xs = [sheet.observed_years]
    ys = [sheet.observed[~np.isnan(sheet.observed)]]
    for gx, gy in sheet.curves:
        xs.append(gx)
        ys.append(gy)
    finite_fit = sheet.fitted[~np.isnan(sheet.fitted)]
    if len(finite_fit):
        ys.append(finite_fit)
    x_lo = min(float(a.min()) for a in xs)
    x_hi = max(float(a.max()) for a in xs)
    y_all = np.concatenate([np.asarray(a, dtype=float).ravel() for a in ys])
    y_all = y_all[y_all > 0] if logy else y_all
    y_lo, y_hi = float(y_all.min()), float(y_all.max())
    if logy:
        ly_lo, ly_hi = math.log10(y_lo), math.log10(y_hi)
        pad = 0.05 * (ly_hi - ly_lo or 1)
        ly_lo, ly_hi = ly_lo - pad, ly_hi + pad
    else:
        pad = 0.05 * (y_hi - y_lo or 1)
        y_lo, y_hi = y_lo - pad, y_hi + pad
    x_pad = 0.02 * (x_hi - x_lo or 1)
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad

    def px(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(y):
        if logy:
            frac = (math.log10(y) - ly_lo) / (ly_hi - ly_lo)
        else:
            frac = (y - y_lo) / (y_hi - y_lo)
        return _H - _MB - frac * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="20" text-anchor="middle" font-size="15">'
        f"{_escape(sheet.title)} ({sheet.mode})</text>",
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="black"/>',
    ]

    for t in _nice_ticks(x_lo, x_hi):
        x = px(t)
        parts.append(
            f'<line x1="{x:.1f}" y1="{_H - _MB}" x2="{x:.1f}" y2="{_H - _MB + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{_H - _MB + 18}" text-anchor="middle">{_fmt_tick(t)}</text>'
        )
    if logy:
        dec_lo = math.floor(ly_lo)
        dec_hi = math.ceil(ly_hi)
        yticks = [10.0**d for d in range(int(dec_lo), int(dec_hi) + 1) if ly_lo <= d <= ly_hi]
        if len(yticks) < 2:
            yticks = [10.0**ly_lo, 10.0**ly_hi]
    else:
        yticks = _nice_ticks(y_lo, y_hi)
    for t in yticks:
        y = py(t)
        parts.append(
            f'<line x1="{_ML - 5}" y1="{y:.1f}" x2="{_ML}" y2="{y:.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{y + 4:.1f}" text-anchor="end">{_fmt_tick(t)}</text>'
        )

    for ci, (gx, gy) in enumerate(sheet.curves):
        color = _CURVE_COLORS[ci % len(_CURVE_COLORS)]
        pts = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in zip(gx, gy))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )

    for x, y in zip(sheet.observed_years, sheet.observed):
        if logy and y <= 0:
            continue
        parts.append(
            f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" r="3" fill="black"/>'
        )

    for label, year in sheet.annotations:
        if not (x_lo <= year <= x_hi):
            continue
        x = px(year)
        parts.append(
            f'<line x1="{x:.1f}" y1="{_MT}" x2="{x:.1f}" y2="{_H - _MB}" '
            f'stroke="gray" stroke-dasharray="4 3"/>'
        )
        parts.append(
            f'<text x="{x + 4:.1f}" y="{_MT + 14}" fill="gray">{_escape(label)}</text>'
        )

    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")
