"""Plot-sheet emission in both display conventions."""

import dataclasses
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from hypergrowth import (
    ArgumentError,
    FitWindow,
    GeneratorSpec,
    build_plot_sheet,
    fit_hyperbolic,
    generate,
    plot_sheet_csv,
    plot_sheet_svg,
)
from hypergrowth.plots import _nice_ticks


@pytest.fixture
def exact_fit():
    years = tuple(float(y) for y in range(0, 901, 100))
    s = generate(GeneratorSpec("hyperbolic", {"a": 1.0, "k": 0.001}, years, label="demo"))
    return s, fit_hyperbolic(s, FitWindow(0.0, 900.0))


class TestBuildPlotSheet:
    def test_reciprocal_mode_exact_data_matches(self, exact_fit):
        s, fit = exact_fit
        sheet = build_plot_sheet(s, fit, "reciprocal-linear")
        np.testing.assert_allclose(sheet.observed, sheet.fitted, rtol=1e-12)
        np.testing.assert_allclose(sheet.residual_reciprocal, 0.0, atol=1e-14)

    def test_semilog_fitted_strictly_increasing(self, exact_fit):
        s, fit = exact_fit
        sheet = build_plot_sheet(s, fit, "semilog-direct")
        for _, gy in sheet.curves:
            assert np.all(np.diff(gy) > 0)
        assert np.all(np.diff(sheet.fitted) > 0)

    def test_curve_stops_before_singularity(self, exact_fit):
        s, fit = exact_fit
        # Singularity at 1000; sampling must stop at or before 999.
        for mode in ("reciprocal-linear", "semilog-direct"):
            sheet = build_plot_sheet(s, fit, mode)
            for gx, _ in sheet.curves:
                assert gx[-1] <= fit.model.singularity_year - 1.0

    def test_unknown_mode(self, exact_fit):
        s, fit = exact_fit
        with pytest.raises(ArgumentError, match="^mode must be one of "):
            build_plot_sheet(s, fit, "loglog")

    def test_no_fits(self, exact_fit):
        with pytest.raises(ArgumentError, match="^at least one fit is required$"):
            build_plot_sheet(exact_fit[0], [])

    # A curve would stop a year before the singularity at 0.9, before the
    # window even starts, so the fit draws none.
    def test_singularity_within_a_year_of_the_window_start_draws_no_curve(self):
        s = generate(GeneratorSpec("hyperbolic", {"a": 1.0, "k": 1 / 0.9}, (0.0, 0.25, 0.5)))
        fit = fit_hyperbolic(s, FitWindow(0.0, 0.5))
        assert fit.model.singularity_year < 1.0
        sheet = build_plot_sheet(s, fit)
        assert sheet.curves == ()
        assert b"<polyline" not in plot_sheet_svg(sheet)


def y_tick_labels(svg: bytes) -> list[str]:
    return re.findall(r'text-anchor="end">([^<]*)<', svg.decode())


class TestSerialization:
    def test_nice_ticks_of_an_empty_range_is_its_start(self):
        assert _nice_ticks(5.0, 5.0) == [5.0]
        assert _nice_ticks(5.0, 4.0) == [5.0]

    # Values 1 to 1/0.9 hold no power of ten inside the padded log axis, so
    # its two ends are the ticks: 10 ** (-0.05 * log10(1/0.9)) and the top.
    def test_semilog_axis_within_one_decade_ticks_its_ends(self):
        years = tuple(float(y) for y in range(0, 101, 10))
        s = generate(GeneratorSpec("hyperbolic", {"a": 1.0, "k": 0.001}, years))
        sheet = build_plot_sheet(s, fit_hyperbolic(s, FitWindow(0.0, 100.0)), "semilog-direct")
        assert y_tick_labels(plot_sheet_svg(sheet)) == ["0.994746", "1.11698"]

    # Only a hand-built sheet holds a non-positive value in semilog mode: its
    # points have no place on a log axis and are left out.
    def test_semilog_svg_leaves_out_non_positive_points(self, exact_fit):
        s, fit = exact_fit
        sheet = build_plot_sheet(s, fit, "semilog-direct")
        observed = np.where(np.arange(len(s)) % 2 == 0, sheet.observed, -1.0)
        svg = plot_sheet_svg(dataclasses.replace(sheet, observed=observed))
        assert svg.count(b"<circle") == 5 == int((observed > 0).sum())
    def test_csv_header_and_rows(self, exact_fit):
        s, fit = exact_fit
        data = plot_sheet_csv(build_plot_sheet(s, fit, "reciprocal-linear")).decode()
        lines = data.strip().splitlines()
        assert lines[0] == "year,observed,fitted,residual_reciprocal"
        assert len(lines) == len(s) + 1

    def test_svg_is_wellformed_and_static(self, exact_fit):
        s, fit = exact_fit
        svg = plot_sheet_svg(
            build_plot_sheet(s, fit, "semilog-direct",
                             annotations=[("singularity", 1000.0)])
        ).decode()
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert "<script" not in svg
        assert "diversion" not in svg  # only requested annotations appear

    def test_svg_deterministic(self, exact_fit):
        s, fit = exact_fit
        sheet = build_plot_sheet(s, fit, "reciprocal-linear")
        assert plot_sheet_svg(sheet) == plot_sheet_svg(sheet)

    # The title and labels were written unescaped, so '&' and '<' broke the XML.
    def test_svg_escapes_title_and_labels(self):
        years = tuple(float(y) for y in range(0, 901, 100))
        s = generate(GeneratorSpec("hyperbolic", {"a": 1.0, "k": 0.001}, years,
                                   label="Asia & <Pacific>"))
        sheet = build_plot_sheet(s, fit_hyperbolic(s, FitWindow(0.0, 900.0)),
                                 annotations=[("break <1> & more", 500.0)])
        texts = [t.text for t in ET.fromstring(plot_sheet_svg(sheet)).iter()
                 if t.tag.endswith("text")]
        assert texts[0] == "Asia & <Pacific> (reciprocal-linear)"
        assert texts[-1] == "break <1> & more"
