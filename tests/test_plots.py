"""Plot-sheet emission in both display conventions."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from hypergrowth import (
    FitWindow,
    GeneratorSpec,
    build_plot_sheet,
    fit_hyperbolic,
    generate,
    plot_sheet_csv,
    plot_sheet_svg,
)


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
        with pytest.raises(ValueError):
            build_plot_sheet(s, fit, "loglog")


class TestSerialization:
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
