"""Planted defects: every check of the acceptance battery can fail.

For each check in ``run_all_checks``, one named, plausible defect is planted
with ``monkeypatch`` on a name that the check looks up in
``hypergrowth.acceptance`` when it runs: a library function whose result is
altered, or a table of published constants.  With the defect, the check must
report FAIL with the detail given here.  The two checks that take a trial
count run at 20 trials.  Without a defect, every check passes in
``test_acceptance.py``, and at 20 trials in ``test_cli.py::TestVerify``.
``BRANCHES`` plants a defect on each further FAIL branch of a check, the
data-dependent world reproduction included.
"""

from dataclasses import replace

import numpy as np
import pytest

from hypergrowth import ArgumentError, DatasetTable, GeneratorSpec, acceptance, generate
from hypergrowth.acceptance import CheckResult, run_all_checks
from hypergrowth.fit import FitWindow
from hypergrowth.model import HyperbolicModel

TRIALS = 20


def _result(name, change):
    """Plant ``change`` on what ``acceptance.<name>`` returns."""
    def plant(monkeypatch):
        real = getattr(acceptance, name)
        monkeypatch.setattr(acceptance, name, lambda *args: change(real(*args)))
    return plant


def _constant(name, change):
    """Plant ``change`` on the published table ``acceptance.<name>``."""
    def plant(monkeypatch):
        monkeypatch.setattr(acceptance, name, change(getattr(acceptance, name)))
    return plant


def _window_one_observation_short(monkeypatch):
    best_fit, fit_hyperbolic = acceptance.best_fit, acceptance.fit_hyperbolic

    def short(series, window, weighting):
        fit = best_fit(series, window, weighting)
        earlier = series.years[series.years < fit.window.end_year]
        return fit_hyperbolic(series, FitWindow(fit.window.start_year, earlier[-1]), weighting)
    monkeypatch.setattr(acceptance, "best_fit", short)


def _break_one_observation_late(monkeypatch):
    takeoff_test = acceptance.takeoff_test

    def late(series, hypothesis):
        result = takeoff_test(series, hypothesis)
        later = series.years[series.years > result.break_year]
        return replace(result, break_year=float(later[0]))
    monkeypatch.setattr(acceptance, "takeoff_test", late)


DEFECTS = [
    pytest.param(
        "check_singularity_arithmetic", (),
        _constant("REFERENCE_ROWS",
                  lambda rows: (replace(rows[0], a=rows[0].a * 1.01),) + rows[1:]),
        "World: 1992 != 1972", id="World's a off by 1%"),
    pytest.param(
        "check_proximity_reproduction", (), _result("proximity", lambda p: p - 2),
        "World: 17/15 != 17; Western Europe: 29/27 != 29; Eastern Europe: 25/22 != 25; "
        "Former USSR: 27/25 != 27; Asia: 90/88 != 90; Africa (second regime): 22/20 != 22; "
        "Latin America (second regime): 40/37 != 40",
        id="proximity two years short"),
    pytest.param(
        "check_k_ratios", (),
        _constant("REFERENCE_ROWS",
                  lambda rows: tuple(replace(r, k=r.k * 1.02)
                                     if r.region == "Africa (second regime)" else r
                                     for r in rows)),
        "Africa: 4.311 != 4.2", id="Africa's second-regime k off by 2%"),
    pytest.param(
        "check_parameter_recovery_exact", (),
        _result("fit_hyperbolic", lambda fit: replace(fit, model=HyperbolicModel(
            fit.model.a, float(np.float32(fit.model.k))))),
        "uniform: rel err a=2.22e-16 k=2.53e-08; direct: rel err a=4.44e-16 k=2.53e-08",
        id="k rounded to float32"),
    pytest.param(
        "check_parameter_recovery_noisy", (TRIALS,),
        _result("fit_hyperbolic", lambda fit: replace(fit, model=HyperbolicModel(
            fit.model.a, fit.model.k * 1.03))),
        "success rate 0.0%", id="k off by 3%"),
    pytest.param(
        "check_diversion_detection", (TRIALS,),
        _result("detect_diversion",
                lambda f: f if f is None else replace(f, year=f.year + 1.0)),
        "hit rate 0.0%, false-positive rate 0.0%, wrong direction 0",
        id="detection one year late"),
    pytest.param(
        "check_two_regime_exact", (),
        _result("segment_two_hyperbolic",
                lambda seg: replace(seg, breakpoint_year=seg.breakpoint_year + 10.0)),
        "breakpoint 1830.0 != 1820", id="breakpoint two grid steps late"),
    pytest.param(
        "check_two_regime_noisy", (),
        _result("segment_two_hyperbolic", lambda seg: replace(seg, k_ratio=seg.k_ratio * 1.02)),
        "recovered ratio 4.2836 (rel err 1.99%), breakpoint 1824", id="k-ratio off by 2%"),
    pytest.param(
        "check_takeoff_verdicts", (), _break_one_observation_late,
        "break 1820.0 outside halfwidth (shift=0.0); break 1820.0 outside halfwidth (shift=0.0); "
        "break 1920.0 outside halfwidth (shift=100.0); "
        "break 1720.0 outside halfwidth (shift=-100.0)",
        id="takeoff break one observation late"),
    pytest.param(
        "check_automatic_window", (), _window_one_observation_short,
        "hyperbolic-then-slower annual: end at 1955 +-1 in only 46.5%; "
        "hyperbolic-then-slower sparse: end at 1955 +-1 in only 49.5%; "
        "hyperbolic annual: full span kept in 0/200",
        id="automatic window one observation short"),
]


def _first_regime_unmodeled(seg):
    first = replace(seg.segments[0], kind="unmodeled", fit=None)
    return replace(seg, segments=(first, *seg.segments[1:]))


def _scaled(record, field, factor):
    """A copy of the dataclass ``record`` with its ``field`` scaled by ``factor``."""
    return replace(record, **{field: getattr(record, field) * factor})


def _world_reference(field, factor):
    """Plant World's published ``field`` scaled by ``factor``."""
    return _constant("REFERENCE_ROWS", lambda rows: (_scaled(rows[0], field, factor),) + rows[1:])


# The reference world curve in billions, slower after 1955, and an AD 1
# value 77% above it: without a defect the world reproduction passes.
_WORLD_CURVE = generate(GeneratorSpec(
    "hyperbolic-then-slower",
    {"a": 1.684e-2, "k": 8.539e-6, "break_year": 1955.0, "slow_factor": 0.4},
    tuple(float(y) for y in range(1000, 2009, 2)), label="World"))
WORLD_TABLE = DatasetTable({"World": {1.0: 105.0, **dict(_WORLD_CURVE.points())}})

BRANCHES = [
    pytest.param(
        "check_two_regime_exact", (), _result("segment_two_hyperbolic", _first_regime_unmodeled),
        "1 hyperbolic segments, expected 2", id="first regime unmodeled"),
    pytest.param(
        "check_two_regime_exact", (),
        _result("spliced_models", lambda models: (models[0], _scaled(models[1], "a", 1 + 1e-8))),
        "second regime a rel err 1.00e-08", id="second regime's true a off by 1e-8"),
    pytest.param(
        "check_automatic_window", (),
        _result("best_fit", lambda fit: replace(fit, model=_scaled(fit.model, "k", 1.06))),
        "hyperbolic-then-slower annual: k off by 6.2%; hyperbolic-then-slower sparse: k off "
        "by 8.7%; hyperbolic annual: k off by 6.3%; hyperbolic sparse: k off by 9.4%",
        id="automatic window's k 6% high"),
    pytest.param(
        "check_world_reproduction", (WORLD_TABLE,), _world_reference("a", 1.06),
        "a 1.6840e-02 not within 5% of 1.7850e-02", id="World's published a 6% high"),
    pytest.param(
        "check_world_reproduction", (WORLD_TABLE,), _world_reference("k", 1.06),
        "k 8.5390e-06 not within 5% of 9.0513e-06", id="World's published k 6% high"),
]


def test_world_table_passes_without_a_defect():
    assert acceptance.check_world_reproduction(WORLD_TABLE).passed


@pytest.mark.parametrize("check, args, plant, detail", DEFECTS + BRANCHES)
def test_planted_defect_fails_the_check(monkeypatch, check, args, plant, detail):
    plant(monkeypatch)
    result = getattr(acceptance, check)(*args)
    assert result.passed is False
    assert result.detail == detail


def test_every_check_of_the_battery_has_a_planted_defect(monkeypatch):
    called = []
    for name in dir(acceptance):
        if name.startswith("check_"):
            monkeypatch.setattr(acceptance, name, lambda *args, name=name: called.append(name)
                                or CheckResult(name, True, ""))
    run_all_checks(1)
    assert called == [defect.values[0] for defect in DEFECTS]


def _takeoff_negative_when(monkeypatch, wrong):
    """Plant ``takeoff_test`` reading negative on each series where ``wrong(series, hyp)``."""
    takeoff_test = acceptance.takeoff_test

    def planted(series, hypothesis):
        result = takeoff_test(series, hypothesis)
        return replace(result, verdict="negative") if wrong(series, hypothesis) else result
    monkeypatch.setattr(acceptance, "takeoff_test", planted)


# The rescaled and the shifted cases of the takeoff check can each fail alone.
def test_takeoff_verdicts_fail_when_only_the_rescaled_stagnation_reads_negative(monkeypatch):
    _takeoff_negative_when(monkeypatch, lambda series, hyp: series.values[0] > 100)
    assert acceptance.check_takeoff_verdicts() == CheckResult(
        "takeoff verdicts (positive/negative + rescale/shift stability)", False,
        "stagnation-takeoff negative at scale=1000.0 shift=0.0")


def test_takeoff_verdicts_fail_when_only_the_shifted_stagnation_reads_negative(monkeypatch):
    _takeoff_negative_when(monkeypatch, lambda series, hyp: hyp.predicted_year != 1750.0)
    assert acceptance.check_takeoff_verdicts() == CheckResult(
        "takeoff verdicts (positive/negative + rescale/shift stability)", False,
        "stagnation-takeoff negative at scale=1.0 shift=100.0; "
        "stagnation-takeoff negative at scale=1.0 shift=-100.0")


def test_two_regime_noisy_without_a_k_ratio_fails_under_its_name(monkeypatch):
    _result("segment_two_hyperbolic", lambda seg: replace(seg, k_ratio=None))(monkeypatch)
    assert acceptance.check_two_regime_noisy() == CheckResult(
        "two-regime noisy k-ratio (within 1% of 4.2)", False, "no valid k-ratio")


# A HypergrowthError turns its check to FAIL (see test_cli.py::TestVerify);
# any other exception, a bad trial count's ArgumentError included, stops the battery.
def test_any_other_exception_of_a_check_propagates(monkeypatch):
    with pytest.raises(ArgumentError, match="trials must be >= 1, got 0"):
        run_all_checks(0)

    def broken():
        raise KeyError("a")
    monkeypatch.setattr(acceptance, "check_k_ratios", broken)
    with pytest.raises(KeyError):
        run_all_checks(1)
