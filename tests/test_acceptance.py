"""Acceptance battery: every shipped verification check must pass.

Each test runs one named check at its stated tolerance and prints a one-line
pass/fail verdict (visible with ``pytest -s`` or on failure).  The same
checks back the command-line ``verify`` verb.

The one data-dependent check (refitting the world series from a real
Maddison-2010 export) runs only when the ``HYPERGROWTH_MADDISON_CSV``
environment variable points at such a file; otherwise it is skipped.
"""

import os

import pytest

from hypergrowth import ArgumentError, parse_long_csv, parse_wide_table
from hypergrowth.acceptance import (
    check_automatic_window,
    check_diversion_detection,
    check_k_ratios,
    check_parameter_recovery_exact,
    check_parameter_recovery_noisy,
    check_proximity_reproduction,
    check_singularity_arithmetic,
    check_takeoff_verdicts,
    check_two_regime_exact,
    check_two_regime_noisy,
    check_world_reproduction,
    run_all_checks,
)

TRIALS = int(os.environ.get("HYPERGROWTH_ACCEPTANCE_TRIALS", "1000"))


def assert_check(result):
    print(f"{'PASS' if result.passed else 'FAIL'}  {result.name}: {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


def test_singularity_arithmetic():
    assert_check(check_singularity_arithmetic())


def test_proximity_reproduction():
    assert_check(check_proximity_reproduction())


def test_k_ratios():
    assert_check(check_k_ratios())


def test_parameter_recovery_exact():
    assert_check(check_parameter_recovery_exact())


def test_parameter_recovery_noisy():
    assert_check(check_parameter_recovery_noisy(TRIALS))


def test_diversion_detection():
    assert_check(check_diversion_detection(TRIALS))


# trials = 0 divided by zero; a negative count ran no trial and scored 0%;
# text and a float raised a raw TypeError.
@pytest.mark.parametrize("trials", [0, -3, "5", 2.5])
@pytest.mark.parametrize("check", [check_parameter_recovery_noisy, check_diversion_detection,
                                   run_all_checks])
def test_trials_must_be_positive(check, trials):
    with pytest.raises(ArgumentError, match=f"^trials must be >= 1, got {trials!r}$"):
        check(trials=trials)


def test_two_regime_exact():
    assert_check(check_two_regime_exact())


def test_two_regime_noisy():
    assert_check(check_two_regime_noisy())


def test_takeoff_verdicts():
    assert_check(check_takeoff_verdicts())


def test_automatic_window():
    assert_check(check_automatic_window())


@pytest.mark.skipif(
    not os.environ.get("HYPERGROWTH_MADDISON_CSV"),
    reason="set HYPERGROWTH_MADDISON_CSV to a Maddison-2010 world GDP export",
)
def test_world_reproduction_from_data():
    path = os.environ["HYPERGROWTH_MADDISON_CSV"]
    with open(path, "rb") as fh:
        data = fh.read()
    wide = os.environ.get("HYPERGROWTH_MADDISON_FORMAT", "wide") == "wide"
    scale = float(os.environ.get("HYPERGROWTH_MADDISON_UNIT_SCALE", "1e-3"))
    table = (parse_wide_table if wide else parse_long_csv)(data, scale)
    assert_check(check_world_reproduction(table))
