"""The benchmark's calls into the library still work and still find the truth.

``perfbench/workloads.py`` drives the library through its public functions
(``cli.main``, ``fit.scan_windows``, ``regime.segment_two_hyperbolic``, ...)
and checks each op against the generator's ground truth.  The benchmark's own
self-tests are not part of this suite, so a change of a library contract
could fail benchmark ops while every test here passes.  This module runs the
first two ops of every workload at seed 1, in process and untimed, and
requires each to succeed and to match its ground truth.  Nothing under
``perfbench/`` is written: the report workload's files go to a temporary
directory.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
sys.dont_write_bytecode, _write_bytecode = True, sys.dont_write_bytecode
import workloads  # noqa: E402

sys.dont_write_bytecode = _write_bytecode


class PassThrough:
    """A clock that only calls: ``step(fn, *args)`` is ``fn(*args)``."""

    @staticmethod
    def step(fn, *args, **kwargs):
        return fn(*args, **kwargs)


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def workload(request, tmp_path_factory):
    return workloads.WORKLOADS[request.param](1, tmp_path_factory.mktemp(request.param))


@pytest.mark.parametrize("i", [0, 1])
def test_op_succeeds_and_matches_truth(workload, i):
    outcome = workload.op(i, PassThrough())
    assert outcome.error is None
    assert outcome.true == outcome.series
