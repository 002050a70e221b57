"""Each demo runs as a script and prints exactly the recorded output.

The demos use only the public API, so a change to that API that breaks a
demo, or changes what it prints, fails here.  A deliberate change of a
demo's output updates its digest and says why.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

STDOUT_SHA256 = {
    "01_reciprocal_fit.py": "597ada1200e5412ad879e850e8fcfbd8027ce3d8b484f4b50d1def9f1d76d89d",
    "02_two_regime_segmentation.py": "556d4bbd96471e83a52c15042aa5ebba008bc05fd01b79d4edcc8a10e7092137",
    "03_diversion_and_proximity.py": "1c507fdc17bde28894c8098738644131e1a50d0e5186e146a8afc268cac8c137",
    "04_takeoff_signature.py": "afd3e5baa38d4fc6b0dd3254772a059ae1307eb55c6815c88daa8e1ec8bda195",
    "05_full_report.py": "32de3704947090cb27fe8e11efb8a43e7075a7be24d2d36b02c2a61637c02185",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_stdout(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, env=env, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[name]
