"""Set-up probe: what a fresh ``hypergrowth`` process pays before real work.

``run.py`` runs this from the repository root in a fresh interpreter.  It
times ``import hypergrowth.cli`` plus one first call of each analysis stage
on a tiny series, so lazy initialisation inside the program counts as
set-up, and prints the elapsed seconds as JSON.  The parent brackets the
probe with host-speed calibrations on the same CPU (see ``setup_probe`` in
run.py and clock.py).
"""

import json
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, "src")

import hypergrowth.cli  # noqa: E402,F401  (the import is what is measured)
import hypergrowth as hg  # noqa: E402

years = tuple(float(y) for y in range(1900, 1912))
s = hg.generate(hg.GeneratorSpec("hyperbolic", {"a": 1.0, "k": 5e-4}, years, noise=0.01, seed=1))
f = hg.fit_hyperbolic(s, hg.FitWindow(1900.0, 1908.0))
hg.detect_diversion(s, f)
hg.segment_two_hyperbolic(s)
hg.takeoff_test(s, hg.TakeoffHypothesis(1905.0))
hg.render_report([], "json")
print(json.dumps({"elapsed_s": time.perf_counter() - t0}))
