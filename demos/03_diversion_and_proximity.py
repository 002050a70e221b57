"""Detecting where reality leaves the hyperbola.

No real series reaches its singularity.  At some year the data diverts:
reciprocal residuals start running consistently on one side of the fitted
line.  The detector flags the first run of two such points beyond the fit
window; "slower" means growth fell short of the trajectory.  Proximity is
how close the diversion came to the singularity, in years.
"""

from hypergrowth import FitWindow, GeneratorSpec, detect_diversion, fit_hyperbolic, generate

# Hyperbolic until 1955, then growth drops to 40% of the implied rate --
# the series keeps rising, but no longer explosively.
years = tuple(float(y) for y in [1000, 1500, 1600, 1700, 1820, 1870, 1900, 1913]
              + list(range(1950, 2009)))
series = generate(
    GeneratorSpec(
        "hyperbolic-then-slower",
        {"a": 1.684e-2, "k": 8.539e-6, "break_year": 1955.0, "slow_factor": 0.4},
        years, noise=0.002, seed=3, label="world-like",
    )
)

fit = fit_hyperbolic(series, FitWindow(1000.0, 1955.0))
print(f"singularity year : {fit.model.singularity_year:.0f}")

finding = detect_diversion(series, fit)
assert finding is not None
print(f"diversion year   : {finding.year:g} ({finding.direction})")
print(f"proximity        : {finding.proximity_years} years")
print("evidence points  :")
for year, observed, fitted in zip(*finding.evidence):
    print(f"  {year:g}: observed 1/S = {observed:.5f}, "
          f"fitted {fitted:.5f}, delta {observed - fitted:+.2e}")
