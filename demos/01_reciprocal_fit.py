"""Fitting a hyperbolic regime by straightening it out.

A series growing as S(t) = 1/(a - k t) looks explosive on a value axis, but
its reciprocal 1/S(t) = a - k t is a falling straight line.  This demo
generates such a series on a sparse historical-style sampling grid, fits it
through the reciprocal transform, and reads off the singularity year a/k.
"""

from hypergrowth import (
    FitWindow,
    GeneratorSpec,
    fit_hyperbolic,
    generate,
    maddison_year_grid,
    relative_deviation,
    round_half_up,
)

# World-like parameters: singularity lands in the early 1970s.
A, K = 1.684e-2, 8.539e-6
grid = tuple(y for y in maddison_year_grid() if y <= 1955)

series = generate(
    GeneratorSpec("hyperbolic", {"a": A, "k": K}, grid, noise=0.01, seed=0,
                  label="world-like")
)

fit = fit_hyperbolic(series, FitWindow(grid[0], grid[-1]))
print(f"fitted a = {fit.model.a:.4e}   (true {A:.4e})")
print(f"fitted k = {fit.model.k:.4e}   (true {K:.4e})")
print(f"singularity year = {round_half_up(fit.model.singularity_year)}")
print(f"reciprocal-space R^2 = {fit.r2_reciprocal:.6f}")

# Even two thousand years before the window ends, the fitted curve stays
# within tens of percent of the data -- the signature of a single regime.
deviations = relative_deviation(series.years, series.values, fit.model)
print("\nyear    deviation from fit (%)")
for year, dev in zip(series.years, deviations):
    print(f"{year:6g}  {dev:+8.1f}")
