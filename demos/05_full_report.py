"""The whole pipeline: regions in, summary table out.

Builds a small synthetic dataset with a world-like single-regime series and
an africa-like two-regime series, runs the per-region analysis (fit,
singularity, diversion, proximity, takeoff), and renders the result as the
markdown table the library is built to reproduce.  The same path is exposed
on the command line as `hypergrowth report`.
"""

from hypergrowth import (
    AnalysisConfigFile,
    FitWindow,
    GeneratorSpec,
    RegionConfig,
    RegionDefinition,
    generate,
    parse_long_csv,
    render_report,
    run_analysis,
)

years = tuple(float(y) for y in [1000, 1500, 1600, 1700, 1820, 1870, 1900, 1913]
              + list(range(1950, 2009)))
world = generate(
    GeneratorSpec("hyperbolic-then-slower",
                  {"a": 1.684e-2, "k": 8.539e-6, "break_year": 1955.0,
                   "slow_factor": 0.4},
                  years, noise=0.002, seed=1, label="World-like")
)
africa = generate(
    GeneratorSpec("spliced-two-hyperbolic",
                  {"a": 0.242, "k": 1e-4, "break_year": 1820.0, "k_ratio": 4.2},
                  tuple(float(y) for y in range(1000, 1951, 10)),
                  noise=0.002, seed=2, label="Africa-like")
)

rows = ["entity,year,value"]
for s in (world, africa):
    for y, v in s.points():
        rows.append(f"{s.label},{y:g},{v!r}")
table = parse_long_csv(("\n".join(rows) + "\n").encode())

config = AnalysisConfigFile(
    unit_scale=1.0,
    regions=(
        RegionConfig(RegionDefinition("World-like", ("World-like",)),
                     window=FitWindow(1000.0, 1955.0)),
        RegionConfig(RegionDefinition("Africa-like", ("Africa-like",)),
                     two_regime=True),
    ),
)

report_rows, errors = run_analysis(table, config)
print(render_report(report_rows, "markdown").decode())
for err in errors:
    print(f"error: {err.region}: {err.message}")
