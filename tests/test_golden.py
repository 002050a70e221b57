"""Byte-identity of the report and CLI outputs on a small synthetic table.

The digests pin every byte the ``report``, ``fit``, ``segment``,
``diversion``, ``takeoff`` and ``plot`` paths write, including ``a`` and ``k`` at full
JSON precision, so a refactor of the fitting code that changes any result
fails here.  A deliberate change of output updates the digests and says why.
"""

import hashlib
from pathlib import Path

import pytest

from hypergrowth import parse_long_csv, parse_region_config, render_report, run_analysis
from hypergrowth.cli import main

ENTITIES = (
    ("world", "hyperbolic-then-slower",
     ("a=1.684e-2", "k=8.539e-6", "break_year=1955", "slow_factor=0.4"),
     "1700:2000:10", "0.002", "1"),
    ("africa", "spliced-two-hyperbolic",
     ("a=0.242", "k=1e-4", "break_year=1820", "k_ratio=4.2"),
     "1000:1950:25", "0.002", "2"),
    ("asia", "hyperbolic",
     ("a=0.03", "k=1.5e-5",),
     "1500:1950:25", "0.003", "3"),
    ("west", "stagnation-then-takeoff",
     ("level=1.0", "break_year=1750", "rate=0.02"),
     "1500:1850:25", "0.01", "4"),
)

CONFIG = """\
[world]
members = world
window = 1700:1950
takeoff_year = 1750
takeoff_halfwidth = 70

[world+asia]
members = world, asia
require_complete = false
takeoff_year = 1900

[africa]
members = africa
two_regime = true
takeoff_year = 1820

[west]
members = west
window = 1775:1850
takeoff_year = 1750

[tiny]
members = asia
window = 1500:1525
"""

# The report's world+asia row and the two "fit world auto" outputs take the
# automatic window.  They were re-recorded when it became the hyperbolic-then-
# diversion break (world: 1700-1950), replacing a ranking by reciprocal RMSE
# per degree of freedom that chose 3-point windows (world: 1860-1880).
REPORT_SHA256 = {
    "json": "ec2f527c4c4c256e3c747b3a4a5109882c3bccc80c28e99fa83d8144d75e1b97",
    "csv": "7c9fd4afc4f222433e7dc368d704593ecd145d26e02f8c5eff07d36b68caf925",
    "markdown": "d0f5a50e19527211db560bb7c8a56f298ec3d3cba05b9d61236fb45cb536e021",
}

CLI_SHA256 = {
    "fit world auto": "87d7afe34fc2b29685fd5025558621fc000b4e366632da41f1cc3533d54a93cb",
    "fit africa direct": "f6bd31cea52e054d9db1ac5ad54f25b2940ca87910c7d64962601dceabe9c2b5",
    "fit world auto direct": "b54adfb4cda22d33a5493c4da2b16993730607ce079d0d61d4fb0ab34a92eb9c",
    "segment africa": "15f052a278667fdf172b9ef19e879674d497b9a63d21da5ac9ea0353974e6b95",
    "segment africa direct": "7b277205957b4304831a06467972f91d9938a11d20b94a6b4c688386e8efc524",
    "diversion world": "a3c1776c5639aa187bc7ad51fa48258502968fc8f099393187f1aea201940307",
    "plot africa csv": "54d65d3cd1690dc1f91c3798a4ac381be0fabce4a44a94761338a54f8b0a2299",
    "plot world svg": "8c0d2dad536023221f6bc54fe7fe6aa8fd62f6a27588b5beddbc865fdca7d1de",
    "takeoff west": "2f5da73808378a9b066c80b374272bf0d1ad43a80304af126f0ba80c9d76959f",
    "takeoff world": "6a5a9340ef8ff321bf8df34ecbe878957c257eae9bbbf3911ca78d4eeeeaa328",
}

CLI_ARGS = {
    "fit world auto": ("fit", "--region", "world"),
    "fit africa direct": ("fit", "--region", "africa", "--window", "1000:1800",
                          "--weighting", "direct"),
    "fit world auto direct": ("fit", "--region", "world", "--weighting", "direct"),
    "segment africa": ("segment", "--region", "africa"),
    "segment africa direct": ("segment", "--region", "africa", "--weighting", "direct"),
    "diversion world": ("diversion", "--region", "world", "--window", "1700:1950"),
    "plot africa csv": ("plot", "--region", "africa", "--two-regime", "--emit", "csv"),
    "plot world svg": ("plot", "--region", "world", "--window", "1700:1950",
                       "--mode", "semilog"),
    "takeoff west": ("takeoff", "--region", "west", "--predicted-year", "1750",
                     "--halfwidth", "70"),
    "takeoff world": ("takeoff", "--region", "world", "--predicted-year", "1900"),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def table_csv(tmp_path_factory) -> Path:
    """All entities in one long CSV, each generated by ``hypergrowth synth``."""
    tmp = tmp_path_factory.mktemp("golden")
    rows = ["entity,year,value"]
    for name, kind, params, years, noise, seed in ENTITIES:
        part = tmp / f"{name}.csv"
        argv = ["synth", "--kind", kind, "--years", years, "--noise", noise,
                "--seed", seed, "--label", name, "--out", str(part)]
        for p in params:
            argv += ["--param", p]
        assert main(argv) == 0
        rows += part.read_text().splitlines()[1:]
    path = tmp / "table.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


@pytest.mark.parametrize("fmt", sorted(REPORT_SHA256))
def test_report_bytes(table_csv, fmt):
    table = parse_long_csv(table_csv.read_bytes())
    rows, errors = run_analysis(table, parse_region_config(CONFIG))
    assert [e.region for e in errors] == ["tiny"]
    assert sha256(render_report(rows, fmt)) == REPORT_SHA256[fmt]


@pytest.mark.parametrize("name", sorted(CLI_SHA256))
def test_cli_bytes(table_csv, tmp_path, name):
    out = tmp_path / "out"
    assert main([*CLI_ARGS[name], "--input", str(table_csv), "--out", str(out)]) == 0
    assert sha256(out.read_bytes()) == CLI_SHA256[name]
