"""Benchmark of the hypergrowth library: three workloads, end to end and by layer.

Run from the repository root:

    python3 perfbench/run.py --workload report-maddison --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the workload untraced for half the time, then a fixed, seed-determined
set of ops traced, and reports per-layer metrics.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  Earlier
lines are a readable table and the run's details (metadata, digests, raw
wall times), which are also written under ``.perfbench_work/``.
See NOTES.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import statistics
import sys
import time
from array import array
from pathlib import Path

WORKLOAD_NAMES = ("report-maddison", "search-annual", "montecarlo-small")
SETUP_PROBES = 11
DIGEST_INPUTS = 300  # at most the first 300 inputs (and no more than the traced ops)
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
HERE = Path(__file__).resolve().parent

E2E_UNITS = {"op_s.p50": "s", "op_s.tail": "s", "series_per_s": "1/s", "setup_s": "s",
             "peak_rss_mb": "MB", "success_rate": "ratio", "truth_rate": "ratio"}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def _op_safely(wl, i, clk):
    from workloads import Outcome

    try:
        return wl.op(i, clk)
    except Exception as exc:  # an op fails on any exception; the run goes on
        return Outcome(wl.series_per_op, 0, f"{type(exc).__name__}: {exc}", b"")


class Run:
    """One measured loop: per-op times in flat arrays, plus totals.

    Outputs are kept only for the first inputs (``outputs``, shared between
    the loops of one process): an op on an input seen before must render
    the same bytes, and they feed the digest.  Nothing else grows with the
    op count beyond two floats per op, so peak memory reflects the program.
    """

    def __init__(self, wl, outputs: dict):
        self.wl = wl
        self.norm = array("d")
        self.raw = array("d")
        self.series = self.true = self.analysed = 0
        self.problems: list[str] = []
        self.failed = 0
        self.outputs = outputs
        self.digest_limit = min(wl.traced_ops, DIGEST_INPUTS)

    def record(self, i, out):
        self.series += out.series
        self.true += out.true
        if out.error:
            self.failed += 1
            self.problems.append(f"op {i}: {out.error}")
            return
        self.analysed += out.series
        key = self.wl.input_key(i)
        if key < self.digest_limit and self.outputs.setdefault(key, out.rendered) != out.rendered:
            self.problems.append(f"op {i}: output differs from an earlier op on the same input")


def measure(wl, outputs, seconds=None, n_ops=None, tracer=None, between=None, times=0) -> Run:
    """Closed loop of ops 0, 1, 2, ...: until ``seconds`` would be exceeded,
    or exactly ``n_ops``.

    ``between`` is called ``times`` times, spread evenly over the run and
    always between two ops, never inside one.
    """
    from clock import Clock

    clk = Clock()
    run = Run(wl, outputs)
    bounds = array("l", [0])
    start = time.perf_counter()
    deadline = None if seconds is None else start + seconds
    hooks_done = 0
    i, last = 0, 0.0
    while True:
        if n_ops is not None and i >= n_ops:
            break
        # Stop before an op, as long as the last one, would overrun.
        if deadline is not None and i > 0 and time.perf_counter() + last > deadline:
            break
        t0 = time.perf_counter()
        if tracer is None:
            out = _op_safely(wl, i, clk)
        else:
            with tracer.root(i):
                out = _op_safely(wl, i, clk)
        last = time.perf_counter() - t0
        bounds.append(len(clk))
        run.record(i, out)
        i += 1
        if hooks_done < times and time.perf_counter() - start >= hooks_done * seconds / times:
            between()
            hooks_done += 1
    clk.close()
    for _ in range(hooks_done, times):
        between()
    for a, b in zip(bounds, bounds[1:]):
        run.norm.append(sum(clk.normalised(k) for k in range(a, b)))
        run.raw.append(sum(clk.raw(k) for k in range(a, b)))
    return run


def setup_probe(root: Path) -> float:
    """Set-up seconds of a fresh interpreter that imports the CLI and makes
    its first calls (first_call.py), at the reference host speed.

    The probe and the calibrations around it share one CPU.  Import time is
    largely loader and file work: on the reference host it moved with the
    calibration at about half its rate (elasticity 0.48 on either CPU), so
    it is rescaled by the square root of the calibration ratio.
    """
    from clock import CAL_REF_S, calibrate

    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        before = calibrate()
        proc = subprocess.run([sys.executable, str(HERE / "first_call.py")], cwd=root, check=True,
                              capture_output=True, text=True)
        after = calibrate()
    finally:
        os.sched_setaffinity(0, cpus)
    return json.loads(proc.stdout)["elapsed_s"] * math.sqrt(CAL_REF_S / ((before + after) / 2))


def digest(outputs: dict) -> str:
    """sha256 of the rendered outputs of the first inputs, in input order."""
    h = hashlib.sha256()
    for k in sorted(outputs):
        h.update(outputs[k])
    return h.hexdigest()


def metadata(root: Path, seed: int) -> dict:
    import numpy

    try:
        top, sha = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                                  capture_output=True, text=True, check=True).stdout.split()
        if Path(top).resolve() != root.resolve():
            sha = None  # a checkout nested inside some other repository
    except (OSError, ValueError, subprocess.CalledProcessError):
        sha = None  # a plain checkout without git metadata
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as f:
            models = [line.split(":", 1)[1].strip() for line in f if line.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    return {"git_sha": sha, "nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__, "seed": seed}


def end_to_end(run: Run, setup: list[float]) -> tuple[dict, dict]:
    from clock import tail

    attempted = len(run.norm)
    tail_v, tail_pct, tail_beyond = tail(run.norm)
    values = {
        "op_s.p50": statistics.median(run.norm),
        "op_s.tail": tail_v,
        "series_per_s": run.analysed / sum(run.norm),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": 1.0 - run.failed / attempted,
        "truth_rate": run.true / run.series,
    }
    notes = {
        "ops": attempted, "error_rate": run.failed / attempted,
        "tail_percentile": tail_pct, "tail_ops_beyond": tail_beyond,
        "tail_undersampled": tail_beyond == 0,
        "raw_wall_op_s.p50": statistics.median(run.raw),
        "series": run.series, "series_true": run.true,
        "setup_s_samples": setup,
    }
    return values, notes


def per_layer(untraced: Run, traced: Run, tracer) -> dict:
    from spans import layer_metrics

    factor = {i: n / r for i, (n, r) in enumerate(zip(traced.norm, traced.raw)) if r > 0}
    sizes = {i: untraced.wl.input_sizes(i) for i in range(len(traced.norm))}
    values = layer_metrics(tracer.spans, factor, sizes)
    # Both loops cycle through the same inputs from op 0, so their medians
    # compare like with like; the untraced loop simply has more ops.
    values["trace.overhead_frac"] = (statistics.median(traced.norm)
                                     / statistics.median(untraced.norm) - 1.0)
    return values


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "hypergrowth" / "__init__.py").is_file():
        print(f"error: no hypergrowth sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:  # before numpy is imported, here and in children
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import hypergrowth

    if Path(hypergrowth.__file__).resolve().parent != (src / "hypergrowth").resolve():
        print(f"error: imported hypergrowth from {hypergrowth.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import workloads
    from spans import LAYER_METRICS, Tracer

    work = root / ".perfbench_work"
    tmp = work / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    outputs: dict[int, bytes] = {}
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, tmp)
        detail = {"workload": args.workload, "trace": args.trace, **metadata(root, args.seed)}
        warm = measure(wl, outputs, n_ops=1)  # warm-up: checked, not timed
        if args.trace == 0:
            setup: list[float] = []
            run = measure(wl, outputs, seconds=args.seconds, times=SETUP_PROBES,
                          between=lambda: setup.append(setup_probe(root)))
            values, notes = end_to_end(run, setup)
            units = E2E_UNITS
            runs = [run]
            detail.update(notes)
        else:
            untraced = measure(wl, outputs, seconds=args.seconds / 2)
            tracer = Tracer()
            with tracer.patch():
                traced = measure(wl, outputs, n_ops=wl.traced_ops, tracer=tracer)
            values = per_layer(untraced, traced, tracer)
            units = dict(LAYER_METRICS)
            runs = [untraced, traced]
            tracer.dump(work / f"spans-{args.workload}-seed{args.seed}.jsonl")
            detail.update({"ops_untraced": len(untraced.norm), "ops_traced": len(traced.norm),
                           "traced_op_s.p50": statistics.median(traced.norm),
                           "traced_raw_wall_op_s.p50": statistics.median(traced.raw)})
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    problems = [p for r in [warm, *runs] for p in r.problems]
    detail.update({"output_sha256": digest(outputs), "output_digest_inputs": len(outputs),
                   "problems": problems[:20]})

    for name, value in values.items():
        print(f"{args.workload:18} {name:46} {value:>14.6g} {units[name]}")
    detail_line = json.dumps(detail, sort_keys=True)
    (work / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        detail_line + "\n")
    print(detail_line)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(len(r.norm) for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
