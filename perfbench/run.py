"""volprod benchmark: time one workload in this process and check its results.

    python3 perfbench/run.py --workload cli1d --seed 0 --seconds 25 --trace 0
    for w in cli1d volprod-nd transforms; do python3 perfbench/run.py --workload $w --seed 0 --seconds 25; done

Run it from a source checkout: it imports ``volprod`` from ``src/`` next to
this directory and exits with status 2 when that is missing. Each run is one
fresh process, since ``ru_maxrss`` is a lifetime high-water mark.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over this
process and fresh child processes of importing volprod and building the
workload's grids, densities and configs), ``pass_s`` (median wall time of a
warm pass over the case list, after one cold pass), ``peak_rss_mb`` and
``oracle_err_max`` (worst relative deviation from a closed form; it repeats
exactly). ``fail_frac`` is 0 when the program is right, so it is printed on the
report line and carried by ``failed``/``attempted`` rather than as a metric.

``--trace 1`` reports per-layer metrics from spans around volprod's public
functions (see ``tracing.py``); end-to-end numbers never come from it.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. A run record (environment, drawn inputs, one
checksum per case, every failure) and, when traced, the spans of the last
traced pass are written under ``--out``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("cli1d", "volprod-nd", "transforms")
END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("peak_rss_mb", "MB"), ("oracle_err_max", "ratio"))
# setup samples per run: this process plus fresh child processes
SETUP_SAMPLES = {"full": 5, "tiny": 2}
PROBE_TIMEOUT_S = 60


@dataclass
class PassResult:
    seconds: float = 0.0  # time inside the cases' timed calls only
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    failed_cases: int = 0
    errs: dict[str, float] = field(default_factory=dict)
    checksums: dict[str, str] = field(default_factory=dict)
    case_seconds: dict[str, float] = field(default_factory=dict)


def setup(workload: str, seed: int, size: str, out_dir: Path):
    """Import volprod and build the workload; returns (workload, seconds)."""
    t0 = time.perf_counter()
    import volprod

    if not Path(volprod.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: volprod imported from {volprod.__file__}, not {SRC}")
    import cases

    wl = cases.build(workload, seed, size, out_dir)
    return wl, time.perf_counter() - t0


def run_pass(wl, reference: dict[str, str]) -> PassResult:
    """Run every case once. The first pass's checksums become ``reference``."""
    res = PassResult()
    for case in wl.cases:
        res.attempted += 1
        t0 = time.perf_counter()
        try:
            out = case.run()
        except Exception as exc:  # a raising case is a failed case; the pass goes on
            res.seconds += time.perf_counter() - t0
            res.failures.append(f"{case.name}: raised {exc!r}")
            res.failed_cases += 1
            continue
        res.case_seconds[case.name] = time.perf_counter() - t0
        res.seconds += res.case_seconds[case.name]
        try:
            verdict = case.check(out)
        except Exception as exc:  # a result the check cannot read is wrong
            res.failures.append(f"{case.name}: check raised {exc!r}")
            res.failed_cases += 1
            continue
        ref = reference.setdefault(case.name, verdict.checksum)
        if verdict.checksum != ref:
            verdict.failures.append("result differs from the first pass")
        res.checksums[case.name] = verdict.checksum
        for key, val in verdict.errs.items():
            res.errs[key] = max(res.errs.get(key, 0.0), val)
        if verdict.failures:
            res.failed_cases += 1
            res.failures += [f"{case.name}: {msg}" for msg in verdict.failures]
    return res


def setup_probe(workload: str, seed: int, size: str, out_dir: Path) -> float:
    """Setup time of a fresh child process running this script in probe mode."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--size", size, "--out", str(out_dir), "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(json.loads(done.stdout.splitlines()[-1])["setup_s"])


def _blas_threads():
    """OpenBLAS thread count of the numpy build, or None when it cannot be read."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    try:
        lib = ctypes.CDLL(str(next(libs.glob("libscipy_openblas*.so"))))
        fn = lib.scipy_openblas_get_num_threads64_
    except (StopIteration, OSError, AttributeError):
        return None
    fn.argtypes = []
    fn.restype = ctypes.c_int
    return fn()


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else ref


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": _git_commit(),
    }


def _spread(values) -> str:
    """Range, plus the highest percentile with at least ten samples beyond it."""
    out = f"min {min(values):.4g}, max {max(values):.4g}"
    if len(values) > 10:
        rank = len(values) - 10
        out += f", p{100 * rank // len(values)} {sorted(values)[rank - 1]:.4g}"
    return out


def timed_run(wl, args, setup_s: float, record: dict):
    reference: dict[str, str] = {}
    cold = run_pass(wl, reference)
    warm = []
    start = time.perf_counter()
    while not warm or time.perf_counter() - start < args.seconds:
        warm.append(run_pass(wl, reference))
    samples = [setup_s] + [setup_probe(args.workload, args.seed, args.size, args.out_dir / "setup-probe")
                           for _ in range(SETUP_SAMPLES[args.size] - 1)]
    passes = [cold] + warm
    errs: dict[str, float] = {}
    for p in passes:
        for key, val in p.errs.items():
            errs[key] = max(errs.get(key, 0.0), val)
    worst = max(errs, key=errs.get) if errs else None
    times = [p.seconds for p in warm]
    metrics = {
        "setup_s": statistics.median(samples),
        "pass_s": statistics.median(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "oracle_err_max": errs[worst] if worst else 0.0,
    }
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed_cases for p in passes)
    print(f"{args.workload} seed {args.seed}: "
          f"setup_s {metrics['setup_s']:.4f} s (median of {len(samples)} processes; {_spread(samples)}) | "
          f"pass_s {metrics['pass_s']:.4f} s (median of {len(times)} warm passes; {_spread(times)}; "
          f"cold {cold.seconds:.4f} s) | peak_rss_mb {metrics['peak_rss_mb']:.1f} MB | "
          f"fail_frac {failed / attempted:.4g} ({failed}/{attempted} cases) | "
          f"oracle_err_max {metrics['oracle_err_max']:.3e} ({worst})")
    record.update(setup_samples=samples, pass_times=times, cold_pass_s=cold.seconds, oracle_errs=errs,
                  case_times={c: [p.case_seconds.get(c) for p in warm] for c in cold.case_seconds},
                  checksums=cold.checksums, failures=[f for p in passes for f in p.failures])
    units = dict(END_TO_END)
    return attempted, failed, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def traced_run(wl, args, record: dict):
    import tracing

    reference: dict[str, str] = {}
    with tracing.Tracer() as cold_tr:
        cold = run_pass(wl, reference)  # caches start empty: the kernel-cache hit ratio is read here
    with tracing.Tracer(alloc=True) as alloc_tr:
        alloc = run_pass(wl, reference)
    untraced, traced, tracers = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        untraced.append(run_pass(wl, reference))
        with tracing.Tracer() as tr:
            traced.append(run_pass(wl, reference))
        tracers.append(tr)
    last = tracers[-1]

    values = {}
    for name in tracing.FUNCTIONS:
        values[f"{name}.calls"] = last.calls[name]
        values[f"{name}.total_s"] = statistics.median(t.total_s[name] for t in tracers)
        values[f"{name}.self_s"] = statistics.median(t.self_s[name] for t in tracers)
    for mod in tracing.LAYERS:
        values[f"{mod}.errors"] = last.errors[mod]
    for name in tracing.PEAK_ALLOC:
        values[f"{name}.peak_alloc_mb"] = alloc_tr.peak_alloc[name] / 2**20
    for name, (what, _) in tracing.WORK.items():
        values[f"{name}.{what}"] = last.work[f"{name}.{what}"]
    values["heatflow.kernel_cache.hit_ratio"] = cold_tr.hit_ratio()
    values["cli.write_csv.bytes"] = last.csv_bytes
    values["trace.overhead_s"] = (statistics.median(p.seconds for p in traced)
                                  - statistics.median(p.seconds for p in untraced))

    with open(args.out_dir / "spans.jsonl", "w") as fh:
        for span in last.spans:
            fh.write(json.dumps(span) + "\n")
    passes = [cold, *untraced, *traced, alloc]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed_cases for p in passes)
    top = sorted(tracing.FUNCTIONS, key=lambda n: -values[f"{n}.self_s"])[:5]
    print(f"{args.workload} seed {args.seed} traced: {len(traced)} traced / {len(untraced)} untraced warm passes; "
          f"overhead {values['trace.overhead_s']:.4f} s; top self time: "
          + ", ".join(f"{n} {values[f'{n}.self_s']:.3f} s" for n in top))
    record.update(checksums=cold.checksums, failures=[f for p in passes for f in p.failures])
    units = {name: unit for name, unit, _ in tracing.per_layer_names()}
    return attempted, failed, {k: {"value": values[k], "unit": units[k]} for k in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="measuring time; at least one warm pass runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is for the smoke test")
    parser.add_argument("--out", type=Path, default=ROOT / "perfbench_out", help="run records go here")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "volprod" / "__init__.py").is_file():
        print(f"error: no volprod sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    seed = args.seed % 2**32  # numpy seeds must be nonnegative
    if args.setup_probe:
        args.out.mkdir(parents=True, exist_ok=True)
        print(json.dumps({"setup_s": setup(args.workload, seed, args.size, args.out)[1]}))
        return 0

    args.out_dir = args.out / f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(args.out_dir, ignore_errors=True)
    args.out_dir.mkdir(parents=True)
    wl, setup_s = setup(args.workload, seed, args.size, args.out_dir)
    record = {"workload": args.workload, "seed": args.seed, "size": args.size, "trace": args.trace,
              "seconds": args.seconds, "inputs": wl.record, "environment": environment()}
    if args.trace:
        attempted, failed, metrics = traced_run(wl, args, record)
    else:
        attempted, failed, metrics = timed_run(wl, args, setup_s, record)
    with open(args.out_dir / "record.json", "w") as fh:
        json.dump(record, fh, indent=1)
    for line in record["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
