"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload ae-train --seed 1 --seconds 20 --trace 0

Run from the repository root. The last line of standard output is the
result object {"correct", "attempted", "failed", "metrics"}: with --trace 0
the end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer
metrics of a traced run. The line before it is the provenance block. Full
records (and, traced, the spans) go to .perfbench_out/. Exit code 1 means an
output check failed; 2 means the package could not be imported.
"""

from __future__ import annotations

from time import perf_counter

START = perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5


def _cap_blas_threads() -> None:
    """Leave OpenBLAS at no more threads than the cores this process may use
    (must run before numpy is imported)."""
    cores = len(os.sched_getaffinity(0))
    current = os.environ.get("OPENBLAS_NUM_THREADS", "")
    if not current.isdigit() or int(current) > cores:
        os.environ["OPENBLAS_NUM_THREADS"] = str(cores)


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy loaded."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    for lib in libs:
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def _git_sha() -> str | None:
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def provenance(np, workload: str, seed: int, params: dict, import_s: float) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25 has no dict mode
        blas = {}
    return {
        "workload": workload,
        "seed": seed,
        "params": params,
        "cores": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads()},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "import_s": import_s,
    }


def plain_run(cls, seed: int, seconds: float, workdir: Path, import_s: float):
    """End-to-end metrics, tracing off."""
    setup_times = []
    for _ in range(SETUP_REPEATS):
        wl = cls(seed, workdir)
        t0 = perf_counter()
        wl.setup()
        setup_times.append(perf_counter() - t0)
    slice_metrics = wl.slices()
    # Peak memory is read once a fixed amount of work has run: the set-ups,
    # the slices and the first timed unit. How many more units fit in the
    # seconds depends on the machine's speed, and each one can leave the heap
    # a little more fragmented, so a peak read at the end would move with it.
    peak = []
    metrics, extra = wl.measure(seconds, after_first=lambda: peak.append(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0))
    for name, value in slice_metrics.items():
        metrics.setdefault(name, value)
    metrics["setup_s"] = import_s + statistics.median(setup_times)
    metrics["peak_rss_mb"] = peak[0]
    extra["peak_rss_end_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    extra["setup_repeats_s"] = setup_times
    return metrics, extra, wl.tally


def traced_run(tracing, cls, seed: int, workdir: Path, label: str):
    """Per-layer metrics: one untraced unit of work as the reference, then
    set-up and the same unit again with the span recorder installed."""
    plain = cls(seed, workdir)
    plain.setup()
    reference = plain.unit()
    recorder = tracing.Recorder()
    recorder.install()
    try:
        traced = cls(seed, workdir)
        traced.recorder = recorder
        traced.setup()
        result = traced.unit()
    finally:
        recorder.uninstall()
    tally = plain.tally
    tally.attempted += traced.tally.attempted
    tally.failed += traced.tally.failed
    tally.notes += traced.tally.notes
    tally.record(1, plain.same_outputs(reference, result),
                 "traced unit gave other outputs than the untraced unit")
    overhead = plain.unit_seconds(result) / plain.unit_seconds(reference) - 1.0
    metrics = tracing.per_layer_metrics(recorder, plain.stage_p50_ms(reference), overhead)
    spans = OUT / f"{label}-spans.tsv"
    recorder.write_spans(spans)
    extra = {"spans_file": str(spans.relative_to(ROOT)), "spans": len(recorder.names),
             "computed_counters": "gflop and mb values are computed from array shapes"}
    return metrics, extra, tally


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _cap_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy as np
        import latentcast
    except ImportError as exc:
        print(f"perfbench: cannot import latentcast from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(latentcast.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: latentcast was imported from {latentcast.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    import_s = perf_counter() - START
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    cls = workloads.WORKLOADS[args.workload]
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = ROOT / ".perfbench_work" / f"{label}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    OUT.mkdir(exist_ok=True)
    try:
        if args.trace:
            metrics, extra, tally = traced_run(tracing, cls, args.seed, workdir, label)
        else:
            metrics, extra, tally = plain_run(cls, args.seed, args.seconds, workdir,
                                              import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }
    prov = provenance(np, args.workload, args.seed, workloads.PARAMS, import_s)
    record = {"provenance": prov, "result": result, "details": extra, "failures": tally.notes}
    (OUT / f"{label}.json").write_text(json.dumps(record, indent=2))
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
