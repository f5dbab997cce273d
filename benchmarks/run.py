"""pdegreedy benchmark: one workload per process, result as a JSON last line.

Usage, from the repository root:

    python3 benchmarks/run.py --workload kdv-op --seed 0 --seconds 12 --trace 0

``BENCHMARK.json`` registers the workloads a check runs; ``kdv-op-full``,
the full 1000-iteration KdV acceptance run with the criterion-2 check, is
there to run by hand.

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
records spans around the calls between pdegreedy modules and reports
per-layer metrics, writing the spans to ``benchmarks/out/``. The
numeric environment is recorded with every result. BLAS thread
variables are left as found: the benchmark measures the default
environment and only reports it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _import_program():
    """Import pdegreedy from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import pdegreedy
    except ImportError as exc:
        raise SystemExit(f"benchmark: cannot import pdegreedy from {SRC}: {exc}") from None
    if Path(pdegreedy.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"benchmark: pdegreedy imported from {pdegreedy.__file__}, not {SRC}")


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def numeric_environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "threads": {var: os.environ.get(var, "unset") for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "cache_per_core": _cache_sizes(),
    }


def _report(name, seed, trace, result, env) -> list[str]:
    lines = [f"workload {name}  seed {seed}  trace {int(trace)}",
             "env " + json.dumps(env, sort_keys=True)]
    for metric, (value, unit) in result.metrics.items():
        lines.append(f"  {metric:36s} {value:>16.6g} {unit}")
    for metric, (value, unit, note) in result.notes.items():
        shown = "-" if value is None else f"{value:.6g}"
        lines.append(f"  {metric:36s} {shown:>16s} {unit}  ({note})")
    for label in result.checks.failed:
        lines.append(f"  FAILED check: {label}")
    return lines


def main(argv=None, profile=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import bench_workloads

    if args.workload not in bench_workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(bench_workloads.WORKLOADS)}")
    trace = bool(args.trace)
    result = bench_workloads.run(args.workload, args.seed, args.seconds, trace,
                                 profile or bench_workloads.FULL)
    env = numeric_environment()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{int(trace)}"
    if trace:
        result.tracer.dump(OUT / f"spans-{stem}.json")
    checks = result.checks
    line = {
        "correct": not checks.failed,
        "attempted": checks.attempted,
        "failed": len(checks.failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
    }
    with open(OUT / f"result-{stem}.json", "w") as fh:
        json.dump({"result": line, "notes": result.notes, "env": env,
                   "failed_checks": checks.failed}, fh, indent=1)
        fh.write("\n")
    print("\n".join(_report(args.workload, args.seed, trace, result, env)))
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
