"""Command-line front end: sample, train, sweep, baseline, cluster, generate."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .experiments import (SweepConfig, cluster_records, eps_grid, export_plot_data,
                          export_results, read_results, sweep_greedy, sweep_random)
from .features import PRESETS, get_pde_spec, load_pde_spec, preset
from .linalg import blas_threads
from .sampling import QdeimConfig, qdeim_sample, random_sample
from .siren import DEFAULT_OMEGA0, DEFAULT_WIDTHS, init_siren, save_checkpoint
from .snapshots import generate_synthetic, load_snapshot, save_snapshot
from .training import TrainConfig, summary_dict, train, write_trajectory_csv

# A view of PRESETS under the name benchmarks/bench_workloads.py imports.
GENERATE_DEFAULTS = {name: dict(n=p.n, m=p.m, domain=p.domain, init=p.init)
                     for name, p in PRESETS.items()}


def _out_dir(args) -> Path:
    out = args.out_dir or os.environ.get("PDEGREEDY_OUT", ".")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _blas_build(module) -> str | None:
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 and scipy < 1.11 have no dict mode
        return None
    return f"{blas.get('name')} {blas.get('version')}"


def _numeric_environment() -> dict:
    """Library versions, BLAS builds and live BLAS thread counts: numpy's
    pool size changes the SVD's bits and so the greedy samples."""
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": _blas_build(np), "scipy": _blas_build(scipy)},
        "blas_threads": blas_threads(),
    }


def _write_manifest(out_dir: Path, name: str, command: str, config: dict,
                    inputs: list, started: float) -> None:
    manifest = {
        "command": command,
        "argv": sys.argv[1:],
        "config": config,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "version": __version__,
        "environment": _numeric_environment(),
        "started": started,
        "finished": time.time(),
    }
    tmp = out_dir / f".{name}.tmp"
    with open(tmp, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True, default=str)
        fh.write("\n")
    os.replace(tmp, out_dir / name)


# Config keys whose comma-separated string default may also come as a JSON list.
_LIST_KEYS = ("widths", "t_divs")


def _check_config_type(key: str, value, default) -> None:
    """Refuse a --config value whose type is not its default's: an int may
    stand for a float, and a list for a tuple or a comma-separated list."""
    if isinstance(default, float):
        allowed = (int, float)
    elif isinstance(default, tuple) or key in _LIST_KEYS:
        allowed = (type(default), list)
    elif default is None:  # the baseline's sample-count bounds
        allowed = (int, type(None))
    else:
        allowed = (type(default),)
    if isinstance(value, bool) or not isinstance(value, allowed):
        names = " or ".join(t.__name__ for t in allowed if t is not type(None))
        raise ValueError(f"{key}: expected {names}, got {value!r}")


def _merge_config(defaults: dict, args) -> dict:
    """flags > --config file > defaults; the merged dict is what runs."""
    merged = dict(defaults)
    if getattr(args, "config", None):
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise SystemExit(f"unknown config keys: {', '.join(sorted(unknown))}")
        for key, value in file_cfg.items():
            _check_config_type(key, value, defaults[key])
        merged.update(file_cfg)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _resolve_spec(args):
    if getattr(args, "spec_file", None):
        return load_pde_spec(args.spec_file)
    if getattr(args, "pde", None):
        try:
            return get_pde_spec(args.pde)
        except KeyError as exc:
            raise SystemExit(str(exc)) from None
    raise SystemExit("need --pde or --spec-file")


def _resolve_snapshot(args):
    if getattr(args, "snapshot", None):
        path = Path(args.snapshot)
    elif getattr(args, "pde", None):
        data_dir = Path(args.data_dir or os.environ.get("PDEGREEDY_DATA", "data"))
        path = data_dir / f"{args.pde}.txt"
        if not path.exists():
            raise SystemExit(
                f"no snapshot at {path}; pass --snapshot or run "
                f"'pdegreedy generate --pde {args.pde}' first")
    else:
        raise SystemExit("need --snapshot (or --pde with a data directory)")
    if not path.exists():
        raise SystemExit(f"snapshot file not found: {path}")
    fmt = "csv" if path.suffix.lower() == ".csv" else "matrix-text"
    return load_snapshot(path, format=fmt), path


def _select_samples(snapshot, args):
    if args.random:
        if args.size is None:
            raise SystemExit("--random needs --size")
        return random_sample(snapshot, args.size, args.seed or 0)
    if args.t_div is None or args.eps is None:
        raise SystemExit("greedy sampling needs --t-div and --eps (or use --random)")
    return qdeim_sample(snapshot, QdeimConfig(t_div=args.t_div, eps_thr=args.eps))


def _int_list(value) -> tuple[int, ...]:
    """Integers from a comma-separated string ("2,8,1") or a JSON list ([2, 8, 1])."""
    items = value if isinstance(value, list) else str(value).split(",")
    return tuple(int(str(v)) for v in items)


def _train_config(args, pde_name: str, **command_defaults) -> tuple[TrainConfig, dict]:
    """Training settings shared by train, sweep and baseline, plus the
    command's own keys; flags > --config file > defaults."""
    train_defaults = dataclasses.asdict(TrainConfig(max_iter=preset(pde_name).max_iter))
    defaults = {**train_defaults, "omega0": DEFAULT_OMEGA0,
                "widths": ",".join(map(str, DEFAULT_WIDTHS)), **command_defaults}
    merged = _merge_config(defaults, args)
    widths = _int_list(merged["widths"])
    cfg = TrainConfig(**{key: merged[key] for key in train_defaults})
    return cfg, {**merged, "widths": list(widths)}


# ---------------------------------------------------------------------------
# subcommands

def _write_records(out_dir: Path, records, command: str, merged: dict, src,
                   started: float) -> int:
    """CSV and JSON records plus the manifest; exit status 1 if any run failed."""
    export_results(records, out_dir / "records.csv", format="csv")
    export_results(records, out_dir / "records.json", format="json")
    _write_manifest(out_dir, f"{command}_manifest.json", command, merged, [src], started)
    failures = sum(1 for r in records if r.error is not None)
    print(f"wrote {len(records)} records ({failures} failed)")
    return 1 if failures else 0


def cmd_generate(args) -> int:
    spec = _resolve_spec(args)
    grid = preset(spec.name)
    defaults = {"n": grid.n, "m": grid.m, "domain": grid.domain, "init": grid.init,
                "seed": 0, "rtol": 1e-8, "name": spec.name}
    merged = _merge_config(defaults, args)
    merged["domain"] = tuple(float(v) for v in merged["domain"])

    started = time.time()
    snapshot = generate_synthetic(
        spec, n=merged["n"], m=merged["m"], domain=merged["domain"],
        init=merged["init"], seed=merged["seed"], rtol=merged["rtol"],
        name=merged["name"])
    out_dir = _out_dir(args)
    out_path = out_dir / f"{merged['name']}.txt"
    save_snapshot(snapshot, out_path)
    _write_manifest(out_dir, f"{merged['name']}_manifest.json", "generate",
                    merged, [], started)
    print(f"wrote {out_path} ({snapshot.n} x {snapshot.m})")
    return 0


def cmd_sample(args) -> int:
    started = time.time()
    snapshot, src = _resolve_snapshot(args)
    samples = _select_samples(snapshot, args)
    out_dir = _out_dir(args)
    out_path = out_dir / "samples.csv"
    samples.export_csv(out_path)
    config = {"snapshot": str(src), "random": args.random, "t_div": args.t_div,
              "eps": args.eps, "size": args.size, "seed": args.seed}
    _write_manifest(out_dir, "samples_manifest.json", "sample", config,
                    [src], started)
    print(f"wrote {out_path} ({len(samples)} samples, source={samples.source})")
    return 0


def cmd_train(args) -> int:
    started = time.time()
    snapshot, src = _resolve_snapshot(args)
    spec = _resolve_spec(args)
    samples = _select_samples(snapshot, args)
    cfg, merged = _train_config(args, spec.name)

    net = init_siren(tuple(merged["widths"]), omega0=merged["omega0"], seed=cfg.seed)
    result = train(net, samples, spec, snapshot.scales, cfg)

    out_dir = _out_dir(args)
    write_trajectory_csv(result, out_dir / "trajectory.csv")
    summary = summary_dict(result, spec)
    summary["n_samples"] = len(samples)
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    save_checkpoint(net, out_dir / "checkpoint.txt")
    config = {**merged, "snapshot": str(src), "sampler":
              "random" if args.random else "greedy",
              "t_div": args.t_div, "eps": args.eps, "size": args.size}
    _write_manifest(out_dir, "train_manifest.json", "train", config, [src], started)
    print(f"final p = {np.round(result.final_p, 6).tolist()}"
          f" after {result.iterations} iterations"
          + (" (diverged)" if result.diverged else ""))
    return 1 if result.diverged else 0


def cmd_sweep(args) -> int:
    started = time.time()
    snapshot, src = _resolve_snapshot(args)
    spec = _resolve_spec(args)
    lo, hi = preset(spec.name).eps_range
    train_cfg, merged = _train_config(args, spec.name, t_divs="1,2,3,4", eps_min=lo,
                                      eps_max=hi, eps_count=20, jobs=1)
    sweep_cfg = SweepConfig(
        t_divs=_int_list(merged["t_divs"]),
        eps_values=eps_grid(merged["eps_min"], merged["eps_max"], merged["eps_count"]),
        widths=tuple(merged["widths"]), omega0=merged["omega0"])

    records = sweep_greedy(snapshot, spec, sweep_cfg, train_cfg, jobs=merged["jobs"])
    out_dir = _out_dir(args)
    export_plot_data(records, out_dir / "plot_data.json")
    return _write_records(out_dir, records, "sweep", merged, src, started)


def cmd_baseline(args) -> int:
    started = time.time()
    snapshot, src = _resolve_snapshot(args)
    spec = _resolve_spec(args)
    train_cfg, merged = _train_config(args, spec.name, min_n=None, max_n=None, reps=5,
                                      base_seed=0, jobs=1)
    if merged["min_n"] is None or merged["max_n"] is None:
        raise SystemExit("baseline needs --min-n and --max-n")
    records = sweep_random(
        snapshot, spec, merged["min_n"], merged["max_n"], train_cfg,
        repetitions=merged["reps"], base_seed=merged["base_seed"],
        jobs=merged["jobs"], widths=tuple(merged["widths"]), omega0=merged["omega0"])
    return _write_records(_out_dir(args), records, "baseline", merged, src, started)


def cmd_cluster(args) -> int:
    started = time.time()
    results_path = Path(args.results)
    if not results_path.exists():
        raise SystemExit(f"results file not found: {results_path}")
    records = read_results(results_path)
    if not records:
        raise ValueError(f"no records in {results_path}")
    defaults = {"k": 20, "n_init": 100, "seed": 0}
    merged = _merge_config(defaults, args)
    coefs = range(len(records[0].rel_errors)) if args.coef is None else [args.coef]
    summaries = {ci: cluster_records(records, ci, k=merged["k"],
                                     n_init=merged["n_init"], seed=merged["seed"])
                 for ci in coefs}
    out_dir = _out_dir(args)
    if args.format == "json":
        payload = {str(ci): {"centroids": s.centroids.tolist(),
                             "inertia": s.inertia, "k": s.k, "n_init": s.n_init}
                   for ci, s in summaries.items()}
        out_path = out_dir / "centroids.json"
        with open(out_path, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
    else:
        out_path = out_dir / "centroids.csv"
        with open(out_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["coef_index", "n_samples", "rel_error"])
            for ci, s in summaries.items():
                for row in s.centroids:
                    writer.writerow([ci, "%.17g" % row[0], "%.17g" % row[1]])
    _write_manifest(out_dir, "cluster_manifest.json", "cluster",
                    {**merged, "results": str(results_path), "coef": args.coef},
                    [results_path], started)
    print(f"wrote {out_path} ({sum(s.k for s in summaries.values())} centroids)")
    return 0


# ---------------------------------------------------------------------------

def _add_common(sub, config: bool = True):
    sub.add_argument("--out-dir", help="output directory (default $PDEGREEDY_OUT or .)")
    if config:
        sub.add_argument("--config", help="JSON config file; flags override it")


def _add_snapshot_opts(sub):
    sub.add_argument("--snapshot", help="snapshot file (matrix-text or .csv)")
    sub.add_argument("--pde", help="preset name: " + ", ".join(sorted(PRESETS)))
    sub.add_argument("--data-dir", help="directory searched for <pde>.txt "
                                        "(default $PDEGREEDY_DATA or data)")


def _add_train_opts(sub):
    sub.add_argument("--spec-file", help="custom term library (JSON)")
    sub.add_argument("--max-iter", type=int, dest="max_iter")
    sub.add_argument("--lr", type=float, dest="learning_rate")
    sub.add_argument("--mu1", type=float)
    sub.add_argument("--mu2", type=float)
    sub.add_argument("--step-size-up", type=int, dest="step_size_up")
    sub.add_argument("--widths", help="comma-separated layer widths")
    sub.add_argument("--omega0", type=float)


def _add_sampler_opts(sub):
    sub.add_argument("--t-div", type=int, help="time divisions for greedy sampling")
    sub.add_argument("--eps", type=float, help="rank threshold for greedy sampling")
    sub.add_argument("--random", action="store_true", help="random baseline sampler")
    sub.add_argument("--size", type=int, help="random sample count")
    sub.add_argument("--seed", type=int, help="seed (random sampler / net init)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdegreedy",
        description="Greedy snapshot sampling and sinusoidal-network regression "
                    "for PDE coefficient recovery.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("generate", help="integrate a preset PDE to a snapshot file")
    _add_common(p)
    p.add_argument("--pde", help="preset name")
    p.add_argument("--spec-file", help="custom term library (JSON)")
    p.add_argument("--n", type=int, help="spatial points")
    p.add_argument("--m", type=int, help="time points")
    p.add_argument("--domain", type=float, nargs=3, metavar=("XMIN", "XMAX", "TMAX"))
    p.add_argument("--init", help="named initial condition")
    p.add_argument("--seed", type=int)
    p.add_argument("--rtol", type=float)
    p.add_argument("--name", help="output stem (default pde name)")
    p.set_defaults(func=cmd_generate)

    p = subs.add_parser("sample", help="select samples from a snapshot")
    _add_common(p, config=False)
    _add_snapshot_opts(p)
    _add_sampler_opts(p)
    p.set_defaults(func=cmd_sample)

    p = subs.add_parser("train", help="recover coefficients from selected samples")
    _add_common(p)
    _add_snapshot_opts(p)
    _add_sampler_opts(p)
    _add_train_opts(p)
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("sweep", help="greedy (t_div, eps) sweep")
    _add_common(p)
    _add_snapshot_opts(p)
    p.add_argument("--t-divs", dest="t_divs", help="comma-separated divisions")
    p.add_argument("--eps-min", type=float, dest="eps_min")
    p.add_argument("--eps-max", type=float, dest="eps_max")
    p.add_argument("--eps-count", type=int, dest="eps_count")
    _add_train_opts(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--jobs", type=int, help="worker pool size (default 1)")
    p.set_defaults(func=cmd_sweep)

    p = subs.add_parser("baseline", help="size-matched random baseline")
    _add_common(p)
    _add_snapshot_opts(p)
    p.add_argument("--min-n", type=int, dest="min_n")
    p.add_argument("--max-n", type=int, dest="max_n")
    p.add_argument("--reps", type=int)
    p.add_argument("--base-seed", type=int, dest="base_seed")
    _add_train_opts(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--jobs", type=int)
    p.set_defaults(func=cmd_baseline)

    p = subs.add_parser("cluster", help="k-means summary of sweep records")
    _add_common(p)
    p.add_argument("--results", required=True, help="records.json from a sweep")
    p.add_argument("--k", type=int)
    p.add_argument("--n-init", type=int, dest="n_init")
    p.add_argument("--seed", type=int)
    p.add_argument("--coef", type=int, help="coefficient index (default: all)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_cluster)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except (ValueError, OSError, RuntimeError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
