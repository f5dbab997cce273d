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
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy

from . import __version__
from .experiments import (SweepConfig, cluster_records, eps_grid, export_results,
                          read_results, record_json, run_record, sweep_greedy, sweep_random)
from .features import PRESETS, get_pde_spec, load_pde_spec, preset
from .linalg import blas_threads
from .sampling import QdeimConfig, qdeim_sample, random_sample
from .siren import init_siren, save_checkpoint
from .snapshots import generate_synthetic, load_snapshot, save_snapshot
from .training import TrainConfig, train, write_trajectory_csv

# A view of PRESETS under the name benchmarks/bench_workloads.py imports.
GENERATE_DEFAULTS = {name: dict(n=p.n, m=p.m, domain=p.domain, init=p.init)
                     for name, p in PRESETS.items()}


# ---------------------------------------------------------------------------
# Config keys, each declared once with its flag, type and default.

def _of(types, value):
    """``value`` if it is one of ``types`` and not a bool, else TypeError."""
    if isinstance(value, bool) or not isinstance(value, types):
        raise TypeError(value)
    return value


def _ints(value) -> tuple[int, ...]:
    """Integers from a comma-separated string ("2,8,1") or a list ([2, 8, 1])."""
    if isinstance(value, str):
        return tuple(int(v) for v in value.split(","))
    return tuple(_of(int, v) for v in _of((list, tuple), value))


def _three_floats(value) -> tuple[float, float, float]:
    if len(_of((list, tuple), value)) != 3:
        raise TypeError(value)
    return tuple(float(_of((int, float), v)) for v in value)


class OptionType(NamedTuple):
    """``parse`` reads each of a flag's ``nargs`` tokens; ``cast`` turns that, or a
    --config value, into the value that runs and raises TypeError or ValueError."""
    name: str
    parse: Callable[[str], object]
    cast: Callable[[object], object]
    nargs: int | None = None


INT = OptionType("int", int, lambda v: _of(int, v))
FLOAT = OptionType("float", float, lambda v: float(_of((int, float), v)))  # ints become floats
STR = OptionType("str", str, lambda v: _of(str, v))
INT_LIST = OptionType("int list", str, _ints)
THREE_FLOATS = OptionType("3 floats", float, _three_floats, nargs=3)
OPTIONAL_INT = OptionType("int or null", int, lambda v: v if v is None else _of(int, v))
OPTIONAL_FLOAT = OptionType("float or null", float, lambda v: v if v is None else FLOAT.cast(v))


class Option(NamedTuple):
    """A config key's flag, type and default: a value or a function of the Preset."""
    flag: str
    type: OptionType
    default: object = None
    help: str | None = None


OPTIONS = {
    # generate
    "n": Option("--n", INT, lambda p: p.n, "spatial points"),
    "m": Option("--m", INT, lambda p: p.m, "time points"),
    "domain": Option("--domain", THREE_FLOATS, lambda p: p.domain, "x_min x_max t_max"),
    "init": Option("--init", STR, lambda p: p.init, "named initial condition"),
    # sample selection: size for a random sample, t_div and eps for a greedy one
    "t_div": Option("--t-div", OPTIONAL_INT, None, "time divisions for greedy sampling"),
    "eps": Option("--eps", OPTIONAL_FLOAT, None, "rank threshold for greedy sampling"),
    "size": Option("--size", OPTIONAL_INT, None, "random sample count"),
    # training: TrainConfig's fields
    "max_iter": Option("--max-iter", INT, lambda p: p.max_iter),
    "learning_rate": Option("--lr", FLOAT, TrainConfig.learning_rate),
    "mu1": Option("--mu1", FLOAT, TrainConfig.mu1),
    "mu2": Option("--mu2", FLOAT, TrainConfig.mu2),
    "step_size_up": Option("--step-size-up", INT, TrainConfig.step_size_up),
    "seed": Option("--seed", INT, TrainConfig.seed, "generator, sampler, network or k-means"),
    "widths": Option("--widths", INT_LIST, TrainConfig.widths, "comma-separated layer widths"),
    "omega0": Option("--omega0", FLOAT, TrainConfig.omega0),
    # sweep and baseline
    "t_divs": Option("--t-divs", INT_LIST, SweepConfig.t_divs, "comma-separated divisions"),
    "eps_min": Option("--eps-min", FLOAT, lambda p: p.eps_range[0]),
    "eps_max": Option("--eps-max", FLOAT, lambda p: p.eps_range[1]),
    "eps_count": Option("--eps-count", INT, 20),
    "min_n": Option("--min-n", OPTIONAL_INT),
    "max_n": Option("--max-n", OPTIONAL_INT),
    "reps": Option("--reps", INT, 5),
    "base_seed": Option("--base-seed", INT, 0),
    "jobs": Option("--jobs", INT, 1, "worker pool size (default 1)"),
    # cluster
    "k": Option("--k", INT, 20),
    "n_init": Option("--n-init", INT, 100),
}
TRAIN_KEYS = tuple(f.name for f in dataclasses.fields(TrainConfig))


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
    """``inputs`` are the files read, each recorded with its sha256; None
    stands for a file not given (a --spec-file of a --pde run)."""
    manifest = {
        "command": command,
        "argv": sys.argv[1:],
        "config": config,
        "inputs": {str(p): _sha256(p) for p in inputs if p is not None},
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


def _merge_config(args, spec=None) -> dict:
    """The command's keys: flags > --config file > defaults; the merged dict
    is what runs. Defaults that depend on the PDE come from its preset."""
    keys = COMMANDS[args.command].keys
    source = None if spec is None else preset(spec.name)
    merged = {}
    for key in keys:
        default = OPTIONS[key].default
        merged[key] = default(source) if callable(default) else default
    file_cfg = {}
    if args.config:
        with open(args.config) as fh:
            try:
                file_cfg = json.load(fh)
            except ValueError as exc:  # malformed JSON
                raise ValueError(f"{args.config}: {exc}") from None
        if not isinstance(file_cfg, dict):
            raise ValueError(f"{args.config}: expected a JSON object of config keys")
        unknown = set(file_cfg) - set(keys)
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    flags = {key: getattr(args, key) for key in keys if getattr(args, key) is not None}
    for key, value in (*file_cfg.items(), *flags.items()):
        typ = OPTIONS[key].type
        try:
            merged[key] = typ.cast(value)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"{key}: expected {typ.name}, got {value!r}") from None
    return merged


def _training_inputs(args):
    """Snapshot, the files read (its path and any --spec-file), spec, merged
    config and TrainConfig of a training run."""
    snapshot, src = _resolve_snapshot(args)
    spec = _resolve_spec(args)
    merged = _merge_config(args, spec)
    cfg = TrainConfig(**{key: merged[key] for key in TRAIN_KEYS})
    return snapshot, [src, args.spec_file], spec, merged, cfg


def _resolve_spec(args):
    if getattr(args, "spec_file", None):
        return load_pde_spec(args.spec_file)
    if getattr(args, "pde", None):
        return get_pde_spec(args.pde)
    raise ValueError("need --pde or --spec-file")


def _resolve_snapshot(args):
    if getattr(args, "snapshot", None):
        path = Path(args.snapshot)
    elif getattr(args, "pde", None):
        data_dir = Path(args.data_dir or os.environ.get("PDEGREEDY_DATA", "data"))
        path = data_dir / f"{args.pde}.txt"
        if not path.exists():
            raise ValueError(
                f"no snapshot at {path}; pass --snapshot or run "
                f"'pdegreedy generate --pde {args.pde}' first")
    else:
        raise ValueError("need --snapshot (or --pde with a data directory)")
    return load_snapshot(path), path


def _select_samples(snapshot, merged: dict):
    """The sampler's name, its settings as a record's keys, and the samples:
    a set ``size`` draws a random sample with ``seed``; ``t_div`` and ``eps``
    select a greedy one. Each sampler refuses a bad value before it draws."""
    t_div, eps, size = merged["t_div"], merged["eps"], merged["size"]
    if size is not None and t_div is None and eps is None:
        keys = {"size": size, "seed": merged["seed"]}
        return "random", keys, random_sample(snapshot, **keys)
    if size is None and t_div is not None and eps is not None:
        keys = {"t_div": t_div, "eps_thr": eps}
        return "greedy", keys, qdeim_sample(snapshot, QdeimConfig(**keys))
    raise ValueError(f"need size alone (random) or t_div and eps (greedy), got "
                     f"t_div={t_div}, eps={eps}, size={size}")


# ---------------------------------------------------------------------------
# subcommands

def _write_records(out_dir: Path, records, command: str, merged: dict, inputs,
                   started: float) -> int:
    """CSV and JSON records plus the manifest; exit status 1 if any run failed."""
    export_results(records, out_dir)
    _write_manifest(out_dir, f"{command}_manifest.json", command, merged, inputs, started)
    failures = sum(1 for r in records if r.error is not None)
    print(f"wrote {len(records)} records ({failures} failed)")
    return 1 if failures else 0


def cmd_generate(args) -> int:
    spec = _resolve_spec(args)
    merged = _merge_config(args, spec)
    started = time.time()
    snapshot = generate_synthetic(spec, **merged)
    out_dir = _out_dir(args)
    out_path = out_dir / f"{spec.name}.txt"
    save_snapshot(snapshot, out_path)
    _write_manifest(out_dir, f"{spec.name}_manifest.json", "generate", merged,
                    [args.spec_file], started)
    print(f"wrote {out_path} ({snapshot.n} x {snapshot.m})")
    return 0


def cmd_sample(args) -> int:
    started = time.time()
    merged = _merge_config(args)
    snapshot, src = _resolve_snapshot(args)
    sampler, _, samples = _select_samples(snapshot, merged)
    out_dir = _out_dir(args)
    out_path = out_dir / "samples.csv"
    samples.export_csv(out_path)
    _write_manifest(out_dir, "samples_manifest.json", "sample", merged, [src], started)
    print(f"wrote {out_path} ({len(samples)} samples, source={sampler})")
    return 0


def cmd_train(args) -> int:
    started = time.time()
    snapshot, inputs, spec, merged, cfg = _training_inputs(args)
    sampler, keys, samples = _select_samples(snapshot, merged)
    net = init_siren(cfg.widths, omega0=cfg.omega0, seed=cfg.seed)
    result = train(net, samples, spec, snapshot.scales, cfg)
    record = run_record(sampler, keys, samples, spec, result)

    out_dir = _out_dir(args)
    write_trajectory_csv(result, out_dir / "trajectory.csv")
    with open(out_dir / "summary.json", "w") as fh:
        json.dump({**record_json(record), "term_labels": list(spec.labels)}, fh,
                  indent=1, sort_keys=True, allow_nan=False)
        fh.write("\n")
    save_checkpoint(net, out_dir / "checkpoint.txt")
    _write_manifest(out_dir, "train_manifest.json", "train", merged, inputs, started)
    print(f"final p = {np.round(result.final_p, 6).tolist()}"
          f" after {result.iterations} iterations"
          + ("" if result.error is None else f" ({result.error})"))
    return 0 if result.outcome == "ok" else 1


def cmd_sweep(args) -> int:
    started = time.time()
    snapshot, inputs, spec, merged, train_cfg = _training_inputs(args)
    sweep_cfg = SweepConfig(
        t_divs=merged["t_divs"],
        eps_values=eps_grid(merged["eps_min"], merged["eps_max"], merged["eps_count"]))

    records = sweep_greedy(snapshot, spec, sweep_cfg, train_cfg, jobs=merged["jobs"])
    return _write_records(_out_dir(args), records, "sweep", merged, inputs, started)


def cmd_baseline(args) -> int:
    started = time.time()
    snapshot, inputs, spec, merged, train_cfg = _training_inputs(args)
    if merged["min_n"] is None or merged["max_n"] is None:
        raise ValueError("baseline needs --min-n and --max-n")
    records = sweep_random(
        snapshot, spec, merged["min_n"], merged["max_n"], train_cfg,
        repetitions=merged["reps"], base_seed=merged["base_seed"], jobs=merged["jobs"])
    return _write_records(_out_dir(args), records, "baseline", merged, inputs, started)


def cmd_cluster(args) -> int:
    started = time.time()
    results_path = Path(args.results)
    records = read_results(results_path)
    if not records:
        raise ValueError(f"no records in {results_path}")
    merged = _merge_config(args)
    summaries = {ci: cluster_records(records, ci, **merged)
                 for ci in range(len(records[0].rel_errors))}
    out_dir = _out_dir(args)
    payload = {str(ci): {"centroids": s.centroids.tolist(),
                         "inertia": s.inertia, "k": s.k, "n_init": s.n_init}
               for ci, s in summaries.items()}
    with open(out_dir / "centroids.json", "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    with open(out_dir / "centroids.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["coef_index", "n_samples", "rel_error"])
        for ci, s in summaries.items():
            for row in s.centroids:
                writer.writerow([ci, "%.17g" % row[0], "%.17g" % row[1]])
    _write_manifest(out_dir, "cluster_manifest.json", "cluster", merged,
                    [results_path], started)
    print(f"wrote {out_dir / 'centroids.csv'} and centroids.json "
          f"({sum(s.k for s in summaries.values())} centroids)")
    return 0


# ---------------------------------------------------------------------------
# Path flags: read by the commands that list them, never config keys.
FLAGS = {
    "--out-dir": dict(help="output directory (default $PDEGREEDY_OUT or .)"),
    "--config": dict(help="JSON config file; flags override it"),
    "--snapshot": dict(help="snapshot file (matrix-text or .csv)"),
    "--pde": dict(help="preset name: " + ", ".join(sorted(PRESETS))),
    "--data-dir": dict(help="where <pde>.txt is (default $PDEGREEDY_DATA or data)"),
    "--spec-file": dict(help="custom term library (JSON)"),
    "--results": dict(required=True, help="records.json from a sweep"),
}


class Command(NamedTuple):
    run: Callable[[argparse.Namespace], int]
    help: str
    flags: tuple[str, ...]  # keys of FLAGS besides --out-dir and --config, which all read
    keys: tuple[str, ...]   # keys of OPTIONS


_SNAPSHOT_FLAGS = ("--snapshot", "--pde", "--data-dir")
_RUN_FLAGS = (*_SNAPSHOT_FLAGS, "--spec-file")
_SAMPLER_KEYS = ("t_div", "eps", "size")

COMMANDS = {
    "generate": Command(cmd_generate, "integrate a preset PDE to a snapshot file",
                        ("--pde", "--spec-file"), ("n", "m", "domain", "init", "seed")),
    "sample": Command(cmd_sample, "select samples from a snapshot",
                      _SNAPSHOT_FLAGS, (*_SAMPLER_KEYS, "seed")),
    "train": Command(cmd_train, "recover coefficients from selected samples",
                     _RUN_FLAGS, (*_SAMPLER_KEYS, *TRAIN_KEYS)),
    "sweep": Command(cmd_sweep, "greedy (t_div, eps) sweep", _RUN_FLAGS,
                     ("t_divs", "eps_min", "eps_max", "eps_count", *TRAIN_KEYS, "jobs")),
    "baseline": Command(cmd_baseline, "size-matched random baseline", _RUN_FLAGS,
                        ("min_n", "max_n", "reps", "base_seed", *TRAIN_KEYS, "jobs")),
    "cluster": Command(cmd_cluster, "k-means summary of sweep records",
                       ("--results",), ("k", "n_init", "seed")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdegreedy",
        description="Greedy snapshot sampling and sinusoidal-network regression "
                    "for PDE coefficient recovery.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        sub = subs.add_parser(name, help=command.help)
        for flag in ("--out-dir", "--config", *command.flags):
            sub.add_argument(flag, **FLAGS[flag])
        for key in command.keys:
            opt = OPTIONS[key]
            sub.add_argument(opt.flag, dest=key, type=opt.type.parse, nargs=opt.type.nargs,
                             help=opt.help)
        sub.set_defaults(func=command.run)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
