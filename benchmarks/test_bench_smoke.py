"""Smoke test of the benchmark itself, at tiny sizes.

Runs every workload untraced and traced through ``run.main`` and checks
the result line against ``BENCHMARK.json`` and the table above it for the
unregistered metrics; then breaks one expected output and checks that
the failure is counted.
"""

import dataclasses
import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _load_run():
    spec = importlib.util.spec_from_file_location("pdegreedy_bench_run", HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_run = _load_run()
sys.path.insert(0, str(HERE))
bench_run._import_program()
import bench_workloads  # noqa: E402

# Three iterations cannot recover coefficients, so the criterion-2 bounds are
# lifted; every other expected value is what the sampler gives at these sizes.
TINY = dataclasses.replace(
    bench_workloads.FULL, kdv_shape=(64, 21), burgers_shape=(48, 21), eps_count=3,
    t_divs=(1, 2), op_iters=3, op_full_iters=3, op_bounds=(math.inf, math.inf),
    large_point=(2, 1e-6), large_iters=3, repetitions=1, protocol_records=17, k=3, n_init=2,
    widths=(2, 8, 8, 1), op_samples=221, large_samples=221, grid_total=1591,
    grid_digest="fda5caac7a4a4020a7a0f682700dc4038612505231e10b92e2dcd6c1b7e93f1f")


def _result(capsys, workload, trace, profile=TINY):
    assert bench_run.main(["--workload", workload, "--seed", "3", "--seconds", "0.01",
                           "--trace", str(trace)], profile=profile) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1]), lines


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(bench_workloads.WORKLOADS))
def test_every_metric_printed_with_unit(capsys, workload, trace):
    result, lines = _result(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    registered = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in registered}
    for metric in registered:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert math.isfinite(printed["value"])
    table = {line.split()[0] for line in lines[2:-1]}
    assert "failed_frac" in table
    if not trace:
        assert "iter_ms_p90" in table
        assert ("rel_err_max" in table) == (workload == "kdv-op-full")


def test_failed_check_is_counted(capsys):
    broken = dataclasses.replace(TINY, grid_digest="0" * 64)
    result, lines = _result(capsys, "sampling-kdv", 0, broken)
    assert not result["correct"]
    assert 1 <= result["failed"] < result["attempted"]
    failed_frac = next(line for line in lines if line.split()[0] == "failed_frac")
    assert float(failed_frac.split()[1]) == pytest.approx(result["failed"] / result["attempted"])
