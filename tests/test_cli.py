import argparse
import csv
import hashlib
import json

import numpy as np
import pytest

from pdegreedy import cli, experiments, sampling, training
from pdegreedy.cli import main
from pdegreedy.experiments import ExperimentRecord, export_results
from pdegreedy.siren import load_checkpoint
from pdegreedy.snapshots import load_snapshot, save_snapshot


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory, small_snapshot):
    path = tmp_path_factory.mktemp("data")
    save_snapshot(small_snapshot, path / "burgers.txt")
    return path


def run(*argv):
    return main([str(a) for a in argv])


class TestGenerate:
    def test_writes_snapshot_and_manifest(self, tmp_path):
        code = run("generate", "--pde", "burgers", "--n", "32", "--m", "9",
                   "--domain", "-8", "8", "1.0", "--out-dir", tmp_path)
        assert code == 0
        snap = load_snapshot(tmp_path / "burgers.txt")
        assert snap.u.shape == (32, 9)
        manifest = json.loads((tmp_path / "burgers_manifest.json").read_text())
        assert manifest["command"] == "generate"
        assert manifest["config"]["n"] == 32
        env = manifest["environment"]
        assert set(env["blas_threads"]) == {"numpy", "scipy", "svd"}
        assert env["blas_threads"]["numpy"] in (None, 1)  # pinned where found
        assert env["blas_threads"]["scipy"] in (None, 1)

    def test_unknown_pde_lists_presets(self, tmp_path, capsys):
        assert run("generate", "--pde", "wave", "--out-dir", tmp_path / "out") == 1
        assert capsys.readouterr().err.startswith(
            "error: unknown PDE spec 'wave'; presets: allen-cahn")
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_stiff_spec_fails_instead_of_hanging(self, tmp_path, capsys):
        # Kuramoto-Sivashinsky terms; u_xxxx exhausts the right-hand-side call budget
        path = tmp_path / "ks.json"
        path.write_text(json.dumps({"name": "ks-like", "terms": [[[0, 1], [1, 1]], [[2, 1]],
                                                                 [[4, 1]]],
                                    "true_p": [-1.0, -1.0, -1.0]}))
        assert run("generate", "--spec-file", path, "--out-dir", tmp_path / "out") == 1
        assert capsys.readouterr().err.startswith("error: integration failed near t = ")
        assert not (tmp_path / "out").exists()


class TestSample:
    def test_greedy_sample_csv(self, tmp_path, data_dir, capsys):
        code = run("sample", "--snapshot", data_dir / "burgers.txt",
                   "--t-div", "2", "--eps", "1e-3", "--out-dir", tmp_path)
        assert code == 0
        assert capsys.readouterr().out.endswith(" samples, source=greedy)\n")
        lines = (tmp_path / "samples.csv").read_text().splitlines()
        assert lines[0] == "window,t_index,x_index,t,x,u"
        assert len(lines) > 1
        assert (tmp_path / "samples_manifest.json").exists()

    def test_random_sample_size(self, tmp_path, data_dir, capsys):
        code = run("sample", "--snapshot", data_dir / "burgers.txt",
                   "--size", "100", "--seed", "7",
                   "--out-dir", tmp_path)
        assert code == 0
        assert capsys.readouterr().out.endswith(" (100 samples, source=random)\n")
        lines = (tmp_path / "samples.csv").read_text().splitlines()
        assert len(lines) == 101

    def test_manifest_records_the_seed_it_drew_with(self, tmp_path, data_dir):
        # without --seed the random sampler draws with the default seed, 0
        common = ("sample", "--snapshot", data_dir / "burgers.txt", "--size", "20")
        assert run(*common, "--out-dir", tmp_path / "default") == 0
        assert run(*common, "--seed", "0", "--out-dir", tmp_path / "zero") == 0
        manifest = json.loads((tmp_path / "default" / "samples_manifest.json").read_text())
        assert manifest["config"]["seed"] == 0
        assert (tmp_path / "default" / "samples.csv").read_bytes() == \
            (tmp_path / "zero" / "samples.csv").read_bytes()

    def test_missing_input_fails(self, tmp_path, capsys):
        assert run("sample", "--snapshot", tmp_path / "absent.txt",
                   "--t-div", "1", "--eps", "1e-3", "--out-dir", tmp_path / "out") == 1
        assert str(tmp_path / "absent.txt") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_pde_data_dir_lookup(self, tmp_path, data_dir):
        code = run("sample", "--pde", "burgers", "--data-dir", data_dir,
                   "--t-div", "1", "--eps", "1e-2", "--out-dir", tmp_path)
        assert code == 0

    def test_config_refused(self, tmp_path, data_dir, capsys):
        # sample reads the sampler keys and the seed from --config, and refuses a key
        # it would ignore
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"t_div": 2, "eps": 1e-3, "max_iter": 3}))
        assert run("sample", "--snapshot", data_dir / "burgers.txt", "--config", cfg_path,
                   "--out-dir", tmp_path / "out") == 1
        assert capsys.readouterr().err == "error: unknown config keys: max_iter\n"
        assert not (tmp_path / "out").exists()
        cfg_path.write_text(json.dumps({"t_div": 2, "eps": 1e-3}))
        assert run("sample", "--snapshot", data_dir / "burgers.txt", "--config", cfg_path,
                   "--out-dir", tmp_path / "config") == 0
        assert run("sample", "--snapshot", data_dir / "burgers.txt", "--t-div", "2",
                   "--eps", "1e-3", "--out-dir", tmp_path / "flags") == 0
        assert (tmp_path / "config" / "samples.csv").read_bytes() == \
            (tmp_path / "flags" / "samples.csv").read_bytes()

    def test_spec_file_refused(self, tmp_path, data_dir, capsys):
        # sample reads no spec, so a --spec-file would be ignored
        with pytest.raises(SystemExit) as err:
            run("sample", "--snapshot", data_dir / "burgers.txt", "--spec-file",
                tmp_path / "absent.json", "--t-div", "1", "--eps", "1e-2",
                "--out-dir", tmp_path / "out")
        assert err.value.code == 2
        assert "unrecognized arguments: --spec-file" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestTrain:
    def test_snapshot_saved_as_csv_trains_alike(self, tmp_path, data_dir, small_snapshot):
        # the suffix picks the format on save and on load
        save_snapshot(small_snapshot, tmp_path / "snap.csv")
        for snap in (tmp_path / "snap.csv", data_dir / "burgers.txt"):
            assert run("train", "--snapshot", snap, "--pde", "burgers", "--t-div", "1",
                       "--eps", "1e-2", "--max-iter", "2", "--widths", "2,6,1",
                       "--out-dir", tmp_path / snap.suffix[1:]) == 0
        assert (tmp_path / "csv" / "trajectory.csv").read_bytes() == \
            (tmp_path / "txt" / "trajectory.csv").read_bytes()

    def test_single_iteration_outputs(self, tmp_path, data_dir):
        code = run("train", "--snapshot", data_dir / "burgers.txt",
                   "--pde", "burgers", "--t-div", "2", "--eps", "1e-3",
                   "--max-iter", "1", "--widths", "2,8,8,1",
                   "--out-dir", tmp_path)
        assert code == 0
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 2  # header + one iteration
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["iterations"] == 1
        assert len(summary["final_p"]) == 2
        assert (summary["outcome"], summary["error"]) == ("ok", None)
        assert (summary["sampler"], summary["t_div"], summary["eps_thr"]) == ("greedy", 2, 1e-3)
        assert summary["term_labels"] == ["u*u_x", "u_xx"]
        net = load_checkpoint(tmp_path / "checkpoint.txt")
        assert net.widths == (2, 8, 8, 1)

    def test_nonfinite_gradient_reported(self, tmp_path, data_dir, capsys, monkeypatch):
        # the run ends at the bad gradient and writes what it has: one completed row
        def nan_backward(net, cache, bar):
            return np.full(net.params.size, np.nan)

        monkeypatch.setattr(training, "jet_backward", nan_backward)
        code = run("train", "--snapshot", data_dir / "burgers.txt",
                   "--pde", "burgers", "--t-div", "2", "--eps", "1e-3",
                   "--max-iter", "3", "--widths", "2,8,1", "--out-dir", tmp_path)
        assert code == 1
        assert capsys.readouterr().err == ""
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 2  # header + the iteration before the bad step
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert (summary["outcome"], summary["iterations"]) == ("nonfinite_grad", 1)
        assert summary["error"] == "FloatingPointError: non-finite gradient at adam step 1"
        assert summary["final_p"] == [float(v) for v in lines[1].split(",")[5:]]
        assert load_checkpoint(tmp_path / "checkpoint.txt").widths == (2, 8, 1)
        assert (tmp_path / "train_manifest.json").exists()

    def test_invalid_spec_name(self, tmp_path, data_dir, capsys):
        assert run("train", "--snapshot", data_dir / "burgers.txt",
                   "--pde", "nope", "--t-div", "1", "--eps", "1e-2",
                   "--out-dir", tmp_path / "out") == 1
        assert "presets" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_file_overridden_by_flags(self, tmp_path, data_dir):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"max_iter": 3, "widths": "2,8,1"}))
        code = run("train", "--snapshot", data_dir / "burgers.txt",
                   "--pde", "burgers", "--t-div", "1", "--eps", "1e-2",
                   "--config", cfg_path, "--max-iter", "2",
                   "--out-dir", tmp_path)
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["iterations"] == 2  # flag beats config file
        manifest = json.loads((tmp_path / "train_manifest.json").read_text())
        assert manifest["config"]["widths"] == [2, 8, 1]  # config beats default

    def test_config_widths_as_json_list(self, tmp_path, data_dir):
        # manifests record widths as a list; --config must read that form back
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"widths": [2, 8, 1]}))
        common = ("train", "--snapshot", data_dir / "burgers.txt", "--pde", "burgers",
                  "--t-div", "2", "--eps", "1e-3", "--max-iter", "3")
        assert run(*common, "--config", cfg_path, "--out-dir", tmp_path / "list") == 0
        assert run(*common, "--widths", "2,8,1", "--out-dir", tmp_path / "flag") == 0
        assert (tmp_path / "list" / "trajectory.csv").read_bytes() == \
            (tmp_path / "flag" / "trajectory.csv").read_bytes()

    @pytest.mark.parametrize("spec, fault", [
        ({"name": "bad"}, '"terms"'),
        ({"terms": [[[0]]]}, "term 0"),
        ({"terms": [[[0, 1]], [[1, 1]]], "true_p": "ab"}, '"true_p" must be'),
        ({"terms": [[[0, 1]], [[1, 1]]], "true_p": [True, 1]}, '"true_p" must be'),
    ], ids=["no-terms", "short-factor", "true_p-string", "true_p-bool"])
    def test_malformed_spec_file_reported(self, tmp_path, data_dir, capsys, spec, fault):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert run("train", "--snapshot", data_dir / "burgers.txt",
                   "--spec-file", path, "--t-div", "1", "--eps", "1e-2",
                   "--max-iter", "1", "--out-dir", tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and fault in err
        assert not (tmp_path / "trajectory.csv").exists()

    @pytest.mark.parametrize("command, config", [
        ("train", {"max_iter": "3"}),
        ("train", {"learning_rate": [1e-5]}),
        ("generate", {"n": "32"}),
        ("generate", {"domain": "-8,8,1"}),
    ], ids=["train-str-int", "train-list-float", "generate-str-int", "generate-str-domain"])
    def test_config_value_of_wrong_type_reported(self, tmp_path, data_dir, capsys,
                                                 command, config):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        if command == "train":
            argv = ("train", "--snapshot", data_dir / "burgers.txt", "--pde", "burgers",
                    "--t-div", "1", "--eps", "1e-2")
        else:
            argv = ("generate", "--pde", "burgers", "--m", "9")
        assert run(*argv, "--config", cfg_path, "--out-dir", tmp_path / "out") == 1
        key = next(iter(config))
        assert capsys.readouterr().err.startswith(f"error: {key}: expected ")
        assert not (tmp_path / "out").exists()  # refused before any output

    @pytest.mark.parametrize("command, flags, message", [
        ("train", ("--step-size-up", "0"), "step_size_up must be >= 1"),
        ("sweep", ("--step-size-up", "0"), "step_size_up must be >= 1"),
        ("train", ("--omega0", "0"), "omega0 must be finite and > 0"),
        ("train", ("--omega0", "nan"), "omega0 must be finite and > 0"),
        ("train", ("--omega0", "-1"), "omega0 must be finite and > 0"),
        ("train", ("--omega0", "inf"), "omega0 must be finite and > 0"),
        ("train", ("--widths", "2,0,1"), "every width must be >= 1"),
        ("generate", ("--n", "0"), "need at least 2 grid points"),
        ("generate", ("--n", "1"), "need at least 2 grid points"),
    ], ids=["train-step-size-up", "sweep-step-size-up", "omega0-zero", "omega0-nan",
            "omega0-negative", "omega0-inf", "width-zero", "generate-n0", "generate-n1"])
    def test_malformed_number_reported(self, tmp_path, data_dir, capsys,
                                       command, flags, message):
        if command == "generate":
            argv = ("generate", "--pde", "burgers", "--m", "9")
        else:
            argv = (command, "--snapshot", data_dir / "burgers.txt", "--pde", "burgers",
                    "--max-iter", "1", "--widths", "2,6,1")
            if command == "train":
                argv += ("--t-div", "1", "--eps", "1e-2")
        assert run(*argv, *flags, "--out-dir", tmp_path / "out") == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not (tmp_path / "out").exists()  # refused before any output

    def test_config_int_accepted_for_float(self, tmp_path, data_dir):
        # an int in --config runs and is recorded as the float the flag gives
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"omega0": 30, "mu2": 1}))
        common = ("train", "--snapshot", data_dir / "burgers.txt", "--pde", "burgers",
                  "--t-div", "1", "--eps", "1e-2", "--max-iter", "1", "--widths", "2,6,1")
        assert run(*common, "--config", cfg_path, "--out-dir", tmp_path / "config") == 0
        assert run(*common, "--omega0", "30", "--mu2", "1", "--out-dir", tmp_path / "flag") == 0
        configs = [json.loads((tmp_path / route / "train_manifest.json").read_text())["config"]
                   for route in ("config", "flag")]
        assert json.dumps(configs[0]) == json.dumps(configs[1])  # 30.0 both, not 30

    def test_config_seed_reaches_random_sampler(self, tmp_path, data_dir):
        # the merged seed draws the samples as well as the network
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 5}))
        common = ("train", "--snapshot", data_dir / "burgers.txt", "--pde", "burgers",
                  "--size", "10", "--max-iter", "3", "--widths", "2,8,1")
        assert run(*common, "--config", cfg_path, "--out-dir", tmp_path / "config") == 0
        assert run(*common, "--seed", "5", "--out-dir", tmp_path / "flag") == 0
        for name in ("trajectory.csv", "checkpoint.txt"):
            assert (tmp_path / "config" / name).read_bytes() == \
                (tmp_path / "flag" / name).read_bytes()

    def test_config_not_an_object_reported(self, tmp_path, data_dir, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps([1, 2]))
        assert run("train", "--snapshot", data_dir / "burgers.txt", "--pde", "burgers",
                   "--t-div", "1", "--eps", "1e-2", "--config", cfg_path,
                   "--out-dir", tmp_path / "out") == 1
        assert capsys.readouterr().err == \
            f"error: {cfg_path}: expected a JSON object of config keys\n"
        assert not (tmp_path / "out").exists()

    def test_unknown_config_key_rejected(self, tmp_path, data_dir, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"bogus": 1}))
        assert run("train", "--snapshot", data_dir / "burgers.txt",
                   "--pde", "burgers", "--t-div", "1", "--eps", "1e-2",
                   "--config", cfg_path, "--out-dir", tmp_path / "out") == 1
        assert capsys.readouterr().err == "error: unknown config keys: bogus\n"
        assert not (tmp_path / "out").exists()


def _records(count):
    return [ExperimentRecord(sampler="random", pde="burgers", n_samples=10 + i,
                             rel_errors=(0.1 * i, 0.2), final_p=(-1.0, 0.1),
                             wall_time_s=0.0, size=10 + i, seed=i)
            for i in range(count)]


class TestSweepBaselineCluster:
    def test_sweep_default_grid(self, tmp_path, data_dir):
        code = run("sweep", "--snapshot", data_dir / "burgers.txt",
                   "--pde", "burgers", "--max-iter", "1", "--widths", "2,6,1",
                   "--out-dir", tmp_path)
        assert code == 0
        records = json.loads((tmp_path / "records.json").read_text())
        assert len(records) == 80
        assert (tmp_path / "records.csv").exists()

    def test_baseline_and_cluster_pipeline(self, tmp_path, data_dir):
        code = run("baseline", "--snapshot", data_dir / "burgers.txt",
                   "--pde", "burgers", "--min-n", "10", "--max-n", "40",
                   "--reps", "5", "--max-iter", "1", "--widths", "2,6,1",
                   "--out-dir", tmp_path)
        assert code == 0
        records = json.loads((tmp_path / "records.json").read_text())
        assert len(records) == 55

        code = run("cluster", "--results", tmp_path / "records.json",
                   "--k", "5", "--n-init", "10", "--out-dir", tmp_path)
        assert code == 0
        lines = (tmp_path / "centroids.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 5  # every coefficient

    def test_sweep_and_baseline_honour_train_config(self, tmp_path, data_dir):
        # train settings in --config: each record must equal the matching train run
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "mu1": 0.5, "mu2": 0.25, "step_size_up": 5, "max_iter": 2, "widths": "2,6,1",
            "omega0": 20.0, "seed": 3, "learning_rate": 1e-3}))
        snap = data_dir / "burgers.txt"
        common = ("--snapshot", snap, "--pde", "burgers", "--config", cfg_path)
        assert run("sweep", *common, "--t-divs", "2", "--eps-min", "1e-3",
                   "--eps-max", "1e-2", "--eps-count", "2",
                   "--out-dir", tmp_path / "sweep") == 0
        assert run("baseline", *common, "--min-n", "10", "--max-n", "12", "--reps", "1",
                   "--base-seed", "3", "--out-dir", tmp_path / "baseline") == 0
        greedy = json.loads((tmp_path / "sweep" / "records.json").read_text())
        random = json.loads((tmp_path / "baseline" / "records.json").read_text())
        assert len(greedy) == 2 and len(random) == 3
        manifest = json.loads((tmp_path / "sweep" / "sweep_manifest.json").read_text())
        assert manifest["config"]["mu2"] == 0.25

        assert run("train", *common, "--t-div", "2", "--eps", repr(greedy[0]["eps_thr"]),
                   "--out-dir", tmp_path / "g") == 0
        # the config's seed draws train's random samples; the baseline's first run draws
        # with --base-seed
        assert run("train", *common, "--size", "10",
                   "--out-dir", tmp_path / "r") == 0
        for record, out in ((greedy[0], "g"), (random[0], "r")):
            summary = json.loads((tmp_path / out / "summary.json").read_text())
            assert np.array(record["final_p"]).tobytes() == \
                np.array(summary["final_p"]).tobytes()

    def test_sweep_rejects_bad_loss_weight_before_training(self, tmp_path, data_dir,
                                                           capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"mu2": 2.0, "max_iter": 1, "widths": "2,6,1"}))
        out = tmp_path / "sweep"
        assert run("sweep", "--snapshot", data_dir / "burgers.txt", "--pde", "burgers",
                   "--config", cfg_path, "--t-divs", "2", "--eps-min", "1e-3",
                   "--eps-max", "1e-2", "--eps-count", "2", "--out-dir", out) == 1
        assert "mu2 must lie in (0, 1]" in capsys.readouterr().err
        assert not (out / "records.json").exists()
        assert not (out / "records.csv").exists()

    @pytest.mark.parametrize("command", ["sweep", "baseline"])
    @pytest.mark.parametrize("flags, message", [
        (("--omega0", "0"), "omega0 must be finite and > 0"),
        (("--widths", "2,0,1"), "every width must be >= 1"),
    ], ids=["omega0-zero", "width-zero"])
    def test_bad_network_refused_before_sampling(self, tmp_path, data_dir, capsys,
                                                 monkeypatch, command, flags, message):
        draws = []
        for sampler in ("qdeim_sample", "random_sample"):
            monkeypatch.setattr(experiments, sampler, lambda *a, **k: draws.append(a))
        argv = [command, "--snapshot", data_dir / "burgers.txt", "--pde", "burgers",
                "--max-iter", "1", *flags, "--out-dir", tmp_path / "out"]
        if command == "baseline":
            argv += ["--min-n", "5", "--max-n", "16", "--reps", "1"]
        assert run(*argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert draws == []
        assert not (tmp_path / "out").exists()

    def test_cluster_json_format(self, tmp_path, data_dir):
        run("baseline", "--snapshot", data_dir / "burgers.txt",
            "--pde", "burgers", "--min-n", "5", "--max-n", "16", "--reps", "1",
            "--max-iter", "1", "--widths", "2,6,1", "--out-dir", tmp_path)
        code = run("cluster", "--results", tmp_path / "records.json",
                   "--k", "3", "--n-init", "5", "--out-dir", tmp_path)
        assert code == 0
        payload = json.loads((tmp_path / "centroids.json").read_text())
        assert len(payload["0"]["centroids"]) == 3
        rows = (tmp_path / "centroids.csv").read_text().splitlines()
        assert len(rows) == 1 + sum(len(c["centroids"]) for c in payload.values())

    def test_cluster_reads_exported_records(self, tmp_path):
        export_results(_records(4), tmp_path / "records.json")
        assert run("cluster", "--results", tmp_path / "records.json", "--k", "2",
                   "--n-init", "2", "--out-dir", tmp_path) == 0
        assert len((tmp_path / "centroids.csv").read_text().splitlines()) == 1 + 2 * 2

    # an int payload is that many exported records; k is 2 where not given
    @pytest.mark.parametrize("payload, k", [
        (0, None), (4, 5), (4, -1),
        pytest.param({"final_p": [-1.0, 0.1], "iterations": 1}, None, id="train-summary"),
        pytest.param([{"sampler": "greedy"}], None, id="record-without-errors")])
    def test_cluster_rejects_bad_input(self, tmp_path, capsys, payload, k):
        if isinstance(payload, int):
            export_results(_records(payload), tmp_path / "records.json")
        else:
            (tmp_path / "records.json").write_text(json.dumps(payload))
        argv = ["cluster", "--results", tmp_path / "records.json", "--k", 2 if k is None else k,
                "--n-init", "2", "--out-dir", tmp_path]
        assert run(*argv) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "centroids.csv").exists()


# The flags that are not config keys: paths only.
PATH_FLAGS = {"--out-dir", "--config", "--snapshot", "--pde", "--data-dir", "--spec-file",
              "--results"}
SAMPLER_KEYS = {"t_div", "eps", "size"}
# One --config value per declared type that the type must refuse.
WRONG_TYPE = {"int": "3", "float": "1e-3", "str": 3, "int list": [2.5],
              "3 floats": "-8,8,1", "int or null": 1.5, "float or null": "1e-3"}


def _wrong_type_cases():
    for command, entry in cli.COMMANDS.items():
        for key in entry.keys:
            value = WRONG_TYPE[cli.OPTIONS[key].type.name]
            yield pytest.param(command, key, value, id=f"{command}-{key}")
    yield pytest.param("generate", "domain", [1, 2], id="generate-domain-two-values")
    yield pytest.param("train", "omega0", 10 ** 400, id="train-omega0-int-beyond-float")


class TestOptionTable:
    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_registered_flags_are_declared(self, command):
        parser = cli.build_parser()
        [subs] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        registered = {a.option_strings[-1]: a.dest
                      for a in subs.choices[command]._actions if a.dest != "help"}
        keys = cli.COMMANDS[command].keys
        for key in keys:
            assert registered[cli.OPTIONS[key].flag] == key
        others = set(registered) - {cli.OPTIONS[key].flag for key in keys}
        assert others <= PATH_FLAGS
        assert {"--out-dir", "--config"} <= others
        sampler = SAMPLER_KEYS if command in ("train", "sample") else set()
        assert set(keys) & SAMPLER_KEYS == sampler

    @pytest.mark.parametrize("command, key, value", _wrong_type_cases())
    def test_config_value_of_wrong_type_refused(self, tmp_path, data_dir, capsys,
                                                command, key, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({key: value}))
        if command == "generate":
            argv = ("--pde", "burgers")
        elif command == "cluster":
            export_results(_records(4), tmp_path / "records.json")
            argv = ("--results", tmp_path / "records.json")
        else:
            argv = ("--snapshot", data_dir / "burgers.txt", "--pde", "burgers")
            if command == "train":
                argv += ("--t-div", "1", "--eps", "1e-2")
        assert run(command, *argv, "--config", cfg_path, "--out-dir", tmp_path / "out") == 1
        assert capsys.readouterr().err.startswith(f"error: {key}: expected ")
        assert not (tmp_path / "out").exists()


def _outputs(out_dir):
    """Every output but the manifest, by name; ``wall_time_s`` blanked."""
    outputs = {}
    for path in sorted(out_dir.iterdir()):
        if path.name.endswith("_manifest.json"):
            continue
        if path.suffix == ".json":
            data = json.loads(path.read_text())
            for item in data if isinstance(data, list) else [data]:
                item.pop("wall_time_s", None)
            outputs[path.name] = data
        elif path.name == "records.csv":
            rows = list(csv.DictReader(path.read_text().splitlines()))
            outputs[path.name] = [{**row, "wall_time_s": None} for row in rows]
        else:
            outputs[path.name] = path.read_bytes()
    return outputs


class TestReplay:
    # (command, path flags, config flags); each run writes a manifest whose config replays it
    @pytest.mark.parametrize("command, paths, flags", [
        ("generate", ("--pde", "burgers"), ("--n", "32", "--m", "9", "--domain", "-8", "8", "1")),
        ("sample", ("--snapshot", "SNAPSHOT"), ("--size", "50", "--seed", "7")),
        ("train", ("--snapshot", "SNAPSHOT", "--pde", "burgers"),
         ("--t-div", "2", "--eps", "1e-3", "--max-iter", "2", "--widths", "2,6,1")),
        ("sweep", ("--snapshot", "SNAPSHOT", "--pde", "burgers"),
         ("--t-divs", "2", "--eps-min", "1e-3", "--eps-max", "1e-2", "--eps-count", "2",
          "--max-iter", "1", "--widths", "2,6,1")),
        ("baseline", ("--snapshot", "SNAPSHOT", "--pde", "burgers"),
         ("--min-n", "10", "--max-n", "12", "--reps", "1", "--base-seed", "3",
          "--max-iter", "1", "--widths", "2,6,1")),
        ("cluster", ("--results", "RECORDS"), ("--k", "2", "--n-init", "3", "--seed", "4")),
    ], ids=["generate", "sample", "train", "sweep", "baseline", "cluster"])
    def test_manifest_config_replays_the_run(self, tmp_path, data_dir, command, paths, flags):
        export_results(_records(4), tmp_path / "records.json")
        paths = [{"SNAPSHOT": data_dir / "burgers.txt",
                  "RECORDS": tmp_path / "records.json"}.get(p, p) for p in paths]
        assert run(command, *paths, *flags, "--out-dir", tmp_path / "first") == 0
        [manifest] = (tmp_path / "first").glob("*_manifest.json")
        config = json.loads(manifest.read_text())["config"]
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        assert run(command, *paths, "--config", tmp_path / "cfg.json",
                   "--out-dir", tmp_path / "replay") == 0
        replayed = json.loads((tmp_path / "replay" / manifest.name).read_text())["config"]
        assert replayed == config
        assert _outputs(tmp_path / "replay") == _outputs(tmp_path / "first")

    @pytest.mark.parametrize("command, flags", [
        ("generate", ("--n", "32", "--m", "9", "--domain", "-8", "8", "1")),
        ("train", ("--snapshot", "SNAPSHOT", "--t-div", "2", "--eps", "1e-3")),
        ("sweep", ("--snapshot", "SNAPSHOT", "--t-divs", "2", "--eps-count", "2")),
        ("baseline", ("--snapshot", "SNAPSHOT", "--min-n", "10", "--max-n", "12",
                      "--reps", "1")),
    ], ids=["generate", "train", "sweep", "baseline"])
    def test_manifest_records_the_spec_file(self, tmp_path, data_dir, command, flags):
        spec = tmp_path / "toy.json"
        spec.write_text(json.dumps({"name": "toy", "terms": [[[0, 1], [1, 1]], [[2, 1]]],
                                    "true_p": [-1.0, 0.1]}))
        flags = [data_dir / "burgers.txt" if f == "SNAPSHOT" else f for f in flags]
        if command != "generate":
            flags += ["--max-iter", "1", "--widths", "2,6,1"]
        assert run(command, "--spec-file", spec, *flags, "--out-dir", tmp_path / "out") == 0
        [manifest] = (tmp_path / "out").glob("*_manifest.json")
        inputs = json.loads(manifest.read_text())["inputs"]
        assert inputs[str(spec)] == hashlib.sha256(spec.read_bytes()).hexdigest()
        snapshot = [] if command == "generate" else [str(data_dir / "burgers.txt")]
        assert sorted(inputs) == sorted([str(spec), *snapshot])


class TestOneExit:
    # Every refused input ends alike: main returns 1, stderr is one "error: " line,
    # and no output directory is made. Upper-case tokens stand for paths.
    @pytest.mark.parametrize("argv, message", [
        (("generate", "--pde", "wave"), "error: unknown PDE spec 'wave'; presets: allen-cahn"),
        (("train", "--snapshot", "SNAPSHOT", "--pde", "wave", "--t-div", "1", "--eps", "1e-2"),
         "error: unknown PDE spec 'wave'; presets: allen-cahn"),
        (("sample", "--snapshot", "SNAPSHOT", "--config", "UNKNOWN_KEY"),
         "error: unknown config keys: bogus"),
        (("train", "--snapshot", "SNAPSHOT", "--pde", "burgers", "--config", "UNKNOWN_KEY"),
         "error: unknown config keys: bogus"),
        (("train", "--snapshot", "SNAPSHOT", "--pde", "burgers", "--config", "TRUNCATED"),
         "error: TRUNCATED: Expecting ',' delimiter"),
        (("train", "--snapshot", "SNAPSHOT", "--t-div", "1", "--eps", "1e-2"),
         "error: need --pde or --spec-file"),
        (("train", "--snapshot", "SNAPSHOT", "--pde", "kdv", "--t-div", "1", "--eps", "0.5"),
         "error: 1 samples for 2 terms: need at least one sample per term"),
        (("sample", "--size", "10"), "error: need --snapshot"),
        (("sample", "--pde", "burgers", "--data-dir", "EMPTY", "--size", "10"),
         "error: no snapshot at EMPTY/burgers.txt; pass --snapshot or run "
         "'pdegreedy generate --pde burgers' first"),
        (("sample", "--snapshot", "ABSENT", "--size", "10"),
         "error: [Errno 2] No such file or directory: 'ABSENT'"),
        (("baseline", "--snapshot", "SNAPSHOT", "--pde", "burgers", "--max-n", "20"),
         "error: baseline needs --min-n and --max-n"),
        (("cluster", "--results", "ABSENT"),
         "error: [Errno 2] No such file or directory: 'ABSENT'"),
        (("generate", "--spec-file", "STRING_TRUE_P"),
         "error: STRING_TRUE_P: \"true_p\" must be null or a list of finite numbers, got 'a'"),
        (("generate", "--pde", "burgers", "--config", "INFINITE_DOMAIN"),
         "error: bad domain (0.0, 1.0, inf)"),
        (("generate", "--spec-file", "ESCAPING_NAME", "--n", "8", "--m", "4"),
         "error: ESCAPING_NAME: \"name\" must be a plain file name, got '../escaped'"),
        (("sweep", "--snapshot", "SNAPSHOT", "--pde", "burgers", "--t-divs", "1",
          "--eps-count", "2", "--max-iter", "1", "--jobs", "0"),
         "error: jobs must be >= 1, got 0"),
        (("baseline", "--snapshot", "SNAPSHOT", "--pde", "burgers", "--min-n", "10",
          "--max-n", "20", "--reps", "1", "--max-iter", "1", "--jobs", "-1"),
         "error: jobs must be >= 1, got -1"),
        (("sweep", "--snapshot", "ZERO", "--pde", "burgers", "--eps-count", "2",
          "--max-iter", "1"), "error: t_div 1: columns 0:12 are all zero"),
    ], ids=["generate-unknown-pde", "train-unknown-pde", "sample-unknown-key",
            "train-unknown-key", "malformed-config", "train-no-spec", "train-undersized-set",
            "sample-no-snapshot",
            "empty-data-dir", "missing-snapshot", "baseline-no-min-n", "cluster-no-results",
            "generate-string-true_p", "generate-infinite-domain", "generate-escaping-name",
            "sweep-jobs-0", "baseline-jobs-minus-1", "sweep-zero-snapshot"])
    def test_refused_input(self, tmp_path, data_dir, capsys, argv, message):
        paths = {"SNAPSHOT": data_dir / "burgers.txt", "UNKNOWN_KEY": tmp_path / "unknown.json",
                 "TRUNCATED": tmp_path / "truncated.json", "EMPTY": tmp_path / "empty",
                 "ABSENT": tmp_path / "absent.json", "STRING_TRUE_P": tmp_path / "spec.json",
                 "INFINITE_DOMAIN": tmp_path / "domain.json", "ESCAPING_NAME": tmp_path / "name.json",
                 "ZERO": tmp_path / "zero" / "burgers.txt"}
        paths["UNKNOWN_KEY"].write_text(json.dumps({"bogus": 1}))
        paths["TRUNCATED"].write_text('{"max_iter": 3\n')
        paths["EMPTY"].mkdir()
        paths["STRING_TRUE_P"].write_text(json.dumps({"terms": [[[0, 1]]], "true_p": "a"}))
        paths["INFINITE_DOMAIN"].write_text('{"domain": [0, 1, Infinity]}')
        paths["ESCAPING_NAME"].write_text(
            json.dumps({"name": "../escaped", "terms": [[[0, 1]]], "true_p": [0.1]}))
        if "ZERO" in argv:
            assert run("generate", "--pde", "burgers", "--init", "zero", "--n", "32",
                       "--m", "12", "--out-dir", paths["ZERO"].parent) == 0
            capsys.readouterr()
        for token, path in paths.items():
            message = message.replace(token, str(path))
        before = sorted(tmp_path.rglob("*"))
        assert run(*[paths.get(a, a) for a in argv], "--out-dir", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err.startswith(message) and err.endswith("\n") and err.count("\n") == 1
        assert sorted(tmp_path.rglob("*")) == before  # nothing written, in --out-dir or beside it


class TestRefusedBeforeWork:
    # the small snapshot is 48 x 25, so n*m = 1200
    @pytest.mark.parametrize("command, flags, message", [
        ("sweep", ("--t-divs", "0"), "t_div 0 out of range [1, 25]"),
        ("sweep", ("--t-divs", "2,26"), "t_div 26 out of range [1, 25]"),
        ("sweep", ("--eps-max", "2"), "eps_thr must lie in (0, 1)"),
        ("sweep", ("--eps-count", "1"), "need count >= 2"),
        ("baseline", ("--min-n", "10", "--max-n", "1201"), "size 1201 out of range [1, 1200]"),
        ("baseline", ("--min-n", "0", "--max-n", "20"), "size 0 out of range [1, 1200]"),
        ("sample", (), "need size alone (random) or t_div and eps (greedy)"),
        ("sample", ("--t-div", "2"), "need size alone"),
        ("sample", ("--eps", "1e-3", "--size", "10"), "need size alone"),
        ("sample", ("--size", "0"), "size 0 out of range [1, 1200]"),
        ("sample", ("--size", "1201"), "size 1201 out of range [1, 1200]"),
        ("sample", ("--t-div", "26", "--eps", "1e-3"), "t_div 26 out of range [1, 25]"),
        ("train", ("--t-div", "2", "--eps", "1e-3", "--size", "10"), "need size alone"),
        ("train", ("--t-div", "0", "--eps", "1e-3"), "t_div must be >= 1"),
        ("train", ("--t-div", "2", "--eps", "1.5"), "eps_thr must lie in (0, 1)"),
    ], ids=["sweep-t_div-0", "sweep-t_div-above-m", "sweep-eps-max-2", "sweep-eps-count-1",
            "baseline-max-n-above-nm", "baseline-min-n-0", "sample-no-sampler",
            "sample-t_div-alone", "sample-eps-and-size", "sample-size-0",
            "sample-size-above-nm", "sample-t_div-above-m", "train-both-samplers",
            "train-t_div-0", "train-eps-1.5"])
    def test_malformed_sampler_input(self, tmp_path, data_dir, capsys, monkeypatch,
                                     command, flags, message):
        svds, sets = [], []
        monkeypatch.setattr(sampling, "svd", lambda a: svds.append(a))
        real_sample_set = sampling.SampleSet
        monkeypatch.setattr(sampling, "SampleSet",
                            lambda *a, **k: sets.append(1) or real_sample_set(*a, **k))
        argv = [command, "--snapshot", data_dir / "burgers.txt", *flags,
                "--out-dir", tmp_path / "out"]
        if command != "sample":
            argv += ["--pde", "burgers", "--max-iter", "1", "--widths", "2,6,1"]
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert svds == []
        if command != "baseline":  # a baseline draws its sizes in order up to the bad one
            assert sets == []
        assert not (tmp_path / "out").exists()


class TestDeterminism:
    def test_repeat_run_byte_identical(self, tmp_path, data_dir):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            code = run("train", "--snapshot", data_dir / "burgers.txt",
                       "--pde", "burgers", "--t-div", "2", "--eps", "1e-3",
                       "--max-iter", "3", "--widths", "2,8,1", "--seed", "5",
                       "--out-dir", d)
            assert code == 0
        assert (dirs[0] / "trajectory.csv").read_bytes() == \
            (dirs[1] / "trajectory.csv").read_bytes()
        assert (dirs[0] / "checkpoint.txt").read_bytes() == \
            (dirs[1] / "checkpoint.txt").read_bytes()
        # summary matches except the timing field
        summaries = []
        for d in dirs:
            data = json.loads((d / "summary.json").read_text())
            data.pop("wall_time_s")
            summaries.append(data)
        assert summaries[0] == summaries[1]

    def test_sample_repeat_identical(self, tmp_path, data_dir):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            run("sample", "--snapshot", data_dir / "burgers.txt",
                "--size", "50", "--seed", "3", "--out-dir", d)
        assert (dirs[0] / "samples.csv").read_bytes() == \
            (dirs[1] / "samples.csv").read_bytes()
