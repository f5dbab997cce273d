import json

import pytest

from pdegreedy import experiments
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
        with pytest.raises(SystemExit) as err:
            run("generate", "--pde", "wave", "--out-dir", tmp_path)
        assert "allen-cahn" in str(err.value)

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
    def test_greedy_sample_csv(self, tmp_path, data_dir):
        code = run("sample", "--snapshot", data_dir / "burgers.txt",
                   "--t-div", "2", "--eps", "1e-3", "--out-dir", tmp_path)
        assert code == 0
        lines = (tmp_path / "samples.csv").read_text().splitlines()
        assert lines[0] == "window,t_index,x_index,t,x,u"
        assert len(lines) > 1
        assert (tmp_path / "samples_manifest.json").exists()

    def test_random_sample_size(self, tmp_path, data_dir):
        code = run("sample", "--snapshot", data_dir / "burgers.txt",
                   "--random", "--size", "100", "--seed", "7",
                   "--out-dir", tmp_path)
        assert code == 0
        lines = (tmp_path / "samples.csv").read_text().splitlines()
        assert len(lines) == 101

    def test_missing_input_fails(self, tmp_path):
        with pytest.raises(SystemExit):
            run("sample", "--snapshot", tmp_path / "absent.txt",
                "--t-div", "1", "--eps", "1e-3", "--out-dir", tmp_path)

    def test_pde_data_dir_lookup(self, tmp_path, data_dir):
        code = run("sample", "--pde", "burgers", "--data-dir", data_dir,
                   "--t-div", "1", "--eps", "1e-2", "--out-dir", tmp_path)
        assert code == 0


class TestTrain:
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
        net = load_checkpoint(tmp_path / "checkpoint.txt")
        assert net.widths == (2, 8, 8, 1)

    def test_invalid_spec_name(self, tmp_path, data_dir):
        with pytest.raises(SystemExit) as err:
            run("train", "--snapshot", data_dir / "burgers.txt",
                "--pde", "nope", "--t-div", "1", "--eps", "1e-2",
                "--out-dir", tmp_path)
        assert "presets" in str(err.value)

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
    ], ids=["no-terms", "short-factor"])
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
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"omega0": 30, "mu2": 1}))
        assert run("train", "--snapshot", data_dir / "burgers.txt", "--pde", "burgers",
                   "--t-div", "1", "--eps", "1e-2", "--max-iter", "1", "--widths", "2,6,1",
                   "--config", cfg_path, "--out-dir", tmp_path) == 0

    def test_unknown_config_key_rejected(self, tmp_path, data_dir):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"bogus": 1}))
        with pytest.raises(SystemExit):
            run("train", "--snapshot", data_dir / "burgers.txt",
                "--pde", "burgers", "--t-div", "1", "--eps", "1e-2",
                "--config", cfg_path, "--out-dir", tmp_path)


class TestSweepBaselineCluster:
    def test_sweep_default_grid(self, tmp_path, data_dir):
        code = run("sweep", "--snapshot", data_dir / "burgers.txt",
                   "--pde", "burgers", "--max-iter", "1", "--widths", "2,6,1",
                   "--out-dir", tmp_path)
        assert code == 0
        records = json.loads((tmp_path / "records.json").read_text())
        assert len(records) == 80
        assert (tmp_path / "records.csv").exists()
        assert (tmp_path / "plot_data.json").exists()

    def test_baseline_and_cluster_pipeline(self, tmp_path, data_dir):
        code = run("baseline", "--snapshot", data_dir / "burgers.txt",
                   "--pde", "burgers", "--min-n", "10", "--max-n", "40",
                   "--reps", "5", "--max-iter", "1", "--widths", "2,6,1",
                   "--out-dir", tmp_path)
        assert code == 0
        records = json.loads((tmp_path / "records.json").read_text())
        assert len(records) == 55

        code = run("cluster", "--results", tmp_path / "records.json",
                   "--k", "5", "--n-init", "10", "--coef", "0",
                   "--out-dir", tmp_path)
        assert code == 0
        lines = (tmp_path / "centroids.csv").read_text().splitlines()
        assert len(lines) == 6

    def test_sweep_and_baseline_honour_train_config(self, tmp_path, data_dir):
        # train settings in --config: each record must equal the matching train run
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "mu1": 0.5, "mu2": 0.25, "step_size_up": 5,
            "max_iter": 2, "widths": "2,6,1", "learning_rate": 1e-3}))
        snap = data_dir / "burgers.txt"
        common = ("--snapshot", snap, "--pde", "burgers", "--config", cfg_path)
        assert run("sweep", *common, "--t-divs", "2", "--eps-min", "1e-3",
                   "--eps-max", "1e-2", "--eps-count", "2",
                   "--out-dir", tmp_path / "sweep") == 0
        assert run("baseline", *common, "--min-n", "10", "--max-n", "12",
                   "--reps", "1", "--out-dir", tmp_path / "baseline") == 0
        greedy = json.loads((tmp_path / "sweep" / "records.json").read_text())
        random = json.loads((tmp_path / "baseline" / "records.json").read_text())
        assert len(greedy) == 2 and len(random) == 3
        manifest = json.loads((tmp_path / "sweep" / "sweep_manifest.json").read_text())
        assert manifest["config"]["mu2"] == 0.25

        assert run("train", *common, "--t-div", "2", "--eps", repr(greedy[0]["eps_thr"]),
                   "--out-dir", tmp_path / "g") == 0
        assert run("train", *common, "--random", "--size", "10", "--seed", "0",
                   "--out-dir", tmp_path / "r") == 0
        for record, out in ((greedy[0], "g"), (random[0], "r")):
            summary = json.loads((tmp_path / out / "summary.json").read_text())
            assert record["final_p"] == summary["final_p"]

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
                   "--k", "3", "--n-init", "5", "--format", "json",
                   "--out-dir", tmp_path)
        assert code == 0
        payload = json.loads((tmp_path / "centroids.json").read_text())
        assert len(payload["0"]["centroids"]) == 3

    @pytest.mark.parametrize("n_records, coef", [(0, None), (4, 5), (4, -1)])
    def test_cluster_rejects_bad_input(self, tmp_path, capsys, n_records, coef):
        records = [ExperimentRecord(sampler="random", pde="burgers", n_samples=10 + i,
                                    rel_errors=(0.1 * i, 0.2), final_p=(-1.0, 0.1),
                                    wall_time_s=0.0, size=10 + i, seed=i)
                   for i in range(n_records)]
        export_results(records, tmp_path / "records.json", format="json")
        argv = ["cluster", "--results", tmp_path / "records.json", "--k", "2",
                "--n-init", "2", "--out-dir", tmp_path]
        assert run(*argv, *(() if coef is None else ("--coef", coef))) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "centroids.csv").exists()


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
                "--random", "--size", "50", "--seed", "3", "--out-dir", d)
        assert (dirs[0] / "samples.csv").read_bytes() == \
            (dirs[1] / "samples.csv").read_bytes()
