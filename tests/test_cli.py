"""CLI end-to-end: gen-data -> train -> eval round trips, profiling,
gradcheck, adjacency export, and exit codes."""

import json

import numpy as np
import pytest

from ssmgraph.cli import main
from ssmgraph.data import load_bsg1


@pytest.fixture
def tiny_run(tmp_path):
    """Generate a small dataset and a matching train config."""
    data_path = tmp_path / "data.bsg1"
    rc = main(["gen-data", "--kind", "correlation", "--out", str(data_path),
               "--size", "24", "--n-sensors", "3", "--t-len", "64", "--seed", "5"])
    assert rc == 0
    config = {
        "model": {
            "n_sensors": 3, "input_dim": 1, "d_model": 8, "s4_depth": 1, "p_states": 3,
            "dropout": 0.0, "dt_min": 0.01, "dt_max": 0.3,
            "gsl": {"r": 16, "knn_k": 1, "epsilon": 0.3, "kappa": 0.05, "heads": 1},
            "reg": {"alpha": 0.01, "beta": 0.01, "gamma": 0.01},
            "pool": {"graph_pool": "mean", "temporal_pool": "mean"},
            "n_classes": 1, "task": "binary", "dtype": "float32",
        },
        "optim": {"lr": 2e-3, "epochs": 2, "warmup_epochs": 1, "batch_size": 8,
                  "patience": 20},
        "data": {"spec": {"kind": "correlation", "n_sensors": 3, "t_len": 64,
                          "size": 24, "seed": 5},
                 "split": [0.5, 0.25, 0.25]},
        "seed": 3,
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config))
    return tmp_path, cfg_path, data_path


class TestGenData:
    def test_writes_loadable_file(self, tmp_path):
        out = tmp_path / "d.bsg1"
        rc = main(["gen-data", "--kind", "longrange", "--out", str(out),
                   "--size", "6", "--n-sensors", "2", "--t-len", "1024"])
        assert rc == 0
        ds = load_bsg1(out)
        assert len(ds) == 6
        assert ds.records[0].x.shape == (2, 1024, 1)

    @pytest.mark.parametrize("kind", ["correlation", "longrange"])
    def test_defaults_are_dataset_spec_defaults(self, tmp_path, kind):
        # a run config's data.spec and gen-data must generate the same records
        from ssmgraph.data import DatasetSpec, generate, save_bsg1

        out = tmp_path / "d.bsg1"
        assert main(["gen-data", "--kind", kind, "--out", str(out)]) == 0
        assert out.read_bytes() == save_bsg1(generate(DatasetSpec(kind=kind)), None)


class TestTrainEval:
    def test_train_writes_artifacts(self, tiny_run):
        tmp_path, cfg_path, _ = tiny_run
        out_dir = tmp_path / "run1"
        rc = main(["train", "--config", str(cfg_path), "--out", str(out_dir), "--quiet"])
        assert rc == 0
        assert (out_dir / "checkpoint.gs4m").exists()
        assert (out_dir / "metrics.json").exists()
        assert (out_dir / "config.json").exists()
        history = (out_dir / "history.csv").read_text().strip().split("\n")
        assert history[0] == "epoch,lr,train_loss,val_loss,val_metric"
        assert len(history) == 3
        metrics = json.loads((out_dir / "metrics.json").read_text())
        assert metrics["task"] == "binary"
        assert metrics["split"] == "test"

    def test_train_twice_identical_outputs(self, tiny_run):
        tmp_path, cfg_path, _ = tiny_run
        rc1 = main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "a"), "--quiet"])
        rc2 = main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "b"), "--quiet"])
        assert rc1 == rc2 == 0
        assert ((tmp_path / "a" / "checkpoint.gs4m").read_bytes()
                == (tmp_path / "b" / "checkpoint.gs4m").read_bytes())
        assert ((tmp_path / "a" / "metrics.json").read_text()
                == (tmp_path / "b" / "metrics.json").read_text())

    def test_eval_reproduces_train_metrics(self, tiny_run, tmp_path):
        run_dir, cfg_path, _ = tiny_run
        out_dir = run_dir / "run"
        main(["train", "--config", str(cfg_path), "--out", str(out_dir), "--quiet"])
        # rebuild the test split exactly as training did
        from ssmgraph.data import DatasetSpec, generate, save_bsg1, stratified_split
        full = generate(DatasetSpec(kind="correlation", n_sensors=3, t_len=64,
                                    size=24, seed=5))
        _, _, test = stratified_split(full, [0.5, 0.25, 0.25], seed=3)
        test_path = run_dir / "test.bsg1"
        save_bsg1(test, test_path)
        eval_dir = run_dir / "eval"
        rc = main(["eval", "--checkpoint", str(out_dir / "checkpoint.gs4m"),
                   "--data", str(test_path), "--out", str(eval_dir)])
        assert rc == 0
        train_metrics = json.loads((out_dir / "metrics.json").read_text())
        eval_metrics = json.loads((eval_dir / "metrics.json").read_text())
        for key in ("auroc", "auprc", "f1", "kappa"):
            assert train_metrics[key] == eval_metrics[key]

    def test_adj_analysis_outputs(self, tiny_run):
        tmp_path, cfg_path, data_path = tiny_run
        out_dir = tmp_path / "run"
        main(["train", "--config", str(cfg_path), "--out", str(out_dir), "--quiet"])
        eval_dir = tmp_path / "eval-adj"
        rc = main(["eval", "--checkpoint", str(out_dir / "checkpoint.gs4m"),
                   "--data", str(data_path), "--out", str(eval_dir),
                   "--adj-analysis", "--permutations", "20"])
        assert rc == 0
        assert (eval_dir / "adjacency_delta.json").exists()
        csvs = list(eval_dir.glob("mean_adj_class*.csv"))
        assert len(csvs) >= 1

    def test_adj_analysis_records_metric_errors(self, tiny_run, monkeypatch):
        import ssmgraph.metrics
        from ssmgraph.metrics import MetricError

        tmp_path, cfg_path, data_path = tiny_run
        out_dir = tmp_path / "run"
        main(["train", "--config", str(cfg_path), "--out", str(out_dir), "--quiet"])

        def no_correct_records(*args, **kwargs):
            raise MetricError("both classes need at least one correct record")

        monkeypatch.setattr(ssmgraph.metrics, "delta_permutation_test", no_correct_records)
        eval_dir = tmp_path / "eval-adj"
        rc = main(["eval", "--checkpoint", str(out_dir / "checkpoint.gs4m"),
                   "--data", str(data_path), "--out", str(eval_dir), "--adj-analysis"])
        assert rc == 0
        table = json.loads((eval_dir / "adjacency_delta.json").read_text())
        assert table
        for entry in table.values():
            assert entry["error"] == "both classes need at least one correct record"
            assert "p_value" not in entry

    def test_nonpositive_permutations_exit_2(self, tiny_run, capsys):
        tmp_path, cfg_path, data_path = tiny_run
        out_dir = tmp_path / "run"
        main(["train", "--config", str(cfg_path), "--out", str(out_dir), "--quiet"])
        rc = main(["eval", "--checkpoint", str(out_dir / "checkpoint.gs4m"),
                   "--data", str(data_path), "--out", str(tmp_path / "eval"),
                   "--adj-analysis", "--permutations", "-1"])
        assert rc == 2
        assert "--permutations" in capsys.readouterr().err

    def test_adj_analysis_multilabel_rejected_before_writing(self, tmp_path, capsys):
        from ssmgraph.config import parse_model_config
        from ssmgraph.data import Dataset, SignalRecord, save_bsg1
        from ssmgraph.model import build_model, save_checkpoint

        rng = np.random.default_rng(0)
        records = [SignalRecord(x=rng.normal(size=(3, 16, 1)), y=rng.integers(0, 2, 3),
                                mask=np.ones(16, dtype=bool), true_length=16,
                                record_id=f"r{i}") for i in range(4)]
        data_path = tmp_path / "ml.bsg1"
        save_bsg1(Dataset(records=records, task="multilabel", n_classes=3), data_path)
        cfg = parse_model_config({"n_sensors": 3, "d_model": 4, "s4_depth": 1, "p_states": 2,
                                  "gsl": {"r": "full", "knn_k": 1, "heads": 1},
                                  "n_classes": 3, "task": "multilabel"})
        ckpt = tmp_path / "model.gs4m"
        save_checkpoint(build_model(cfg, seed=0), ckpt)
        eval_dir = tmp_path / "eval"
        rc = main(["eval", "--checkpoint", str(ckpt), "--data", str(data_path),
                   "--out", str(eval_dir), "--adj-analysis"])
        assert rc == 2
        assert "--adj-analysis" in capsys.readouterr().err
        assert not (eval_dir / "metrics.json").exists()

    def test_set_override(self, tiny_run):
        tmp_path, cfg_path, _ = tiny_run
        out_dir = tmp_path / "run-override"
        rc = main(["train", "--config", str(cfg_path), "--out", str(out_dir),
                   "--quiet", "--set", "optim.epochs=1"])
        assert rc == 0
        resolved = json.loads((out_dir / "config.json").read_text())
        assert resolved["optim"]["epochs"] == 1
        history = (out_dir / "history.csv").read_text().strip().split("\n")
        assert len(history) == 2


class TestExportAdj:
    def test_one_csv_per_record_interval(self, tiny_run):
        tmp_path, cfg_path, data_path = tiny_run
        out_dir = tmp_path / "run"
        main(["train", "--config", str(cfg_path), "--out", str(out_dir), "--quiet"])
        adj_dir = tmp_path / "adj"
        rc = main(["export-adj", "--checkpoint", str(out_dir / "checkpoint.gs4m"),
                   "--data", str(data_path), "--records", "corr-00000,corr-00001",
                   "--out", str(adj_dir)])
        assert rc == 0
        files = sorted(p.name for p in adj_dir.glob("*.csv"))
        # T=64, r=16 -> 4 graphs per record
        assert files == [f"corr-0000{i}_t{t}.csv" for i in range(2) for t in range(1, 5)]
        rows = (adj_dir / files[0]).read_text().strip().split("\n")
        assert len(rows) == 3 and len(rows[0].split(",")) == 3

    def test_unknown_record_rejected(self, tiny_run):
        tmp_path, cfg_path, data_path = tiny_run
        out_dir = tmp_path / "run"
        main(["train", "--config", str(cfg_path), "--out", str(out_dir), "--quiet"])
        rc = main(["export-adj", "--checkpoint", str(out_dir / "checkpoint.gs4m"),
                   "--data", str(data_path), "--records", "nope",
                   "--out", str(tmp_path / "x")])
        assert rc == 2

    def test_unknown_record_rejected_before_writing(self, tiny_run):
        tmp_path, cfg_path, data_path = tiny_run
        out_dir = tmp_path / "run"
        main(["train", "--config", str(cfg_path), "--out", str(out_dir), "--quiet"])
        adj_dir = tmp_path / "adj"
        rc = main(["export-adj", "--checkpoint", str(out_dir / "checkpoint.gs4m"),
                   "--data", str(data_path), "--records", "corr-00000,bogus",
                   "--out", str(adj_dir)])
        assert rc == 2
        assert not adj_dir.exists()
        assert not list(tmp_path.rglob("*_t1.csv"))


class TestGradcheckCommand:
    def test_passes_at_desk_scale(self, capsys):
        rc = main(["gradcheck", "--seed", "7"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "max relative error" in out

    def test_exit_nonzero_on_impossible_tolerance(self):
        rc = main(["gradcheck", "--seed", "7", "--tolerance", "1e-18"])
        assert rc == 3


class TestProfileCommand:
    def test_published_cost_table_shape(self, capsys):
        rc = main(["profile", "--d", "128", "--n-sensors", "19", "--t", "12000",
                   "--sweep-nd", "1..10"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = [l for l in out.strip().split("\n") if l and not l.startswith(("graph", " n_d", "n_d"))]
        rows = [l.split() for l in lines]
        table = {int(r[0]): r for r in rows}
        assert table[1][2] == "32768" and table[1][3] == "19922944"
        assert table[10][3] == "199229440"
        assert table[7][3] == "-"  # 12000 not divisible by 7
        # params constant across the sweep
        assert {r[2] for r in rows} == {"32768"}

    def test_macs_linear(self, capsys):
        main(["profile", "--d", "64", "--n-sensors", "4", "--t", "1000",
              "--sweep-nd", "1,2,5,10"])
        out = capsys.readouterr().out
        rows = [l.split() for l in out.strip().split("\n")[2:]]
        macs = {int(r[0]): int(r[3]) for r in rows}
        assert macs[2] == 2 * macs[1]
        assert macs[10] == 10 * macs[1]


class TestErrors:
    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"model": {"d_modell": 8}, "data": {}, "seed": 0}))
        rc = main(["train", "--config", str(bad), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "d_modell" in err

    def test_missing_data_section_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"model": {}, "data": {}, "seed": 0}))
        rc = main(["train", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_undersample_multilabel_exit_2(self, tmp_path, capsys):
        from ssmgraph.data import Dataset, SignalRecord, save_bsg1

        rng = np.random.default_rng(0)
        for split in ("train", "val"):
            records = [SignalRecord(x=rng.normal(size=(3, 16, 1)), y=rng.integers(0, 2, 3),
                                    mask=np.ones(16, dtype=bool), true_length=16,
                                    record_id=f"{split}{i}") for i in range(4)]
            save_bsg1(Dataset(records=records, task="multilabel", n_classes=3),
                      tmp_path / f"{split}.bsg1")
        config = {
            "model": {"n_sensors": 3, "d_model": 4, "s4_depth": 1, "p_states": 2,
                      "gsl": {"r": "full", "knn_k": 1, "heads": 1},
                      "n_classes": 3, "task": "multilabel"},
            "optim": {"epochs": 1, "warmup_epochs": 0, "undersample": True},
            "data": {"train": str(tmp_path / "train.bsg1"), "val": str(tmp_path / "val.bsg1")},
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config))
        rc = main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--quiet"])
        assert rc == 2
        assert "optim.undersample" in capsys.readouterr().err

    @pytest.mark.parametrize("config, overrides, message", [
        (None, ["model=5"], "model: expected an object, got int"),
        (None, ["seed.x=1"], "seed: expected int, got dict"),
        (None, ['optim.lr="abc"'], "optim.lr: expected float, got str"),
        (None, ["bogus=1"], "bogus: unknown key"),
        (None, ['preset="dodh-like"'], "preset: unknown key"),
        # an integer path would be opened as a file descriptor
        ({"data": {"train": 12345, "val": "val.bsg1"}}, [],
         "data.train: expected str or null, got int"),
        ([], [], "expected a JSON object, got list"),
        # paths next to a spec, or a split next to paths, would be ignored
        (None, ['data.train="missing.bsg1"'], "data.train: give either 'spec' or BSG1 paths"),
        ({"data": {"train": "a.bsg1", "val": "b.bsg1", "split": [0.5, 0.5]}}, [],
         "data.split: only a 'spec' is split"),
    ])
    def test_bad_run_config_exit_2(self, tiny_run, capsys, config, overrides, message):
        tmp_path, cfg_path, _ = tiny_run
        if config is not None:
            cfg_path.write_text(json.dumps(config))
        argv = ["train", "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--quiet"]
        for override in overrides:
            argv += ["--set", override]
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    def test_directory_path_exit_2(self, tiny_run, capsys):
        tmp_path, _, data_path = tiny_run
        rc = main(["train", "--config", str(tmp_path), "--out", str(tmp_path / "o")])
        assert rc == 2
        rc = main(["eval", "--checkpoint", str(tmp_path), "--data", str(data_path),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "Is a directory" in capsys.readouterr().err

    def test_bad_dataset_file_exit_2(self, tmp_path):
        junk = tmp_path / "junk.bsg1"
        junk.write_bytes(b"not a dataset")
        rc = main(["eval", "--checkpoint", "missing.gs4m", "--data", str(junk),
                   "--out", str(tmp_path / "o")])
        assert rc == 2


class TestLabelCheck:
    """Labels the model cannot score exit 2 and name the first bad record."""

    MODEL = {"n_sensors": 3, "d_model": 4, "s4_depth": 1, "p_states": 2,
             "gsl": {"r": "full", "knn_k": 1, "heads": 1}}

    @pytest.fixture
    def five_class_file(self, tmp_path):
        from ssmgraph.data import Dataset, SignalRecord, save_bsg1

        rng = np.random.default_rng(0)
        records = [SignalRecord(x=rng.normal(size=(3, 16, 1)), y=i % 5,
                                mask=np.ones(16, dtype=bool), true_length=16,
                                record_id=f"r{i}") for i in range(10)]
        path = tmp_path / "five.bsg1"
        save_bsg1(Dataset(records=records, task="multiclass", n_classes=5), path)
        return path

    @pytest.mark.parametrize("command", ["eval", "export-adj"])
    @pytest.mark.parametrize("task, n_classes, first_bad", [("multiclass", 3, "r3"),
                                                            ("binary", 1, "r2")])
    def test_checkpoint_classes_exit_2(self, tmp_path, capsys, five_class_file, command,
                                       task, n_classes, first_bad):
        from ssmgraph.config import parse_model_config
        from ssmgraph.model import build_model, save_checkpoint

        cfg = parse_model_config({**self.MODEL, "task": task, "n_classes": n_classes})
        ckpt = tmp_path / "model.gs4m"
        save_checkpoint(build_model(cfg, seed=0), ckpt)
        rc = main([command, "--checkpoint", str(ckpt), "--data", str(five_class_file),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"record {first_bad}:" in capsys.readouterr().err

    def test_train_labels_beyond_n_classes_exit_2(self, tmp_path, capsys, five_class_file):
        config = {"model": {**self.MODEL, "task": "multiclass", "n_classes": 3},
                  "optim": {"epochs": 1, "warmup_epochs": 0},
                  "data": {"train": str(five_class_file), "val": str(five_class_file)}}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config))
        rc = main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--quiet"])
        assert rc == 2
        assert "record r3:" in capsys.readouterr().err


class TestThreads:
    @pytest.fixture(autouse=True)
    def restore(self, monkeypatch):
        import ssmgraph.fftconv

        monkeypatch.setattr(ssmgraph.fftconv, "FFT_WORKERS", -1)
        monkeypatch.delenv("GS4_THREADS", raising=False)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)

    PROFILE = ["profile", "--d", "8", "--n-sensors", "3", "--t", "16", "--sweep-nd", "1"]

    def test_flag_caps_fft_workers(self):
        import ssmgraph.fftconv

        assert main(["--threads", "1"] + self.PROFILE) == 0
        assert ssmgraph.fftconv.FFT_WORKERS == 1

    def test_env_caps_fft_workers(self, monkeypatch):
        import ssmgraph.fftconv

        monkeypatch.setenv("GS4_THREADS", "2")
        assert main(self.PROFILE) == 0
        assert ssmgraph.fftconv.FFT_WORKERS == 2

    def test_nonpositive_threads_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["--threads", "0"] + self.PROFILE)
        assert exc.value.code == 2
