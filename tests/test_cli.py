"""CLI end-to-end: gen-data -> train -> eval round trips, profiling,
gradcheck, adjacency export, and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ssmgraph.cli import main
from ssmgraph.data import load_bsg1

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def run_python(code: str, **env_vars) -> str:
    """Run ``code`` in a fresh interpreter that imports ssmgraph from this
    checkout, with ``env_vars`` in place of any inherited thread variables."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS + ("GS4_THREADS",)}
    env.update(env_vars, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


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

    @pytest.mark.parametrize("flag", ["--size", "--n-sensors", "--t-len", "--input-dim"])
    def test_nonpositive_size_exit_2(self, tmp_path, capsys, flag):
        out = tmp_path / "d.bsg1"
        argv = ["gen-data", "--kind", "longrange", "--out", str(out), "--size", "2",
                "--t-len", "1024"]
        assert main(argv + [flag, "0"]) == 2
        assert f"{flag[2:].replace('-', '_')} must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    # each wrote NaN or infinite records and exited 0
    @pytest.mark.parametrize("kind, flag, value, message", [
        ("correlation", "--clique-corr", "2", "clique_corr must be in [0, 1], got 2.0"),
        ("correlation", "--clique-corr", "-0.5", "clique_corr must be in [0, 1], got -0.5"),
        ("longrange", "--marker-amplitude", "inf", "marker_amplitude must be finite, got inf"),
        ("longrange", "--marker-amplitude", "nan", "marker_amplitude must be finite, got nan"),
    ])
    def test_bad_spec_value_exit_2(self, tmp_path, capsys, kind, flag, value, message):
        out = tmp_path / "d.bsg1"
        argv = ["gen-data", "--kind", kind, "--out", str(out), "--size", "4", "--t-len", "1024",
                flag, value]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not out.exists()


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

    def test_padded_files_keep_their_length(self, tmp_path):
        # 64-step records whose longest true length is 62: each file loads at
        # 64 steps, which r=16 divides, not at its longest record's 62
        from ssmgraph.data import Dataset, SignalRecord, save_bsg1

        rng = np.random.default_rng(0)
        for split in ("train", "val", "test"):
            lengths = rng.integers(49, 63, size=10)
            lengths[0] = 62
            records = []
            for i, t in enumerate(lengths):
                x = np.zeros((3, 64, 1))
                x[:, :t] = rng.normal(size=(3, t, 1))
                y = rng.integers(0, 2, 3)
                y[i % 3] = i % 2  # both labels in every class column
                records.append(SignalRecord(x=x, y=y, mask=np.arange(64) < t,
                                            true_length=int(t), record_id=f"{split}{i}"))
            save_bsg1(Dataset(records=records, task="multilabel", n_classes=3),
                      tmp_path / f"{split}.bsg1")
        config = {
            "model": {"n_sensors": 3, "d_model": 4, "s4_depth": 1, "p_states": 2,
                      "gsl": {"r": 16, "knn_k": 1, "heads": 1},
                      "n_classes": 3, "task": "multilabel"},
            "optim": {"epochs": 1, "warmup_epochs": 0, "batch_size": 5},
            "data": {split: str(tmp_path / f"{split}.bsg1") for split in ("train", "val", "test")},
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config))
        rc = main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--quiet"])
        assert rc == 0
        assert load_bsg1(tmp_path / "val.bsg1").records[0].x.shape == (3, 64, 1)

    def test_eval_reproduces_train_metrics(self, tiny_run):
        # train's metrics.json comes from its in-memory model (and, without a
        # test split, the best epoch's validation report); eval of the
        # checkpoint must give the same report
        from ssmgraph.data import DatasetSpec, generate, save_bsg1, stratified_split
        run_dir, cfg_path, _ = tiny_run
        full = generate(DatasetSpec(kind="correlation", n_sensors=3, t_len=64,
                                    size=24, seed=5))
        for dtype in ("float32", "float64"):
            for split in ([0.5, 0.25, 0.25], [0.5, 0.5]):
                out_dir = run_dir / f"{dtype}-{len(split)}"
                rc = main(["train", "--config", str(cfg_path), "--out", str(out_dir), "--quiet",
                           "--set", f"model.dtype={dtype}", "--set", f"data.split={split}"])
                assert rc == 0
                # rebuild the evaluated split exactly as training did
                eval_path = out_dir / "eval.bsg1"
                save_bsg1(stratified_split(full, split, seed=3)[-1], eval_path)
                rc = main(["eval", "--checkpoint", str(out_dir / "checkpoint.gs4m"),
                           "--data", str(eval_path), "--out", str(out_dir / "eval")])
                assert rc == 0
                train_metrics = json.loads((out_dir / "metrics.json").read_text())
                eval_metrics = json.loads((out_dir / "eval" / "metrics.json").read_text())
                assert train_metrics.pop("split") == ("test" if len(split) == 3 else "val")
                del train_metrics["best_epoch"], train_metrics["stopped_early"]
                assert train_metrics == eval_metrics

    @pytest.mark.parametrize("split", [[0.5, 0.25, 0.25], [0.5, 0.5]],
                             ids=["test-split", "no-test-split"])
    def test_no_validation_pass_or_reload_after_training(self, tiny_run, monkeypatch, split):
        import ssmgraph.model
        import ssmgraph.train
        from ssmgraph.data import DatasetSpec, generate, stratified_split

        run_dir, cfg_path, _ = tiny_run
        passes = []
        trained = []
        real_collect, real_loop = ssmgraph.train.collect_outputs, ssmgraph.train.train_loop

        def collect(model, dataset, *args):
            if trained:
                passes.append([r.record_id for r in dataset.records])
            return real_collect(model, dataset, *args)

        def loop(*args, **kwargs):
            result = real_loop(*args, **kwargs)
            trained.append(True)
            return result

        def no_reload(*args):
            raise AssertionError("train read a checkpoint")

        monkeypatch.setattr(ssmgraph.train, "collect_outputs", collect)
        monkeypatch.setattr(ssmgraph.train, "train_loop", loop)
        monkeypatch.setattr(ssmgraph.model, "load_checkpoint", no_reload)
        rc = main(["train", "--config", str(cfg_path), "--out", str(run_dir / "run"),
                   "--quiet", "--set", f"data.split={split}"])
        assert rc == 0 and trained
        if len(split) == 3:
            full = generate(DatasetSpec(kind="correlation", n_sensors=3, t_len=64,
                                        size=24, seed=5))
            test = stratified_split(full, split, seed=3)[2]
            assert passes == [[r.record_id for r in test.records]]
        else:
            assert passes == []

    def test_adj_analysis_outputs(self, tiny_run):
        tmp_path, cfg_path, data_path = tiny_run
        out_dir = tmp_path / "run"
        main(["train", "--config", str(cfg_path), "--out", str(out_dir), "--quiet"])
        eval_dir = tmp_path / "eval-adj"
        rc = main(["eval", "--checkpoint", str(out_dir / "checkpoint.gs4m"),
                   "--data", str(data_path), "--out", str(eval_dir),
                   "--adj-analysis", "--permutations", "20"])
        assert rc == 0
        table = json.loads((eval_dir / "adjacency_delta.json").read_text())
        for entry in table.values():
            assert sorted(entry) == ["delta_mean", "delta_std", "n_permutations", "p_value"]
            assert entry["n_permutations"] == 20
        csvs = list(eval_dir.glob("mean_adj_class*.csv"))
        assert len(csvs) >= 1

    def test_nonpositive_permutations_exit_2(self, tiny_run, capsys):
        tmp_path, cfg_path, data_path = tiny_run
        out_dir = tmp_path / "run"
        main(["train", "--config", str(cfg_path), "--out", str(out_dir), "--quiet"])
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--checkpoint", str(out_dir / "checkpoint.gs4m"),
                  "--data", str(data_path), "--out", str(tmp_path / "eval"),
                  "--adj-analysis", "--permutations", "-1"])
        assert exc.value.code == 2
        assert "argument --permutations: must be finite and >= 1, got -1" in capsys.readouterr().err

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

    def test_subset_runs_only_requested_records(self, tiny_run, monkeypatch):
        import ssmgraph.train

        tmp_path, cfg_path, data_path = tiny_run
        cfg = json.loads(cfg_path.read_text())
        cfg["model"]["bidirectional"] = True
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "run"
        main(["train", "--config", str(cfg_path), "--out", str(out_dir), "--quiet"])
        seen = []
        collect = ssmgraph.train.collect_outputs

        def counting_collect(model, dataset, *args, **kwargs):
            seen.append([r.record_id for r in dataset.records])
            return collect(model, dataset, *args, **kwargs)

        monkeypatch.setattr(ssmgraph.train, "collect_outputs", counting_collect)
        exports = {}
        for records in ("corr-00005", "all"):
            adj_dir = tmp_path / f"adj-{records}"
            rc = main(["export-adj", "--checkpoint", str(out_dir / "checkpoint.gs4m"),
                       "--data", str(data_path), "--records", records,
                       "--out", str(adj_dir)])
            assert rc == 0
            exports[records] = {p.name: p.read_bytes() for p in adj_dir.glob("*.csv")}
        assert seen[0] == ["corr-00005"] and len(seen[1]) == 24
        assert sorted(exports["corr-00005"]) == [f"corr-00005_t{t}.csv" for t in range(1, 5)]
        for name, data in exports["corr-00005"].items():
            assert data == exports["all"][name], name

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
        # each crashed inside the model, or trained silently without dropout
        (None, ["model.d_model=0"], "model: d_model must be >= 1, got 0"),
        (None, ["model.p_states=0"], "model: p_states must be >= 1, got 0"),
        (None, ["model.dropout=1.0"], "model: dropout must be in [0, 1), got 1.0"),
        (None, ["model.dropout=-0.5"], "model: dropout must be in [0, 1), got -0.5"),
        (None, ["data.spec.size=0"], "data.spec: size must be >= 1, got 0"),
        # gradient ascent that exits 0, or a divergence that exits 3 naming no field
        (None, ["optim.lr=-1"], "optim: lr must be finite and >= 0, got -1"),
        (None, ["optim.lr=NaN"], "optim: lr must be finite and >= 0, got nan"),
        (None, ["optim.weight_decay=-0.01"], "optim: weight_decay must be finite and >= 0"),
        (None, ["optim.beta1=1.0"], "optim: beta1 must be in [0, 1), got 1.0"),
        (None, ["optim.beta2=-0.5"], "optim: beta2 must be in [0, 1), got -0.5"),
        (None, ["optim.eps=0"], "optim: eps must be finite and > 0, got 0"),
        (None, ["optim.eps=Infinity"], "optim: eps must be finite and > 0, got inf"),
        # each ended in numpy's bare "expected non-negative integer"
        (None, ["seed=-3"], "seed must be >= 0, got -3"),
        (None, ["data.spec.seed=-1"], "data.spec: seed must be >= 0, got -1"),
        # each trained a model without encoder layers and exited 0
        (None, ["model.s4_depth=0"], "model: s4_depth must be >= 1, got 0"),
        (None, ["model.s4_depth=-1"], "model: s4_depth must be >= 1, got -1"),
        (None, ["model.input_dim=0"], "model: input_dim must be >= 1, got 0"),
        # an OverflowError traceback (exit 1), or a run with every edge pruned (exit 0)
        (None, ["model.dt_max=Infinity"], "model: need 0 < dt_min <= dt_max < inf, got [0.01, inf]"),
        (None, ["model.gsl.kappa=NaN"], "model.gsl: kappa must be finite and >= 0, got nan"),
        (None, ["model.gsl.kappa=Infinity"], "model.gsl: kappa must be finite and >= 0, got inf"),
        # each passed the sum check, then blamed an empty data.val
        (None, ["data.split=[1.5,-0.5]"],
         "data.split: expected 2 or 3 fractions in [0, 1] summing to 1, got [1.5, -0.5]"),
        (None, ["data.split=[0.5,NaN,0.5]"],
         "data.split: expected 2 or 3 fractions in [0, 1] summing to 1, got [0.5, nan, 0.5]"),
        # each generated non-finite records and trained on them
        (None, ["data.spec.clique_corr=2"], "data.spec: clique_corr must be in [0, 1], got 2"),
        (None, ["data.spec.clique_corr=-0.5"], "data.spec: clique_corr must be in [0, 1], got -0.5"),
        (None, ["data.spec.marker_amplitude=Infinity"],
         "data.spec: marker_amplitude must be finite, got inf"),
        # Python's TypeError from the sum, naming only the section
        (None, ['data.split=["a",0.5]'],
         "data.split: expected 2 or 3 fractions in [0, 1] summing to 1, got ['a', 0.5]"),
        # each trained a full epoch, then exited 3 on a non-finite training loss
        (None, ["model.use_gsl=false", "model.fixed_graph=[[1,0,0],[0,1e999,0],[0,0,1]]"],
         "model: fixed_graph must be a finite 3x3 matrix"),
        (None, ["model.use_gsl=false", "model.fixed_graph=[[1,0,0],[0,null,0],[0,0,1]]"],
         "model: fixed_graph must be a finite 3x3 matrix"),
    ])
    def test_bad_run_config_exit_2(self, tiny_run, capsys, config, overrides, message):
        tmp_path, cfg_path, _ = tiny_run
        if config is not None:
            cfg_path.write_text(json.dumps(config))
        argv = ["train", "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--quiet"]
        for override in overrides:
            argv += ["--set", override]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, flag", [
        (["gradcheck", "--step", "0"], "--step"),
        (["gradcheck", "--step", "nan"], "--step"),
        (["gradcheck", "--tolerance", "-1"], "--tolerance"),
        (["gradcheck", "--tolerance", "inf"], "--tolerance"),
        (["profile", "--sweep-nd", "0"], "--sweep-nd"),
        (["profile", "--sweep-nd", "0..2"], "--sweep-nd"),
        (["profile", "--sweep-nd", "1..x"], "--sweep-nd"),
        (["profile", "--t", "0"], "--t"),
        (["profile", "--d", "-3"], "--d"),
        (["profile", "--n-sensors", "0"], "--n-sensors"),
        (["eval", "--batch-size", "0"], "--batch-size"),
        (["eval", "--batch-size", "-2"], "--batch-size"),
        (["gradcheck", "--seed", "-1"], "--seed"),
        # a non-numeric flag leaves by the same route
        (["gradcheck", "--step", "abc"], "--step"),
        (["profile", "--sweep-nd", "3..1"], "--sweep-nd"),
        (["--threads", "0", "profile"], "--threads"),
        (["--threads", "two", "profile"], "--threads"),
    ])
    def test_bad_flag_exit_2_before_any_work(self, tmp_path, capsys, argv, flag):
        if argv[0] == "eval":
            argv = argv + ["--checkpoint", "missing.gs4m", "--data", "missing.bsg1",
                           "--out", str(tmp_path / "o")]
        with pytest.raises(SystemExit) as exc:  # argparse's exit
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"error: argument {flag}: " in captured.err, captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["train", "gen-data"])
    def test_negative_seed_flag_exit_2(self, tiny_run, capsys, command):
        tmp_path, cfg_path, _ = tiny_run
        out = tmp_path / "o"
        argv = (["train", "--config", str(cfg_path), "--out", str(out), "--quiet"]
                if command == "train" else ["gen-data", "--kind", "correlation", "--out", str(out)])
        assert main(argv + ["--seed", "-2"]) == 2
        assert "seed must be >= 0, got -2" in capsys.readouterr().err
        assert not out.exists()

    def test_directory_path_exit_2(self, tiny_run, capsys):
        tmp_path, _, data_path = tiny_run
        rc = main(["train", "--config", str(tmp_path), "--out", str(tmp_path / "o")])
        assert rc == 2
        rc = main(["eval", "--checkpoint", str(tmp_path), "--data", str(data_path),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "Is a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_failed_write_keeps_previous_outputs(self, tiny_run, monkeypatch, capsys, command):
        # eval's JSON and train's outputs were written over the final path, so
        # a write that failed halfway left a torn file in its place
        import builtins

        import ssmgraph.cli

        tmp_path, cfg_path, data_path = tiny_run
        run_dir = tmp_path / "run"
        argv = ["train", "--config", str(cfg_path), "--out", str(run_dir), "--quiet"]
        assert main(argv) == 0
        if command == "eval":
            out = tmp_path / "eval"
            argv = ["eval", "--checkpoint", str(run_dir / "checkpoint.gs4m"),
                    "--data", str(data_path), "--out", str(out)]
            assert main(argv) == 0
        else:
            out = run_dir
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        real_open = builtins.open

        class HalfWrite:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[:len(data) // 2])
                raise OSError("No space left on device")

        monkeypatch.setattr(ssmgraph.cli, "open",
                            lambda *args, **kwargs: HalfWrite(real_open(*args, **kwargs)),
                            raising=False)
        capsys.readouterr()
        assert main(argv) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_bad_dataset_file_exit_2(self, tmp_path):
        junk = tmp_path / "junk.bsg1"
        junk.write_bytes(b"not a dataset")
        rc = main(["eval", "--checkpoint", "missing.gs4m", "--data", str(junk),
                   "--out", str(tmp_path / "o")])
        assert rc == 2


def splice_blob(raw: bytes, edit) -> bytes:
    """Checkpoint bytes ``raw`` with its JSON blob replaced by ``edit(blob)``."""
    import struct

    old_len = struct.unpack("<I", raw[8:12])[0]
    blob = edit(raw[12:12 + old_len])
    return raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + old_len:]


class TestCheckpointContents:
    """A checkpoint blob or dataset that eval and export-adj cannot use, or an
    empty dataset given to train, exits 2 before any output."""

    MODEL = {"n_sensors": 3, "d_model": 4, "s4_depth": 1, "p_states": 2,
             "gsl": {"r": "full", "knn_k": 1, "heads": 1}}

    @staticmethod
    def write_data(path, task, n_classes, n_records=6):
        from ssmgraph.data import Dataset, SignalRecord, save_bsg1

        rng = np.random.default_rng(0)
        records = [SignalRecord(x=rng.normal(size=(3, 16, 1)),
                                y=rng.integers(0, 2, n_classes) if task == "multilabel"
                                else i % max(n_classes, 2),
                                mask=np.ones(16, dtype=bool), true_length=16,
                                record_id=f"r{i}") for i in range(n_records)]
        save_bsg1(Dataset(records=records, task=task, n_classes=max(n_classes, 2)), path)

    def write_checkpoint(self, path, task, n_classes, edit=None):
        """A fresh model's checkpoint; ``edit`` maps its decoded JSON blob to
        the blob written in its place."""
        from ssmgraph.config import parse_model_config
        from ssmgraph.model import build_model, save_checkpoint

        cfg = parse_model_config({**self.MODEL, "task": task, "n_classes": n_classes})
        raw = save_checkpoint(build_model(cfg, seed=0), None)
        if edit is not None:
            raw = splice_blob(raw, lambda blob: json.dumps(edit(json.loads(blob))).encode("utf-8"))
        path.write_bytes(raw)

    @pytest.mark.parametrize("task, n_classes, thresholds", [
        ("multilabel", 3, [0.5]),               # IndexError in the report
        ("multilabel", 3, ["a", "b", "c"]),     # numpy UFuncTypeError
        ("multilabel", 3, [0.5, float("nan"), 0.5]),
        ("binary", 1, [0.5, 0.5]),
        ("binary", 1, "0.5"),
        ("binary", 1, [True]),
        ("multiclass", 3, [0.5]),
    ])
    def test_bad_thresholds_exit_2(self, tmp_path, capsys, task, n_classes, thresholds):
        data, ckpt, out = tmp_path / "d.bsg1", tmp_path / "m.gs4m", tmp_path / "o"
        self.write_data(data, task, n_classes)
        self.write_checkpoint(ckpt, task, n_classes,
                              edit=lambda payload: {**payload, "extra": {"thresholds": thresholds}})
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                     "--out", str(out)]) == 2
        expected = 0 if task == "multiclass" else n_classes
        assert f"thresholds must be a list of {expected} finite numbers" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "export-adj"])
    @pytest.mark.parametrize("edit", [
        lambda payload: {"model": 1},               # KeyError: 'config'
        lambda payload: [1],                        # TypeError
        lambda payload: {**payload, "extra": [1]},  # AttributeError in eval
    ], ids=["no-config", "list", "extra-list"])
    def test_bad_blob_exit_2(self, tmp_path, capsys, command, edit):
        data, ckpt, out = tmp_path / "d.bsg1", tmp_path / "m.gs4m", tmp_path / "o"
        self.write_data(data, "binary", 1)
        self.write_checkpoint(ckpt, "binary", 1, edit=edit)
        assert main([command, "--checkpoint", str(ckpt), "--data", str(data),
                     "--out", str(out)]) == 2
        assert "JSON blob must be an object with a 'config' object" in capsys.readouterr().err
        assert not out.exists()

    # each exited 2 with a message that named no file; the dataset's record 0
    # id starts at byte 44, after the 16-byte header, shape and label block
    @pytest.mark.parametrize("corrupt, damage, message", [
        ("checkpoint", lambda raw: b"GS4X" + raw[4:], "bad magic at byte 0"),
        ("checkpoint", lambda raw: raw[:12], "truncated checkpoint at byte 12"),
        ("checkpoint", lambda raw: splice_blob(raw, lambda blob: b"{'config': {}}"),
         "Expecting property name enclosed in double quotes"),
        ("checkpoint", lambda raw: splice_blob(raw, lambda blob: b"\xff" + blob[1:]),
         "'utf-8' codec can't decode byte 0xff"),
        ("checkpoint", lambda raw: splice_blob(raw, lambda blob: blob.replace(
            b'"d_model": 4', b'"d_model": -3')), "model: d_model must be >= 1, got -3"),
        ("data", lambda raw: raw[:44] + b"\xff" + raw[45:], "record 0 id at byte 44 is not UTF-8"),
    ], ids=["magic", "truncated", "json", "blob-utf8", "config", "record-id-utf8"])
    def test_corrupt_file_named_exit_2(self, tmp_path, capsys, corrupt, damage, message):
        data, ckpt, out = tmp_path / "d.bsg1", tmp_path / "m.gs4m", tmp_path / "o"
        self.write_data(data, "binary", 1)
        self.write_checkpoint(ckpt, "binary", 1)
        bad = ckpt if corrupt == "checkpoint" else data
        bad.write_bytes(damage(bad.read_bytes()))
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: {bad}: {message}" in err, err
        assert "Traceback" not in err
        assert not out.exists()

    # the dims' product wrapped in int64 to -8,589,934,591: the reader took a
    # negative-length read and failed to reshape it, naming no byte
    def test_tensor_size_overflow_exit_2(self, tmp_path, capsys):
        import struct

        data, ckpt, out = tmp_path / "d.bsg1", tmp_path / "m.gs4m", tmp_path / "o"
        self.write_data(data, "binary", 1)
        self.write_checkpoint(ckpt, "binary", 1)
        raw = ckpt.read_bytes()
        off = 16 + struct.unpack_from("<I", raw, 8)[0]      # the first tensor's name length
        off += 4 + struct.unpack_from("<I", raw, off)[0]    # its ndim
        ndim = struct.unpack_from("<I", raw, off)[0]
        dims = struct.pack("<III", 2, 2 ** 32 - 1, 2 ** 32 - 1)
        ckpt.write_bytes(raw[:off] + dims + raw[off + 4 + 4 * ndim:])
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        # the values would start after the dims and the 2-byte dtype tag
        assert f"error: {ckpt}: truncated checkpoint at byte {off + 14}" in err, err
        assert not out.exists()

    # train-val and train-test give train an empty validation or test file:
    # the first left config.json behind, the second trained and wrote a checkpoint
    @pytest.mark.parametrize("command", ["eval", "export-adj", "train-val", "train-test"])
    def test_empty_dataset_exit_2(self, tmp_path, capsys, command):
        data, ckpt, out = tmp_path / "empty.bsg1", tmp_path / "m.gs4m", tmp_path / "o"
        self.write_data(data, "binary", 1, n_records=0)
        if command.startswith("train"):
            full, config = tmp_path / "full.bsg1", tmp_path / "run.json"
            self.write_data(full, "binary", 1)
            paths = {"train": str(full), "val": str(full), "test": str(full),
                     command.split("-")[1]: str(data)}
            config.write_text(json.dumps({"model": self.MODEL, "data": paths,
                                          "optim": {"epochs": 1, "warmup_epochs": 0}}))
            argv = ["train", "--config", str(config), "--quiet"]
        else:
            self.write_checkpoint(ckpt, "binary", 1)
            argv = [command, "--checkpoint", str(ckpt), "--data", str(data)]
        assert main(argv + ["--out", str(out)]) == 2
        assert f"{data}: dataset has no records" in capsys.readouterr().err
        assert not out.exists()

    # eval wrote metrics.json from NaN scores, and train trained on a NaN
    # validation file, each exiting 0
    @pytest.mark.parametrize("command", ["eval", "train-val"])
    def test_nonfinite_values_exit_2(self, tmp_path, capsys, command):
        import struct

        data, ckpt, out = tmp_path / "nan.bsg1", tmp_path / "m.gs4m", tmp_path / "o"
        self.write_data(data, "binary", 1)
        # 16-byte header; each record: 12-byte shape, 16-byte label block, a
        # 2-byte id and 48 float32 values, so record 1's values start at 268
        raw = bytearray(data.read_bytes())
        raw[276:280] = struct.pack("<f", np.nan)
        data.write_bytes(bytes(raw))
        if command == "train-val":
            full, config = tmp_path / "full.bsg1", tmp_path / "run.json"
            self.write_data(full, "binary", 1)
            config.write_text(json.dumps({"model": self.MODEL,
                                          "data": {"train": str(full), "val": str(data)},
                                          "optim": {"epochs": 1, "warmup_epochs": 0}}))
            argv = ["train", "--config", str(config), "--quiet"]
        else:
            self.write_checkpoint(ckpt, "binary", 1)
            argv = ["eval", "--checkpoint", str(ckpt), "--data", str(data)]
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{data}: record 1 values at byte 268 are not all finite" in err
        assert "Traceback" not in err
        assert not out.exists()


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

    @staticmethod
    def binary_file(path, labels):
        from ssmgraph.data import Dataset, SignalRecord, save_bsg1

        rng = np.random.default_rng(0)
        records = [SignalRecord(x=rng.normal(size=(3, 16, 1)), y=y, mask=np.ones(16, dtype=bool),
                                true_length=16, record_id=f"r{i}") for i, y in enumerate(labels)]
        save_bsg1(Dataset(records=records, task="binary", n_classes=2), path)
        return str(path)

    @pytest.mark.parametrize("split", ["val", "test"])
    def test_train_one_class_scoring_split_exit_2(self, tmp_path, capsys, split):
        # AUROC/AUPRC need both classes: a whole epoch (or run) once ended in
        # exit 2 with a message that named no split
        both = self.binary_file(tmp_path / "both.bsg1", [0, 1, 0, 1])
        data = {"train": both, "val": both, "test": both}
        data[split] = self.binary_file(tmp_path / "one.bsg1", [1, 1, 1])
        config = {"model": {**self.MODEL, "n_classes": 1, "task": "binary"},
                  "optim": {"epochs": 1, "warmup_epochs": 0}, "data": data}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config))
        rc = main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--quiet"])
        assert rc == 2
        assert f"{data[split]}: every record has label 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_one_class_file_exit_2_in_eval_only(self, tmp_path, capsys):
        # eval once printed the bare AUROC message and left an empty --out;
        # export-adj scores nothing and accepts the file
        from ssmgraph.config import parse_model_config
        from ssmgraph.model import build_model, save_checkpoint

        one = self.binary_file(tmp_path / "one.bsg1", [0, 0, 0])
        ckpt = tmp_path / "model.gs4m"
        save_checkpoint(build_model(parse_model_config(self.MODEL), seed=0), ckpt)
        argv = ["--checkpoint", str(ckpt), "--data", one, "--out"]
        assert main(["eval"] + argv + [str(tmp_path / "o")]) == 2
        assert f"{one}: every record has label 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        assert main(["export-adj"] + argv + [str(tmp_path / "adj")]) == 0
        assert len(list((tmp_path / "adj").iterdir())) == 3


class TestShapeCheck:
    """A dataset whose signals do not fit the model exits 2, naming the first
    record, before any output is written."""

    @pytest.mark.parametrize("command", ["train", "eval", "export-adj"])
    @pytest.mark.parametrize("model_sensors, data_shape, message", [
        (3, (4, 16, 1), "4 sensors of input width 1 do not fit a model of 3 sensors"),
        (4, (3, 16, 1), "3 sensors of input width 1 do not fit a model of 4 sensors"),
        (3, (3, 16, 2), "3 sensors of input width 2 do not fit a model of 3 sensors"),
        (3, (3, 12, 1), "length 12 is not divisible by the model's interval r=8"),
    ], ids=["more-sensors", "fewer-sensors", "input-width", "length"])
    def test_mismatch_exit_2_before_any_output(self, tmp_path, capsys, command,
                                               model_sensors, data_shape, message):
        from ssmgraph.config import parse_model_config
        from ssmgraph.data import Dataset, SignalRecord, save_bsg1
        from ssmgraph.model import build_model, save_checkpoint

        rng = np.random.default_rng(0)
        t_len = data_shape[1]
        records = [SignalRecord(x=rng.normal(size=data_shape), y=i % 2,
                                mask=np.ones(t_len, dtype=bool), true_length=t_len,
                                record_id=f"r{i}") for i in range(4)]
        data, out = tmp_path / "d.bsg1", tmp_path / "o"
        save_bsg1(Dataset(records=records, task="binary", n_classes=2), data)
        model = {"n_sensors": model_sensors, "d_model": 4, "s4_depth": 1, "p_states": 2,
                 "gsl": {"r": 8, "knn_k": 1, "heads": 1}}
        if command == "train":
            config = tmp_path / "run.json"
            config.write_text(json.dumps({"model": model,
                                          "optim": {"epochs": 1, "warmup_epochs": 0},
                                          "data": {"train": str(data), "val": str(data)}}))
            argv = ["train", "--config", str(config), "--quiet"]
        else:
            ckpt = tmp_path / "m.gs4m"
            save_checkpoint(build_model(parse_model_config(model), seed=0), ckpt)
            argv = [command, "--checkpoint", str(ckpt), "--data", str(data)]
        assert main(argv + ["--out", str(out)]) == 2
        assert f"record r0: {message}" in capsys.readouterr().err
        assert not out.exists()


class TestThreads:
    @pytest.fixture(autouse=True)
    def restore(self, monkeypatch):
        import ssmgraph.fftconv

        monkeypatch.setattr(ssmgraph.fftconv, "FFT_WORKERS", -1)
        monkeypatch.delenv("GS4_THREADS", raising=False)
        for var in THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        blas = ssmgraph.fftconv._openblas()  # an in-process --threads caps this process
        before = None if blas is None else blas[0]()
        yield
        if blas is not None:
            blas[1](before)

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

    def test_one_row_pool_per_process(self):
        # a call with fewer blocks than threads once made a pool of its own
        out = run_python("""
import threading
from ssmgraph import fftconv
fftconv.FFT_WORKERS = 3
assert fftconv._map_blocks(lambda i: i, 2) == [0, 1]
assert fftconv._map_blocks(lambda i: i, 4) == [0, 1, 2, 3]
rows = [t for t in threading.enumerate() if t.name.startswith("ssmgraph-rows")]
print(fftconv._pool.cache_info().currsize, len(rows))
""")
        pools, threads = map(int, out.split())
        assert pools == 1 and threads <= 2

    @pytest.mark.parametrize("workers, pools, threads", [(1, 0, 0), (2, 1, 1)])
    def test_workers_cap_the_graph_ops(self, workers, pools, threads):
        # 128 graphs of 64 nodes: eight attention blocks, more than one in every op
        out = run_python(f"""
import threading
import numpy as np
from ssmgraph import fftconv
from ssmgraph.graphlearn import GslConfig, GslLayer, RegWeights, reg_loss_total
from ssmgraph.tensor import Tensor
fftconv.FFT_WORKERS = {workers}
rng = np.random.default_rng(0)
layer = GslLayer(32, GslConfig(r=4, heads=4), rng, np.float32)
pooled = Tensor(rng.normal(size=(4, 32, 64, 32)), requires_grad=True, dtype=np.float32)
graphs = layer.build_graphs(pooled)
reg_loss_total(graphs, pooled, RegWeights(0.1, 0.1, 0.1)).backward()
assert len(fftconv._blocks(128, 64 * 64 * 8)) > 1
rows = [t for t in threading.enumerate() if t.name.startswith("ssmgraph-rows")]
print(fftconv._pool.cache_info().currsize, len(rows))
""")
        assert list(map(int, out.split())) == [pools, threads]

    def test_flag_overrides_inherited_thread_variables(self):
        # numpy loads after the cap, so its OpenBLAS sizes its pool from the flag
        out = run_python(f"""
import ctypes, glob, os
from ssmgraph.cli import main
assert main(["--threads", "1"] + {self.PROFILE!r}) == 0
import numpy
print("env", *(os.environ[var] for var in {THREAD_VARS!r}))
libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs",
                              "libscipy_openblas*"))
for lib in libs:
    get = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
    if get is not None:
        get.restype = ctypes.c_int
        print("openblas", get())
""", **{var: "2" for var in THREAD_VARS})
        (env_line,) = [line for line in out.splitlines() if line.startswith("env ")]
        assert env_line.split()[1:] == ["1"] * len(THREAD_VARS)
        probe = [line for line in out.splitlines() if line.startswith("openblas ")]
        assert probe in ([], ["openblas 1"])  # empty where numpy bundles no OpenBLAS

    def test_flag_caps_openblas_loaded_before(self):
        # numpy loads first, sizing its OpenBLAS from the inherited variables;
        # the variables the flag sets come too late, and the model's first
        # row-pool op puts OpenBLAS at one thread
        out = run_python("""
import numpy
from ssmgraph import fftconv
from ssmgraph.cli import main
blas = fftconv._openblas()
print("before", blas and blas[0]())
assert main(["--threads", "1", "gradcheck"]) == 0
print("after", blas and blas[0]())
""", **{var: "2" for var in THREAD_VARS})
        probe = dict(line.split() for line in out.splitlines()
                     if line.startswith(("before ", "after ")))
        if probe["before"] == "None":  # numpy bundles no OpenBLAS: nothing to cap
            assert probe["after"] == "None", probe
            return
        if probe["before"] != "2":
            pytest.skip(f"OpenBLAS loaded at {probe['before']} threads, not 2: nothing to cap")
        assert probe["after"] == "1", probe

    def test_train_outputs_independent_of_thread_count(self, tiny_run):
        tmp_path, cfg_path, _ = tiny_run
        files = ("config.json", "history.csv", "metrics.json", "checkpoint.gs4m")
        contents = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            run_python(f"""
from ssmgraph.cli import main
assert main(["--threads", "{threads}", "train", "--config", {str(cfg_path)!r},
             "--out", {str(out)!r}, "--quiet"]) == 0
""")
            contents.append([(out / name).read_bytes() for name in files])
        for name, one, two in zip(files, *contents):
            assert one == two, name
