"""Tiny-shape tests of the benchmark itself: python -m pytest perfbench -q"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import run  # noqa: E402
from ssmgraph import tensor as T  # noqa: E402
from ssmgraph.model import SsmGraphModel  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny(name: str) -> bench.Workload:
    w = bench.WORKLOADS[name]
    model = dict(w.model, d_model=8, s4_depth=min(2, w.model["s4_depth"]))
    if name == "tusz-long":
        model.update(n_sensors=4, gsl=dict(w.model["gsl"], r=16))
        return dataclasses.replace(w, model=model, t_len=32)
    if name == "graph-dense":
        model.update(n_sensors=6)
        return dataclasses.replace(w, model=model, t_len=16, n_main=4, n_val=2, batch=2)
    model.update(n_sensors=4)
    return dataclasses.replace(w, model=model, t_len=32, n_main=8, batch=4)


@pytest.fixture(autouse=True)
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path)
    return tmp_path


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_declared_metric_is_emitted(name, trace):
    result = bench.run(_tiny(name), seed=3, seconds=0.0, trace=trace)
    assert result["correct"], result["failures"]
    assert result["failed"] == 0 and result["attempted"] > 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in run.with_units(result["metrics"], declared).values():
        assert isinstance(m["value"], (int, float)) and m["value"] == m["value"]
    if not trace:
        assert all(v > 0 for v in result["metrics"].values())


def test_counts_repeat_exactly():
    counts = ("tensor.tape_ops", "tensor.tape_bytes", "tensor.grad_bytes",
              "fftconv.calls", "fftconv.fft_len")
    first, second = (bench.run(_tiny("tusz-long"), seed=5, seconds=0.0, trace=True)["metrics"]
                     for _ in range(2))
    assert all(first[c] == second[c] and first[c] > 0 for c in counts)
    assert first["fftconv.fft_len"] == 64  # 2L-1 = 63 padded to a power of two


def test_nan_in_eval_outputs_fails_checks(monkeypatch):
    scores = SsmGraphModel.scores

    def poisoned(self, logits):
        out = scores(self, logits)
        out[0, 0] = float("nan")
        return out

    monkeypatch.setattr(SsmGraphModel, "scores", poisoned)
    result = bench.run(_tiny("icbeb-eval"), seed=3, seconds=0.0, trace=False)
    assert not result["correct"]
    assert result["failed"] > 0
    assert any("scores" in f for f in result["failures"])


def test_nan_loss_fails_training_steps(monkeypatch):
    total_loss = SsmGraphModel.total_loss
    monkeypatch.setattr(SsmGraphModel, "total_loss",
                        lambda self, out, y: T.mul(total_loss(self, out, y), float("nan")))
    result = bench.run(_tiny("graph-dense"), seed=3, seconds=0.0, trace=False)
    assert not result["correct"]
    assert result["failed"] > 0
    assert any("train_loop raised" in f for f in result["failures"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(__file__).resolve().parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tusz-long",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
