"""Assembled model: shape contracts, loss composition, ablation paths,
profiling, checkpoints, and determinism."""

import json
import struct
from dataclasses import asdict

import numpy as np
import pytest

from ssmgraph.gnn import PoolSpec
from ssmgraph.gradcheck import backward_and_gradcheck
from ssmgraph.graphlearn import GslConfig, RegWeights, reg_loss_total, interval_mean_pool
from ssmgraph.model import (ModelConfig, build_model, gsl_mac_estimate, gsl_param_count,
                            load_checkpoint, save_checkpoint, CheckpointError)
from ssmgraph.rnn import gru_sequence
from ssmgraph.tensor import ContractError, Tensor


def desk_config(**overrides) -> ModelConfig:
    base = dict(
        n_sensors=3, input_dim=1, d_model=8, s4_depth=1, p_states=3,
        gsl=GslConfig(r=8, knn_k=1, epsilon=0.0, kappa=0.05, heads=1),
        reg=RegWeights(alpha=0.2, beta=0.2, gamma=0.2),
        pool=PoolSpec(graph_pool="mean", temporal_pool="mean"),
        n_classes=1, task="binary",
    )
    base.update(overrides)
    return ModelConfig(**base)


class TestForwardContracts:
    def test_desk_shapes(self, rng):
        model = build_model(desk_config(), seed=0)
        out = model.forward(rng.normal(size=(2, 3, 16, 1)))
        assert out.logits.shape == (2, 1)
        assert out.graphs.shape == (2, 2, 3, 3)

    def test_eeg_scale_interval_count(self, rng):
        # 19 sensors x 12000 steps at r=2000 -> 6 dynamic graphs, one logit
        cfg = desk_config(n_sensors=19, gsl=GslConfig(r=2000, knn_k=2, epsilon=0.5,
                                                      kappa=0.1, heads=1))
        model = build_model(cfg, seed=0)
        out = model.forward(rng.normal(size=(1, 19, 12000, 1)).astype(np.float64))
        assert out.graphs.shape == (1, 6, 19, 19)
        assert out.logits.shape == (1, 1)

    def test_psg_scale_interval_count(self, rng):
        # 16 sensors x 7500 steps at r=2500 -> 3 dynamic graphs
        cfg = desk_config(n_sensors=16, gsl=GslConfig(r=2500, knn_k=2, epsilon=0.5,
                                                      kappa=0.1, heads=1))
        model = build_model(cfg, seed=0)
        out = model.forward(rng.normal(size=(1, 16, 7500, 1)))
        assert out.graphs.shape == (1, 3, 16, 16)

    def test_indivisible_length_rejected(self, rng):
        model = build_model(desk_config(), seed=0)
        with pytest.raises(ContractError):
            model.forward(rng.normal(size=(1, 3, 17, 1)))

    def test_zero_weight_model_emits_bias(self, rng):
        model = build_model(desk_config(), seed=0)
        model.head.w.data[:] = 0.0
        model.head.b.data[:] = 1.25
        a = model.forward(rng.normal(size=(1, 3, 16, 1))).logits.data
        b = model.forward(rng.normal(size=(1, 3, 16, 1))).logits.data
        np.testing.assert_allclose(a, 1.25)
        np.testing.assert_allclose(b, 1.25)

    def test_determinism_same_seed(self, rng):
        x = rng.normal(size=(2, 3, 16, 1))
        out1 = build_model(desk_config(), seed=42).forward(x)
        out2 = build_model(desk_config(), seed=42).forward(x)
        assert np.array_equal(out1.logits.data, out2.logits.data)
        assert np.array_equal(out1.graphs, out2.graphs)

    def test_full_interval_equals_r_equals_t(self, rng):
        x = rng.normal(size=(2, 3, 16, 1))
        cfg_full = desk_config(gsl=GslConfig(r="full", knn_k=1, epsilon=0.0, kappa=0.05, heads=1))
        cfg_rt = desk_config(gsl=GslConfig(r=16, knn_k=1, epsilon=0.0, kappa=0.05, heads=1))
        out_full = build_model(cfg_full, seed=3).forward(x)
        out_rt = build_model(cfg_rt, seed=3).forward(x)
        np.testing.assert_allclose(out_full.logits.data, out_rt.logits.data, atol=1e-12)
        np.testing.assert_allclose(out_full.graphs, out_rt.graphs, atol=1e-12)
        assert out_full.graphs.shape == (2, 1, 3, 3)


class TestAblations:
    def test_no_gsl_runs_with_identity_graph(self, rng):
        model = build_model(desk_config(use_gsl=False), seed=0)
        out = model.forward(rng.normal(size=(1, 3, 16, 1)))
        np.testing.assert_allclose(out.graphs[0, 0], np.eye(3))
        assert out.reg_loss.item() == 0.0

    def test_no_gsl_with_supplied_graph(self, rng):
        fixed = [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]
        model = build_model(desk_config(use_gsl=False, fixed_graph=fixed), seed=0)
        out = model.forward(rng.normal(size=(1, 3, 16, 1)))
        np.testing.assert_allclose(out.graphs[0, 0], fixed)

    def test_no_gnn_runs(self, rng):
        model = build_model(desk_config(use_gnn=False), seed=0)
        out = model.forward(rng.normal(size=(1, 3, 16, 1)))
        assert out.logits.shape == (1, 1)

    def test_gru_encoder_variant(self, rng):
        model = build_model(desk_config(encoder="gru"), seed=0)
        out = model.forward(rng.normal(size=(1, 3, 16, 1)))
        assert out.logits.shape == (1, 1)


class TestPadding:
    """Only each S4 layer's convolution input and the interval pool are
    masked; the whole model must still see each padded record as truncated."""

    @pytest.mark.parametrize("encoder,bidirectional", [("s4", False), ("s4", True), ("gru", False)])
    def test_padded_equals_truncated(self, encoder, bidirectional):
        rng = np.random.default_rng(11)
        cfg = desk_config(encoder=encoder, bidirectional=bidirectional, s4_depth=2,
                          gsl=GslConfig(r="full", knn_k=1, epsilon=0.3, kappa=0.05, heads=1))
        model = build_model(cfg, seed=3)
        # trained-like values: a zero bias would hide a leak from padded steps
        for name, p in model.named_parameters():
            if name.rsplit(".", 1)[-1] in ("ln_beta", "d_skip", "b_in", "b_glu", "b_ih", "b_hh"):
                p.data[...] = rng.normal(size=p.shape)
        lengths = np.array([16, 11, 7])
        mask = np.arange(16) < lengths[:, None]
        x = rng.normal(size=(3, 3, 16, 1))
        x = np.where(mask[:, None, :, None], x, 1e3 * rng.normal(size=x.shape))
        out = model.forward(x, mask=mask)
        for i, t in enumerate(lengths):
            alone = model.forward(x[i:i + 1, :, :t])
            np.testing.assert_allclose(out.logits.data[i], alone.logits.data[0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(out.graphs[i], alone.graphs[0], rtol=0, atol=1e-12)


class TestSensorPermutation:
    """Relabelling the sensors relabels the learned graphs, W -> P W P^T, and
    leaves the logits unchanged, at initialization and after training."""

    @pytest.mark.parametrize("epochs", [0, 3])
    def test_graphs_permute_and_logits_stay(self, epochs):
        from ssmgraph.config import OptimConfig
        from ssmgraph.data import DatasetSpec, generate, stratified_split
        from ssmgraph.train import train_loop

        cfg = desk_config(n_sensors=5, d_model=8, s4_depth=2,
                          gsl=GslConfig(r=8, knn_k=2, epsilon=0.3, kappa=0.15, heads=2),
                          pool=PoolSpec(graph_pool="max", temporal_pool="mean"))
        assert cfg.dtype == "float64" and cfg.use_gsl and cfg.use_gnn
        model = build_model(cfg, seed=4)
        if epochs:
            data = generate(DatasetSpec(kind="correlation", n_sensors=5, t_len=32, size=16,
                                        seed=2))
            train_ds, val_ds = stratified_split(data, [0.75, 0.25], seed=2)
            train_loop(model, train_ds, val_ds,
                       OptimConfig(lr=1e-2, epochs=epochs, warmup_epochs=0, batch_size=4),
                       seed=2)
        rng = np.random.default_rng(9)
        x = rng.normal(size=(3, 5, 32, 1))
        perm = rng.permutation(5)
        out = model.forward(x)
        moved = model.forward(x[:, perm])
        np.testing.assert_allclose(moved.graphs, out.graphs[..., perm, :][..., perm],
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(moved.logits.data, out.logits.data, rtol=0, atol=1e-12)
        assert np.any(out.graphs != out.graphs[..., perm, :][..., perm])  # perm moves edges
        assert np.any(out.graphs == 0.0)  # and kappa prunes some


class TestLoss:
    def test_zero_reg_weights_total_is_prediction(self, rng):
        model = build_model(desk_config(reg=RegWeights()), seed=0)
        x = rng.normal(size=(2, 3, 16, 1))
        out = model.forward(x)
        y = np.array([0, 1])
        np.testing.assert_allclose(model.total_loss(out, y).item(),
                                   model.prediction_loss(out.logits, y).item(), atol=1e-15)

    def test_perfect_logits_loss_vanishes(self):
        model = build_model(desk_config(reg=RegWeights()), seed=0)
        big = Tensor(np.array([[20.0], [-20.0]]))
        loss = model.prediction_loss(big, np.array([1, 0]))
        assert loss.item() < 1e-8

    def test_reg_average_composes(self, rng):
        # n_d=2: total reg equals the mean of the two per-graph weighted sums
        model = build_model(desk_config(), seed=0)
        x = rng.normal(size=(1, 3, 16, 1))
        out = model.forward(x)
        h = model.encoder.encode(Tensor(np.asarray(x)))
        pooled = interval_mean_pool(h, model.cfg.gsl.r)
        w = model.gsl.build_graphs(pooled)
        per = []
        for t in range(2):
            per.append(reg_loss_total(Tensor(w.data[:, t]), Tensor(pooled.data[:, t]),
                                      model.cfg.reg).item())
        np.testing.assert_allclose(out.reg_loss.item(), np.mean(per), atol=1e-12)

    def test_multiclass_and_multilabel_paths(self, rng):
        cfg = desk_config(task="multiclass", n_classes=3)
        model = build_model(cfg, seed=0)
        out = model.forward(rng.normal(size=(2, 3, 16, 1)))
        loss = model.total_loss(out, np.array([0, 2]))
        assert np.isfinite(loss.item())

        cfg = desk_config(task="multilabel", n_classes=4)
        model = build_model(cfg, seed=0)
        out = model.forward(rng.normal(size=(2, 3, 16, 1)))
        loss = model.total_loss(out, rng.integers(0, 2, size=(2, 4)))
        assert np.isfinite(loss.item())

    def test_label_mismatch_rejected(self, rng):
        model = build_model(desk_config(), seed=0)
        out = model.forward(rng.normal(size=(2, 3, 16, 1)))
        with pytest.raises(ContractError):
            model.total_loss(out, np.zeros((2, 3)))


class TestGradcheckEndToEnd:
    def test_small_model_all_parameters(self, rng):
        # smaller than the acceptance-scale check, same path coverage;
        # dt bounds sized to T=16 keep every mode's gradient above the
        # central-difference noise floor
        cfg = desk_config(d_model=4, p_states=2, dt_min=0.05, dt_max=0.5,
                          gsl=GslConfig(r=8, knn_k=1, epsilon=0.0, kappa=0.02, heads=1))
        model = build_model(cfg, seed=11)
        x = rng.normal(size=(1, 3, 16, 1))
        y = np.array([1])

        def loss():
            out = model.forward(x)
            return model.total_loss(out, y)

        worst, per = backward_and_gradcheck(loss, dict(model.named_parameters()))
        assert worst <= 1e-4, per


class TestProfile:
    def test_gsl_param_count_at_width_128(self):
        assert gsl_param_count(128) == 32768

    def test_mac_table_values(self):
        # published cost table: N x 64 D^2 per graph at D=128
        assert gsl_mac_estimate(19, 128, 12000, 12000) == 19_922_944
        assert gsl_mac_estimate(19, 128, 12000, 1200) == 199_229_440
        assert gsl_mac_estimate(16, 128, 7500, 2500) == 50_331_648
        assert gsl_mac_estimate(12, 128, 6000, "full") == 12_582_912

    def test_macs_linear_params_constant(self):
        base = gsl_mac_estimate(19, 128, 12000, 12000)
        for n_d in (2, 3, 4, 5, 6, 8, 10):
            assert gsl_mac_estimate(19, 128, 12000, 12000 // n_d) == n_d * base
        assert gsl_param_count(128) == 32768  # unchanged by n_d


def checkpoint_bytes(model, params=None) -> bytes:
    """The GS4M version 3 layout: a dtype tag follows each tensor's shape and
    the tensor keeps the model's dtype. ``params`` (default: all of
    ``named_parameters()``) are the (name, tensor) pairs written."""
    blob = json.dumps({"config": asdict(model.cfg)}, sort_keys=True).encode("utf-8")
    params = model.named_parameters() if params is None else params
    parts = [b"GS4M", struct.pack("<II", 3, len(blob)), blob,
             struct.pack("<I", len(params))]
    for name, p in params:
        encoded = name.encode("utf-8")
        parts += [struct.pack("<I", len(encoded)), encoded, struct.pack("<I", p.ndim)]
        parts += [struct.pack("<I", dim) for dim in p.shape]
        tag = {np.float32: b"f4", np.float64: b"f8"}[p.data.dtype.type]
        parts += [tag, p.data.astype("<" + tag.decode()).tobytes()]
    return b"".join(parts)


class TestCheckpoint:
    def test_roundtrip_bitexact(self, rng, tmp_path):
        cfg = desk_config(dtype="float32")
        model = build_model(cfg, seed=5)
        path = tmp_path / "model.gs4m"
        raw1 = save_checkpoint(model, path, extra={"thresholds": [0.5]})
        loaded, extra = load_checkpoint(path)
        assert extra == {"thresholds": [0.5]}
        for (n1, p1), (n2, p2) in zip(model.named_parameters(), loaded.named_parameters()):
            assert n1 == n2
            np.testing.assert_array_equal(p1.data, p2.data)
        raw2 = save_checkpoint(loaded, None, extra=extra)
        assert raw1 == raw2

    def test_loaded_model_same_logits(self, rng, tmp_path):
        cfg = desk_config(dtype="float32")
        model = build_model(cfg, seed=5)
        path = tmp_path / "model.gs4m"
        save_checkpoint(model, path)
        loaded, _ = load_checkpoint(path)
        x = rng.normal(size=(1, 3, 16, 1)).astype(np.float32)
        np.testing.assert_array_equal(model.forward(x).logits.data,
                                      loaded.forward(x).logits.data)

    def test_float64_roundtrip_bitexact(self, rng, tmp_path):
        model = build_model(desk_config(dtype="float64"), seed=5)
        path = tmp_path / "model.gs4m"
        save_checkpoint(model, path)
        loaded, _ = load_checkpoint(path)
        for (n1, p1), (n2, p2) in zip(model.named_parameters(), loaded.named_parameters()):
            assert n1 == n2 and p2.data.dtype == np.float64
            assert p1.data.tobytes() == p2.data.tobytes(), n1
        assert np.any(model.encoder.layers[0].core.c_re.data.astype(np.float32)
                      != model.encoder.layers[0].core.c_re.data)  # not float32 values
        x = rng.normal(size=(2, 3, 16, 1))
        assert (model.forward(x).logits.data.tobytes()
                == loaded.forward(x).logits.data.tobytes())

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_version_3_layout(self, dtype):
        model = build_model(desk_config(dtype=dtype), seed=5)
        assert save_checkpoint(model, None) == checkpoint_bytes(model)

    @pytest.mark.parametrize("version", [1, 2, 4])
    def test_other_versions_rejected(self, tmp_path, version):
        raw = checkpoint_bytes(build_model(desk_config(), seed=5))
        (tmp_path / "old.gs4m").write_bytes(raw[:4] + struct.pack("<I", version) + raw[8:])
        with pytest.raises(CheckpointError, match=f"unsupported checkpoint version {version}"):
            load_checkpoint(tmp_path / "old.gs4m")

    def test_truncation_detected(self, tmp_path):
        model = build_model(desk_config(), seed=0)
        path = tmp_path / "model.gs4m"
        save_checkpoint(model, path)
        raw = path.read_bytes()
        (tmp_path / "bad.gs4m").write_bytes(raw[:-7])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(tmp_path / "bad.gs4m")

    @pytest.mark.parametrize("written, message", [
        ("first only", "parameter 'encoder.b_in' missing"),
        ("first twice", "parameter 'encoder.w_in' repeated"),
    ])
    def test_every_parameter_set_exactly_once(self, tmp_path, written, message):
        # a file holding only the first tensor would leave the rest at seed-0 values
        model = build_model(desk_config(), seed=5)
        params = model.named_parameters()
        params = params[:1] if written == "first only" else params[:1] + params
        (tmp_path / "bad.gs4m").write_bytes(checkpoint_bytes(model, params))
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(tmp_path / "bad.gs4m")

    def test_bad_magic_detected(self, tmp_path):
        (tmp_path / "junk.gs4m").write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(tmp_path / "junk.gs4m")


class TestParameterNames:
    """The checkpoint stores tensors in ``named_parameters()`` order, which
    is attribute assignment order; these lists pin that format."""

    def test_bidirectional_s4(self):
        model = build_model(desk_config(s4_depth=2, bidirectional=True), seed=0)
        assert [name for name, _ in model.named_parameters()] == [
            "encoder.w_in", "encoder.b_in",
            "encoder.layers.0.core.log_neg_re", "encoder.layers.0.core.lam_im",
            "encoder.layers.0.core.b_re", "encoder.layers.0.core.b_im",
            "encoder.layers.0.core.c_re", "encoder.layers.0.core.c_im",
            "encoder.layers.0.core.log_dt", "encoder.layers.0.core.d_skip",
            "encoder.layers.0.core_rev.log_neg_re", "encoder.layers.0.core_rev.lam_im",
            "encoder.layers.0.core_rev.b_re", "encoder.layers.0.core_rev.b_im",
            "encoder.layers.0.core_rev.c_re", "encoder.layers.0.core_rev.c_im",
            "encoder.layers.0.core_rev.log_dt", "encoder.layers.0.core_rev.d_skip",
            "encoder.layers.0.w_glu", "encoder.layers.0.b_glu",
            "encoder.layers.0.ln_gamma", "encoder.layers.0.ln_beta",
            "encoder.layers.1.core.log_neg_re", "encoder.layers.1.core.lam_im",
            "encoder.layers.1.core.b_re", "encoder.layers.1.core.b_im",
            "encoder.layers.1.core.c_re", "encoder.layers.1.core.c_im",
            "encoder.layers.1.core.log_dt", "encoder.layers.1.core.d_skip",
            "encoder.layers.1.core_rev.log_neg_re", "encoder.layers.1.core_rev.lam_im",
            "encoder.layers.1.core_rev.b_re", "encoder.layers.1.core_rev.b_im",
            "encoder.layers.1.core_rev.c_re", "encoder.layers.1.core_rev.c_im",
            "encoder.layers.1.core_rev.log_dt", "encoder.layers.1.core_rev.d_skip",
            "encoder.layers.1.w_glu", "encoder.layers.1.b_glu",
            "encoder.layers.1.ln_gamma", "encoder.layers.1.ln_beta",
            "gsl.mq", "gsl.mk",
            "gin.w1", "gin.b1", "gin.w2", "gin.b2", "gin.eps_gin",
            "head.w", "head.b",
        ]

    def test_gru_without_gsl(self):
        model = build_model(desk_config(encoder="gru", s4_depth=2, use_gsl=False), seed=0)
        assert [name for name, _ in model.named_parameters()] == [
            "encoder.w_in", "encoder.b_in",
            "encoder.layers.0.w_ih", "encoder.layers.0.w_hh",
            "encoder.layers.0.b_ih", "encoder.layers.0.b_hh",
            "encoder.layers.1.w_ih", "encoder.layers.1.w_hh",
            "encoder.layers.1.b_ih", "encoder.layers.1.b_hh",
            "gin.w1", "gin.b1", "gin.w2", "gin.b2", "gin.eps_gin",
            "head.w", "head.b",
        ]


class TestSaturatedSigmoids:
    """exp(-z) overflows for z below about -88 in float32; the sigmoids must
    saturate to exactly 0 and 1 without a warning, which tests turn into errors."""

    def test_gru_gates(self):
        f32 = np.float32
        x = Tensor(np.full((1, 2, 1), -100.0, dtype=f32), requires_grad=True)
        w_ih = Tensor(np.ones((1, 3), dtype=f32), requires_grad=True)
        w_hh = Tensor(np.zeros((1, 3), dtype=f32), requires_grad=True)
        b_ih = Tensor(np.zeros(3, dtype=f32), requires_grad=True)
        b_hh = Tensor(np.zeros(3, dtype=f32), requires_grad=True)
        h = gru_sequence(x, w_ih, w_hh, b_ih, b_hh)
        # r = z = 0 exactly, so every h_t = tanh(-100) = -1
        np.testing.assert_array_equal(h.data, np.full((1, 2, 1), -1.0, dtype=f32))
        h.sum().backward()
        assert np.all(np.isfinite(x.grad))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_binary_scores(self, dtype):
        model = build_model(desk_config(), seed=0)
        scores = model.scores(np.array([[-1e4], [1e4]], dtype=dtype))
        np.testing.assert_array_equal(scores, [[0.0], [1.0]])


class TestConfigValidation:
    def test_binary_needs_one_logit(self):
        with pytest.raises(ContractError):
            desk_config(task="binary", n_classes=2)

    def test_knn_k_bounded_by_sensors(self):
        with pytest.raises(ContractError):
            desk_config(gsl=GslConfig(r=8, knn_k=3, epsilon=0.0, kappa=0.0, heads=1))

    def test_heads_divide_width(self):
        with pytest.raises(ContractError):
            desk_config(gsl=GslConfig(r=8, knn_k=1, epsilon=0.0, kappa=0.0, heads=3))
