"""Full model assembly: per-channel sequence encoder -> interval pooling ->
graph structure learning -> GIN -> temporal/graph readout -> linear head.

Also owns the total loss, the graph learner's parameter/MAC cost model, and
the binary checkpoint format (magic "GS4M"). Tensors are written in
``named_parameters()`` order, the layers' attribute assignment order, so
reordering ``__init__`` assignments changes the bytes; loading is by name."""

from __future__ import annotations

import io
import json
import struct
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from . import tensor as T
from .data import TASKS
from .gnn import ClassifierHead, GinLayer, PoolSpec, temporal_graph_readout
from .graphlearn import (GslConfig, GslLayer, RegWeights, interval_mean_pool,
                         num_intervals, padding_mask, reg_loss_total)
from .rnn import GruLayer
from .s4 import DT_MAX_DEFAULT, DT_MIN_DEFAULT, S4Layer
from .tensor import ContractError, Module, ShapeError, Tensor

ENCODERS = ("s4", "gru")

CHECKPOINT_MAGIC = b"GS4M"
# Version 3, the only one read: each tensor follows its shape with a dtype tag
# and is stored in the model's dtype, so a float64 model round-trips exactly.
CHECKPOINT_VERSION = 3
CHECKPOINT_DTYPES = {b"f4": np.dtype("<f4"), b"f8": np.dtype("<f8")}

# Self-attention cost model: MACs per node per interval at width D.
GSL_MACS_NODE_FACTOR = 64


@dataclass
class ModelConfig:
    n_sensors: int = 6
    input_dim: int = 1
    d_model: int = 16
    s4_depth: int = 2
    p_states: int = 4
    bidirectional: bool = False
    dropout: float = 0.0
    encoder: str = "s4"
    use_gsl: bool = True
    use_gnn: bool = True
    gsl: GslConfig = field(default_factory=GslConfig)
    reg: RegWeights = field(default_factory=RegWeights)
    pool: PoolSpec = field(default_factory=PoolSpec)
    n_classes: int = 1
    task: str = "binary"
    fixed_graph: list | None = None  # used when use_gsl is False; identity if None
    dtype: str = "float64"
    dt_min: float = DT_MIN_DEFAULT   # initialization bounds for the SSM step size
    dt_max: float = DT_MAX_DEFAULT

    def __post_init__(self):
        if self.task not in TASKS:
            raise ContractError(f"task must be one of {TASKS}, got {self.task!r}")
        if self.encoder not in ENCODERS:
            raise ContractError(f"encoder must be one of {ENCODERS}, got {self.encoder!r}")
        for name in ("input_dim", "d_model", "s4_depth", "p_states"):
            if getattr(self, name) < 1:
                raise ContractError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 <= self.dropout < 1.0:
            raise ContractError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.task == "binary" and self.n_classes != 1:
            raise ContractError("binary task uses a single sigmoid logit (n_classes=1)")
        if self.task != "binary" and self.n_classes < 2:
            raise ContractError(f"{self.task} task needs n_classes >= 2")
        if self.d_model % self.gsl.heads != 0:
            raise ContractError(f"d_model {self.d_model} not divisible by heads {self.gsl.heads}")
        if not 1 <= self.gsl.knn_k < self.n_sensors:
            raise ContractError(f"knn_k must be in [1, {self.n_sensors - 1}]")
        if self.dtype not in ("float32", "float64"):
            raise ContractError(f"dtype must be float32 or float64, got {self.dtype!r}")
        if not 0.0 < self.dt_min <= self.dt_max < np.inf:
            raise ContractError(f"need 0 < dt_min <= dt_max < inf, "
                                f"got [{self.dt_min}, {self.dt_max}]")
        if self.fixed_graph is not None:
            g = np.asarray(self.fixed_graph, dtype=float)
            if g.shape != (self.n_sensors, self.n_sensors) or not np.all(np.isfinite(g)):
                raise ContractError(f"fixed_graph must be a finite {self.n_sensors}x"
                                    f"{self.n_sensors} matrix")

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64


@dataclass
class ModelOutput:
    logits: Tensor              # (B, C)
    graphs: np.ndarray          # (B, n_d, N, N) adjacency values
    reg_loss: Tensor            # scalar, already averaged over graphs and batch


class SequenceEncoder(Module):
    """Shared-weight per-channel encoder: (B, N, T, M) -> (B, N, T, D).

    Every sensor sequence runs through the same input projection and layer
    stack (S4 blocks or GRU layers), so permuting sensors permutes outputs
    identically. ``make_layer(rng)`` builds one layer; layers are drawn after
    the projection. A timestep mask goes to every layer and is not applied
    here: outputs at padded steps hold values that no valid step reads, and
    ``interval_mean_pool`` masks them, so padded records pool as truncated.
    """

    def __init__(self, input_dim: int, d_model: int, depth: int, make_layer,
                 rng: np.random.Generator, dtype=np.float64):
        self.input_dim = input_dim
        self.d_model = d_model
        self.w_in = Tensor(rng.normal(0.0, input_dim ** -0.5, (input_dim, d_model)),
                           requires_grad=True, dtype=dtype)
        self.b_in = Tensor(np.zeros(d_model), requires_grad=True, dtype=dtype)
        self.layers = [make_layer(rng) for _ in range(depth)]

    def encode(self, x: Tensor, mask: np.ndarray | None = None, train: bool = False,
               rng: np.random.Generator | None = None) -> Tensor:
        if x.ndim != 4:
            raise ShapeError(f"encoder expects (B, N, T, M), got {x.shape}")
        batch, n_sensors, length, m = x.shape
        if m != self.input_dim:
            raise ShapeError(f"input width {m} != configured {self.input_dim}")
        h = x.reshape((batch * n_sensors, length, m)) @ self.w_in + self.b_in
        mask_arr = padding_mask(mask, batch, length, h.dtype)
        mask_flat = None if mask_arr is None else Tensor(np.repeat(mask_arr, n_sensors, axis=0)[:, :, None])
        for layer in self.layers:
            h = layer.forward(h, train=train, rng=rng, mask=mask_flat)
        return h.reshape((batch, n_sensors, length, self.d_model))


class SsmGraphModel(Module):
    """Sequence-then-graph classifier over multivariate sensor signals."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.cfg = cfg
        dtype = cfg.np_dtype
        if cfg.encoder == "s4":
            make_layer = partial(S4Layer, cfg.d_model, cfg.p_states,
                                 bidirectional=cfg.bidirectional, dropout=cfg.dropout,
                                 dtype=dtype, dt_min=cfg.dt_min, dt_max=cfg.dt_max)
        else:
            make_layer = partial(GruLayer, cfg.d_model, cfg.d_model,
                                 dropout=cfg.dropout, dtype=dtype)
        self.encoder = SequenceEncoder(cfg.input_dim, cfg.d_model, cfg.s4_depth, make_layer,
                                       rng, dtype)
        self.gsl = GslLayer(cfg.d_model, cfg.gsl, rng, dtype) if cfg.use_gsl else None
        self.gin = GinLayer(cfg.d_model, rng, cfg.dropout, dtype) if cfg.use_gnn else None
        self.head = ClassifierHead(cfg.d_model, cfg.n_classes, rng, dtype)

    def forward(self, x, mask: np.ndarray | None = None, train: bool = False,
                rng: np.random.Generator | None = None) -> ModelOutput:
        """Run the full pipeline on a batch (B, N, T, M)."""
        x = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=self.cfg.np_dtype))
        if x.ndim != 4:
            raise ShapeError(f"expected (B, N, T, M), got {x.shape}")
        if x.shape[1] != self.cfg.n_sensors:
            raise ShapeError(f"{x.shape[1]} sensors != configured {self.cfg.n_sensors}")
        t_len = x.shape[2]
        num_intervals(t_len, self.cfg.gsl.r)  # rejects indivisible fixed-length setups

        h = self.encoder.encode(x, mask=mask, train=train, rng=rng)
        pooled = interval_mean_pool(h, self.cfg.gsl.r, mask)      # (B, n_d, N, D)

        if self.gsl is not None:
            w = self.gsl.build_graphs(pooled)
            reg = reg_loss_total(w, pooled, self.cfg.reg)
        else:
            dtype = self.cfg.np_dtype
            g = (np.eye(self.cfg.n_sensors, dtype=dtype) if self.cfg.fixed_graph is None
                 else np.asarray(self.cfg.fixed_graph, dtype=dtype))
            w = Tensor(np.broadcast_to(g, pooled.shape[:2] + g.shape).copy())
            reg = Tensor(np.zeros((), dtype=dtype))

        z = self.gin.forward(pooled, w, train=train, rng=rng) if self.gin is not None else pooled
        readout = temporal_graph_readout(z, self.cfg.pool)        # (B, D)
        logits = self.head.forward(readout)
        return ModelOutput(logits=logits, graphs=w.data, reg_loss=reg)

    def total_loss(self, out: ModelOutput, y) -> Tensor:
        """Prediction loss plus the (already per-graph-averaged) regularization."""
        return self.prediction_loss(out.logits, y) + out.reg_loss

    def prediction_loss(self, logits: Tensor, y) -> Tensor:
        """Softmax cross-entropy on class indices (multiclass), else sigmoid
        cross-entropy per logit column; binary labels (B,) are one column."""
        task = self.cfg.task
        y = np.asarray(y)
        if task == "multiclass":
            if y.shape != logits.shape[:1]:
                raise ContractError("multiclass task expects integer labels of shape (B,)")
            return T.softmax_cross_entropy(logits, y)
        if task == "binary":
            y = y[..., None]
        if y.shape != logits.shape:
            raise ContractError(f"{task} labels shape {y.shape} != logits {logits.shape}")
        return T.bce_with_logits(logits, y)

    def scores(self, logits: np.ndarray) -> np.ndarray:
        """Map logits to decision scores: sigmoid probabilities or softmax rows."""
        if self.cfg.task == "multiclass":
            return T._softmax(logits)
        return T._sigmoid(logits)


def build_model(cfg: ModelConfig, seed: int) -> SsmGraphModel:
    return SsmGraphModel(cfg, np.random.default_rng(seed))


# -- profiling ------------------------------------------------------------


def gsl_param_count(d_model: int) -> int:
    """Query + key projections, shared across heads: 2 * D^2."""
    return 2 * d_model * d_model


def gsl_mac_estimate(n_sensors: int, d_model: int, t_len: int, r) -> int:
    """Attention cost for all dynamic graphs of one record.

    The same layer runs once per interval, so MACs scale linearly in
    n_d = T / r while the parameter count stays fixed.
    """
    n_d = num_intervals(t_len, r)
    return n_d * n_sensors * GSL_MACS_NODE_FACTOR * d_model * d_model


# -- checkpoint I/O ---------------------------------------------------------


def save_checkpoint(model: SsmGraphModel, path, extra: dict | None = None) -> bytes:
    """Write magic, version, embedded config JSON, then the named tensors in
    ``named_parameters()`` (attribute assignment) order, each tagged with and
    stored in the model's dtype."""
    payload = {"config": asdict(model.cfg)}
    if extra:
        payload["extra"] = extra
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<I", CHECKPOINT_VERSION))
    buf.write(struct.pack("<I", len(blob)))
    buf.write(blob)
    params = model.named_parameters()
    buf.write(struct.pack("<I", len(params)))
    for name, p in params:
        encoded = name.encode("utf-8")
        buf.write(struct.pack("<I", len(encoded)))
        buf.write(encoded)
        buf.write(struct.pack("<I", p.ndim))
        for dim in p.shape:
            buf.write(struct.pack("<I", dim))
        stored = p.data.astype(p.data.dtype.newbyteorder("<"))
        buf.write(stored.dtype.str[1:].encode("ascii"))      # b"f4" or b"f8"
        buf.write(stored.tobytes())
    raw = buf.getvalue()
    if path is not None:
        with open(path, "wb") as fh:
            fh.write(raw)
    return raw


class CheckpointError(ValueError):
    pass


def load_checkpoint(path) -> tuple[SsmGraphModel, dict]:
    """Rebuild a model from a checkpoint, which must set every parameter
    exactly once; returns (model, extra-metadata). Errors, a bad JSON blob or
    embedded config among them, name the file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return _parse_checkpoint(raw)
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from None


def _parse_checkpoint(raw: bytes) -> tuple[SsmGraphModel, dict]:
    off = 0

    def need(n: int) -> bytes:
        nonlocal off
        if off + n > len(raw):
            raise CheckpointError(f"truncated checkpoint at byte {off}")
        chunk = raw[off:off + n]
        off += n
        return chunk

    if need(4) != CHECKPOINT_MAGIC:
        raise CheckpointError("bad magic at byte 0")
    version = struct.unpack("<I", need(4))[0]
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    blob_len = struct.unpack("<I", need(4))[0]
    payload = json.loads(need(blob_len).decode("utf-8"))
    if not (isinstance(payload, dict) and isinstance(payload.get("config"), dict)
            and isinstance(payload.get("extra", {}), dict)):
        raise CheckpointError("JSON blob must be an object with a 'config' object "
                              "and, if present, an 'extra' object")
    from .config import parse_model_config  # config imports this module
    cfg = parse_model_config(payload["config"])
    model = build_model(cfg, seed=0)
    params = dict(model.named_parameters())
    n_tensors = struct.unpack("<I", need(4))[0]
    loaded = set()
    for _ in range(n_tensors):
        name_len = struct.unpack("<I", need(4))[0]
        name = need(name_len).decode("utf-8")
        ndim = struct.unpack("<I", need(4))[0]
        shape = tuple(struct.unpack("<I", need(4))[0] for _ in range(ndim))
        count = int(np.prod(shape)) if shape else 1
        tag = need(2)
        if tag not in CHECKPOINT_DTYPES:
            raise CheckpointError(f"unknown dtype tag {tag!r} of {name!r}")
        dtype = CHECKPOINT_DTYPES[tag]
        values = np.frombuffer(need(dtype.itemsize * count), dtype=dtype).reshape(shape)
        if name not in params:
            raise CheckpointError(f"unknown parameter {name!r} in checkpoint")
        if name in loaded:
            raise CheckpointError(f"parameter {name!r} repeated in checkpoint")
        loaded.add(name)
        if params[name].shape != shape:
            raise CheckpointError(f"parameter {name!r} shape {shape} != {params[name].shape}")
        params[name].data[...] = values.astype(cfg.np_dtype)
    if off != len(raw):
        raise CheckpointError(f"trailing bytes at offset {off}")
    missing = [name for name in params if name not in loaded]
    if missing:
        raise CheckpointError(f"parameter {missing[0]!r} missing from checkpoint")
    return model, payload.get("extra", {})
