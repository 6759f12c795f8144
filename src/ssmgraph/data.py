"""Synthetic tasks, record containers, BSG1 binary I/O, splits, and class
balancing.

``generate`` makes either of two binary tasks, which make the model's
mechanisms falsifiable at desk scale:

* correlation task: the two classes differ only in cross-sensor correlation
  structure appearing in the second half of each record; per-sensor
  marginals match exactly, so per-channel features carry no signal.
* long-range task: the label is decided by a brief marker in the first 1%
  of timesteps, followed by distractor noise.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

TASKS = ("binary", "multiclass", "multilabel")
_KIND_INDEX = 0     # label stored as a class index
_KIND_BITMASK = 1   # label stored as a multilabel bitmask

BSG1_MAGIC = b"BSG1"
BSG1_VERSION = 2  # the only version read; version 1 had no padded length


class ParseError(ValueError):
    """Malformed dataset file; message carries the byte offset."""


@dataclass
class SignalRecord:
    x: np.ndarray            # (N, T_max, M), zero-padded past true_length
    y: object                # int class index, or (C,) multihot array
    mask: np.ndarray         # (T_max,) bool, true on [0, true_length)
    true_length: int
    record_id: str

    def __post_init__(self):
        if self.x.ndim != 3:
            raise ValueError(f"x must be (N, T, M), got {self.x.shape}")
        t_max = self.x.shape[1]
        if not 1 <= self.true_length <= t_max:
            raise ValueError(f"true_length {self.true_length} outside [1, {t_max}]")
        expected = np.arange(t_max) < self.true_length
        if not np.array_equal(self.mask, expected):
            raise ValueError("mask must be true exactly on [0, true_length)")
        if self.true_length < t_max and np.any(self.x[:, self.true_length:] != 0):
            raise ValueError("padded region of x must be zero")


@dataclass
class Dataset:
    records: list
    task: str
    n_classes: int

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"task must be one of {TASKS}, got {self.task!r}")

    def __len__(self) -> int:
        return len(self.records)


def stack_labels(records) -> np.ndarray:
    """Class indices (n,), or multi-hot rows (n, C) of multilabel records."""
    return np.array([r.y for r in records], dtype=np.int64)


def collate(records, dtype=np.float64):
    """Stack records into batch arrays (x, y, mask)."""
    x = np.stack([r.x for r in records]).astype(dtype)
    mask = np.stack([r.mask for r in records]).astype(dtype)
    return x, stack_labels(records), mask


# Correlation task: every stream mixes a fast AR(1), a slower AR(1) (fresh
# evidence per pooling interval), and a Gaussian level held constant over
# each record half (a persistent signature that is invisible to within-half
# sample correlations); the variance fractions sum to 1, and the identical
# mixture in both classes keeps marginals flat.
NOISE_PHI = 0.6
SLOW_PHI = 0.93
FAST_FRAC = 0.55
SLOW_FRAC = 0.2
LEVEL_FRAC = 0.25


@dataclass
class DatasetSpec:
    """A binary synthetic task: ``kind`` is "correlation" or "longrange"."""
    kind: str
    n_sensors: int = 6
    t_len: int = 2048
    input_dim: int = 1
    size: int = 100
    seed: int = 0
    class_balance: float = 0.5
    clique_corr: float = 0.95      # pairwise correlation inside the active clique
    marker_amplitude: float = 1.5  # longrange marker strength (0 -> null task)

    def __post_init__(self):
        if self.kind not in ("correlation", "longrange"):
            raise ValueError(f"unknown generator kind {self.kind!r}")
        for name in ("n_sensors", "t_len", "input_dim", "size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.class_balance < 1.0:
            raise ValueError("class_balance must be in (0, 1)")
        if not 0.0 <= self.clique_corr <= 1.0:
            raise ValueError(f"clique_corr must be in [0, 1], got {self.clique_corr}")
        if not np.isfinite(self.marker_amplitude):
            raise ValueError(f"marker_amplitude must be finite, got {self.marker_amplitude}")
        if self.kind == "correlation" and self.n_sensors < 3:
            raise ValueError("correlation task needs n_sensors >= 3")
        if self.kind == "longrange" and self.t_len < 1024:
            raise ValueError("longrange task needs t_len >= 1024")

    def resolved_clique(self) -> int:
        return max(2, self.n_sensors // 2)


def _ar1(eps: np.ndarray, phi: float) -> np.ndarray:
    """Turn unit normal noise into stationary unit-variance AR(1) noise along
    the last axis, in place: x_0 = eps_0, x_t = phi * x_(t-1) + sqrt(1 - phi^2) * eps_t.

    The recurrence takes one Python step per timestep whatever the leading
    shape, so callers filter every stream of one phi in one call; it runs
    over a time-major copy, where each step is one contiguous block.
    """
    scale = np.sqrt(1.0 - phi * phi)
    steps = np.moveaxis(eps, -1, 0).copy()
    for t in range(1, steps.shape[0]):
        steps[t] = phi * steps[t - 1] + scale * steps[t]
    eps[...] = np.moveaxis(steps, 0, -1)
    return eps


def marker_template(length: int) -> np.ndarray:
    """Deterministic unit-RMS marker pattern (matched-filter target)."""
    t = (np.arange(length) + 0.5) / length
    raw = np.sin(2 * np.pi * 3 * t) + 0.5 * np.cos(2 * np.pi * 7 * t)
    return raw / np.sqrt(np.mean(raw * raw))


def marker_length(t_len: int) -> int:
    return max(1, t_len // 100)


def _correlation_signals(spec: DatasetSpec, labels, rngs):
    """Class 1: a sensor clique shares a common latent (blended fast stream
    plus an identical second-half level); class 0: all sensors independent.

    Per-sensor marginals are identical across classes by construction, so
    per-channel statistics carry no signal; only the cross-sensor structure,
    appearing in the second half, separates the classes."""
    clique = spec.resolved_clique()
    a = np.sqrt(spec.clique_corr)
    b = np.sqrt(1.0 - spec.clique_corr)
    half = spec.t_len // 2
    w_fast = np.sqrt(FAST_FRAC)
    w_slow = np.sqrt(SLOW_FRAC)
    w_level = np.sqrt(LEVEL_FRAC)
    n = spec.n_sensors
    # per record, row n is the clique's shared stream
    fast = np.empty((spec.size, n + 1, spec.t_len))
    slow = np.empty((spec.size, n + 1, spec.t_len))
    levels = np.empty((spec.size, n, 2))                  # one level per half
    level_shared = np.empty(spec.size)
    for i, rng in enumerate(rngs):
        fast[i, :n] = rng.normal(size=(n, spec.t_len))
        fast[i, n] = rng.normal(size=(spec.t_len,))
        slow[i, :n] = rng.normal(size=(n, spec.t_len))
        slow[i, n] = rng.normal(size=(spec.t_len,))
        levels[i] = rng.normal(size=(n, 2))
        level_shared[i] = rng.normal()
    _ar1(fast, NOISE_PHI)
    _ar1(slow, SLOW_PHI)
    for i in range(spec.size):
        if labels[i] == 1:
            fast[i, :clique, half:] = (a * fast[i, n, half:]
                                       + b * fast[i, :clique, half:])
            slow[i, :clique, half:] = (a * slow[i, n, half:]
                                       + b * slow[i, :clique, half:])
            levels[i, :clique, 1] = level_shared[i]
        x = w_fast * fast[i, :n] + w_slow * slow[i, :n]
        x[:, :half] += w_level * levels[i, :, :1]
        x[:, half:] += w_level * levels[i, :, 1:]
        x /= x.std()  # unit global std; a per-record scalar keeps correlations
        yield np.repeat(x[:, :, None], spec.input_dim, axis=2)


def _longrange_signals(spec: DatasetSpec, labels, rngs):
    """Class 1 carries a short marker in the first 1% of timesteps; the rest
    of the record is distractor noise on every sensor."""
    m_len = marker_length(spec.t_len)
    template = marker_template(m_len)
    for label, rng in zip(labels, rngs):
        x = rng.normal(size=(spec.n_sensors, spec.t_len, spec.input_dim))
        if label == 1:
            x[:, :m_len, 0] += spec.marker_amplitude * template
        yield x


def generate(spec: DatasetSpec) -> Dataset:
    """The binary task of ``spec.kind``: a ``class_balance`` share of the
    labels is 1, shuffled by the seed's first child; record i draws its
    signals from the seed's child i of a second spawn."""
    ss = np.random.SeedSequence(spec.seed)
    labels = np.zeros(spec.size, dtype=np.int64)
    labels[:int(round(spec.size * spec.class_balance))] = 1
    np.random.default_rng(ss.spawn(1)[0]).shuffle(labels)
    rngs = [np.random.default_rng(child) for child in ss.spawn(spec.size)]
    signals, prefix = ((_correlation_signals, "corr") if spec.kind == "correlation"
                       else (_longrange_signals, "long"))
    records = [SignalRecord(x=x, y=int(y), mask=np.ones(spec.t_len, dtype=bool),
                            true_length=spec.t_len, record_id=f"{prefix}-{i:05d}")
               for i, (x, y) in enumerate(zip(signals(spec, labels, rngs), labels))]
    return Dataset(records=records, task="binary", n_classes=2)


# -- splits and balancing ---------------------------------------------------


def stratified_split(dataset: Dataset, fractions, seed: int) -> list:
    """Split preserving per-class proportions within one record per class."""
    fractions = list(fractions)
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {fractions}")
    rng = np.random.default_rng(seed)
    if dataset.task == "multilabel":
        groups = {"all": list(range(len(dataset)))}
    else:
        labels = stack_labels(dataset.records)
        groups = {c: list(np.flatnonzero(labels == c)) for c in np.unique(labels)}
    parts = [[] for _ in fractions]
    for _, idxs in sorted(groups.items(), key=lambda kv: str(kv[0])):
        idxs = np.array(idxs)
        rng.shuffle(idxs)
        bounds = np.floor(np.cumsum(fractions) * len(idxs) + 0.5).astype(int)
        bounds[-1] = len(idxs)
        start = 0
        for part, stop in zip(parts, bounds):
            part.extend(idxs[start:stop].tolist())
            start = stop
    out = []
    for part in parts:
        part.sort()
        out.append(Dataset(records=[dataset.records[i] for i in part],
                           task=dataset.task, n_classes=dataset.n_classes))
    return out


def undersample_majority(records: list, rng: np.random.Generator) -> list:
    """Drop majority-class records until every class matches the minority count."""
    labels = np.array([int(r.y) for r in records])
    classes, counts = np.unique(labels, return_counts=True)
    target = counts.min()
    keep = []
    for c in classes:
        idxs = np.flatnonzero(labels == c)
        rng.shuffle(idxs)
        keep.extend(idxs[:target].tolist())
    keep.sort()
    return [records[i] for i in keep]


# -- binary I/O --------------------------------------------------------


def _label_block(record: SignalRecord, task: str, n_classes: int) -> bytes:
    if task == "multilabel":
        bits = np.asarray(record.y, dtype=np.int64)
        if bits.shape != (n_classes,) or n_classes > 32:
            raise ValueError("multilabel bitmask supports up to 32 aligned classes")
        value = int(sum(int(b) << i for i, b in enumerate(bits)))
        kind = _KIND_BITMASK
    else:
        value = int(record.y)
        kind = _KIND_INDEX
    rid = record.record_id.encode("utf-8")
    return struct.pack("<IIII", kind, n_classes, value, len(rid)) + rid


def save_bsg1(dataset: Dataset, path) -> bytes:
    """magic | u32 version | u32 record count | u32 padded length | per record:
    u32 N, T, M | label block | f32 LE values row-major (sensor, time, feature),
    each finite.

    T is each record's true length; the padded length is the longest record
    array, so every record loads back zero-padded to the length it had.
    """
    t_pad = max((rec.x.shape[1] for rec in dataset.records), default=0)
    parts = [BSG1_MAGIC, struct.pack("<III", BSG1_VERSION, len(dataset.records), t_pad)]
    for rec in dataset.records:
        n, _, m = rec.x.shape
        t = rec.true_length
        parts.append(struct.pack("<III", n, t, m))
        parts.append(_label_block(rec, dataset.task, dataset.n_classes))
        values = rec.x[:, :t, :].astype("<f4")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"record {rec.record_id!r}: values must be finite in float32")
        parts.append(values.tobytes())
    raw = b"".join(parts)
    if path is not None:
        with open(path, "wb") as fh:
            fh.write(raw)
    return raw


def load_bsg1(path) -> Dataset:
    """Parse a BSG1 file, records zero-padded to the header's padded length;
    errors, a non-finite value among them, name the file and byte offset."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return _parse_bsg1(raw)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _parse_bsg1(raw: bytes) -> Dataset:
    off = 0

    def need(n: int, what: str) -> bytes:
        nonlocal off
        if off + n > len(raw):
            raise ParseError(f"truncated {what} at byte {off}")
        chunk = raw[off:off + n]
        off += n
        return chunk

    if need(4, "magic") != BSG1_MAGIC:
        raise ParseError("bad magic at byte 0")
    version = struct.unpack("<I", need(4, "version"))[0]
    if version != BSG1_VERSION:
        raise ParseError(f"unsupported version {version} at byte 4")
    count, t_pad = struct.unpack("<II", need(8, "header"))
    records = []
    task, n_classes = "binary", 2  # an empty file's
    for i in range(count):
        n, t, m = struct.unpack("<III", need(12, f"record {i} shape"))
        if t > t_pad:
            raise ParseError(f"record {i} length {t} exceeds padded length {t_pad} "
                             f"at byte {off - 8}")
        kind, classes, value, id_len = struct.unpack("<IIII", need(16, f"record {i} label"))
        if kind not in (_KIND_INDEX, _KIND_BITMASK) or (kind == _KIND_BITMASK and classes > 32):
            raise ParseError(f"record {i} label block at byte {off - 16}: kind {kind} with "
                             f"{classes} classes is neither 0 (class index) nor 1 (bitmask "
                             f"of at most 32 classes)")
        try:
            rid = need(id_len, f"record {i} id").decode("utf-8")
        except UnicodeDecodeError:
            raise ParseError(f"record {i} id at byte {off - id_len} is not UTF-8") from None
        values = np.frombuffer(need(4 * n * t * m, f"record {i} values"), dtype="<f4")
        if not np.all(np.isfinite(values)):
            raise ParseError(f"record {i} values at byte {off - values.nbytes} are not all finite")
        rec_task = "multilabel" if kind == _KIND_BITMASK else (
            "binary" if classes == 2 else "multiclass")
        if not records:
            task, n_classes = rec_task, classes
        elif (task, n_classes) != (rec_task, classes):
            raise ParseError(f"inconsistent label block in record {i}")
        if kind == _KIND_BITMASK:
            y = np.array([(value >> b) & 1 for b in range(classes)], dtype=np.int64)
        else:
            y = int(value)
        x = np.zeros((n, t_pad, m))
        x[:, :t] = values.reshape(n, t, m)
        records.append(SignalRecord(x=x, y=y, mask=np.arange(t_pad) < t,
                                    true_length=t, record_id=rid))
    if off != len(raw):
        raise ParseError(f"trailing bytes at offset {off}")
    return Dataset(records=records, task=task, n_classes=n_classes)
