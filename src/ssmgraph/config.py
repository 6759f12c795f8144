"""Strict JSON run configuration and named presets mirroring the published
training setups.

A run file is one JSON object. Its keys: ``preset`` (a ``PRESETS`` name
whose ``model`` and ``optim`` sections are the base), ``model``
(``ModelConfig`` fields; ``gsl``, ``reg`` and ``pool`` are nested objects),
``optim`` (``OptimConfig``), ``data`` (``DataConfig``: a synthetic ``spec``
with an optional ``split``, or BSG1 ``train``/``val``/``test`` paths) and
``seed`` (one integer for the model, split and training RNGs; default 0).

``load_run_config`` merges, later sources winning: the preset, the file,
each ``--set PATH=JSON`` override, then the ``--seed`` flag. Objects merge
key by key; any other value replaces. Unknown keys and values whose type
does not match the field's annotation raise ``ConfigError`` naming the
field path, e.g. ``model.gsl.r`` or ``optim.lr``.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import typing

from .data import DatasetSpec, generate, load_bsg1, stratified_split
from .model import ModelConfig


class ConfigError(ValueError):
    """Invalid run configuration; message carries the offending field path."""


def _check(value, hint, path: str):
    """``value`` checked against annotation ``hint``; dataclasses are filled
    recursively. Integers pass as floats, booleans only as bools."""
    options = typing.get_args(hint) or (hint,)
    if value is None and type(None) in options:
        return None
    for t in options:
        if dataclasses.is_dataclass(t):
            return _strict_fill(t, value, path)
        if (t is float and type(value) is int
                or isinstance(value, t) and (type(value) is not bool or t is bool)):
            return value
    names = " or ".join("null" if t is type(None) else t.__name__ for t in options)
    raise ConfigError(f"{path}: expected {names}, got {type(value).__name__}")


def _strict_fill(cls, data, path: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object, got {type(data).__name__}")
    hints = typing.get_type_hints(cls)
    unknown = sorted(set(data) - set(hints))
    if unknown:
        raise ConfigError(f"{path}.{unknown[0]}: unknown key".lstrip("."))
    kwargs = {k: _check(v, hints[k], f"{path}.{k}".lstrip(".")) for k, v in data.items()}
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def parse_model_config(data: dict, path: str = "model") -> ModelConfig:
    return _strict_fill(ModelConfig, data, path)


@dataclasses.dataclass
class OptimConfig:
    lr: float = 1e-3
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    epochs: int = 100
    warmup_epochs: int = 5
    batch_size: int = 4
    patience: int = 20
    undersample: bool = False

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.patience < 1:
            raise ValueError("epochs, batch_size, and patience must be >= 1")
        if not 0 <= self.warmup_epochs <= self.epochs:
            raise ValueError("warmup_epochs must lie in [0, epochs]")


@dataclasses.dataclass
class DataConfig:
    """A synthetic ``spec`` split by ``split`` fractions, or BSG1 paths."""
    train: str | None = None
    val: str | None = None
    test: str | None = None
    spec: DatasetSpec | None = None
    split: list = dataclasses.field(default_factory=lambda: [0.7, 0.15, 0.15])

    def __post_init__(self):
        if self.spec is None and (self.train is None or self.val is None):
            raise ConfigError("data: need either 'spec' or 'train'+'val' paths")
        if len(self.split) not in (2, 3) or abs(sum(self.split) - 1.0) > 1e-9:
            raise ConfigError(f"data.split: expected 2 or 3 fractions summing to 1, "
                              f"got {self.split}")

    def load(self, seed: int) -> tuple:
        """(train, val, test) datasets; test is None without a third part."""
        if self.spec is None:
            return tuple(None if p is None else load_bsg1(p)
                         for p in (self.train, self.val, self.test))
        return (*stratified_split(generate(self.spec), self.split, seed), None)[:3]


@dataclasses.dataclass
class RunConfig:
    model: ModelConfig
    optim: OptimConfig
    data: DataConfig
    seed: int

    def __post_init__(self):
        if self.optim.undersample and self.model.task == "multilabel":
            raise ConfigError("optim.undersample: majority-class undersampling needs "
                              "one class per record, not a multilabel task")


def _merge(dst: dict, src: dict) -> None:
    for key, value in src.items():
        if isinstance(value, dict) and isinstance(dst.get(key), dict):
            _merge(dst[key], value)
        else:
            dst[key] = value


def load_run_config(path, overrides=(), seed: int | None = None) -> tuple[dict, RunConfig]:
    """Merge preset, file, ``PATH=JSON`` overrides and seed (see the module
    docstring); returns the merged dict and the checked ``RunConfig``."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a JSON object, got {type(raw).__name__}")
    merged: dict = {"model": {}, "optim": {}, "data": {}, "seed": 0}
    if "preset" in raw:
        _merge(merged, preset(raw.pop("preset")))
    _merge(merged, raw)
    for override in overrides:
        dotted, sep, text = override.partition("=")
        if not sep:
            raise ConfigError(f"--set {override!r}: expected PATH=VALUE")
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        for key in reversed(dotted.split(".")):
            value = {key: value}
        _merge(merged, value)
    if seed is not None:
        merged["seed"] = seed
    return merged, _strict_fill(RunConfig, merged, "")


# Named presets following the published per-dataset hyperparameters; the
# sweep ranges behind them: lr in [1e-4, 1e-2], dropout in [0.1, 0.5],
# width in {64, 128, 256}, depth in {2, 3, 4}, GNN layers in {1, 2},
# kappa in [0.01, 0.5], K in {2, 3}, epsilon in [0.3, 0.6], reg weights in [0, 1].
PRESETS: dict[str, dict] = {
    "tusz-like": {
        "model": {
            "n_sensors": 19, "input_dim": 1, "d_model": 128, "s4_depth": 4,
            "bidirectional": False, "dropout": 0.1,
            "gsl": {"r": 2000, "knn_k": 2, "epsilon": 0.6, "kappa": 0.1, "heads": 4},
            "reg": {"alpha": 0.05, "beta": 0.05, "gamma": 0.05},
            "pool": {"graph_pool": "max", "temporal_pool": "mean"},
            "n_classes": 1, "task": "binary", "dtype": "float32",
        },
        "optim": {"lr": 8e-4, "batch_size": 4, "epochs": 100, "undersample": True},
    },
    "dodh-like": {
        "model": {
            "n_sensors": 16, "input_dim": 1, "d_model": 128, "s4_depth": 4,
            "bidirectional": False, "dropout": 0.4,
            "gsl": {"r": 2500, "knn_k": 3, "epsilon": 0.6, "kappa": 0.1, "heads": 4},
            "reg": {"alpha": 0.2, "beta": 0.2, "gamma": 0.2},
            "pool": {"graph_pool": "sum", "temporal_pool": "mean"},
            "n_classes": 5, "task": "multiclass", "dtype": "float32",
        },
        "optim": {"lr": 1e-3, "batch_size": 4, "epochs": 100, "undersample": True},
    },
    "icbeb-like": {
        "model": {
            "n_sensors": 12, "input_dim": 1, "d_model": 128, "s4_depth": 4,
            "bidirectional": True, "dropout": 0.1,
            "gsl": {"r": "full", "knn_k": 2, "epsilon": 0.6, "kappa": 0.02, "heads": 4},
            "reg": {"alpha": 1.0, "beta": 0.0, "gamma": 0.5},
            "pool": {"graph_pool": "mean", "temporal_pool": "mean"},
            "n_classes": 9, "task": "multilabel", "dtype": "float32",
        },
        "optim": {"lr": 1e-3, "batch_size": 8, "epochs": 100},
    },
}


def preset(name: str) -> dict:
    if not isinstance(name, str) or name not in PRESETS:
        raise ConfigError(f"preset: unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return copy.deepcopy(PRESETS[name])
