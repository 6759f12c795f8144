"""Command-line surface: data generation, training, evaluation, gradient
checking, profiling, and adjacency export.

Exit codes: 0 success, 2 invalid configuration/input (message names the
field or file), 3 numeric failure (divergence, failed gradient check).
Numeric flags are parsed and range-checked by argparse, which exits 2 naming
the flag before any work; ``gen-data``'s flags are checked by ``DatasetSpec``.

Heavy imports happen after the thread cap is applied, because BLAS sizes
its thread pool when numpy loads; the row pool holds OpenBLAS at one thread
from its first op on.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _apply_thread_cap(threads: int | None) -> None:
    if threads is None:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(threads)
    from . import fftconv  # loads numpy, whose OpenBLAS reads the variables if it is new
    fftconv.FFT_WORKERS = threads


def _number(kind, low, strict: bool = False):
    """An argparse ``type=``: a finite ``kind`` (int or float) >= ``low``, or
    > ``low`` if ``strict``."""
    def parse(text: str):
        value = kind(text)
        if not (value > low if strict else value >= low) or value == math.inf:
            op = ">" if strict else ">="
            raise argparse.ArgumentTypeError(f"must be finite and {op} {low}, got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse's "invalid int value" names it
    return parse


def _parse_sweep(text: str) -> list[int]:
    """An argparse ``type=``: interval counts >= 1 as a range like 1..10 or a
    list like 1,2,6."""
    try:
        lo, sep, hi = text.partition("..")
        sweep = (list(range(int(lo), int(hi) + 1)) if sep
                 else [int(v) for v in text.split(",")])
    except ValueError:
        sweep = []
    if not sweep or min(sweep) < 1:
        raise argparse.ArgumentTypeError(f"expected counts >= 1 as a range like 1..10 or a "
                                         f"list like 1,2,6, got {text!r}")
    return sweep


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ssmgraph")
    parser.add_argument("--threads", type=_number(int, 1),
                        default=os.environ.get("GS4_THREADS") or None,
                        help="threads of the row pool that runs the S4 block and the graph "
                             "learner's per-graph ops, the calling thread included (default: "
                             "every CPU this process may run on); pocketfft "
                             "always runs single-threaded, the pool holds OpenBLAS at one "
                             "thread from its first op on, and results do not depend on the "
                             "count. Also overrides inherited OMP_NUM_THREADS, "
                             "OPENBLAS_NUM_THREADS, MKL_NUM_THREADS and NUMEXPR_NUM_THREADS, "
                             "which set OpenBLAS's thread count only when it loads "
                             "(env fallback: GS4_THREADS)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset file")
    p.add_argument("--kind", choices=["correlation", "longrange"], required=True)
    p.add_argument("--out", required=True)
    # no defaults here: a flag left out takes DatasetSpec's default
    p.add_argument("--size", type=int)
    p.add_argument("--n-sensors", type=int)
    p.add_argument("--t-len", type=int)
    p.add_argument("--input-dim", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--class-balance", type=float)
    p.add_argument("--marker-amplitude", type=float)
    p.add_argument("--clique-corr", type=float)

    p = sub.add_parser("train", help="train a model from a JSON run config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--set", action="append", default=[], metavar="PATH=JSON",
                   help="override a config field, e.g. --set optim.lr=0.001")
    p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="BSG1 dataset path")
    p.add_argument("--out", required=True)
    p.add_argument("--adj-analysis", action="store_true",
                   help="write mean_adj_class<c>.csv, the mean learned graph of each "
                        "class's correctly predicted records, and adjacency_delta.json: "
                        "per class pair delta_mean, delta_std, p_value, n_permutations")
    p.add_argument("--permutations", type=_number(int, 1), default=200)
    p.add_argument("--batch-size", type=_number(int, 1), default=32)

    p = sub.add_parser("gradcheck", help="finite-difference check of the full model")
    p.add_argument("--seed", type=_number(int, 0), default=7)
    p.add_argument("--tolerance", type=_number(float, 0), default=1e-4)
    p.add_argument("--step", type=_number(float, 0, strict=True), default=1e-5)

    p = sub.add_parser("export-adj", help="dump learned adjacency CSVs for records")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--records", default="all", help="comma-separated ids or 'all'")
    p.add_argument("--out", required=True)

    p = sub.add_parser("profile", help="parameter/MAC table across interval counts")
    p.add_argument("--d", type=_number(int, 1), default=128)
    p.add_argument("--n-sensors", type=_number(int, 1), default=19)
    p.add_argument("--t", type=_number(int, 1), default=12000)
    p.add_argument("--sweep-nd", type=_parse_sweep, default="1..10",
                   help="range like 1..10 or list 1,2,6")
    return parser


def _write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _load_checkpoint_and_data(args):
    """(model, extra, dataset) of ``--checkpoint`` and ``--data``; the
    dataset must fit the model, and ``eval`` must be able to score it."""
    from .data import load_bsg1
    from .model import load_checkpoint
    from .train import check_dataset

    model, extra = load_checkpoint(args.checkpoint)
    dataset = load_bsg1(args.data)
    check_dataset(model.cfg, dataset, args.data, scored=args.command == "eval")
    return model, extra, dataset


def _checkpoint_thresholds(path, model, extra):
    """The checkpoint's ``thresholds``: absent (None), or one finite number
    per sigmoid column (1 binary, C multilabel, 0 multiclass)."""
    if "thresholds" not in extra:
        return None
    thresholds = extra["thresholds"]
    expected = 0 if model.cfg.task == "multiclass" else model.cfg.n_classes
    if not (isinstance(thresholds, list) and len(thresholds) == expected
            and all(type(t) in (int, float) and math.isfinite(t) for t in thresholds)):
        raise ValueError(f"{path}: thresholds must be a list of {expected} finite "
                         f"numbers for a {model.cfg.task} model, got {thresholds!r}")
    return thresholds


def cmd_gen_data(args) -> int:
    from dataclasses import fields

    from .data import DatasetSpec, generate, save_bsg1

    given = {f.name: getattr(args, f.name) for f in fields(DatasetSpec)
             if getattr(args, f.name) is not None}
    dataset = generate(DatasetSpec(**given))
    save_bsg1(dataset, args.out)
    print(f"wrote {len(dataset)} records to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    import time
    from pathlib import Path

    from .config import load_run_config
    from .model import build_model, save_checkpoint
    from .train import build_report, check_dataset, collect_outputs, train_loop

    merged, run = load_run_config(args.config, args.set, args.seed)
    train_ds, val_ds, test_ds = datasets = run.data.load(run.seed)
    for split, dataset in zip(("train", "val", "test"), datasets):
        if dataset is not None:
            check_dataset(run.model, dataset, getattr(run.data, split) or f"data.{split}",
                          scored=split != "train")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "config.json", merged)
    model = build_model(run.model, run.seed)
    log = None if args.quiet else (lambda msg: print(msg, flush=True))
    started = time.time()
    result = train_loop(model, train_ds, val_ds, run.optim, run.seed, log=log)
    elapsed = time.time() - started

    extra = {"thresholds": result.thresholds, "best_epoch": result.best_epoch,
             "val_metric": result.best_metric, "seed": run.seed}
    save_checkpoint(model, out_dir / "checkpoint.gs4m", extra=extra)
    (out_dir / "history.csv").write_text(result.history_csv())

    # version-3 checkpoints round-trip bit for bit, so the in-memory model and
    # the best epoch's validation report are what `eval` of the checkpoint gives
    if test_ds is None:
        report, split = result.report, "val"
    else:
        outputs = collect_outputs(model, test_ds, run.optim.batch_size)
        report, split = build_report(model, outputs, result.thresholds), "test"
    _write_json(out_dir / "metrics.json", {**report, "split": split,
                                           "best_epoch": result.best_epoch,
                                           "stopped_early": result.stopped_early})
    if not args.quiet:
        print(f"finished in {elapsed:.1f}s; best epoch {result.best_epoch} "
              f"(val metric {result.best_metric:.4f})")
    return EXIT_OK


def cmd_eval(args) -> int:
    from pathlib import Path

    from .config import ConfigError
    from .graphlearn import write_adjacency_csv
    from .metrics import adjacency_analysis
    from .train import build_report, collect_outputs, predictions_correct, select_thresholds

    model, extra, dataset = _load_checkpoint_and_data(args)
    thresholds = _checkpoint_thresholds(args.checkpoint, model, extra)
    if args.adj_analysis and model.cfg.task == "multilabel":
        raise ConfigError("--adj-analysis groups records by a single class index; "
                          "a multilabel checkpoint has none")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = collect_outputs(model, dataset, args.batch_size)
    if thresholds is None:
        thresholds = select_thresholds(model, outputs)
    report = build_report(model, outputs, thresholds)
    _write_json(out_dir / "metrics.json", report)

    if args.adj_analysis:
        correct = predictions_correct(model, outputs, thresholds)
        means, table = adjacency_analysis(outputs.graphs, outputs.labels, correct,
                                          args.permutations, seed=0)
        for c, mat in sorted(means.items()):
            write_adjacency_csv(mat, out_dir / f"mean_adj_class{c}.csv")
        _write_json(out_dir / "adjacency_delta.json", table)
    print(f"wrote metrics to {out_dir / 'metrics.json'}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    import numpy as np

    from .gnn import PoolSpec
    from .gradcheck import backward_and_gradcheck
    from .graphlearn import GslConfig, RegWeights
    from .model import ModelConfig, build_model

    cfg = ModelConfig(
        n_sensors=3, input_dim=1, d_model=8, s4_depth=2, p_states=4,
        gsl=GslConfig(r=8, knn_k=1, epsilon=0.0, kappa=0.05, heads=1),
        reg=RegWeights(alpha=0.2, beta=0.2, gamma=0.2),
        pool=PoolSpec(graph_pool="mean", temporal_pool="mean"),
        n_classes=1, task="binary", dtype="float64", dt_min=0.05, dt_max=0.5,
    )
    model = build_model(cfg, seed=args.seed)
    rng = np.random.default_rng(args.seed + 1)
    x = rng.normal(size=(2, 3, 16, 1))
    y = np.array([1, 0])

    def loss():
        return model.total_loss(model.forward(x), y)

    worst, per_leaf = backward_and_gradcheck(loss, dict(model.named_parameters()),
                                             h=args.step)
    n_coords = sum(p.size for _, p in model.named_parameters())
    print(f"checked {n_coords} parameter coordinates (h={args.step:g})")
    print(f"max relative error: {worst:.3e} (tolerance {args.tolerance:g})")
    for name, err in sorted(per_leaf.items(), key=lambda kv: -kv[1])[:3]:
        print(f"  worst leaves: {name} -> {err:.3e}")
    return EXIT_OK if worst <= args.tolerance else EXIT_NUMERIC


def cmd_export_adj(args) -> int:
    from dataclasses import replace
    from pathlib import Path

    from .graphlearn import write_adjacency_csv
    from .train import collect_outputs

    model, _, dataset = _load_checkpoint_and_data(args)
    if args.records != "all":
        wanted = set(args.records.split(","))
        missing = wanted - {r.record_id for r in dataset.records}
        if missing:
            raise ValueError(f"records not in dataset: {sorted(missing)}")
        dataset = replace(dataset, records=[r for r in dataset.records
                                            if r.record_id in wanted])
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = collect_outputs(model, dataset)
    written = 0
    for rid, graphs in zip(outputs.record_ids, outputs.graphs):
        for t in range(graphs.shape[0]):
            write_adjacency_csv(graphs[t], out_dir / f"{rid}_t{t + 1}.csv")
            written += 1
    print(f"wrote {written} adjacency files to {out_dir}")
    return EXIT_OK


def cmd_profile(args) -> int:
    from .model import GSL_MACS_NODE_FACTOR, gsl_mac_estimate, gsl_param_count

    params = gsl_param_count(args.d)
    print(f"graph-learner cost at D={args.d}, N={args.n_sensors}, T={args.t} "
          f"({GSL_MACS_NODE_FACTOR}*D^2 MACs per node per interval)")
    print(f"{'n_d':>4}  {'r':>8}  {'params':>10}  {'macs':>14}")
    for n_d in args.sweep_nd:
        if args.t % n_d != 0:
            print(f"{n_d:>4}  {'-':>8}  {params:>10}  {'-':>14}")
            continue
        r = args.t // n_d
        macs = gsl_mac_estimate(args.n_sensors, args.d, args.t, r)
        print(f"{n_d:>4}  {r:>8}  {params:>10}  {macs:>14}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(sys.argv[1:] if argv is None else argv)
    _apply_thread_cap(args.threads)

    from .optim import DivergenceError
    from .tensor import NumericError

    handlers = {
        "gen-data": cmd_gen_data,
        "train": cmd_train,
        "eval": cmd_eval,
        "gradcheck": cmd_gradcheck,
        "export-adj": cmd_export_adj,
        "profile": cmd_profile,
    }
    try:
        return handlers[args.command](args)
    # ConfigError, ParseError, CheckpointError, ContractError, ShapeError and
    # MetricError all derive from ValueError; OSError covers unreadable paths
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DivergenceError, NumericError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
