"""Command-line surface: data generation, training, evaluation, gradient
checking, profiling, and adjacency export.

Exit codes: 0 success, 2 invalid configuration/input (message names the
field or file), 3 numeric failure (divergence, failed gradient check).

Heavy imports happen after the thread cap is applied, because BLAS/FFT
thread pools are sized when numpy loads.
"""

from __future__ import annotations

import argparse
import json
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
        os.environ.setdefault(var, str(threads))
    from . import fftconv
    fftconv.FFT_WORKERS = threads


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ssmgraph")
    parser.add_argument("--threads", type=int, default=os.environ.get("GS4_THREADS") or None,
                        help="cap numeric thread pools (env fallback: GS4_THREADS)")
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
                   help="write class-mean adjacency CSVs and the delta table")
    p.add_argument("--permutations", type=int, default=200)
    p.add_argument("--batch-size", type=int, default=32)

    p = sub.add_parser("gradcheck", help="finite-difference check of the full model")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--step", type=float, default=1e-5)

    p = sub.add_parser("export-adj", help="dump learned adjacency CSVs for records")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--records", default="all", help="comma-separated ids or 'all'")
    p.add_argument("--out", required=True)

    p = sub.add_parser("profile", help="parameter/MAC table across interval counts")
    p.add_argument("--d", type=int, default=128)
    p.add_argument("--n-sensors", type=int, default=19)
    p.add_argument("--t", type=int, default=12000)
    p.add_argument("--sweep-nd", default="1..10", help="range like 1..10 or list 1,2,6")
    return parser


def _write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


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
    from .model import build_model, load_checkpoint, save_checkpoint
    from .train import (build_report, check_labels, collect_outputs, select_thresholds,
                        train_loop)

    merged, run = load_run_config(args.config, args.set, args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "config.json", merged)

    train_ds, val_ds, test_ds = run.data.load(run.seed)
    eval_ds = test_ds if test_ds is not None else val_ds
    for dataset in (train_ds, val_ds, eval_ds):
        check_labels(run.model, dataset)
    model = build_model(run.model, run.seed)
    log = None if args.quiet else (lambda msg: print(msg, flush=True))
    started = time.time()
    result = train_loop(model, train_ds, val_ds, run.optim, run.seed, log=log)
    elapsed = time.time() - started

    val_outputs = collect_outputs(model, val_ds, run.optim.batch_size)
    thresholds = select_thresholds(model, val_outputs)
    extra = {"thresholds": thresholds, "best_epoch": result.best_epoch,
             "val_metric": result.best_metric, "seed": run.seed}
    ckpt_path = out_dir / "checkpoint.gs4m"
    save_checkpoint(model, ckpt_path, extra=extra)
    (out_dir / "history.csv").write_text(result.history_csv())

    # metrics come from the reloaded checkpoint so a later `eval` run
    # reproduces them byte-for-byte
    reloaded, _ = load_checkpoint(ckpt_path)
    outputs = collect_outputs(reloaded, eval_ds, run.optim.batch_size)
    report = build_report(reloaded, outputs, thresholds)
    report["split"] = "test" if test_ds is not None else "val"
    report["best_epoch"] = result.best_epoch
    report["stopped_early"] = result.stopped_early
    _write_json(out_dir / "metrics.json", report)
    if not args.quiet:
        print(f"finished in {elapsed:.1f}s; best epoch {result.best_epoch} "
              f"(val metric {result.best_metric:.4f})")
    return EXIT_OK


def cmd_eval(args) -> int:
    from pathlib import Path

    from .config import ConfigError
    from .data import load_bsg1
    from .graphlearn import write_adjacency_csv
    from .metrics import adjacency_delta_table, class_mean_adjacency
    from .model import load_checkpoint
    from .train import (build_report, check_labels, collect_outputs, predictions_correct,
                        select_thresholds)

    if args.permutations < 1:
        raise ConfigError(f"--permutations must be >= 1, got {args.permutations}")
    model, extra = load_checkpoint(args.checkpoint)
    if args.adj_analysis and model.cfg.task == "multilabel":
        raise ConfigError("--adj-analysis groups records by a single class index; "
                          "a multilabel checkpoint has none")
    dataset = load_bsg1(args.data)
    check_labels(model.cfg, dataset)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = collect_outputs(model, dataset, args.batch_size)
    thresholds = extra.get("thresholds") or select_thresholds(model, outputs)
    report = build_report(model, outputs, thresholds)
    _write_json(out_dir / "metrics.json", report)

    if args.adj_analysis:
        correct = predictions_correct(model, outputs, thresholds)
        means = class_mean_adjacency(outputs.graphs, outputs.labels, correct)
        for c, mat in sorted(means.items()):
            write_adjacency_csv(mat, out_dir / f"mean_adj_class{c}.csv")
        table = adjacency_delta_table(outputs.graphs, outputs.labels, correct,
                                      args.permutations, seed=0)
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
    from pathlib import Path

    from .data import load_bsg1
    from .graphlearn import write_adjacency_csv
    from .model import load_checkpoint
    from .train import check_labels, collect_outputs

    model, _ = load_checkpoint(args.checkpoint)
    dataset = load_bsg1(args.data)
    check_labels(model.cfg, dataset)
    wanted = None if args.records == "all" else set(args.records.split(","))
    if wanted is not None:
        missing = wanted - {r.record_id for r in dataset.records}
        if missing:
            raise ValueError(f"records not in dataset: {sorted(missing)}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = collect_outputs(model, dataset)
    written = 0
    for rid, graphs in zip(outputs.record_ids, outputs.graphs):
        if wanted is not None and rid not in wanted:
            continue
        for t in range(graphs.shape[0]):
            write_adjacency_csv(graphs[t], out_dir / f"{rid}_t{t + 1}.csv")
            written += 1
    print(f"wrote {written} adjacency files to {out_dir}")
    return EXIT_OK


def _parse_sweep(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(v) for v in text.split(",")]


def cmd_profile(args) -> int:
    from .model import GSL_MACS_NODE_FACTOR, gsl_mac_estimate, gsl_param_count

    params = gsl_param_count(args.d)
    print(f"graph-learner cost at D={args.d}, N={args.n_sensors}, T={args.t} "
          f"({GSL_MACS_NODE_FACTOR}*D^2 MACs per node per interval)")
    print(f"{'n_d':>4}  {'r':>8}  {'params':>10}  {'macs':>14}")
    for n_d in _parse_sweep(args.sweep_nd):
        if args.t % n_d != 0:
            print(f"{n_d:>4}  {'-':>8}  {params:>10}  {'-':>14}")
            continue
        r = args.t // n_d
        macs = gsl_mac_estimate(args.n_sensors, args.d, args.t, r)
        print(f"{n_d:>4}  {r:>8}  {params:>10}  {macs:>14}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)
    if args.threads is not None and args.threads < 1:
        parser.error(f"--threads must be >= 1, got {args.threads}")
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
