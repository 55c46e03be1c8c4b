"""Command-line interface: ``python -m repro <command>``.

Commands:
    stats        generate a synthetic corpus and print its statistics
    train        train a model (MISSL or any zoo baseline) and report test metrics
    experiment   run one registered experiment (T1..T4, F1..F6)
    list         list registered experiments and zoo models
    profile      per-op profile of training steps (fast vs reference path)
    compare      significance-test two models on one dataset
    export       train MISSL and freeze it into a serving artifact (.npz)
    serve        answer JSON-lines requests over an exported artifact
    obs          render a telemetry event log (trace tree + metric summary)
    lint         run the repro.lint static-analysis rules (CI gate)

All commands are seeded and run on synthetic presets; see ``--help`` of each
subcommand for knobs.  ``train`` and ``serve`` accept ``--events-out FILE``
to capture a JSON-lines telemetry log for ``python -m repro obs``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

__all__ = ["main", "build_parser"]


def _telemetry(events_out: str | None):
    """A telemetry session writing to ``events_out``, or a no-op context."""
    if events_out is None:
        return contextlib.nullcontext()
    from repro.obs import telemetry_session
    return telemetry_session(events_out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    stats = sub.add_parser("stats", help="generate a corpus and print statistics")
    stats.add_argument("--preset", default="taobao", choices=["taobao", "tmall", "yelp"])
    stats.add_argument("--scale", type=float, default=0.5)
    stats.add_argument("--seed", type=int, default=1)

    train = sub.add_parser("train", help="train one model and report test metrics")
    train.add_argument("--model", default="MISSL")
    train.add_argument("--preset", default="taobao", choices=["taobao", "tmall", "yelp"])
    train.add_argument("--scale", type=float, default=0.4)
    train.add_argument("--dim", type=int, default=32)
    train.add_argument("--epochs", type=int, default=12)
    train.add_argument("--seed", type=int, default=1)
    train.add_argument("--checkpoint", default=None,
                       help="save the trained model's parameters to this .npz path")
    train.add_argument("--events-out", default=None, metavar="FILE",
                       help="write a JSON-lines telemetry event log "
                            "(render it with `python -m repro obs FILE`)")

    experiment = sub.add_parser("experiment", help="run a registered experiment")
    experiment.add_argument("id", help="experiment id, e.g. T2 or F1")
    experiment.add_argument("--scale", type=float, default=0.5)
    experiment.add_argument("--epochs", type=int, default=15)
    experiment.add_argument("--out", default=None, help="directory for CSV/markdown")

    sub.add_parser("list", help="list experiments and models")

    profile = sub.add_parser("profile", help="per-op profile of training steps")
    profile.add_argument("--model", default="MISSL")
    profile.add_argument("--preset", default="taobao", choices=["taobao", "tmall", "yelp"])
    profile.add_argument("--scale", type=float, default=0.4)
    profile.add_argument("--dim", type=int, default=32)
    profile.add_argument("--steps", type=int, default=5)
    profile.add_argument("--batch-size", type=int, default=128)
    profile.add_argument("--seed", type=int, default=1)
    profile.add_argument("--limit", type=int, default=25,
                         help="show at most this many ops in the table")
    profile.add_argument("--reference", action="store_true",
                         help="profile the retained seed kernels instead of "
                              "the fast paths")

    export = sub.add_parser("export", help="train MISSL and freeze a serving artifact")
    export.add_argument("out", help="path for the artifact (.npz file)")
    export.add_argument("--preset", default="taobao", choices=["taobao", "tmall", "yelp"])
    export.add_argument("--scale", type=float, default=0.4)
    export.add_argument("--dim", type=int, default=32)
    export.add_argument("--epochs", type=int, default=12)
    export.add_argument("--seed", type=int, default=1)

    serve = sub.add_parser("serve", help="serve an exported artifact "
                                         "(JSON-lines on stdin/stdout)")
    serve.add_argument("artifact", help="path to an exported .npz artifact")
    serve.add_argument("--preset", default=None, choices=["taobao", "tmall", "yelp"],
                       help="corpus preset for user histories (defaults to the "
                            "provenance recorded in the artifact)")
    serve.add_argument("--scale", type=float, default=None)
    serve.add_argument("--seed", type=int, default=None)
    serve.add_argument("--index", default="exact", choices=["exact", "ivf"],
                       help="retrieval index: exact (served == offline) or "
                            "ivf (approximate; recall < 1, faster on large "
                            "catalogs)")
    serve.add_argument("--k", type=int, default=10, help="default top-k per request")
    serve.add_argument("--max-batch", type=int, default=32)
    serve.add_argument("--probe-every", type=int, default=0,
                       help="with --index ivf, shadow-score every N-th "
                            "request on an exact index and record recall")
    serve.add_argument("--listen", default=None, metavar="HOST:PORT",
                       help="serve newline-delimited JSON over TCP instead "
                            "of stdin/stdout (port 0 picks a free port; the "
                            "ready banner reports the bound address)")
    serve.add_argument("--max-inflight", type=int, default=64,
                       help="with --listen, bound on concurrently executing "
                            "requests before load shedding")
    serve.add_argument("--events-out", default=None, metavar="FILE",
                       help="write a JSON-lines telemetry event log "
                            "(render it with `python -m repro obs FILE`)")
    serve.add_argument("--metrics-out", default=None, metavar="FILE",
                       help="dump the final serving-metrics snapshot as "
                            "JSON on shutdown")

    obs = sub.add_parser("obs", help="render a telemetry event log "
                                     "(trace tree + metric summary)")
    obs.add_argument("events", help="path to a JSON-lines event log "
                                    "(from --events-out)")
    obs.add_argument("--collapse-after", type=int, default=5,
                     help="collapse sibling-span runs longer than this "
                          "into one aggregate line")

    lint = sub.add_parser("lint", help="run the static-analysis rule catalog "
                                       "(exits non-zero on new findings)")
    lint.add_argument("paths", nargs="*",
                      help="files/directories to lint (default: the installed "
                           "repro package)")
    lint.add_argument("--format", default="text", choices=["text", "json"])
    lint.add_argument("--select", default=None, metavar="RULES",
                      help="comma-separated rule ids to run (default: all)")
    lint.add_argument("--baseline", default=None, metavar="FILE",
                      help="baseline file (default: lint-baseline.json found "
                           "upward from the first path)")
    lint.add_argument("--no-baseline", action="store_true",
                      help="ignore any baseline file (every finding fails)")
    lint.add_argument("--write-baseline", action="store_true",
                      help="accept all current findings into the baseline "
                           "(preserves documented reasons)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalog and exit")
    lint.add_argument("--verbose", action="store_true",
                      help="show offending source lines and baselined findings")

    compare = sub.add_parser("compare", help="paired-bootstrap two models")
    compare.add_argument("model_a")
    compare.add_argument("model_b")
    compare.add_argument("--preset", default="taobao", choices=["taobao", "tmall", "yelp"])
    compare.add_argument("--scale", type=float, default=0.4)
    compare.add_argument("--epochs", type=int, default=12)
    compare.add_argument("--seed", type=int, default=1)
    return parser


def _cmd_stats(args) -> int:
    from repro.data import DATASET_PRESETS, generate, k_core_filter
    from repro.utils import format_table
    dataset = k_core_filter(generate(DATASET_PRESETS[args.preset](args.scale),
                                     seed=args.seed))
    stats = dataset.stats()
    rows = [[behavior, count, f"{stats.avg_length_per_behavior[behavior]:.2f}"]
            for behavior, count in stats.interactions_per_behavior.items()]
    print(f"{stats.name}: {stats.num_users} users, {stats.num_items} items, "
          f"{stats.num_interactions} interactions, density {stats.density:.4f}")
    print(format_table(["behavior", "events", "avg/user"], rows))
    return 0


def _cmd_train(args) -> int:
    from repro.experiments import ExperimentContext, build_model, model_names, \
        train_and_evaluate
    from repro.obs import get_logger
    if args.model not in model_names():
        print(f"unknown model {args.model!r}; choose from {model_names()}",
              file=sys.stderr)
        return 2
    logger = get_logger("repro.cli")
    with _telemetry(args.events_out) as telemetry:
        callbacks: tuple = ()
        if telemetry is not None:
            from repro.obs import GradientMonitor, LossComponentTracker, NaNWatchdog
            callbacks = (NaNWatchdog(),
                         LossComponentTracker(registry=telemetry.registry),
                         GradientMonitor(registry=telemetry.registry))
        context = ExperimentContext.build(args.preset, scale=args.scale,
                                          seed=args.seed)
        model = build_model(args.model, context, dim=args.dim, seed=args.seed)
        report, seconds = train_and_evaluate(model, context, epochs=args.epochs,
                                             seed=args.seed, callbacks=callbacks)
        print(f"{args.model} on {args.preset} (scale {args.scale}): {report} "
              f"[{seconds:.1f}s]")
        if args.checkpoint and model.parameters():
            from pathlib import Path

            from repro.nn.serialization import save_checkpoint
            from repro.obs import write_run_manifest
            path = save_checkpoint(model, args.checkpoint,
                                   extra={"model": args.model, "preset": args.preset,
                                          "dim": args.dim, "scale": args.scale,
                                          "seed": args.seed})
            logger.info("checkpoint written to %s", path)
            checkpoint = Path(path)
            write_run_manifest(
                checkpoint.with_name(checkpoint.name + ".manifest.json"),
                config={"model": args.model, "preset": args.preset,
                        "dim": args.dim, "scale": args.scale,
                        "epochs": args.epochs},
                seed=args.seed,
                metrics=dict(report),
                extra={"seconds": seconds})
    if args.events_out:
        logger.info("telemetry written to %s (render with "
                    "`python -m repro obs %s`)", args.events_out, args.events_out)
    return 0


def _cmd_experiment(args) -> int:
    from repro.experiments import run_experiment
    kwargs = {"scale": args.scale}
    if args.id not in ("T1", "T4"):
        kwargs["epochs"] = args.epochs
    result = run_experiment(args.id.upper(), **kwargs)
    print(result.render())
    if args.out:
        path = result.save(args.out)
        print(f"saved to {path}")
    return 0


def _cmd_list(_args) -> int:
    from repro.experiments import EXPERIMENTS, MODEL_FAMILIES
    print("experiments:")
    for experiment in EXPERIMENTS.values():
        print(f"  {experiment.experiment_id:3s} [{experiment.kind:6s}] "
              f"{experiment.title}  ({experiment.bench_target})")
    print("models:")
    for name, family in MODEL_FAMILIES.items():
        print(f"  {name:10s} {family}")
    return 0


def _cmd_profile(args) -> int:
    import contextlib
    import time

    import numpy as np

    from repro.data.batching import BatchLoader
    from repro.data.sampling import NegativeSampler
    from repro.experiments import ExperimentContext, build_model, model_names
    from repro.nn.optim import Adam, clip_grad_norm
    from repro.perf import profiled, reference_mode

    if args.model not in model_names():
        print(f"unknown model {args.model!r}; choose from {model_names()}",
              file=sys.stderr)
        return 2
    if args.steps < 1:
        print("--steps must be at least 1", file=sys.stderr)
        return 2
    mode = reference_mode() if args.reference else contextlib.nullcontext()
    with mode:
        context = ExperimentContext.build(args.preset, scale=args.scale, seed=args.seed)
        model = build_model(args.model, context, dim=args.dim, seed=args.seed)
        if not model.parameters():
            print(f"{args.model} has no trainable parameters; nothing to profile",
                  file=sys.stderr)
            return 2
        loader = BatchLoader(context.split.train, context.dataset.schema,
                             args.batch_size, rng=np.random.default_rng(args.seed))
        sampler = NegativeSampler(context.dataset,
                                  np.random.default_rng(args.seed + 1))
        optimizer = Adam(model.parameters(), lr=1e-3)
        batches = list(loader)

        def step(batch) -> None:
            optimizer.zero_grad()
            loss = model.training_loss(batch, sampler)
            loss.backward()
            clip_grad_norm(model.parameters(), 5.0)
            optimizer.step()

        step(batches[0])  # warm up caches (hypergraph plans, transposes)
        started = time.perf_counter()
        with profiled() as profiler:
            for index in range(args.steps):
                step(batches[index % len(batches)])
        elapsed = time.perf_counter() - started
        label = "reference" if args.reference else "fast"
        print(f"{args.model} on {args.preset} (scale {args.scale}, dim {args.dim}, "
              f"{label} path): {args.steps} steps in {elapsed:.3f}s "
              f"({elapsed / args.steps:.3f}s/step)")
        print(profiler.report(limit=args.limit))
    return 0


def _cmd_export(args) -> int:
    from repro.experiments import ExperimentContext, build_model, train_and_evaluate
    from repro.obs import get_logger
    from repro.serve import export_artifact
    context = ExperimentContext.build(args.preset, scale=args.scale, seed=args.seed)
    model = build_model("MISSL", context, dim=args.dim, seed=args.seed)
    report, seconds = train_and_evaluate(model, context, epochs=args.epochs,
                                         seed=args.seed)
    get_logger("repro.cli").info("MISSL on %s (scale %s): %s [%.1fs]",
                                 args.preset, args.scale, report, seconds)
    path = export_artifact(model, args.out,
                           extra={"preset": args.preset, "scale": args.scale,
                                  "seed": args.seed})
    print(f"serving artifact written to {path}")
    return 0


def _cmd_serve(args) -> int:
    from repro.data import DATASET_PRESETS, generate, k_core_filter
    from repro.serve import (HistoryStore, LocalBackend, RecommenderService,
                             load_artifact)

    address = None
    if args.listen is not None:
        host, _, port_text = args.listen.rpartition(":")
        if not host or not port_text.isdigit():
            print(f"--listen expects HOST:PORT, got {args.listen!r}",
                  file=sys.stderr)
            return 2
        address = (host, int(port_text))
    try:
        artifact = load_artifact(args.artifact)
    except (ValueError, OSError) as error:
        print(error, file=sys.stderr)
        return 2
    preset = args.preset or artifact.extra.get("preset")
    scale = args.scale if args.scale is not None else artifact.extra.get("scale")
    seed = args.seed if args.seed is not None else artifact.extra.get("seed", 1)
    if preset is None or scale is None:
        print("artifact records no corpus provenance; pass --preset/--scale",
              file=sys.stderr)
        return 2
    dataset = k_core_filter(generate(DATASET_PRESETS[preset](scale), seed=seed))
    if dataset.num_items != artifact.num_items:
        print(f"corpus mismatch: rebuilt {dataset.num_items} items but the "
              f"artifact was exported with {artifact.num_items}", file=sys.stderr)
        return 2
    history = HistoryStore.from_dataset(dataset)
    ready = {"ok": True, "ready": True, "users": len(history.users),
             "num_items": artifact.num_items, "backend": args.index}
    with _telemetry(args.events_out) as telemetry:
        registry = telemetry.registry if telemetry is not None else None
        backend = LocalBackend(RecommenderService(
            artifact, history, index_backend=args.index,
            max_batch=args.max_batch, recall_probe_every=args.probe_every,
            registry=registry))
        try:
            if address is None:
                snapshot = _serve_stdin(args, backend, ready)
            else:
                snapshot = _serve_network(args, backend, address, ready,
                                          registry)
        finally:
            backend.close()
        if args.metrics_out:
            from pathlib import Path
            Path(args.metrics_out).write_text(
                json.dumps(snapshot, indent=2) + "\n", encoding="utf-8")
    return 0


def _serve_stdin(args, backend, ready: dict) -> dict:
    """JSON-lines requests on stdin, one response line each on stdout.

    Counts the lines it answers and, of those, the ``ok: false`` answers,
    whatever failed (parse, validation, the service or an internal error);
    the final snapshot carries them as ``stdin`` next to the service's
    ``backend`` block, as the socket front-end carries ``net``.
    """
    from repro.serve import normalize_request
    from repro.serve.net import internal_error, request_ids

    print(json.dumps(ready), flush=True)
    ids = request_ids()
    counts = {"requests": 0, "errors": 0}
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        request_id = next(ids)
        try:
            request = json.loads(line)
            if isinstance(request, dict) and request.get("op") == "quit":
                break
            response = backend.process(normalize_request(request, args.k))
        except (KeyError, ValueError, TypeError, RecursionError) as error:
            response = {"ok": False, "error": str(error)}
        except Exception as error:  # noqa: BLE001 - the loop keeps serving
            response = internal_error(error, request_id)
        counts["requests"] += 1
        if not response.get("ok", False):
            counts["errors"] += 1
        print(json.dumps(response), flush=True)
    print(backend.report(), file=sys.stderr)
    return {"stdin": counts, "backend": backend.stats()}


def _serve_network(args, backend, address: tuple[str, int], ready: dict,
                   registry) -> dict:
    """Network serving mode (``--listen``): NDJSON over TCP until SIGTERM."""
    import signal

    from repro.serve import NetServer

    server = NetServer(backend, *address, max_inflight=args.max_inflight,
                       default_k=args.k, registry=registry)
    try:
        bound_host, bound_port = server.start_background()
        print(json.dumps({**ready, "host": bound_host, "port": bound_port}),
              flush=True)
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, lambda *_: server.drain())
        server.wait()
    finally:
        server.stop()
    return {"net": server.net_stats(), "backend": backend.stats()}


def _cmd_obs(args) -> int:
    from repro.obs import render_events
    try:
        print(render_events(args.events, collapse_after=args.collapse_after))
    except FileNotFoundError:
        print(f"no such event log: {args.events}", file=sys.stderr)
        return 2
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    return 0


def _cmd_lint(args) -> int:
    from repro.lint.cli import run_lint
    return run_lint(args)


def _cmd_compare(args) -> int:
    from repro.eval import rank_all
    from repro.eval.significance import paired_bootstrap
    from repro.experiments import ExperimentContext, build_model
    from repro.train import TrainConfig, Trainer
    context = ExperimentContext.build(args.preset, scale=args.scale, seed=args.seed)
    ranks = {}
    for name in (args.model_a, args.model_b):
        model = build_model(name, context, seed=args.seed)
        if model.parameters():
            Trainer(model, context.split,
                    TrainConfig(epochs=args.epochs, patience=3, seed=args.seed)).fit()
        ranks[name] = rank_all(model, context.split.test, context.test_candidates,
                               context.dataset.schema)
    result = paired_bootstrap(ranks[args.model_a], ranks[args.model_b])
    print(f"{args.model_a} vs {args.model_b} (NDCG@10, paired bootstrap):")
    print(f"  {result}")
    return 0


def main(argv: list[str] | None = None) -> int:
    from repro.obs import setup_logging
    setup_logging()
    if os.environ.get("REPRO_LOCK_WATCH", "") not in ("", "0"):
        # Opt-in runtime lock-order watchdog.
        from repro.obs import enable_lock_watch
        enable_lock_watch()
    args = build_parser().parse_args(argv)
    handlers = {
        "stats": _cmd_stats,
        "train": _cmd_train,
        "experiment": _cmd_experiment,
        "list": _cmd_list,
        "profile": _cmd_profile,
        "compare": _cmd_compare,
        "export": _cmd_export,
        "serve": _cmd_serve,
        "obs": _cmd_obs,
        "lint": _cmd_lint,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
