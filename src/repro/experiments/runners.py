"""Experiment runners — one function per table/figure of the reconstruction.

See DESIGN.md §4 for the experiment index.  Every runner takes explicit
budget knobs (``scale``, ``epochs``, ``dim``) so the same code serves both
the full benchmark run and fast smoke tests.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import MISSL, MISSLConfig
from repro.data import DATASET_PRESETS, generate, k_core_filter
from repro.eval.evaluator import evaluate_ranking, rank_all
from repro.eval.metrics import MetricReport
from repro.train import TrainConfig, Trainer

from .context import ExperimentContext
from .results import ExperimentResult
from .zoo import MODEL_FAMILIES, build_model

__all__ = [
    "train_and_evaluate", "run_t1_dataset_stats", "run_t2_overall", "run_t3_ablation",
    "run_f1_num_interests", "run_f2_ssl_grid", "run_f3_depth_dim", "run_f4_cold_start",
    "run_f5_behavior_subsets", "run_t4_efficiency", "run_f6_interest_space",
    "run_f7_convergence",
]


def train_and_evaluate(model, context: ExperimentContext, epochs: int = 15,
                       batch_size: int = 128, patience: int = 3, seed: int = 0,
                       callbacks: tuple = (),
                       ) -> tuple[MetricReport, float]:
    """Fit (if trainable) and test-evaluate one model; returns (report, seconds)."""
    start = time.perf_counter()
    if model.parameters():
        config = TrainConfig(epochs=epochs, batch_size=batch_size, patience=patience,
                             seed=seed)
        Trainer(model, context.split, config, callbacks=callbacks).fit()
    report = evaluate_ranking(model, context.split.test, context.test_candidates,
                              context.dataset.schema, ks=(5, 10, 20))
    return report, time.perf_counter() - start


# ----------------------------------------------------------------------
# T1 — dataset statistics
# ----------------------------------------------------------------------

def run_t1_dataset_stats(scale: float = 0.5, seed: int = 1) -> ExperimentResult:
    """Statistics of the three generated corpora after preprocessing."""
    headers = ["dataset", "users", "items", "interactions", "per-behavior", "density"]
    rows = []
    raw = {}
    for preset in DATASET_PRESETS:
        dataset = k_core_filter(generate(DATASET_PRESETS[preset](scale), seed=seed))
        stats = dataset.stats()
        rows.append(stats.as_row())
        raw[preset] = stats
    return ExperimentResult(
        experiment_id="T1", title="Dataset statistics", headers=headers, rows=rows,
        notes="Synthetic substitutes for Taobao/Tmall/Yelp (see DESIGN.md §2).",
        raw=raw,
    )


# ----------------------------------------------------------------------
# T2 — overall comparison
# ----------------------------------------------------------------------

T2_MODELS = ("POP", "ItemKNN", "GRU4Rec", "SASRec", "BERT4Rec", "ComiRec", "CL4SRec",
             "MBGRU", "MBSASRec", "MBHTLite", "MISSL")
"""The paper-aligned comparison set: sequential and multi-behavior families.

Non-sequential graph-CF models (BPRMF, LightGCN) are deliberately outside
this table — the paper's baselines are all sequential — and are reported
separately by experiment A3."""


def run_t2_overall(presets: tuple[str, ...] = ("taobao", "tmall", "yelp"),
                   scale: float = 0.5, dim: int = 32, epochs: int = 15,
                   seed: int = 1, models: tuple[str, ...] | None = None
                   ) -> ExperimentResult:
    """MISSL vs the paper-aligned baseline families on every dataset."""
    models = tuple(models or T2_MODELS)
    headers = ["dataset", "family", "model", "HR@5", "NDCG@5", "HR@10", "NDCG@10", "secs"]
    rows = []
    raw: dict = {}
    for preset in presets:
        context = ExperimentContext.build(preset, scale=scale, seed=seed)
        for name in models:
            model = build_model(name, context, dim=dim, seed=seed)
            report, seconds = train_and_evaluate(model, context, epochs=epochs, seed=seed)
            rows.append([preset, MODEL_FAMILIES[name], name,
                         report["HR@5"], report["NDCG@5"],
                         report["HR@10"], report["NDCG@10"], round(seconds, 1)])
            raw[(preset, name)] = report
    return ExperimentResult(
        experiment_id="T2", title="Overall performance comparison",
        headers=headers, rows=rows,
        notes="Expected shape: MISSL best; multi-behavior > single-behavior.",
        raw=raw,
    )


# ----------------------------------------------------------------------
# T3 — ablation study
# ----------------------------------------------------------------------

ABLATIONS: dict[str, dict] = {
    "full": {},
    "w/o hypergraph": {"use_hypergraph": False},
    "w/o multi-interest": {"num_interests": 1},
    "w/o ssl-contrast": {"lambda_ssl": 0.0},
    "w/o ssl-augment": {"lambda_aug": 0.0},
    "w/o disentangle": {"lambda_disent": 0.0},
    "w/o auxiliary": {"use_auxiliary": False, "lambda_ssl": 0.0},
}


def run_t3_ablation(preset: str = "taobao", scale: float = 0.5, dim: int = 32,
                    epochs: int = 15, seed: int = 1,
                    variants: tuple[str, ...] | None = None) -> ExperimentResult:
    """MISSL with each component removed in turn."""
    variants = tuple(variants or ABLATIONS)
    context = ExperimentContext.build(preset, scale=scale, seed=seed)
    headers = ["variant", "HR@10", "NDCG@10", "secs"]
    rows = []
    raw: dict = {}
    base = MISSLConfig(dim=dim)
    for variant in variants:
        config = base.ablate(**ABLATIONS[variant])
        model = build_model("MISSL", context, dim=dim, seed=seed, missl_config=config)
        report, seconds = train_and_evaluate(model, context, epochs=epochs, seed=seed)
        rows.append([variant, report["HR@10"], report["NDCG@10"], round(seconds, 1)])
        raw[variant] = report
    return ExperimentResult(
        experiment_id="T3", title=f"Ablation study ({preset})",
        headers=headers, rows=rows,
        notes="Every ablation should underperform the full model.",
        raw=raw,
    )


# ----------------------------------------------------------------------
# F1 — number of interests K
# ----------------------------------------------------------------------

def run_f1_num_interests(preset: str = "taobao", scale: float = 0.5, dim: int = 32,
                         epochs: int = 15, seed: int = 1,
                         ks: tuple[int, ...] = (1, 2, 4, 6, 8)) -> ExperimentResult:
    """HR/NDCG as a function of the number of interest prototypes."""
    context = ExperimentContext.build(preset, scale=scale, seed=seed)
    headers = ["K", "HR@10", "NDCG@10"]
    rows = []
    raw: dict = {}
    for k in ks:
        config = MISSLConfig(dim=dim, num_interests=k)
        model = build_model("MISSL", context, dim=dim, seed=seed, missl_config=config)
        report, _ = train_and_evaluate(model, context, epochs=epochs, seed=seed)
        rows.append([k, report["HR@10"], report["NDCG@10"]])
        raw[k] = report
    return ExperimentResult(
        experiment_id="F1", title="Sensitivity to the number of interests K",
        headers=headers, rows=rows,
        notes="Expected: K>1 beats K=1; curve flattens/peaks near the planted "
              "interests-per-user.",
        raw=raw,
    )


# ----------------------------------------------------------------------
# F2 — SSL weight × temperature grid
# ----------------------------------------------------------------------

def run_f2_ssl_grid(preset: str = "taobao", scale: float = 0.5, dim: int = 32,
                    epochs: int = 12, seed: int = 1,
                    lambdas: tuple[float, ...] = (0.0, 0.05, 0.1, 0.3),
                    temperatures: tuple[float, ...] = (0.1, 0.3, 0.7)) -> ExperimentResult:
    """Heat-map grid over λ_ssl and τ."""
    context = ExperimentContext.build(preset, scale=scale, seed=seed)
    headers = ["lambda_ssl", "temperature", "HR@10", "NDCG@10"]
    rows = []
    raw: dict = {}
    for lam in lambdas:
        for tau in temperatures:
            config = MISSLConfig(dim=dim, lambda_ssl=lam, temperature=tau)
            model = build_model("MISSL", context, dim=dim, seed=seed, missl_config=config)
            report, _ = train_and_evaluate(model, context, epochs=epochs, seed=seed)
            rows.append([lam, tau, report["HR@10"], report["NDCG@10"]])
            raw[(lam, tau)] = report
    return ExperimentResult(
        experiment_id="F2", title="SSL weight and temperature grid",
        headers=headers, rows=rows,
        notes="Expected: moderate λ/τ best; λ=0 (no SSL) below the peak.",
        raw=raw,
    )


# ----------------------------------------------------------------------
# F3 — hypergraph depth × embedding dim
# ----------------------------------------------------------------------

def run_f3_depth_dim(preset: str = "taobao", scale: float = 0.5, epochs: int = 12,
                     seed: int = 1, depths: tuple[int, ...] = (0, 1, 2, 3),
                     dims: tuple[int, ...] = (16, 32, 64)) -> ExperimentResult:
    """Hypergraph transformer depth and embedding size sweeps."""
    context = ExperimentContext.build(preset, scale=scale, seed=seed)
    headers = ["axis", "value", "HR@10", "NDCG@10"]
    rows = []
    raw: dict = {}
    for depth in depths:
        config = MISSLConfig(dim=32, hg_layers=depth, use_hypergraph=depth > 0)
        model = build_model("MISSL", context, dim=32, seed=seed, missl_config=config)
        report, _ = train_and_evaluate(model, context, epochs=epochs, seed=seed)
        rows.append(["hg_layers", depth, report["HR@10"], report["NDCG@10"]])
        raw[("depth", depth)] = report
    for dim in dims:
        config = MISSLConfig(dim=dim)
        model = build_model("MISSL", context, dim=dim, seed=seed, missl_config=config)
        report, _ = train_and_evaluate(model, context, epochs=epochs, seed=seed)
        rows.append(["dim", dim, report["HR@10"], report["NDCG@10"]])
        raw[("dim", dim)] = report
    return ExperimentResult(
        experiment_id="F3", title="Hypergraph depth and embedding dim sensitivity",
        headers=headers, rows=rows,
        notes="Expected: depth 1-2 beats 0; very deep stacks oversmooth.",
        raw=raw,
    )


# ----------------------------------------------------------------------
# F4 — cold start by target-history length
# ----------------------------------------------------------------------

def run_f4_cold_start(preset: str = "taobao", scale: float = 0.5, dim: int = 32,
                      epochs: int = 15, seed: int = 1,
                      models: tuple[str, ...] = ("SASRec", "MBSASRec", "MISSL"),
                      boundaries: tuple[int, ...] = (4, 6)) -> ExperimentResult:
    """Per-user-group metrics, grouped by target-behavior history length.

    Groups: ``<= boundaries[0]``, middle, ``> boundaries[-1]``.
    """
    context = ExperimentContext.build(preset, scale=scale, seed=seed)
    lengths = context.dataset.target_lengths()
    test_lengths = np.array([lengths[e.user] for e in context.split.test])
    groups = {
        f"<={boundaries[0]}": test_lengths <= boundaries[0],
        f"{boundaries[0] + 1}-{boundaries[-1]}": (test_lengths > boundaries[0])
                                                 & (test_lengths <= boundaries[-1]),
        f">{boundaries[-1]}": test_lengths > boundaries[-1],
    }
    headers = ["model", "group", "users", "HR@10", "NDCG@10"]
    rows = []
    raw: dict = {}
    for name in models:
        model = build_model(name, context, dim=dim, seed=seed)
        if model.parameters():
            Trainer(model, context.split,
                    TrainConfig(epochs=epochs, patience=3, seed=seed)).fit()
        ranks = rank_all(model, context.split.test, context.test_candidates,
                         context.dataset.schema)
        for group, member in groups.items():
            if member.sum() == 0:
                continue
            report = MetricReport.from_ranks(ranks[member], ks=(10,))
            rows.append([name, group, int(member.sum()),
                         report["HR@10"], report["NDCG@10"]])
            raw[(name, group)] = report
    return ExperimentResult(
        experiment_id="F4", title="Cold-start analysis by target-history length",
        headers=headers, rows=rows,
        notes="Expected: MISSL's relative gain over SASRec largest on the "
              "sparsest group.",
        raw=raw,
    )


# ----------------------------------------------------------------------
# F5 — auxiliary-behavior contribution
# ----------------------------------------------------------------------

def run_f5_behavior_subsets(preset: str = "taobao", scale: float = 0.5, dim: int = 32,
                            epochs: int = 15, seed: int = 1) -> ExperimentResult:
    """Train MISSL with incrementally larger behavior subsets."""
    context = ExperimentContext.build(preset, scale=scale, seed=seed)
    schema = context.dataset.schema
    subsets: list[tuple[str, ...]] = [(schema.target,)]
    for behavior in schema.auxiliary:
        subsets.append(tuple(subsets[-1]) + (behavior,))
    headers = ["behaviors", "HR@10", "NDCG@10"]
    rows = []
    raw: dict = {}
    for subset in subsets:
        sub_context = context.restrict_behaviors(subset)
        config = MISSLConfig(dim=dim, use_auxiliary=len(subset) > 1)
        model = build_model("MISSL", sub_context, dim=dim, seed=seed, missl_config=config)
        report, _ = train_and_evaluate(model, sub_context, epochs=epochs, seed=seed)
        label = "+".join(subset)
        rows.append([label, report["HR@10"], report["NDCG@10"]])
        raw[subset] = report
    return ExperimentResult(
        experiment_id="F5", title="Contribution of each auxiliary behavior",
        headers=headers, rows=rows,
        notes="Expected: metrics improve as auxiliary behaviors are added.",
        raw=raw,
    )


# ----------------------------------------------------------------------
# T4 — efficiency
# ----------------------------------------------------------------------

def run_t4_efficiency(preset: str = "taobao", scale: float = 0.5, dim: int = 32,
                      seed: int = 1,
                      models: tuple[str, ...] = ("SASRec", "ComiRec", "MBSASRec",
                                                 "MBHTLite", "MISSL")) -> ExperimentResult:
    """Parameters, training time per epoch, inference latency per user."""
    context = ExperimentContext.build(preset, scale=scale, seed=seed)
    headers = ["model", "params", "train s/epoch", "infer ms/user"]
    rows = []
    raw: dict = {}
    for name in models:
        model = build_model(name, context, dim=dim, seed=seed)
        trainer = Trainer(model, context.split, TrainConfig(epochs=1, patience=1, seed=seed))
        history = trainer.fit()
        # Optimization time only: the per-epoch validation ranking pass is
        # an evaluation cost and must not skew the train-s/epoch column.
        epoch_seconds = history.total_train_seconds()
        start = time.perf_counter()
        evaluate_ranking(model, context.split.test, context.test_candidates,
                         context.dataset.schema)
        infer_ms = 1000.0 * (time.perf_counter() - start) / max(1, len(context.split.test))
        rows.append([name, model.num_parameters(), round(epoch_seconds, 2),
                     round(infer_ms, 3)])
        raw[name] = {"params": model.num_parameters(), "epoch_seconds": epoch_seconds,
                     "infer_ms": infer_ms}
    return ExperimentResult(
        experiment_id="T4", title="Time efficiency comparison",
        headers=headers, rows=rows,
        notes="Expected: MISSL costlier than SASRec but the same order of magnitude.",
        raw=raw,
    )


# ----------------------------------------------------------------------
# F6 — interest-space analysis
# ----------------------------------------------------------------------

def _mean_offdiag_cosine(interests: np.ndarray) -> float:
    """Mean |cos| between different interest slots, averaged over users."""
    normed = interests / np.maximum(np.linalg.norm(interests, axis=-1, keepdims=True), 1e-12)
    gram = np.einsum("bkd,bjd->bkj", normed, normed)
    k = gram.shape[1]
    mask = ~np.eye(k, dtype=bool)
    return float(np.abs(gram[:, mask]).mean())


def _cluster_separation(table: np.ndarray, clusters: np.ndarray) -> float:
    """Ratio of between-cluster to within-cluster mean distance of item embeddings.

    Higher = planted clusters are better separated in the embedding space.
    """
    items = table[1:]  # drop padding row
    centroids = np.stack([items[clusters == c].mean(axis=0)
                          for c in np.unique(clusters)])
    within = np.mean([
        np.linalg.norm(items[clusters == c] - centroids[i], axis=1).mean()
        for i, c in enumerate(np.unique(clusters))
    ])
    diffs = centroids[:, None, :] - centroids[None, :, :]
    pair = np.linalg.norm(diffs, axis=-1)
    between = pair[~np.eye(len(centroids), dtype=bool)].mean()
    return float(between / max(within, 1e-12))


def run_f6_interest_space(preset: str = "taobao", scale: float = 0.5, dim: int = 32,
                          epochs: int = 12, seed: int = 1) -> ExperimentResult:
    """Interest-space geometry with vs without the disentanglement penalty.

    Three quantities stand in for the paper's t-SNE panels:

    * **prototype off-diag |cos|** — separation of the K learned interest
      prototypes; the disentanglement penalty acts on these directly and
      must lower the value.
    * **user-interest off-diag |cos|** — separation of per-user fused
      interests (reported as an observation: on short synthetic histories
      the fused slots largely share one direction regardless of the penalty).
    * **cluster separation** — between/within-cluster distance ratio of the
      item table against the generator's planted clusters, hypergraph-
      enhanced vs raw.
    """
    from repro.data.batching import collate
    from repro.nn.tensor import no_grad

    context = ExperimentContext.build(preset, scale=scale, seed=seed)
    clusters = getattr(context.dataset, "item_clusters", None)
    headers = ["quantity", "variant", "value"]
    rows = []
    raw: dict = {}
    for variant, overrides in (("with disent", {"lambda_disent": 0.5}),
                               ("w/o disent", {"lambda_disent": 0.0})):
        config = MISSLConfig(dim=dim).ablate(**overrides)
        model = build_model("MISSL", context, dim=dim, seed=seed, missl_config=config)
        train_and_evaluate(model, context, epochs=epochs, seed=seed)
        model.eval()
        with no_grad():
            batch = collate(context.split.test[:128], context.dataset.schema)
            users = model.user_representation(batch)
            prototypes = model.interest_extractor.prototypes.numpy()
        proto_cos = _mean_offdiag_cosine(prototypes[None])
        user_cos = _mean_offdiag_cosine(users.numpy())
        rows.append(["prototype off-diag |cos|", variant, proto_cos])
        rows.append(["user-interest off-diag |cos|", variant, user_cos])
        raw[("proto_cosine", variant)] = proto_cos
        raw[("user_cosine", variant)] = user_cos
        if variant == "with disent" and clusters is not None:
            with no_grad():
                enhanced = model.item_representations().numpy()
            raw["separation_enhanced"] = _cluster_separation(enhanced, clusters)
            raw["separation_raw"] = _cluster_separation(
                model.item_embedding.weight.numpy(), clusters)
            rows.append(["cluster separation", "enhanced table", raw["separation_enhanced"]])
            rows.append(["cluster separation", "raw table", raw["separation_raw"]])
    return ExperimentResult(
        experiment_id="F6", title="Interest-space analysis (t-SNE proxy)",
        headers=headers, rows=rows,
        notes="Expected: disentanglement lowers the prototype cosine; the "
              "hypergraph-enhanced table separates planted clusters better "
              "than the raw table.",
        raw=raw,
    )


# ----------------------------------------------------------------------
# F7 — convergence analysis
# ----------------------------------------------------------------------

def run_f7_convergence(preset: str = "taobao", scale: float = 0.5, dim: int = 32,
                       epochs: int = 12, seed: int = 1,
                       models: tuple[str, ...] = ("SASRec", "MBSASRec", "MISSL")
                       ) -> ExperimentResult:
    """Validation NDCG@10 per training epoch for several models.

    The figure's series data: each row is one (model, epoch) point.  Early
    stopping is disabled (patience = epochs) so every curve has the same
    length.
    """
    from repro.train import TrainConfig, Trainer

    context = ExperimentContext.build(preset, scale=scale, seed=seed)
    headers = ["model", "epoch", "train_loss", "valid NDCG@10"]
    rows = []
    raw: dict = {}
    for name in models:
        model = build_model(name, context, dim=dim, seed=seed)
        trainer = Trainer(model, context.split,
                          TrainConfig(epochs=epochs, patience=epochs, seed=seed))
        history = trainer.fit()
        curve = history.metric_curve("NDCG@10")
        for record in history.records:
            rows.append([name, record.epoch, record.train_loss,
                         record.valid_metrics.get("NDCG@10", float("nan"))])
        raw[name] = {"curve": curve, "losses": history.train_losses(),
                     "best": history.best_metric}
    return ExperimentResult(
        experiment_id="F7", title="Convergence analysis (valid NDCG@10 per epoch)",
        headers=headers, rows=rows,
        notes="Expected: losses decrease; MISSL's curve ends above the "
              "baselines' curves.",
        raw=raw,
    )
