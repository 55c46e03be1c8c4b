"""The four workloads of the end-to-end benchmark.

``run.py`` starts this file once per workload, as its own process::

    python benchmarks/e2e/workloads.py --workload NAME --seed N --seconds S \
        --trace 0|1 --work DIR --inputs DIR [--smoke]

and reads the result from the last line of its standard output (one JSON
object).  ``--prepare`` instead exports the serving artifact and the user
histories into ``--work`` — in a process of its own, so that building the
exported model never counts against a serving workload's memory.  The
serving inputs are cached under ``--inputs``, keyed by the sources of
``repro`` and of this file: the first serving run in a checkout builds
them, later runs reuse them.

The corpus and the model initialisation are fixed (``CORPUS_SEED``), so
every run does the same work.  ``--seed`` drives everything that varies
between runs: the training batch order and augmentations, every request
sequence, and which users the correctness checks pick.  Workloads call only
public entry points of ``repro``: the ``repro serve`` CLI (through
``NetClient``), ``Trainer``, ``evaluate_ranking`` and
``RecommenderService.recommend_many``.

One run measures for ``--seconds`` — its set-ups included.  With
``--trace 1`` the window is split in two halves: an untraced half (the
baseline of the tracing overhead) and a traced half that gives the layers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pickle
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import spans as tracing
from loadgen import (APPEND_BEHAVIOR, Op, OpenLoopGenerator, capacity_ladder,
                     percentile)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

WORKLOADS = ("train", "serve_read", "serve_write", "batch_score")
CORPUS_SEED = 1

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# Layer parts of one unit of work (a train step; a served request; a scored
# chunk), keyed by span name; each is reported per unit as p50 and p99.
TRAIN_PARTS = {
    "data.loader_wait": "data.loader_wait_ms",
    "hypergraph.fwd": "hypergraph.fwd_ms",
    "core.seq_encoder_fwd": "core.seq_encoder_fwd_ms",
    "core.interest_fwd": "core.interest_fwd_ms",
    "core.ssl_fwd": "core.ssl_fwd_ms",
    "core.augment": "core.augment_ms",
    "nn.backward": "nn.backward_ms",
    "nn.optim": "nn.optim_ms",
}
SERVE_PARTS = {
    "serve.net.wire": "serve.net.wire_ms",
    "serve.batcher.queue": "serve.batcher.queue_ms",
    "serve.cache.get": "serve.cache.lookup_ms",
    "serve.history.read": "serve.history.read_ms",
    "serve.encoder.collate": "serve.encoder.collate_ms",
    "serve.encoder.encode": "serve.encoder.encode_ms",
    "serve.index.search": "serve.index.search_ms",
    "serve.rank": "serve.rank_ms",
}
SETUP_PARTS = {"setup.corpus": "setup.corpus_s",
               "setup.history": "setup.history_s",
               "setup.artifact_load": "setup.artifact_load_s",
               "setup.index_build": "setup.index_build_s",
               "setup.hypergraph_build": "setup.hypergraph_build_s"}
# The six ops with the most backward time in ``python -m repro profile`` at
# the train workload's scale.
BACKWARD_OPS = ("getitem", "mul", "matmul", "layer_norm", "take", "gelu")


def _per_layer_catalog() -> dict[str, str]:
    catalog: dict[str, str] = {}
    timed = (list(TRAIN_PARTS.values())
             + ["train.step_residual_ms", "train.step_ms", "eval.pass_ms",
                "serve.net.server_ms"] + list(SERVE_PARTS.values())
             + ["serve.history.append_ms", "serve.request_residual_ms",
                "serve.request_ms", "loadgen.lag_ms"])
    for name in timed:
        catalog[f"{name}.p50"] = "ms"
        catalog[f"{name}.p99"] = "ms"
    for op in BACKWARD_OPS:
        catalog[f"nn.backward_op_ms.{op}"] = "ms"
    catalog.update({
        "nn.graph_nodes": "count",
        "serve.batcher.batch_size": "count",
        "serve.cache.hit_share": "share",
        "serve.encoder.rows": "count",
        "serve.index.candidates": "count",
        "server.cpu_ms_per_request": "ms",
        **{metric: "s" for metric in SETUP_PARTS.values()},
        "setup.model_init_s": "s",
        "ledger.residual_share": "share",
        "trace.overhead_ratio": "ratio",
    })
    return catalog


PER_LAYER = _per_layer_catalog()


class Sizes:
    """Corpus scales and phase lengths; ``smoke`` shrinks them for tests."""

    def __init__(self, seconds: float, smoke: bool):
        self.seconds = seconds
        self.train_scale = 0.3 if smoke else 2.0
        self.serve_scale = 1.0 if smoke else 10.0
        self.setup_reps = 3
        # A server spawn takes 4.5-8 s of the window (it builds the user
        # histories from the corpus); two spawns leave the base rung ~10 s.
        self.spawns = 2
        self.train_share = 0.85
        self.min_eval_passes = 1 if smoke else 3
        self.rate = 100.0
        self.warmup_s = 0.5 if smoke else 1.5
        self.rung_s = 0.4 if smoke else 1.0
        # Up to two doubling rungs and four bisections.
        self.ladder_s = 6 * (self.rung_s + 0.1)
        self.min_base_s = 1.0 if smoke else 4.0
        self.parity_users = 50
        self.batch_parity_users = 100
        self.chunk = 256


# ----------------------------------------------------------------------
# process and host helpers
# ----------------------------------------------------------------------

def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (VmHWM) of a process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return float(line.split()[1]) / 1024.0
    raise KeyError("VmHWM")


def cpu_seconds(pid: int) -> float:
    """User + system CPU time a process has used so far."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def host_info() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get(
        "blas", {})
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in
                 ("name", "version", "openblas configuration")},
        "threads": {name: os.environ.get(name) for name in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")},
    }


def ms(seconds_list) -> list[float]:
    return [value * 1e3 for value in seconds_list]


def p50_p99(prefix: str, values_ms: list[float]) -> dict[str, float]:
    if not values_ms:
        return {f"{prefix}.p50": 0.0, f"{prefix}.p99": 0.0}
    return {f"{prefix}.p50": percentile(values_ms, 50),
            f"{prefix}.p99": percentile(values_ms, 99)}


def ledger(units: list[dict[str, float]], parts: dict[str, str],
           residual: str, whole: str) -> tuple[dict[str, float], dict]:
    """Per-layer p50/p99 of each part over the units of work, and the
    mean-per-unit ledger, whose parts and residual add up to the mean
    whole.  A unit maps span names to self seconds, plus ``"whole"``; the
    residual is what the named parts leave of the whole."""
    for unit in units:
        unit["residual"] = unit["whole"] - sum(unit.get(name, 0.0)
                                               for name in parts)
    metrics: dict[str, float] = {}
    for span_name, metric in parts.items():
        metrics.update(p50_p99(metric, ms(u.get(span_name, 0.0)
                                          for u in units)))
    metrics.update(p50_p99(residual, ms(u["residual"] for u in units)))
    metrics.update(p50_p99(whole, ms(u["whole"] for u in units)))
    count = max(len(units), 1)
    table = {metric: sum(u.get(span_name, 0.0) for u in units) / count * 1e3
             for span_name, metric in parts.items()}
    for key in ("residual", "whole"):
        table[key] = sum(u[key] for u in units) / count * 1e3
    metrics["ledger.residual_share"] = (table["residual"] / table["whole"]
                                        if table["whole"] else 0.0)
    return metrics, {"units": len(units), "mean_ms": table}


def setup_layers(groups: list[list[dict]]) -> dict[str, float]:
    """Median over set-ups of each set-up layer's time; a group holds the
    spans of one set-up."""
    return {metric: statistics.median(
                sum(s["seconds"] for s in group if s["name"] == name)
                for group in groups)
            for name, metric in SETUP_PARTS.items()}


def lookup_counts(spans: list[dict]) -> dict[str, float]:
    """Cache hit share, rows per encode and candidates per search."""
    def attr(name, key):
        return [s["attrs"][key] for s in spans if s["name"] == name]

    hits = attr("serve.cache.get", "hit")
    rows = attr("serve.encoder.encode", "rows")
    candidates = attr("serve.index.search", "candidates")
    return {
        "serve.cache.hit_share": sum(hits) / len(hits) if hits else 0.0,
        "serve.encoder.rows": statistics.mean(rows) if rows else 0.0,
        "serve.index.candidates": (statistics.mean(candidates)
                                   if candidates else 0.0),
    }


def start_tracing(install) -> object:
    """Install wrappers and keep ``repro.obs`` span events in memory."""
    from repro.obs import enable_telemetry
    tracing.install_setup()
    install()
    return enable_telemetry()


# ----------------------------------------------------------------------
# train
# ----------------------------------------------------------------------

class TimeUp(Exception):
    """Raised from the step clock to end ``Trainer.fit`` at the deadline."""


def run_train(sizes: Sizes, seed: int, window: float, reps: int,
              telemetry=None) -> dict:
    from repro.eval import evaluate_ranking
    from repro.experiments import ExperimentContext, build_model
    from repro.obs import TrainerCallback, span
    from repro.perf import disable_profiling, enable_profiling, get_profiler
    from repro.train import TrainConfig, Trainer

    started = time.perf_counter()
    setups, model_init = [], []
    for rep in range(reps):
        with span("setup", rep=rep):
            setup_started = time.perf_counter()
            context = ExperimentContext.build(
                "taobao", scale=sizes.train_scale, seed=CORPUS_SEED)
            model_started = time.perf_counter()
            model = build_model("MISSL", context, dim=32, seed=CORPUS_SEED)
            setups.append(time.perf_counter() - setup_started)
            model_init.append(time.perf_counter() - model_started)

    train_rows = len(context.split.train)
    batch_size = 128

    class StepClock(TrainerCallback):
        def __init__(self, deadline: float):
            self.deadline = deadline
            self.starts: list[tuple[int, int, float]] = []
            self.ends: list[float] = []
            self.losses: list[float] = []

        def on_batch_start(self, trainer, epoch, step):
            now = time.perf_counter()
            self.starts.append((epoch, step, now))
            if now >= self.deadline:
                raise TimeUp
            if telemetry is not None:
                enable_profiling()

        def on_batch_end(self, trainer, epoch, step, loss, breakdown):
            if telemetry is not None:
                disable_profiling()
            self.ends.append(time.perf_counter())
            self.losses.append(loss)

    clock = StepClock(started + sizes.train_share * window)
    trainer = Trainer(model, context.split,
                      TrainConfig(epochs=1000, batch_size=batch_size,
                                  patience=3, seed=seed),
                      callbacks=[clock])
    try:
        trainer.fit()
    except TimeUp:
        pass

    # A step's cycle runs from its start to the next step's start in the same
    # epoch: forward, backward, optimizer and the wait for the next batch.
    cycles, rows = [], 0
    for index, (epoch, step, start) in enumerate(clock.starts[:-1]):
        next_epoch, _, next_start = clock.starts[index + 1]
        if next_epoch == epoch and index < len(clock.ends):
            cycles.append(next_start - start)
            rows += min(batch_size, train_rows - step * batch_size)

    model.eval()
    eval_passes = []
    while True:
        pass_started = time.perf_counter()
        report = evaluate_ranking(model, context.split.test,
                                  context.test_candidates,
                                  context.dataset.schema)
        eval_passes.append(time.perf_counter() - pass_started)
        if len(eval_passes) >= sizes.min_eval_passes and \
                time.perf_counter() >= started + window:
            break

    candidates = context.test_candidates.num_negatives + 1
    random_ndcg = sum(1.0 / math.log2(rank + 2)
                      for rank in range(min(10, candidates))) / candidates
    ndcg10 = float(report["NDCG@10"])
    checks = {
        "loss_finite": all(math.isfinite(loss) for loss in clock.losses),
        "steps_measured": len(cycles) >= 2,
        "test_ndcg10_above_random": ndcg10 > random_ndcg,
    }
    result = {
        "e2e": {
            "setup_s": statistics.median(setups),
            "throughput_per_s": rows / sum(cycles) if cycles else 0.0,
            "latency_p50_ms": percentile(ms(cycles), 50),
            # ~57 cycles a run: p80 is the highest percentile with ten
            # cycles beyond it.
            "latency_tail_ms": percentile(ms(cycles), 80),
            "peak_rss_mb": peak_rss_mb(),
        },
        "checks": checks,
        "attempted": len(clock.losses) + len(eval_passes),
        "failed": sum(1 for loss in clock.losses if not math.isfinite(loss)),
        "extras": {"steps": len(clock.losses), "cycle_ms": ms(cycles),
                   "epochs": clock.starts[-1][0] + 1 if clock.starts else 0,
                   "test_ndcg10": ndcg10, "random_ndcg10": random_ndcg,
                   "eval_passes": len(eval_passes),
                   "eval_users_per_s": len(context.split.test)
                   / statistics.median(eval_passes),
                   "setup_samples_s": setups},
    }
    if telemetry is not None:
        tree = tracing.SpanTree(telemetry.sink.events)
        waits = [s for s in tree.named("data.loader_wait")
                 if not s["attrs"].get("exhausted")]
        units = []
        # Each step's batch is the one fetched just before it.
        for wait, step in zip(waits, tree.named("train.step")):
            if "error" in step["attrs"]:
                continue
            unit = tree.parts(step)
            unit["data.loader_wait"] = wait["seconds"]
            unit["whole"] = wait["seconds"] + step["seconds"]
            units.append(unit)
        layers, table = ledger(units, TRAIN_PARTS, "train.step_residual_ms",
                               "train.step_ms")
        profiler = get_profiler()
        for op in BACKWARD_OPS:
            stat = profiler.stats.get(op) if profiler else None
            layers[f"nn.backward_op_ms.{op}"] = (
                stat.backward_seconds * 1e3 / len(units)
                if stat and units else 0.0)
        layers["nn.graph_nodes"] = (
            sum(stat.nodes for stat in profiler.stats.values()) / len(units)
            if profiler and units else 0.0)
        layers.update(p50_p99("eval.pass_ms", ms(eval_passes)))
        layers.update(setup_layers([tree.subtree(marker)
                                    for marker in tree.named("setup")]))
        layers["setup.model_init_s"] = statistics.median(model_init)
        result["layers"] = layers
        result["extras"]["ledger"] = table
    return result


# ----------------------------------------------------------------------
# shared serving inputs
# ----------------------------------------------------------------------

def prepare(scale: float, work: Path) -> None:
    """Export an untrained MISSL artifact and pickle the user histories."""
    from repro.core import MISSL, MISSLConfig
    from repro.data import DATASET_PRESETS, generate, k_core_filter
    from repro.hypergraph import build_hypergraph
    from repro.serve import HistoryStore, export_artifact

    dataset = k_core_filter(generate(DATASET_PRESETS["taobao"](scale),
                                     seed=CORPUS_SEED))
    model = MISSL(dataset.num_items, dataset.schema, build_hypergraph(dataset),
                  MISSLConfig(dim=32), seed=CORPUS_SEED)
    export_artifact(model, work / "artifact.npz",
                    extra={"preset": "taobao", "scale": scale,
                           "seed": CORPUS_SEED})
    with open(work / "history.pkl", "wb") as handle:
        pickle.dump(HistoryStore.from_dataset(dataset), handle)


def source_digest() -> str:
    """Digest of the ``repro`` sources and of this file: the cache key of
    the prepared serving inputs."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")) + [
            Path(__file__).resolve()]:
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def serving_inputs(scale: float, inputs_root: Path) -> Path:
    """The directory with ``artifact.npz`` and ``history.pkl``, prepared in
    a separate process on first use."""
    final = inputs_root / f"taobao-{scale:g}-{source_digest()}"
    if (final / "history.pkl").is_file():
        return final
    staging = inputs_root / f"{final.name}.staging-{os.getpid()}"
    staging.mkdir(parents=True, exist_ok=True)
    try:
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--prepare",
             "--scale", repr(scale), "--work", str(staging)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        if completed.returncode != 0:
            raise RuntimeError(
                f"preparing inputs failed:\n{completed.stderr[-2000:]}")
        try:
            staging.rename(final)
        except OSError:
            if not (final / "history.pkl").is_file():
                raise
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return final


def load_history(inputs: Path):
    # The pickle was written by this benchmark's own --prepare step.
    with open(inputs / "history.pkl", "rb") as handle:
        return pickle.load(handle)


class Offline:
    """Served == offline reference: one user at a time through the
    artifact's serving encoder and an exact index."""

    def __init__(self, artifact_path: Path):
        from repro.serve import ExactIndex, build_encoder, load_artifact
        artifact = load_artifact(artifact_path)
        self.encoder = build_encoder(artifact)
        self.index = ExactIndex(artifact.item_vectors(),
                                score_mode=self.encoder.score_mode,
                                score_pow=self.encoder.score_pow)

    def top(self, history, user: int, k: int = 10) -> tuple[list, list]:
        from repro.data import collate
        batch = collate([history.example(user, 50)], history.schema)
        found = self.index.search(self.encoder.interests(batch)[0], k,
                                  exclude=history.seen(user))
        return [int(item) for item in found.items], \
            [float(score) for score in found.scores]


def same_list(items_a, scores_a, items_b, scores_b) -> bool:
    """Equal top-k items with scores equal to float32 rounding (a batch of
    one and a batch of many may round the last bit differently)."""
    return (list(items_a) == list(items_b)
            and np.allclose(scores_a, scores_b, rtol=1e-5, atol=1e-7))


# ----------------------------------------------------------------------
# serve_read / serve_write
# ----------------------------------------------------------------------

class Server:
    """One ``repro serve --listen`` process (optionally the traced twin)."""

    def __init__(self, artifact: Path, work: Path, name: str,
                 events_out: Path | None = None):
        serve_args = ["serve", str(artifact), "--listen", "127.0.0.1:0"]
        if events_out is None:
            command = [sys.executable, "-m", "repro", *serve_args]
        else:
            command = [sys.executable, str(HERE / "serve_traced.py"),
                       str(events_out), *serve_args]
        self.log_path = work / f"{name}.log"
        self._log = open(self.log_path, "wb")
        started = time.perf_counter()
        self.process = subprocess.Popen(command, cwd=ROOT,
                                        stdout=subprocess.PIPE,
                                        stderr=self._log)
        try:
            banner = self._read_banner(timeout=150.0)
        except BaseException:
            self.stop()
            raise
        self.ready_seconds = time.perf_counter() - started
        self.host, self.port = banner["host"], int(banner["port"])
        self.pid = self.process.pid

    def _read_banner(self, timeout: float) -> dict:
        deadline = time.monotonic() + timeout
        buffer = b""
        stream = self.process.stdout
        while b"\n" not in buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.process.poll() is not None:
                raise RuntimeError(
                    f"server not ready: {self.log_path.read_text()[-2000:]}")
            ready, _, _ = select.select([stream], [], [], min(remaining, 0.5))
            if ready:
                chunk = os.read(stream.fileno(), 4096)
                if not chunk:
                    continue
                buffer += chunk
        banner = json.loads(buffer.split(b"\n", 1)[0])
        if not banner.get("ready"):
            raise RuntimeError(f"unexpected banner {banner}")
        return banner

    def stop(self) -> None:
        """SIGTERM (the server drains), then wait; kill if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=10)
        self.process.stdout.close()
        self._log.close()


def make_ops(rng: np.random.Generator, users: list[int], num_items: int,
             count: int, write: bool) -> list[Op]:
    """``serve_read``: users drawn Zipf(s=1.2) over a popularity order
    fixed with the corpus (so the hot users, and the share of the load each
    pinned connection carries, are the same for every seed);
    ``serve_write``: users uniform, each op an append then a recommend."""
    users_array = np.asarray(users)
    if write:
        chosen = rng.choice(users_array, size=count)
        items = rng.integers(1, num_items + 1, size=count)
        return [Op(int(user), int(item)) for user, item in zip(chosen, items)]
    order = np.random.default_rng(CORPUS_SEED).permutation(users_array)
    weights = np.arange(1, len(order) + 1, dtype=np.float64) ** -1.2
    chosen = order[rng.choice(len(order), size=count, p=weights / weights.sum())]
    return [Op(int(user)) for user in chosen]


def check_parity(generator: OpenLoopGenerator, offline: Offline, history,
                 users) -> tuple[int, int]:
    """Served top-10 vs offline for ``users``; returns (checked, mismatched)."""
    client = generator.clients[0]
    mismatched = 0
    for user in users:
        response = client.recommend(int(user), k=10)
        items, scores = offline.top(history, int(user))
        if not response.get("ok") or not same_list(
                response["items"], response["scores"], items, scores):
            mismatched += 1
    return len(users), mismatched


def drive_server(sizes: Sizes, seed: int, write: bool, history,
                 server: Server, offline: Offline, deadline: float,
                 ladder: bool) -> dict:
    """Parity check, warm-up, base rung at 100 rps until ``deadline`` (less
    the ladder's time with ``ladder``), then the capacity ladder; for
    ``serve_write`` a second parity check after replaying every append."""
    rng = np.random.default_rng([seed, 7])
    users = history.users
    checks: dict[str, object] = {}

    def ops(count: int) -> list[Op]:
        return make_ops(rng, users, history.num_items, count, write)

    with OpenLoopGenerator(server.host, server.port, connections=2) as gen:
        if not write:
            picked = rng.choice(users, size=min(sizes.parity_users, len(users)),
                                replace=False)
            checked, bad = check_parity(gen, offline, history, picked)
            checks["parity_before_load"] = bad == 0
            checks["parity_users"] = checked
        warmup = gen.run(ops(int(sizes.rate * sizes.warmup_s)),
                         sizes.warmup_s, rate=sizes.rate, cut_off=False)
        base_s = max(sizes.min_base_s, deadline - time.perf_counter()
                     - (sizes.ladder_s if ladder else 0.0))
        cpu_before = cpu_seconds(server.pid)
        base = gen.run(ops(int(sizes.rate * base_s)), base_s, rate=sizes.rate,
                       cut_off=False)
        base_cpu = cpu_seconds(server.pid) - cpu_before
        top, rungs = (capacity_ladder(gen, ops, sizes.rung_s,
                                      floor=sizes.rate)
                      if ladder else (None, []))
        all_rungs = [warmup, base, *rungs]
        if write:
            replayed = version_mismatch = 0
            for rung in all_rungs:
                for sample in rung.samples:
                    if sample.version is None:
                        continue
                    version = history.append(sample.op.user,
                                             sample.op.append_item,
                                             APPEND_BEHAVIOR)
                    replayed += 1
                    version_mismatch += version != sample.version
            appended = sorted({sample.op.user for rung in all_rungs
                               for sample in rung.samples
                               if sample.version is not None})
            picked = rng.choice(appended, size=min(sizes.parity_users,
                                                   len(appended)),
                                replace=False)
            checked, bad = check_parity(gen, offline, history, picked)
            checks["appends_replayed"] = replayed
            checks["append_versions_match"] = version_mismatch == 0
            checks["parity_after_appends"] = bad == 0 and checked > 0
            checks["parity_users"] = checked
    latencies = base.latencies_ms()
    served = sum(1 for s in base.samples if s.ok)
    return {
        "base": base, "checks": checks,
        # Throughput sustained at the highest rate that passed (the base
        # rung's when no ladder rung did).
        "capacity": (top or base).served_per_second(),
        "rungs": {"warmup": warmup.report(), "base": base.report(),
                  "ladder": [rung.report() for rung in rungs]},
        "p50": percentile(latencies, 50),
        # p90 moved twice as much as p50 between runs when the host slowed
        # (31% against 14% spread on serve_read); p80 moved about as much.
        "p80": percentile(latencies, 80),
        "cpu_ms_per_request": base_cpu * 1e3 / max(served, 1),
        "lag": p50_p99("loadgen.lag_ms", base.lag_ms()),
        # The warm-up and the base rung send every request, so only error
        # responses fail.  Overloading is how the ladder finds its top, so
        # requests a ladder rung left unsent are not failures either.
        "attempted": sum(len(r.samples) for r in all_rungs)
        + int(checks.get("parity_users", 0)),
        "failed": sum(r.failed for r in all_rungs),
    }


def serve_layers(tree: tracing.SpanTree, base) -> tuple[dict, dict]:
    """Per-request ledger of the base rung from the server's spans, matched
    to the client's samples (client and server share CLOCK_MONOTONIC)."""
    window = (base.started, max(sample.done for sample in base.samples))
    in_window = [s for s in tree.spans if window[0] <= s["start"] <= window[1]]
    requests = [s for s in in_window if s["name"] == "net.request"]
    batches_of_key: dict[int, list] = {}
    for batch in tree.named("serve.batcher.run"):
        for key in batch["attrs"]["keys"]:
            batches_of_key.setdefault(key, []).append(batch)
    client: dict[int, list] = {}
    for sample in base.samples:
        if sample.ok:
            client.setdefault(sample.op.user, []).append(sample)

    units, server_ms, append_ms, used_batches = [], [], [], {}
    for request in requests:
        below = tree.subtree(request)
        if request["attrs"]["op"] == "append":
            append_ms.append(1e3 * sum(s["seconds"] for s in below
                                       if s["name"] == "serve.history.append"))
            continue
        submit = next((s for s in below
                       if s["name"] == "serve.batcher.submit"), None)
        served = next((s for s in below if s["name"] == "serve.request"), None)
        if submit is None or served is None:
            continue
        end = request["start"] + request["seconds"]
        batch = next((b for b in batches_of_key.get(submit["attrs"]["key"], ())
                      if submit["start"] <= b["start"]
                      <= submit["start"] + submit["seconds"]), None)
        sample = next((c for c in client.get(served["attrs"]["user"], ())
                       if c.sent <= request["start"] and end <= c.done), None)
        if batch is None or sample is None:
            continue
        used_batches[batch["span_id"]] = batch
        unit = tree.parts(batch)
        unit["serve.batcher.queue"] = batch["start"] - submit["start"]
        whole = sample.done - sample.recommend_sent
        unit["serve.net.wire"] = whole - request["seconds"]
        unit["whole"] = whole
        units.append(unit)
        server_ms.append(request["seconds"] * 1e3)
    layers, table = ledger(units, SERVE_PARTS, "serve.request_residual_ms",
                           "serve.request_ms")
    layers.update(p50_p99("serve.net.server_ms", server_ms))
    layers.update(p50_p99("serve.history.append_ms", append_ms))
    layers.update(lookup_counts(in_window))
    layers["serve.batcher.batch_size"] = (
        statistics.mean(len(b["attrs"]["keys"]) for b in used_batches.values())
        if used_batches else 0.0)
    table["matched_requests"] = len(units)
    table["recommends_traced"] = sum(1 for r in requests
                                     if r["attrs"]["op"] == "recommend")
    return layers, table


def run_serve(sizes: Sizes, seed: int, window: float, reps: int, write: bool,
              work: Path, inputs: Path, offline: Offline, ladder: bool,
              events_out: Path | None = None) -> dict:
    """Spawn the server ``reps`` times (the set-ups), then drive the last
    one; with ``events_out`` the server records its spans there."""
    artifact = inputs / "artifact.npz"
    started = time.perf_counter()
    setups = []
    server = None
    try:
        for rep in range(reps):
            if server is not None:
                server.stop()
            server = Server(artifact, work, f"server{rep}", events_out)
            setups.append(server.ready_seconds)
        driven = drive_server(sizes, seed, write, load_history(inputs), server,
                              offline, started + window, ladder)
        rss = peak_rss_mb(server.pid)
    finally:
        if server is not None:
            server.stop()
    result = {
        "e2e": {"setup_s": statistics.median(setups),
                "throughput_per_s": driven["capacity"],
                "latency_p50_ms": driven["p50"],
                "latency_tail_ms": driven["p80"],
                "peak_rss_mb": rss},
        "checks": driven["checks"],
        "attempted": driven["attempted"],
        "failed": driven["failed"],
        "extras": {"rungs": driven["rungs"], "setup_samples_s": setups,
                   "cpu_ms_per_request": driven["cpu_ms_per_request"],
                   "loadgen_lag": driven["lag"]},
    }
    if events_out is not None:
        from repro.obs import read_events
        tree = tracing.SpanTree(read_events(events_out))
        layers, table = serve_layers(tree, driven["base"])
        layers.update(setup_layers([tree.spans]))
        result["layers"] = layers
        result["extras"]["ledger"] = table
    return result


# ----------------------------------------------------------------------
# batch_score
# ----------------------------------------------------------------------

def run_batch(sizes: Sizes, seed: int, window: float, inputs: Path,
              offline: Offline, telemetry=None) -> dict:
    from repro.obs import span
    from repro.serve import RecommenderService, load_artifact

    artifact_path = inputs / "artifact.npz"
    users = None
    passes = []
    chunk_ms: list[list[float]] = []
    chunk_rates = []
    seen_violations = 0
    parity_bad = parity_checked = 0
    end = time.perf_counter() + window
    while True:
        with span("setup", rep=len(passes)):
            setup_started = time.perf_counter()
            artifact = load_artifact(artifact_path)
            with span("setup.history"):
                history = load_history(inputs)
            service = RecommenderService(artifact, history)
            setup_s = time.perf_counter() - setup_started
        if users is None:
            users = history.users
        pass_started = time.perf_counter()
        results = {}
        chunk_ms.append([])
        for start in range(0, len(users), sizes.chunk):
            chunk = users[start:start + sizes.chunk]
            with span("serve.chunk"):
                chunk_started = time.perf_counter()
                results.update(service.recommend_many(chunk, k=10))
                elapsed = time.perf_counter() - chunk_started
            chunk_rates.append(len(chunk) / elapsed)
            if len(chunk) == sizes.chunk:
                chunk_ms[-1].append(elapsed * 1e3)
        score_s = time.perf_counter() - pass_started
        service.close()
        passes.append((setup_s, score_s))
        for user, recs in results.items():
            seen = history.seen(user)
            seen_violations += sum(1 for rec in recs if rec.item in seen)
        if len(passes) == 1:
            rng = np.random.default_rng([seed, 11])
            for user in rng.choice(users, size=min(sizes.batch_parity_users,
                                                   len(users)), replace=False):
                items, scores = offline.top(history, int(user))
                recs = results[int(user)]
                parity_checked += 1
                parity_bad += not same_list([r.item for r in recs],
                                            [r.score for r in recs],
                                            items, scores)
        # Stop at the pass that ends closest to the end of the window.
        if len(passes) >= 2 and \
                time.perf_counter() + (setup_s + score_s) / 2 > end:
            break
    checks = {"parity": parity_bad == 0 and parity_checked > 0,
              "parity_users": parity_checked,
              "no_seen_items": seen_violations == 0}
    # Every pass scores the same chunks; a chunk's latency is its median over
    # the passes, so a burst of outside load that slows one pass does not
    # decide it.  The tail is p90 over every chunk scored (~100), the highest
    # percentile with ten samples beyond it; the slowest per-chunk median, one noisy
    # value, spread 23% between runs where this spread 8%.
    per_chunk_ms = [statistics.median(times) for times in zip(*chunk_ms)]
    result = {
        "e2e": {"setup_s": statistics.median(p[0] for p in passes),
                # Over ~100 chunks rather than ~8 passes, for the same reason.
                "throughput_per_s": statistics.median(chunk_rates),
                "latency_p50_ms": percentile(per_chunk_ms, 50),
                "latency_tail_ms": percentile(
                    [elapsed for times in chunk_ms for elapsed in times], 90),
                "peak_rss_mb": peak_rss_mb()},
        "checks": checks,
        "attempted": len(users) * len(passes),
        "failed": 0,
        "extras": {"passes": len(passes), "chunk_ms": per_chunk_ms,
                   "setup_samples_s": [p[0] for p in passes],
                   "pass_seconds": [p[1] for p in passes]},
    }
    if telemetry is not None:
        tree = tracing.SpanTree(telemetry.sink.events)
        chunks = tree.named("serve.chunk")
        units = []
        for chunk in chunks:
            unit = tree.parts(chunk)
            unit["whole"] = chunk["seconds"]
            units.append(unit)
        layers, table = ledger(units, SERVE_PARTS, "serve.request_residual_ms",
                               "serve.request_ms")
        layers.update(lookup_counts([s for chunk in chunks
                                     for s in tree.subtree(chunk)]))
        layers.update(setup_layers([tree.subtree(marker)
                                    for marker in tree.named("setup")]))
        result["layers"] = layers
        result["extras"]["ledger"] = table
    return result


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def run_workload(name: str, sizes: Sizes, seed: int, trace: bool,
                 work: Path, inputs_root: Path) -> dict:
    """Run one workload for ``sizes.seconds``; with ``trace``, an untraced
    half (the baseline of the overhead ratio), then a traced half that gives
    the layers."""
    reps = 1 if trace else sizes.setup_reps
    window = sizes.seconds / 2 if trace else sizes.seconds
    if name == "train":
        install = tracing.install_train

        def run(telemetry=None):
            return run_train(sizes, seed, window, reps, telemetry)
    else:
        inputs = serving_inputs(sizes.serve_scale, inputs_root)
        offline = Offline(inputs / "artifact.npz")
        if name == "batch_score":
            install = tracing.install_serving

            def run(telemetry=None):
                return run_batch(sizes, seed, window, inputs, offline,
                                 telemetry)
        else:
            # The server process installs its own wrappers (serve_traced.py).
            install = None

            spawns = 1 if trace else sizes.spawns

            def run(events_out=None):
                return run_serve(sizes, seed, window, spawns,
                                 name == "serve_write", work, inputs, offline,
                                 ladder=not trace, events_out=events_out)

    result = run()
    if trace:
        untraced = result
        if install is None:
            result = run(work / "server-events.jsonl")
        else:
            result = run(start_tracing(install))
        layers = {metric: 0.0 for metric in PER_LAYER}
        layers.update(result["layers"])
        if install is None:
            layers["server.cpu_ms_per_request"] = \
                untraced["extras"]["cpu_ms_per_request"]
            layers.update(untraced["extras"]["loadgen_lag"])
        layers["trace.overhead_ratio"] = (result["e2e"]["latency_p50_ms"]
                                          / untraced["e2e"]["latency_p50_ms"])
        metrics = {metric: {"value": float(layers[metric]),
                            "unit": PER_LAYER[metric]} for metric in PER_LAYER}
        result["attempted"] += untraced["attempted"]
        result["failed"] += untraced["failed"]
        for check, value in untraced["checks"].items():
            result["checks"][f"untraced.{check}"] = value
    else:
        metrics = {metric: {"value": float(result["e2e"][metric]),
                            "unit": END_TO_END[metric]}
                   for metric in END_TO_END}
    checks = result["checks"]
    correct = all(value for value in checks.values()
                  if isinstance(value, bool))
    correct = correct and all(math.isfinite(entry["value"])
                              for entry in metrics.values())
    return {"workload": name, "correct": correct,
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]), "metrics": metrics,
            "checks": checks, "extras": result["extras"], "host": host_info()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--inputs", type=Path)
    parser.add_argument("--prepare", action="store_true")
    parser.add_argument("--scale", type=float)
    args = parser.parse_args(argv)
    if args.prepare:
        prepare(args.scale, args.work)
        return 0
    if args.workload is None or args.inputs is None:
        parser.error("--workload and --inputs are required")
    result = run_workload(args.workload, Sizes(args.seconds, args.smoke),
                          args.seed, bool(args.trace), args.work, args.inputs)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
