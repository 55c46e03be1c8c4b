"""Layer spans for the traced runs of the end-to-end benchmark.

Before a traced workload runs, the ``install_*`` functions replace public
functions and methods of ``repro`` with wrappers that open a
``repro.obs.span`` around each call.  Nothing under ``src/`` changes, and
the untraced runs that produce the end-to-end numbers install nothing.
The spans are the library's own span events — ``name``, ``span_id``,
``parent_id``, ``start``, ``seconds``, ``attrs`` — so they nest with the
spans ``repro`` opens itself (``train.step``, ``net.request``,
``serve.batch``, ...), and a workload reads them from the telemetry sink
(in memory) or, for the server, from its ``--events-out``-style JSON-lines
file.

A layer's *self time* is its span minus the spans directly under it.
Children of one span run one after another on its thread, so they never
overlap.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from collections import defaultdict

from repro.obs import current_span, get_telemetry, span


def wrap(owner, attr: str, name: str, describe=None) -> None:
    """Open a span called ``name`` around every call of ``owner.attr``.

    ``describe(args, result)`` returns extra span attributes.  Class
    methods stay class methods.  Wrappers stay for the life of the process.
    """
    static = inspect.getattr_static(owner, attr)
    is_classmethod = isinstance(static, classmethod)
    function = static.__func__ if is_classmethod else static

    @functools.wraps(function)
    def traced(*args, **kwargs):
        with span(name) as current:
            result = function(*args, **kwargs)
            if describe is not None:
                current.set(**describe(args, result))
            return result

    setattr(owner, attr, classmethod(traced) if is_classmethod else traced)


def mark(name: str, seconds: float) -> None:
    """Record a span under the current one that ended now and lasted
    ``seconds`` (for a stage the library times inline)."""
    telemetry = get_telemetry()
    parent = current_span()
    if telemetry is None or parent is None:
        return
    telemetry.emit("span", name=name, span_id=telemetry.next_span_id(),
                   parent_id=parent.span_id, trace_id=parent.trace_id,
                   start=time.perf_counter() - seconds, seconds=seconds,
                   attrs={}, thread=threading.current_thread().name)


# ----------------------------------------------------------------------
# wrap points, one function per layer family
# ----------------------------------------------------------------------

def install_setup() -> None:
    """Set-up layers: corpus, hypergraph, artifact load, history, index."""
    import repro.data
    import repro.experiments.context as context
    import repro.serve
    import repro.serve.service as service
    from repro.serve.history import HistoryStore

    for owner in (repro.data, context):
        wrap(owner, "generate", "setup.corpus")
        wrap(owner, "k_core_filter", "setup.corpus")
    wrap(context, "build_hypergraph", "setup.hypergraph_build")
    wrap(repro.serve, "load_artifact", "setup.artifact_load")
    wrap(HistoryStore, "from_dataset", "setup.history")
    wrap(service, "build_index", "setup.index_build")


def install_train() -> None:
    """Training layers: input pipeline, model modules, autodiff, optimizer."""
    import repro.core.model as model
    import repro.train.trainer as trainer
    from repro.core.interest import MultiInterestExtractor
    from repro.data.pipeline import PrefetchLoader
    from repro.hypergraph.transformer import HypergraphTransformer
    from repro.nn.optim import Adam
    from repro.nn.tensor import Tensor
    from repro.nn.transformer import TransformerEncoder

    wrap(HypergraphTransformer, "forward", "hypergraph.fwd")
    wrap(TransformerEncoder, "forward", "core.seq_encoder_fwd")
    wrap(MultiInterestExtractor, "forward", "core.interest_fwd")
    for term in ("cross_behavior_interest_contrast", "augmentation_contrast",
                 "interest_disentanglement", "prototype_orthogonality"):
        wrap(model, term, "core.ssl_fwd")
    wrap(model, "augment_sequences", "core.augment")
    wrap(Tensor, "backward", "nn.backward")
    wrap(trainer, "clip_grad_norm", "nn.optim")
    wrap(Adam, "step", "nn.optim")

    original_iter = PrefetchLoader.__iter__

    def timed_iter(loader):
        iterator = original_iter(loader)
        while True:
            with span("data.loader_wait") as waiting:
                try:
                    batch = next(iterator)
                except StopIteration:
                    waiting.set(exhausted=True)
                    return
            yield batch

    PrefetchLoader.__iter__ = timed_iter


def install_serving() -> None:
    """Serving layers: batcher, cache, history, encoder, index and rank —
    the request path of ``RecommenderService``."""
    import repro.serve.service as service
    from repro.serve.batcher import MicroBatcher
    from repro.serve.cache import InterestCache
    from repro.serve.encoder import MisslServingEncoder
    from repro.serve.history import HistoryStore
    from repro.serve.index import ExactIndex
    from repro.serve.metrics import ServingMetrics

    # The batcher's queue wait runs from submit() to the start of the batch
    # that carries the payload; payload identity links the two spans.
    wrap(MicroBatcher, "submit", "serve.batcher.submit",
         lambda args, _result: {"key": id(args[1])})
    original_init = MicroBatcher.__init__

    def init(batcher, process, *args, **kwargs):
        def traced_process(payloads):
            with span("serve.batcher.run",
                      keys=[id(payload) for payload in payloads]):
                return process(payloads)
        original_init(batcher, traced_process, *args, **kwargs)

    MicroBatcher.__init__ = init

    wrap(InterestCache, "get", "serve.cache.get",
         lambda _args, result: {"hit": result is not None})
    wrap(HistoryStore, "example", "serve.history.read")
    wrap(HistoryStore, "seen", "serve.history.read")
    wrap(HistoryStore, "append", "serve.history.append")
    wrap(service, "collate", "serve.encoder.collate")
    wrap(MisslServingEncoder, "interests", "serve.encoder.encode",
         lambda args, _result: {"rows": int(args[1].size)})
    wrap(ExactIndex, "search", "serve.index.search",
         lambda _args, result: {"candidates": int(result.candidates_scored)})
    original_record_stage = ServingMetrics.record_stage

    def record_stage(metrics, stage, seconds):
        # The rank stage is inline code in the service; its own stage timer
        # is the only boundary, so the span is placed to end here.
        if stage == "rank":
            mark("serve.rank", seconds)
        original_record_stage(metrics, stage, seconds)

    ServingMetrics.record_stage = record_stage


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------

class SpanTree:
    """The span events of one process, indexed by parent."""

    def __init__(self, events: list[dict]):
        self.spans = [event for event in events if event.get("type") == "span"]
        self.by_id = {s["span_id"]: s for s in self.spans}
        self.children: dict[int | None, list[dict]] = defaultdict(list)
        for s in self.spans:
            self.children[s["parent_id"]].append(s)

    def named(self, name: str) -> list[dict]:
        return sorted((s for s in self.spans if s["name"] == name),
                      key=lambda s: s["start"])

    def subtree(self, root: dict) -> list[dict]:
        """``root`` and every span below it."""
        found, stack = [], [root]
        while stack:
            current = stack.pop()
            found.append(current)
            stack.extend(self.children.get(current["span_id"], ()))
        return found

    def ancestor(self, current: dict, name: str) -> dict | None:
        """The nearest span above ``current`` called ``name``."""
        while current is not None:
            current = self.by_id.get(current["parent_id"])
            if current is not None and current["name"] == name:
                return current
        return None

    def self_seconds(self, current: dict) -> float:
        return current["seconds"] - sum(
            child["seconds"] for child in self.children.get(current["span_id"], ()))

    def parts(self, root: dict) -> dict[str, float]:
        """Self time of every span below ``root``, summed by name, with the
        root's own self time under ``""``."""
        totals: dict[str, float] = defaultdict(float)
        for current in self.subtree(root):
            name = "" if current is root else current["name"]
            totals[name] += self.self_seconds(current)
        return dict(totals)
