"""Guard: disabled telemetry must cost (essentially) nothing.

The instrumentation contract is the same as :mod:`repro.perf`: when no hub
is installed every ``span()`` call is one global read plus a shared no-op
object.  This test budgets a *generous* number of span/``get_telemetry``
touches per training step against a real measured step time and asserts the
total stays under 2% — the acceptance bar from the telemetry design.
"""

import time

from repro.obs import get_telemetry, span

# One train step opens ~3 spans (step + shared fit/epoch amortized) and a
# handful of get_telemetry checks; 50 is an order of magnitude of headroom.
TOUCHES_PER_STEP = 50
MAX_OVERHEAD_FRACTION = 0.02


def _per_call_seconds(fn, iterations=20_000):
    fn()  # warm up
    start = time.perf_counter()
    for _ in range(iterations):
        fn()
    return (time.perf_counter() - start) / iterations


class TestDisabledOverhead:
    def test_disabled_span_under_two_percent_of_step(self, tiny_dataset,
                                                     tiny_graph, tiny_split):
        from repro.core import MISSL, MISSLConfig
        from repro.train import TrainConfig, Trainer
        assert get_telemetry() is None

        def disabled_span():
            with span("train.step", epoch=0, step=0):
                pass

        per_span = _per_call_seconds(disabled_span)
        per_check = _per_call_seconds(get_telemetry)

        config = MISSLConfig(dim=16, num_interests=2, max_len=20,
                             num_train_negatives=8, lambda_aug=0.0)
        model = MISSL(tiny_dataset.num_items, tiny_dataset.schema, tiny_graph,
                      config, seed=0)
        trainer = Trainer(model, tiny_split,
                          TrainConfig(epochs=1, patience=1, batch_size=32,
                                      num_eval_negatives=30))
        start = time.perf_counter()
        history = trainer.fit()
        fit_seconds = time.perf_counter() - start
        steps = max(1, history.num_epochs)  # ≥1 optimizer step per epoch
        step_seconds = fit_seconds / steps

        budget = TOUCHES_PER_STEP * max(per_span, per_check)
        assert budget < MAX_OVERHEAD_FRACTION * step_seconds, (
            f"disabled telemetry budget {budget * 1e6:.1f}µs exceeds 2% of a "
            f"{step_seconds * 1e3:.1f}ms training step")

    def test_disabled_span_is_sub_microsecond_scale(self):
        assert get_telemetry() is None

        def disabled_span():
            with span("x"):
                pass

        # absolute backstop: a no-op span must stay in the ~µs range even on
        # slow CI (the fractional guard above is the real acceptance bar)
        assert _per_call_seconds(disabled_span) < 10e-6

    def test_instrumented_paths_run_without_hub(self):
        # the library-level instrumentation points must never require a hub
        from repro.obs import current_span
        with span("a"):
            with span("b") as inner:
                inner.set(k=1)
        assert current_span() is None

    def test_disabled_serving_path_under_two_percent(self, tiny_dataset,
                                                     tiny_graph, tmp_path):
        """The request-correlation hooks must stay invisible when disabled.

        A served request touches a handful of ``get_telemetry`` checks and
        no-op spans (front-end dispatch, service stages); budget an order of
        magnitude more against one real in-process recommend and hold the 2%
        bar from the tentpole acceptance.  The recommends are uncached
        (``cache_capacity=1``, as BENCH_P2 runs them), so each one pays the
        full request path: queue, encode, retrieve and rank.
        """
        from repro.core import MISSL, MISSLConfig
        from repro.serve import (HistoryStore, RecommenderService,
                                 export_artifact, load_artifact)
        assert get_telemetry() is None
        model = MISSL(tiny_dataset.num_items, tiny_dataset.schema, tiny_graph,
                      MISSLConfig(dim=16, num_interests=2, max_len=20), seed=0)
        artifact = load_artifact(export_artifact(model,
                                                 tmp_path / "model.npz"))
        history = HistoryStore.from_dataset(tiny_dataset)

        def disabled_request_touches():
            if get_telemetry() is None:
                pass
            with span("net.request", op="recommend"):
                pass

        # the front-end dispatch path has ~2 correlation touch-sites; each
        # bundle above is both of them, so 10 bundles is ~10x headroom
        per_request_budget = 10 * _per_call_seconds(disabled_request_touches)

        with RecommenderService(artifact, history,
                                cache_capacity=1) as service:
            users = history.users[:8]
            for user in users:  # warm caches/index before measuring
                service.recommend(user, k=5)
            start = time.perf_counter()
            for _ in range(3):
                for user in users:
                    service.recommend(user, k=5)
            request_seconds = (time.perf_counter() - start) / (3 * len(users))

        assert per_request_budget < MAX_OVERHEAD_FRACTION * request_seconds, (
            f"disabled request-path budget {per_request_budget * 1e6:.1f}µs "
            f"exceeds 2% of a {request_seconds * 1e3:.2f}ms recommend")

