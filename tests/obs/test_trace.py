"""Span tracing: nesting, timing, attributes, zero-cost disabled path."""

import threading
import time

from repro.obs import (current_span, enable_telemetry, get_telemetry, span,
                       telemetry_session)
from repro.obs.trace import _NOOP_SPAN


def span_events(telemetry):
    return [e for e in telemetry.sink.events if e["type"] == "span"]


class TestDisabled:
    def test_span_is_shared_noop_when_disabled(self):
        assert get_telemetry() is None
        s = span("anything", attr=1)
        assert s is _NOOP_SPAN
        assert span("other") is s  # no allocation per call

    def test_noop_span_usable_as_context_manager(self):
        with span("x") as s:
            assert s.set(k=1) is s
        assert current_span() is None

    def test_noop_span_drops_attribute_assignment(self):
        assert get_telemetry() is None
        with span("x") as s:
            s.request_id = "req-1"  # must not raise on the shared no-op
        assert not hasattr(_NOOP_SPAN, "request_id")


class TestEnabled:
    def test_children_inherit_trace_and_request_id(self):
        telemetry = enable_telemetry()
        with span("net.request") as root:
            root.request_id = "req-2"
            with span("serve.request") as child:
                assert child.parent_id == root.span_id
                assert child.trace_id == root.trace_id
        child_event, root_event = span_events(telemetry)
        assert root_event["request_id"] == child_event["request_id"] == "req-2"

    def test_span_emits_event_with_timing(self):
        telemetry = enable_telemetry()
        with span("work"):
            time.sleep(0.01)
        (event,) = span_events(telemetry)
        assert event["name"] == "work"
        assert event["parent_id"] is None
        assert event["seconds"] >= 0.01
        assert event["thread"] == threading.current_thread().name

    def test_nesting_records_parentage(self):
        telemetry = enable_telemetry()
        with span("outer") as outer:
            assert current_span() is outer
            with span("inner") as inner:
                assert current_span() is inner
                assert inner.parent_id == outer.span_id
            with span("sibling") as sibling:
                assert sibling.parent_id == outer.span_id
        assert current_span() is None
        names = {e["name"]: e for e in span_events(telemetry)}
        assert names["inner"]["parent_id"] == names["outer"]["span_id"]
        assert names["sibling"]["parent_id"] == names["outer"]["span_id"]
        # children emit before the parent closes
        order = [e["name"] for e in span_events(telemetry)]
        assert order == ["inner", "sibling", "outer"]

    def test_span_ids_are_unique_and_increasing(self):
        enable_telemetry()
        ids = []
        for _ in range(5):
            with span("s") as s:
                ids.append(s.span_id)
        assert ids == sorted(set(ids))

    def test_attributes_init_and_set(self):
        telemetry = enable_telemetry()
        with span("stage", phase="encode") as s:
            s.set(items=42)
        (event,) = span_events(telemetry)
        assert event["attrs"] == {"phase": "encode", "items": 42}

    def test_exception_tagged_and_stack_unwound(self):
        telemetry = enable_telemetry()
        try:
            with span("bad"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        (event,) = span_events(telemetry)
        assert event["attrs"]["error"] == "RuntimeError: boom"
        assert current_span() is None

    def test_threads_keep_separate_stacks(self):
        telemetry = enable_telemetry()
        seen = {}

        def worker():
            with span("worker.root") as s:
                seen["parent_id"] = s.parent_id

        with span("main.root"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        # the worker's span must not adopt the main thread's open span
        assert seen["parent_id"] is None
        by_name = {e["name"]: e for e in span_events(telemetry)}
        assert by_name["worker.root"]["thread"] != by_name["main.root"]["thread"]


class TestSession:
    def test_session_scopes_enablement(self):
        with telemetry_session() as telemetry:
            assert get_telemetry() is telemetry
            with span("inside"):
                pass
        assert get_telemetry() is None
        assert [e["name"] for e in span_events(telemetry)] == ["inside"]
