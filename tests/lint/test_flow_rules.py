"""Fixture tests for the flow-sensitive project rules (repro.lint.flow.rules).

Project rules see every fixture module at once, so tests lint the whole
throwaway package tree (``tmp_path``) rather than a single file.
"""

from repro.lint import get_rule, lint_paths


def run_project_rule(rule_id, root):
    return lint_paths([root], rules=[get_rule(rule_id)])


class TestLockDiscipline:
    def test_sleep_under_lock_fires(self, write_module, tmp_path):
        write_module("repro.serve.bad", """\
            import threading
            import time

            class S:
                def __init__(self):
                    self._lock = threading.Lock()

                def slow(self):
                    with self._lock:
                        time.sleep(0.5)
        """)
        result = run_project_rule("LOCK-DISCIPLINE", tmp_path)
        assert len(result.findings) == 1
        assert "time.sleep" in result.findings[0].message

    def test_bare_acquire_fires(self, write_module, tmp_path):
        write_module("repro.serve.bad", """\
            import threading

            class S:
                def __init__(self):
                    self._lock = threading.Lock()

                def manual(self):
                    self._lock.acquire()
                    self._lock.release()
        """)
        result = run_project_rule("LOCK-DISCIPLINE", tmp_path)
        assert any("bare .acquire()" in f.message for f in result.findings)

    def test_transitive_blocking_call_fires(self, write_module, tmp_path):
        write_module("repro.serve.bad", """\
            import threading
            import time

            def helper():
                time.sleep(1.0)

            class S:
                def __init__(self):
                    self._lock = threading.Lock()

                def slow(self):
                    with self._lock:
                        helper()
        """)
        result = run_project_rule("LOCK-DISCIPLINE", tmp_path)
        assert len(result.findings) == 1

    def test_quick_critical_section_is_clean(self, write_module, tmp_path):
        write_module("repro.serve.good", """\
            import threading

            class S:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = {}

                def put(self, key, value):
                    with self._lock:
                        self._items[key] = value
        """)
        assert run_project_rule("LOCK-DISCIPLINE", tmp_path).ok


class TestLockOrder:
    def test_inverted_order_cycle_fires(self, write_module, tmp_path):
        write_module("repro.serve.cycle", """\
            import threading

            class A:
                def __init__(self, b: "B"):
                    self._a_lock = threading.Lock()
                    self.b = b

                def one(self):
                    with self._a_lock:
                        self.b.two_inner()

                def one_inner(self):
                    with self._a_lock:
                        pass

            class B:
                def __init__(self, a: "A"):
                    self._b_lock = threading.Lock()
                    self.a = a

                def two(self):
                    with self._b_lock:
                        self.a.one_inner()

                def two_inner(self):
                    with self._b_lock:
                        pass
        """)
        result = run_project_rule("LOCK-ORDER", tmp_path)
        assert len(result.findings) == 1
        assert "lock-order cycle" in result.findings[0].message

    def test_consistent_order_is_clean(self, write_module, tmp_path):
        write_module("repro.serve.ordered", """\
            import threading

            class A:
                def __init__(self, b: "B"):
                    self._a_lock = threading.Lock()
                    self.b = b

                def one(self):
                    with self._a_lock:
                        self.b.two_inner()

                def also_one(self):
                    with self._a_lock:
                        self.b.two_inner()

            class B:
                def __init__(self):
                    self._b_lock = threading.Lock()

                def two_inner(self):
                    with self._b_lock:
                        pass
        """)
        assert run_project_rule("LOCK-ORDER", tmp_path).ok

    def test_reentrant_same_lock_is_clean(self, write_module, tmp_path):
        write_module("repro.serve.reentrant", """\
            import threading

            class S:
                def __init__(self):
                    self._lock = threading.RLock()

                def outer(self):
                    with self._lock:
                        self.inner()

                def inner(self):
                    with self._lock:
                        pass
        """)
        assert run_project_rule("LOCK-ORDER", tmp_path).ok


class TestAsyncBlocking:
    def test_transitive_blocking_call_fires(self, write_module, tmp_path):
        write_module("repro.serve.badnet", """\
            import time

            def helper():
                time.sleep(0.1)

            async def handler(reader, writer):
                helper()
        """)
        result = run_project_rule("ASYNC-BLOCKING", tmp_path)
        assert len(result.findings) == 1
        assert "time.sleep" in result.findings[0].message

    def test_run_in_executor_is_clean(self, write_module, tmp_path):
        write_module("repro.serve.goodnet", """\
            import asyncio
            import time

            def helper():
                time.sleep(0.1)

            async def handler(reader, writer):
                loop = asyncio.get_running_loop()
                await loop.run_in_executor(None, helper)
        """)
        assert run_project_rule("ASYNC-BLOCKING", tmp_path).ok

    def test_awaited_async_callee_is_clean(self, write_module, tmp_path):
        write_module("repro.serve.goodnet", """\
            import asyncio

            async def nap():
                await asyncio.sleep(0.1)

            async def handler(reader, writer):
                await nap()
        """)
        assert run_project_rule("ASYNC-BLOCKING", tmp_path).ok

    def test_any_repro_async_def_is_checked(self, write_module, tmp_path):
        # Not just repro.serve.net: an async def anywhere in repro stalls
        # whichever loop runs it, so direct blocking calls fire everywhere.
        write_module("repro.train.worker", """\
            import time

            async def helper():
                time.sleep(0.1)
        """)
        result = run_project_rule("ASYNC-BLOCKING", tmp_path)
        assert len(result.findings) == 1
        assert "time.sleep" in result.findings[0].message
