"""Per-rule fixture tests: each rule fires on a snippet and noqa silences it."""

from repro.lint import get_rule, lint_paths


def run_rule(rule_id, path):
    return lint_paths([path], rules=[get_rule(rule_id)])


class TestDtypeDiscipline:
    def test_factory_without_dtype_fires(self, write_module):
        path = write_module("repro.nn.bad", """\
            import numpy as np
            x = np.zeros((3, 4))
        """)
        result = run_rule("DTYPE-DISCIPLINE", path)
        assert len(result.findings) == 1
        finding = result.findings[0]
        assert finding.rule == "DTYPE-DISCIPLINE"
        assert "without an explicit dtype" in finding.message
        assert finding.code == "x = np.zeros((3, 4))"
        assert finding.module == "repro.nn.bad"

    def test_each_factory_is_covered(self, write_module):
        path = write_module("repro.core.bad", """\
            import numpy as np
            a = np.zeros(3)
            b = np.ones(3)
            c = np.empty(3)
            d = np.full(3, 7.0)
            e = np.arange(3)
        """)
        result = run_rule("DTYPE-DISCIPLINE", path)
        assert len(result.findings) == 5

    def test_explicit_float64_fires(self, write_module):
        path = write_module("repro.serve.bad", """\
            import numpy as np
            x = np.full((2, 2), 0.0, dtype=np.float64)
        """)
        result = run_rule("DTYPE-DISCIPLINE", path)
        assert len(result.findings) == 1
        assert "float64" in result.findings[0].message

    def test_astype_float64_fires(self, write_module):
        path = write_module("repro.nn.bad", """\
            import numpy as np
            x = np.zeros(3, dtype=np.float32)
            y = x.astype(np.float64)
            z = x.astype("float64")
            w = x.astype(float)
        """)
        result = run_rule("DTYPE-DISCIPLINE", path)
        assert len(result.findings) == 3
        assert all(".astype to float64" in f.message for f in result.findings)

    def test_explicit_safe_dtypes_are_clean(self, write_module):
        path = write_module("repro.nn.good", """\
            import numpy as np
            a = np.zeros((3,), dtype=np.float32)
            b = np.arange(5, dtype=np.intp)
            c = np.full(3, -1, dtype=np.int64)
            d = a.astype(np.float32)
        """)
        assert run_rule("DTYPE-DISCIPLINE", path).ok

    def test_only_hot_packages_are_in_scope(self, write_module):
        # repro.data and foreign packages may use defaults freely.
        for module in ("repro.data.bad", "otherpkg.helpers"):
            path = write_module(module, """\
                import numpy as np
                x = np.zeros((3, 4))
            """)
            assert run_rule("DTYPE-DISCIPLINE", path).ok

    def test_noqa_suppresses(self, write_module):
        path = write_module("repro.nn.bad", """\
            import numpy as np
            x = np.zeros((3, 4))  # repro: noqa[DTYPE-DISCIPLINE]
        """)
        result = run_rule("DTYPE-DISCIPLINE", path)
        assert result.ok
        assert result.suppressed_count == 1

    def test_converters_unchecked_outside_quant(self, write_module):
        path = write_module("repro.serve.index", """\
            import numpy as np
            a = np.asarray(rows)
        """)
        assert run_rule("DTYPE-DISCIPLINE", path).ok


class TestScatterContainment:
    def test_ufunc_at_fires_outside_home(self, write_module):
        path = write_module("repro.core.bad", """\
            import numpy as np
            np.add.at(target, index, updates)
            np.maximum.at(target, index, updates)
        """)
        result = run_rule("SCATTER-CONTAINMENT", path)
        assert len(result.findings) == 2
        assert "outside repro.nn.scatter" in result.findings[0].message

    def test_home_module_is_exempt(self, write_module):
        path = write_module("repro.nn.scatter", """\
            import numpy as np
            np.add.at(target, index, updates)
        """)
        assert run_rule("SCATTER-CONTAINMENT", path).ok

    def test_unrelated_at_methods_are_clean(self, write_module):
        path = write_module("repro.core.good", """\
            series.at(3)
            frame.iloc.at(0)
        """)
        assert run_rule("SCATTER-CONTAINMENT", path).ok

    def test_noqa_suppresses(self, write_module):
        path = write_module("repro.core.bad", """\
            import numpy as np
            np.add.at(target, index, updates)  # repro: noqa[SCATTER-CONTAINMENT]
        """)
        result = run_rule("SCATTER-CONTAINMENT", path)
        assert result.ok
        assert result.suppressed_count == 1


class TestNoBarePrint:
    def test_print_in_library_code_fires(self, write_module):
        path = write_module("repro.train.bad", """\
            def run():
                print("step done")
        """)
        result = run_rule("NO-BARE-PRINT", path)
        assert len(result.findings) == 1
        assert "print" in result.findings[0].message

    def test_cli_surface_is_exempt(self, write_module):
        path = write_module("repro.cli", """\
            print("usage: ...")
        """)
        assert run_rule("NO-BARE-PRINT", path).ok

    def test_noqa_suppresses(self, write_module):
        path = write_module("repro.train.bad", """\
            print("debug")  # repro: noqa[NO-BARE-PRINT]
        """)
        result = run_rule("NO-BARE-PRINT", path)
        assert result.ok
        assert result.suppressed_count == 1


class TestSeededRandomness:
    def test_global_state_draws_fire(self, write_module):
        path = write_module("repro.data.bad", """\
            import numpy as np
            np.random.seed(0)
            x = np.random.rand(3)
            y = np.random.permutation(10)
        """)
        result = run_rule("SEEDED-RANDOMNESS", path)
        assert len(result.findings) == 3
        assert "global-state np.random.seed" in result.findings[0].message

    def test_generator_construction_is_allowed(self, write_module):
        path = write_module("repro.data.good", """\
            import numpy as np
            rng = np.random.default_rng(7)
            gen = np.random.Generator(np.random.PCG64(7))
            x = rng.normal(size=3)
        """)
        assert run_rule("SEEDED-RANDOMNESS", path).ok

    def test_noqa_suppresses(self, write_module):
        path = write_module("repro.data.bad", """\
            import numpy as np
            x = np.random.rand(3)  # repro: noqa[SEEDED-RANDOMNESS]
        """)
        result = run_rule("SEEDED-RANDOMNESS", path)
        assert result.ok
        assert result.suppressed_count == 1


class TestTelemetryGuard:
    def test_chained_access_fires(self, write_module):
        path = write_module("repro.train.bad", """\
            from repro.obs import get_telemetry, current_span
            get_telemetry().counter("steps").inc()
            current_span().set_tag("k", "v")
        """)
        result = run_rule("TELEMETRY-GUARD", path)
        assert len(result.findings) == 2
        assert "returns None when disabled" in result.findings[0].message

    def test_qualified_accessor_also_fires(self, write_module):
        path = write_module("repro.train.bad", """\
            import repro.obs as obs
            obs.get_telemetry().flush()
        """)
        result = run_rule("TELEMETRY-GUARD", path)
        assert len(result.findings) == 1

    def test_bound_and_checked_is_clean(self, write_module):
        path = write_module("repro.train.good", """\
            from repro.obs import get_telemetry
            telemetry = get_telemetry()
            if telemetry is not None:
                telemetry.counter("steps").inc()
        """)
        assert run_rule("TELEMETRY-GUARD", path).ok

    def test_noqa_suppresses(self, write_module):
        path = write_module("repro.train.bad", """\
            from repro.obs import get_telemetry
            get_telemetry().flush()  # repro: noqa[TELEMETRY-GUARD]
        """)
        result = run_rule("TELEMETRY-GUARD", path)
        assert result.ok
        assert result.suppressed_count == 1


class TestBlockingIoContainment:
    def test_socket_import_fires_outside_home(self, write_module):
        path = write_module("repro.train.bad", """\
            import socket
        """)
        result = run_rule("BLOCKING-IO-CONTAINMENT", path)
        assert len(result.findings) == 1
        assert "socket import" in result.findings[0].message

    def test_from_socket_import_fires(self, write_module):
        path = write_module("repro.obs.bad", """\
            from socket import create_connection
        """)
        result = run_rule("BLOCKING-IO-CONTAINMENT", path)
        assert len(result.findings) == 1

    def test_constructors_and_blocking_methods_fire(self, write_module):
        path = write_module("repro.core.bad", """\
            import socket
            conn = socket.create_connection(("localhost", 80))
            conn.sendall(b"hi")
            data = conn.recv(4096)
            listener = socket.socket()
            listener.accept()
        """)
        result = run_rule("BLOCKING-IO-CONTAINMENT", path)
        # import + 2 constructors + sendall + recv + accept
        assert len(result.findings) == 6
        messages = "\n".join(f.message for f in result.findings)
        assert "socket.create_connection" in messages
        assert ".recv()" in messages and ".sendall()" in messages

    def test_home_module_is_exempt(self, write_module):
        path = write_module("repro.serve.net", """\
            import socket
            conn = socket.create_connection(("localhost", 80))
            conn.sendall(b"hi")
        """)
        assert run_rule("BLOCKING-IO-CONTAINMENT", path).ok

    def test_unrelated_attribute_calls_are_clean(self, write_module):
        path = write_module("repro.core.good", """\
            results.put(("ok", value))
            queue.get(timeout=1.0)
        """)
        assert run_rule("BLOCKING-IO-CONTAINMENT", path).ok

    def test_noqa_suppresses(self, write_module):
        path = write_module("repro.train.bad", """\
            import socket  # repro: noqa[BLOCKING-IO-CONTAINMENT]
        """)
        result = run_rule("BLOCKING-IO-CONTAINMENT", path)
        assert result.ok
        assert result.suppressed_count == 1


class TestSpanNameDiscipline:
    def test_catalog_literals_are_clean(self, write_module):
        path = write_module("repro.train.good", """\
            from repro.obs import span
            with span("train.epoch", epoch=1):
                registry.counter("serve.requests").inc()
                registry.histogram("net.request.seconds").record(0.1)
        """)
        assert run_rule("SPAN-NAME-DISCIPLINE", path).ok

    def test_ad_hoc_literal_fires(self, write_module):
        path = write_module("repro.train.bad", """\
            from repro.obs import span
            with span("train.my_new_stage"):
                pass
        """)
        result = run_rule("SPAN-NAME-DISCIPLINE", path)
        assert len(result.findings) == 1
        assert "not in the repro.obs.names catalog" in result.findings[0].message

    def test_fstring_and_concat_names_fire(self, write_module):
        path = write_module("repro.serve.bad", """\
            registry.counter(f"serve.replica.{rid}.requests").inc()
            registry.gauge("serve." + stage).set(1.0)
        """)
        result = run_rule("SPAN-NAME-DISCIPLINE", path)
        assert len(result.findings) == 2
        assert all("computed metric name" in f.message
                   for f in result.findings)

    def test_template_helper_calls_are_clean(self, write_module):
        path = write_module("repro.serve.good", """\
            from repro.obs.names import serve_latency_stage, train_loss_component
            registry.histogram(serve_latency_stage("encode")).record(0.1)
            registry.gauge(train_loss_component(name)).set(0.5)
        """)
        assert run_rule("SPAN-NAME-DISCIPLINE", path).ok

    def test_bare_variable_names_are_allowed(self, write_module):
        path = write_module("repro.core.good", """\
            for name, value in snapshot["counters"].items():
                registry.counter(name).inc(value)
        """)
        assert run_rule("SPAN-NAME-DISCIPLINE", path).ok

    def test_exempt_modules_are_skipped(self, write_module):
        path = write_module("repro.obs.fleet", """\
            registry.counter("anything.goes.here").inc()
        """)
        assert run_rule("SPAN-NAME-DISCIPLINE", path).ok

    def test_noqa_suppresses(self, write_module):
        path = write_module("repro.train.bad", """\
            from repro.obs import span
            with span("train.oddball"):  # repro: noqa[SPAN-NAME-DISCIPLINE]
                pass
        """)
        result = run_rule("SPAN-NAME-DISCIPLINE", path)
        assert result.ok
        assert result.suppressed_count == 1


class TestRegistry:
    EXPECTED = ("DTYPE-DISCIPLINE", "SCATTER-CONTAINMENT", "NO-BARE-PRINT",
                "SEEDED-RANDOMNESS", "TELEMETRY-GUARD",
                "BLOCKING-IO-CONTAINMENT", "SPAN-NAME-DISCIPLINE",
                "LOCK-DISCIPLINE", "LOCK-ORDER", "ASYNC-BLOCKING")

    def test_flow_rules_are_project_scoped(self):
        from repro.lint import get_rule, is_project_rule
        for rule_id in ("LOCK-DISCIPLINE", "LOCK-ORDER", "ASYNC-BLOCKING"):
            assert is_project_rule(get_rule(rule_id))

    def test_catalog_is_registered(self):
        from repro.lint import rule_ids
        ids = rule_ids()
        for expected in self.EXPECTED:
            assert expected in ids

    def test_every_rule_has_description(self):
        from repro.lint import all_rules
        for rule in all_rules():
            assert rule.rule_id and rule.description
