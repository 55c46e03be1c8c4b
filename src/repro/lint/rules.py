"""The shipped rule catalog — codebase-specific checks, not pyflakes clones.

Each rule encodes a discipline this repository already relies on but until
now only enforced by review:

* ``DTYPE-DISCIPLINE`` — the float64-leak class of bug PR 1 fixed by hand in
  ``hgnn_propagation_matrix``: NumPy array factories default to float64, so
  hot-path code in ``repro.nn`` / ``repro.core`` / ``repro.hypergraph`` /
  ``repro.serve`` must pass an explicit dtype, and explicit float64 must be
  intentional (baselined with a reason).
* ``SCATTER-CONTAINMENT`` — ``ufunc.at`` is the slowest scatter idiom; all
  scatter kernels live behind :mod:`repro.nn.scatter` so the fast/reference
  backend switch covers every call site.
* ``NO-BARE-PRINT`` — library code logs through ``repro.obs.get_logger`` so
  telemetry sessions capture it; ``print`` is reserved for the CLI surface
  and experiment report rendering.
* ``SEEDED-RANDOMNESS`` — global-state ``np.random.*`` calls are invisible to
  the seeding discipline; library code draws from explicit
  ``np.random.Generator`` objects (``repro.utils.seeded_rng``).
* ``TELEMETRY-GUARD`` — ``get_telemetry()`` / ``current_span()`` return
  ``None`` when disabled; chaining directly on the call both crashes when
  telemetry is off and defeats the one-global-check zero-cost discipline
  shared with :mod:`repro.perf`.
* ``BLOCKING-IO-CONTAINMENT`` — raw sockets and blocking receive/send calls
  belong in :mod:`repro.serve.net` only; anywhere else (and especially on
  the asyncio front-end's event loop) a blocking socket call is a stall the
  in-flight bound cannot see.
* ``SPAN-NAME-DISCIPLINE`` — metrics aggregate and render *by name*, so a
  typo'd or ad-hoc span/metric name silently fragments the view;
  instrumentation sites must use a literal from the :mod:`repro.obs.names`
  catalog or one of its template helpers.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .framework import FileContext, Finding, register

__all__ = [
    "DtypeDisciplineRule",
    "ScatterContainmentRule",
    "NoBarePrintRule",
    "SeededRandomnessRule",
    "TelemetryGuardRule",
    "BlockingIoContainmentRule",
    "SpanNameDisciplineRule",
]

_NUMPY_ALIASES = {"np", "numpy"}


def _numpy_attr(node: ast.AST) -> str | None:
    """``"zeros"`` for an ``np.zeros`` / ``numpy.zeros`` expression."""
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in _NUMPY_ALIASES):
        return node.attr
    return None


def _in_packages(module: str, packages: tuple[str, ...]) -> bool:
    return any(module == pkg or module.startswith(pkg + ".")
               for pkg in packages)


@register
class DtypeDisciplineRule:
    """Array factories need an explicit dtype; float64 must be intentional."""

    rule_id = "DTYPE-DISCIPLINE"
    description = ("np.zeros/ones/empty/full/arange need an explicit dtype, "
                   "and .astype/dtype targets must not be float64, inside "
                   "repro.nn / repro.core / repro.hypergraph / repro.serve "
                   "hot paths")

    PACKAGES = ("repro.nn", "repro.core", "repro.hypergraph", "repro.serve")
    FACTORIES = ("zeros", "ones", "empty", "full", "arange")
    # Spellings that statically resolve to a 64-bit (or wider) float dtype.
    FLOAT64_ATTRS = ("float64", "double", "float128", "longdouble")

    def _is_float64(self, node: ast.AST) -> bool:
        attr = _numpy_attr(node)
        if attr is not None:
            return attr in self.FLOAT64_ATTRS
        if isinstance(node, ast.Name):
            return node.id == "float"  # builtin float == np.float64
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value in self.FLOAT64_ATTRS
        return False

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag dtype-less factories and statically-float64 dtype targets."""
        if not _in_packages(ctx.module, self.PACKAGES):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            factory = _numpy_attr(node.func)
            if factory in self.FACTORIES:
                dtype = next((kw.value for kw in node.keywords
                              if kw.arg == "dtype"), None)
                if dtype is None:
                    yield ctx.finding(
                        self.rule_id, node,
                        f"np.{factory} without an explicit dtype= "
                        "(NumPy defaults to float64/int64)")
                elif self._is_float64(dtype):
                    yield ctx.finding(
                        self.rule_id, node,
                        f"np.{factory} with explicit float64 dtype "
                        "(baseline with a reason if intentional)")
            elif (isinstance(node.func, ast.Attribute)
                    and node.func.attr == "astype" and node.args):
                if self._is_float64(node.args[0]):
                    yield ctx.finding(
                        self.rule_id, node,
                        ".astype to float64 "
                        "(baseline with a reason if intentional)")


@register
class ScatterContainmentRule:
    """``ufunc.at`` scatter calls belong in ``repro.nn.scatter`` only."""

    rule_id = "SCATTER-CONTAINMENT"
    description = ("ufunc.at (np.add.at, np.maximum.at, ...) is forbidden "
                   "outside repro.nn.scatter — use the scatter kernels")

    HOME_MODULE = "repro.nn.scatter"
    UFUNCS = ("add", "subtract", "multiply", "divide", "maximum", "minimum",
              "fmax", "fmin", "logical_or", "logical_and", "bitwise_or")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag ``<ufunc>.at(...)`` calls in any other module."""
        if ctx.module == self.HOME_MODULE:
            return
        for node in ast.walk(ctx.tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "at"
                    and isinstance(node.func.value, ast.Attribute)
                    and node.func.value.attr in self.UFUNCS):
                yield ctx.finding(
                    self.rule_id, node,
                    f"np.{node.func.value.attr}.at outside repro.nn.scatter "
                    "(route through the scatter kernels so backend selection "
                    "and the fast paths apply)")


@register
class NoBarePrintRule:
    """Library code logs via ``repro.obs.get_logger``, never ``print``."""

    rule_id = "NO-BARE-PRINT"
    description = ("print() is reserved for the CLI surface and report "
                   "rendering; library code logs via repro.obs.get_logger")

    ALLOWED_MODULES = ("repro.cli", "repro.__main__", "repro.experiments.report",
                       "repro.lint.cli")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag ``print(...)`` calls outside the allowed CLI modules."""
        if ctx.module in self.ALLOWED_MODULES:
            return
        for node in ast.walk(ctx.tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "print"):
                yield ctx.finding(
                    self.rule_id, node,
                    "bare print() in library code "
                    "(use repro.obs.get_logger so telemetry captures it)")


@register
class SeededRandomnessRule:
    """Global-state ``np.random.*`` draws are forbidden in library code."""

    rule_id = "SEEDED-RANDOMNESS"
    description = ("global-state np.random.* calls are forbidden; draw from "
                   "an explicit Generator (repro.utils.seeded_rng)")

    # Constructors/types that do not touch the global RNG state.
    ALLOWED = ("default_rng", "Generator", "SeedSequence", "BitGenerator",
               "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag ``np.random.<fn>(...)`` calls that use the global state."""
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            if (_numpy_attr(node.func.value) == "random"
                    and node.func.attr not in self.ALLOWED):
                yield ctx.finding(
                    self.rule_id, node,
                    f"global-state np.random.{node.func.attr} "
                    "(thread a seeded np.random.Generator instead)")


@register
class BlockingIoContainmentRule:
    """Raw sockets and blocking receive calls live in ``repro.serve.net`` only."""

    rule_id = "BLOCKING-IO-CONTAINMENT"
    description = ("socket imports/constructors and blocking recv/sendall/"
                   "accept calls are forbidden outside repro.serve.net — the "
                   "serving tier keeps every blocking socket behind the "
                   "executor boundary there")

    HOME_MODULE = "repro.serve.net"
    CONSTRUCTORS = ("socket", "create_connection", "create_server",
                    "socketpair", "fromfd")
    BLOCKING_METHODS = ("recv", "recv_into", "recvfrom", "recvfrom_into",
                        "recvmsg", "sendall", "accept")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag socket imports, ``socket.*`` constructors and blocking
        socket-style method calls in any other module."""
        if ctx.module == self.HOME_MODULE:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "socket" or alias.name.startswith("socket."):
                        yield ctx.finding(
                            self.rule_id, node,
                            "socket import outside repro.serve.net (route "
                            "network I/O through the serving tier)")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "socket":
                    yield ctx.finding(
                        self.rule_id, node,
                        "socket import outside repro.serve.net (route "
                        "network I/O through the serving tier)")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                func = node.func
                if (isinstance(func.value, ast.Name)
                        and func.value.id == "socket"
                        and func.attr in self.CONSTRUCTORS):
                    yield ctx.finding(
                        self.rule_id, node,
                        f"socket.{func.attr} outside repro.serve.net "
                        "(raw sockets bypass the serving tier's timeout and "
                        "shedding discipline)")
                elif func.attr in self.BLOCKING_METHODS:
                    yield ctx.finding(
                        self.rule_id, node,
                        f".{func.attr}() is a blocking socket-style call "
                        "outside repro.serve.net (it would stall whatever "
                        "thread or event loop runs it)")


@register
class SpanNameDisciplineRule:
    """Span/metric names at instrumentation sites come from the catalog.

    Snapshot merges (:mod:`repro.obs.fleet`) and renderers key every
    series strictly by name, so every name must be spelled identically at
    every site.  A ``span(...)`` /
    ``registry.counter(...)`` / ``.gauge(...)`` / ``.histogram(...)`` call
    must therefore name its series with either

    * a string literal present in :data:`repro.obs.names.SPAN_NAMES` /
      :data:`~repro.obs.names.METRIC_NAMES`, or
    * a call to one of the catalog's template helpers
      (``serve_latency_stage`` and friends) for the parameterized families.

    F-strings and string arithmetic at the call site are always findings —
    that is exactly the ad-hoc-name class the catalog exists to kill.  Bare
    variables are allowed: merge/export code legitimately passes names it
    read from a snapshot.
    """

    rule_id = "SPAN-NAME-DISCIPLINE"
    description = ("span()/counter()/gauge()/histogram() names must be "
                   "catalog literals from repro.obs.names or calls to its "
                   "template helpers — ad-hoc literals and f-strings "
                   "fragment the metric view")

    # The catalog itself and the registry internals (which rebuild metrics
    # from merged state under dynamic names) are exempt.
    EXEMPT_MODULES = ("repro.obs.names", "repro.obs.metrics",
                      "repro.obs.fleet", "repro.obs.exporters")
    METRIC_METHODS = ("counter", "gauge", "histogram")
    HELPERS = ("serve_latency_stage", "train_loss_component")

    def _catalogs(self):
        from repro.obs.names import METRIC_NAMES, SPAN_NAMES
        return SPAN_NAMES, METRIC_NAMES

    def _is_helper_call(self, node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        if isinstance(func, ast.Name):
            return func.id in self.HELPERS
        return isinstance(func, ast.Attribute) and func.attr in self.HELPERS

    def _name_argument(self, call: ast.Call) -> ast.AST | None:
        if call.args:
            return call.args[0]
        return next((kw.value for kw in call.keywords if kw.arg == "name"),
                    None)

    def _check_name(self, ctx: FileContext, call: ast.Call, catalog,
                    what: str) -> Iterator[Finding]:
        name = self._name_argument(call)
        if name is None or self._is_helper_call(name):
            return
        if isinstance(name, ast.Constant) and isinstance(name.value, str):
            if name.value not in catalog:
                yield ctx.finding(
                    self.rule_id, call,
                    f"{what} name {name.value!r} is not in the "
                    "repro.obs.names catalog (add it there so merges and "
                    "renderers can aggregate it)")
        elif isinstance(name, (ast.JoinedStr, ast.BinOp, ast.Call)):
            yield ctx.finding(
                self.rule_id, call,
                f"computed {what} name at the instrumentation site — use a "
                "catalog literal or a repro.obs.names template helper")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag non-catalog names on span and metric constructor calls."""
        if (ctx.module in self.EXEMPT_MODULES
                or not _in_packages(ctx.module, ("repro",))):
            return
        span_names, metric_names = self._catalogs()
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "span":
                yield from self._check_name(ctx, node, span_names, "span")
            elif (isinstance(func, ast.Attribute)
                    and func.attr in self.METRIC_METHODS):
                yield from self._check_name(ctx, node, metric_names, "metric")


@register
class TelemetryGuardRule:
    """Optional-telemetry accessors must be bound and ``is None``-checked."""

    rule_id = "TELEMETRY-GUARD"
    description = ("get_telemetry()/current_span() return None when disabled; "
                   "bind the result and check `is not None` before use")

    OPTIONAL_ACCESSORS = ("get_telemetry", "current_span", "get_sanitizer",
                          "get_lock_watch")

    def _accessor_name(self, call: ast.AST) -> str | None:
        if not isinstance(call, ast.Call):
            return None
        func = call.func
        if isinstance(func, ast.Name) and func.id in self.OPTIONAL_ACCESSORS:
            return func.id
        if (isinstance(func, ast.Attribute)
                and func.attr in self.OPTIONAL_ACCESSORS):
            return func.attr
        return None

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag attribute chains directly on an optional accessor's result."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Attribute):
                continue
            accessor = self._accessor_name(node.value)
            if accessor is not None:
                yield ctx.finding(
                    self.rule_id, node,
                    f"chained access on {accessor}() — it returns None when "
                    "disabled; bind it to a local and check `is not None` "
                    "(zero-cost discipline from repro.perf/repro.obs)")
