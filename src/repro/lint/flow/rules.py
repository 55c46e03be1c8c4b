"""The flow-sensitive rule catalog: locks and async blocking.

Three project-scoped rules built on the call graph (:mod:`.callgraph`).
They run once over the whole linted tree (``check_project``), sharing one
call graph through the :class:`~repro.lint.framework.ProjectContext`
cache:

* ``LOCK-DISCIPLINE`` — locks are acquired with ``with`` only (no bare
  ``.acquire()``), and no blocking operation (``time.sleep``, socket or
  file IO, queue get/put, pool/batcher submission) runs while a lock is
  held — directly or through the call graph.  Waiting on the very
  condition/lock object being held is the sanctioned condition-variable
  idiom and exempt.
* ``LOCK-ORDER`` — the static lock-acquisition graph (lock held → lock
  acquired inside, transitively through calls) must be acyclic.
* ``ASYNC-BLOCKING`` — a non-awaited call inside ``async def`` must not
  resolve (transitively) to blocking IO; blocking work crosses the
  executor boundary via ``run_in_executor``.

All resolution is best-effort (see :mod:`.callgraph`): unresolved calls
are silent, keeping the committed tree's gate at zero false positives.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..framework import FileContext, Finding, ProjectContext, register
from .callgraph import (CallGraph, CallSite, ClassInfo, FunctionInfo,
                        project_call_graph)

__all__ = [
    "LockDisciplineRule",
    "LockOrderRule",
    "AsyncBlockingRule",
]


def _in_repro(module: str) -> bool:
    return module == "repro" or module.startswith("repro.")


def _terminal_name(expr: ast.AST) -> str | None:
    """``"lock"`` for ``self._lock`` / ``lock`` receiver expressions."""
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Name):
        return expr.id
    return None


# -- lock recognition ---------------------------------------------------------

_LOCK_NAME_FRAGMENTS = ("lock", "mutex", "cond", "wake")
_LOCK_CTORS = frozenset({
    "threading.Lock", "threading.RLock", "threading.Condition",
    "repro.obs.lockwatch.watched_lock", "repro.obs.lockwatch.watched_rlock",
    "watched_lock", "watched_rlock",
})


def _lockish_name(name: str | None) -> bool:
    return name is not None and any(f in name.lower()
                                    for f in _LOCK_NAME_FRAGMENTS)


def _is_lock_expr(expr: ast.AST, cls: ClassInfo | None) -> bool:
    """Heuristic + containment: is this with-context / receiver a lock?"""
    name = _terminal_name(expr)
    if _lockish_name(name):
        return True
    if (cls is not None and isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name) and expr.value.id == "self"):
        ctor = cls.attr_ctors.get(expr.attr, "")
        return ctor in _LOCK_CTORS or ctor.split(".")[-1] in (
            "Lock", "RLock", "Condition", "watched_lock", "watched_rlock")
    return False


def _lock_identity(expr: ast.AST, info: FunctionInfo) -> str:
    """Stable cross-function identity for a lock expression.

    ``self.<attr>`` locks are identified by class (every instance shares
    the ordering discipline); local locks by function.
    """
    if (isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name)
            and expr.value.id == "self" and info.cls is not None):
        return f"{info.module}.{info.cls}.{expr.attr}"
    name = _terminal_name(expr) or "<lock>"
    return f"{info.module}.{info.name}.{name}"


# -- blocking-call recognition ------------------------------------------------

_BLOCKING_DOTTED = frozenset({
    "time.sleep",
    "socket.create_connection", "socket.create_server", "socket.socketpair",
    "open",
})
_BLOCKING_METHODS = frozenset({
    "recv", "recv_into", "recvfrom", "recvfrom_into", "recvmsg",
    "sendall", "accept",
})
# Receiver-conditioned methods: the method name alone is too generic
# (dict.get, str.join, ...), so the receiver must look like the real thing.
_CONDITIONED_METHODS = {
    "submit": ("pool", "batcher", "executor"),
    "get": ("queue", "tasks", "results", "free", "inbox", "outbox"),
    "put": ("queue", "tasks", "results", "free", "inbox", "outbox"),
    "wait": ("event", "done", "stop", "ready", "barrier"),
    "join": ("thread", "worker", "supervisor", "collector", "proc"),
}


def _direct_blocking(site: CallSite) -> str | None:
    """Describe why this call blocks, or None if it does not (statically)."""
    if site.dotted in _BLOCKING_DOTTED:
        return site.dotted
    func = site.node.func
    if isinstance(func, ast.Attribute):
        attr = func.attr
        if attr in _BLOCKING_METHODS:
            return f".{attr}()"
        fragments = _CONDITIONED_METHODS.get(attr)
        if fragments is not None:
            receiver = (_terminal_name(func.value) or "").lower()
            if any(f in receiver for f in fragments):
                return f"{_terminal_name(func.value)}.{attr}()"
    return None


def _fn_blocking_pred(graph: CallGraph):
    """Predicate for :meth:`CallGraph.find_path`: direct blocking op in fn."""
    def pred(info: FunctionInfo):
        for site in info.calls:
            desc = _direct_blocking(site)
            if desc is not None:
                return desc
        return None
    return pred


def _blocking_path(graph: CallGraph, target: str) -> str | None:
    """``"a.b -> c.d: time.sleep"`` for a transitive blocking chain."""
    info = graph.function(target)
    if info is None or info.is_async:
        return None
    path = graph.find_path(target, _fn_blocking_pred(graph))
    if path is None:
        return None
    qnames = [qname for qname, _ in path]
    return " -> ".join(qnames) + f": {path[-1][1]}"


def _sites_by_node(info: FunctionInfo) -> dict[int, CallSite]:
    return {id(site.node): site for site in info.calls}


def _calls_in(node: ast.AST) -> Iterator[ast.Call]:
    """Call expressions in ``node``, not descending into nested defs."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.Lambda)):
            continue
        if isinstance(child, ast.Call):
            yield child
        stack.extend(ast.iter_child_nodes(child))


# -- LOCK-DISCIPLINE ----------------------------------------------------------

@register
class LockDisciplineRule:
    """Locks via ``with`` only; nothing blocking inside a critical section."""

    rule_id = "LOCK-DISCIPLINE"
    description = ("locks are acquired via with (no bare .acquire()), and "
                   "no sleep/socket/file-IO/queue/pool-submit call may run "
                   "while a lock is held (directly or via the call graph)")

    EXEMPT_MODULES = ("repro.obs.lockwatch",)

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        graph = project_call_graph(project)
        for info in graph.iter_functions():
            if (not _in_repro(info.module)
                    or info.module in self.EXEMPT_MODULES):
                continue
            cls = graph.classes.get(f"{info.module}.{info.cls}") \
                if info.cls else None
            ctx: FileContext = info.ctx
            yield from self._check_acquire_calls(ctx, info, cls)
            yield from self._check_critical_sections(ctx, info, cls, graph)

    def _check_acquire_calls(self, ctx, info, cls) -> Iterator[Finding]:
        for site in info.calls:
            func = site.node.func
            if (isinstance(func, ast.Attribute) and func.attr == "acquire"
                    and _is_lock_expr(func.value, cls)):
                yield ctx.finding(
                    self.rule_id, site.node,
                    "bare .acquire() — acquire locks with `with` so every "
                    "exit path releases (and the lock watchdog can pair "
                    "acquire/release)")

    def _check_critical_sections(self, ctx, info, cls,
                                 graph) -> Iterator[Finding]:
        sites = _sites_by_node(info)

        def walk(stmts, held: tuple[ast.AST, ...]) -> Iterator[Finding]:
            for stmt in stmts:
                if isinstance(stmt, (ast.With, ast.AsyncWith)):
                    lock_items = [item.context_expr for item in stmt.items
                                  if _is_lock_expr(item.context_expr, cls)]
                    yield from walk(stmt.body, held + tuple(lock_items))
                    continue
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    continue
                if held:
                    yield from self._check_calls(ctx, stmt, held, sites,
                                                 graph)
                for body_attr in ("body", "orelse", "finalbody"):
                    yield from walk(getattr(stmt, body_attr, []) or [], held)
                for handler in getattr(stmt, "handlers", []) or []:
                    yield from walk(handler.body, held)

        yield from walk(info.node.body, ())

    def _check_calls(self, ctx, stmt, held, sites, graph) -> Iterator[Finding]:
        held_dumps = {ast.dump(expr) for expr in held}
        for call in _calls_in(stmt):
            if isinstance(call.func, ast.Attribute):
                # Waiting/notifying on the held condition object itself is
                # the condition-variable idiom, not a foreign blocking call.
                if ast.dump(call.func.value) in held_dumps:
                    continue
            site = sites.get(id(call))
            if site is None:
                site = CallSite(node=call, target=None, dotted=None)
            desc = _direct_blocking(site)
            if desc is not None:
                yield ctx.finding(
                    self.rule_id, call,
                    f"blocking call {desc} while holding a lock — move it "
                    "outside the critical section")
                continue
            if site.target is not None:
                chain = _blocking_path(graph, site.target)
                if chain is not None:
                    yield ctx.finding(
                        self.rule_id, call,
                        f"call under a held lock reaches blocking IO "
                        f"({chain}) — move it outside the critical section")


# -- LOCK-ORDER ---------------------------------------------------------------

@register
class LockOrderRule:
    """The static lock-acquisition graph must have no cycles."""

    rule_id = "LOCK-ORDER"
    description = ("lock-acquisition order must be globally acyclic: "
                   "holding A while (transitively) acquiring B and holding "
                   "B while acquiring A is a deadlock waiting for traffic")

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        graph = project_call_graph(project)
        acq_closure: dict[str, frozenset[str]] = {}

        def direct_locks(info: FunctionInfo) -> list[tuple[str, ast.With]]:
            cls = graph.classes.get(f"{info.module}.{info.cls}") \
                if info.cls else None
            out = []
            for node in ast.walk(info.node):
                if isinstance(node, (ast.With, ast.AsyncWith)):
                    for item in node.items:
                        if _is_lock_expr(item.context_expr, cls):
                            out.append((_lock_identity(item.context_expr,
                                                       info), node))
            return out

        def closure(qname: str, seen: frozenset[str] = frozenset()
                    ) -> frozenset[str]:
            if qname in acq_closure:
                return acq_closure[qname]
            if qname in seen:
                return frozenset()
            info = graph.function(qname)
            if info is None:
                return frozenset()
            acquired = {lock for lock, _ in direct_locks(info)}
            for site in info.calls:
                if site.target is not None:
                    acquired |= closure(site.target, seen | {qname})
            result = frozenset(acquired)
            acq_closure[qname] = result
            return result

        # Edge set: held lock -> acquired lock, with a witness call site.
        edges: dict[str, dict[str, tuple[FunctionInfo, ast.AST]]] = {}

        def add_edge(src: str, dst: str, info: FunctionInfo,
                     node: ast.AST) -> None:
            if src == dst:
                return      # RLock re-entry; not an ordering edge
            edges.setdefault(src, {}).setdefault(dst, (info, node))

        for info in graph.iter_functions():
            if not _in_repro(info.module):
                continue
            cls = graph.classes.get(f"{info.module}.{info.cls}") \
                if info.cls else None
            sites = _sites_by_node(info)

            def walk(stmts, held: tuple[str, ...]):
                for stmt in stmts:
                    if isinstance(stmt, (ast.With, ast.AsyncWith)):
                        new = []
                        for item in stmt.items:
                            if _is_lock_expr(item.context_expr, cls):
                                lock = _lock_identity(item.context_expr, info)
                                for h in held:
                                    add_edge(h, lock, info, stmt)
                                new.append(lock)
                        walk(stmt.body, held + tuple(new))
                        continue
                    if isinstance(stmt, (ast.FunctionDef,
                                         ast.AsyncFunctionDef, ast.ClassDef)):
                        continue
                    if held:
                        for call in _calls_in(stmt):
                            site = sites.get(id(call))
                            if site is None or site.target is None:
                                continue
                            for lock in sorted(closure(site.target)):
                                for h in held:
                                    add_edge(h, lock, info, call)
                    for body_attr in ("body", "orelse", "finalbody"):
                        walk(getattr(stmt, body_attr, []) or [], held)
                    for handler in getattr(stmt, "handlers", []) or []:
                        walk(handler.body, held)

            walk(info.node.body, ())

        yield from self._report_cycles(edges)

    def _report_cycles(self, edges) -> Iterator[Finding]:
        reported: set[frozenset[str]] = set()
        for start in sorted(edges):
            cycle = self._find_cycle(edges, start)
            if cycle is None:
                continue
            key = frozenset(cycle)
            if key in reported or min(cycle) != start:
                continue
            reported.add(key)
            info, node = edges[cycle[0]][cycle[1] if len(cycle) > 1
                                         else cycle[0]]
            ctx: FileContext = info.ctx
            loop = " -> ".join([*cycle, cycle[0]])
            yield ctx.finding(
                self.rule_id, node,
                f"lock-order cycle: {loop} — two threads taking these locks "
                "in opposite order deadlock; pick one global order")

    @staticmethod
    def _find_cycle(edges, start) -> list[str] | None:
        """A simple cycle through ``start`` (sorted-neighbor DFS), or None."""
        path: list[str] = [start]
        on_path = {start}
        visited: set[str] = set()

        def dfs(node: str) -> list[str] | None:
            visited.add(node)
            for succ in sorted(edges.get(node, ())):
                if succ == start:
                    return list(path)
                if succ in on_path or succ in visited:
                    continue
                path.append(succ)
                on_path.add(succ)
                found = dfs(succ)
                if found is not None:
                    return found
                path.pop()
                on_path.discard(succ)
            return None

        return dfs(start)


# -- ASYNC-BLOCKING -----------------------------------------------------------

@register
class AsyncBlockingRule:
    """Non-awaited calls in ``async def`` must not reach blocking IO."""

    rule_id = "ASYNC-BLOCKING"
    description = ("a call inside async def that resolves (via the call "
                   "graph) to blocking IO stalls the whole event loop — "
                   "cross the boundary with run_in_executor")

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        graph = project_call_graph(project)
        for info in graph.iter_functions():
            if not info.is_async or not _in_repro(info.module):
                continue
            ctx: FileContext = info.ctx
            sites = _sites_by_node(info)
            awaited = {id(node.value) for node in ast.walk(info.node)
                       if isinstance(node, ast.Await)
                       and isinstance(node.value, ast.Call)}
            for call in _calls_in(info.node):
                if id(call) in awaited:
                    continue
                func = call.func
                if (isinstance(func, ast.Attribute)
                        and func.attr == "run_in_executor"):
                    continue    # the sanctioned boundary crossing
                site = sites.get(id(call))
                if site is None:
                    site = CallSite(node=call, target=None, dotted=None)
                desc = _direct_blocking(site)
                if desc is not None:
                    yield ctx.finding(
                        self.rule_id, call,
                        f"blocking call {desc} inside async {info.name} — "
                        "it stalls the event loop; use run_in_executor")
                    continue
                if site.target is not None:
                    target_info = graph.function(site.target)
                    if target_info is not None and target_info.is_async:
                        continue    # a coroutine object; nothing ran yet
                    chain = _blocking_path(graph, site.target)
                    if chain is not None:
                        yield ctx.finding(
                            self.rule_id, call,
                            f"call inside async {info.name} reaches blocking "
                            f"IO ({chain}) — cross the executor boundary "
                            "with run_in_executor")
