"""Project call graph with containment-aware resolution.

The interprocedural flow rules need to answer "what does this call reach?"
across module boundaries: a call inside ``async def`` handlers must not
transitively hit blocking IO, and a critical section must not transitively
acquire a second lock.

:func:`build_call_graph` indexes every linted file once and resolves call
expressions with the containment the codebase actually uses:

* **imports** — ``import a.b as c`` / ``from a.b import f as g`` map local
  names to dotted targets, so ``g(...)`` resolves to ``a.b.f`` even when
  ``a.b`` is outside the linted tree (the dotted text is still useful for
  recognizing primitives such as ``time.sleep``).
* **module functions and classes** — a bare ``Name`` call resolves to the
  same module's function or class; calling a class resolves to its
  ``__init__`` and records a *constructs* edge.
* **``self`` containment** — ``self.method(...)`` resolves within the
  enclosing class (and same-project base classes); ``self.attr.method(...)``
  resolves through the attribute's type, inferred from ``self.attr =
  SomeClass(...)`` assignments anywhere in the class.
* **local containment** — ``v = SomeClass(...)`` types ``v`` for the rest
  of the function, so ``v.method(...)`` resolves to ``SomeClass.method``.

Resolution is best-effort and unresolved calls stay unresolved — the flow
rules treat "unknown" as silent rather than guessing, keeping the gate's
false-positive rate at zero on the committed tree.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

__all__ = ["CallSite", "FunctionInfo", "ClassInfo", "ModuleIndex",
           "CallGraph", "build_call_graph", "dotted_name"]


def dotted_name(expr: ast.AST) -> str | None:
    """Flatten ``a.b.c`` attribute chains to a dotted string (else None)."""
    parts: list[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@dataclass
class CallSite:
    """One call expression, with its best-effort resolution."""

    node: ast.Call
    target: str | None          # project qualified name, when resolved
    dotted: str | None          # import-resolved dotted text (may be external)


@dataclass
class FunctionInfo:
    """One function or method in the project."""

    qname: str                  # e.g. "repro.serve.net.NetServer.drain"
    module: str
    cls: str | None
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    ctx: object                 # the owning FileContext (for findings)
    is_async: bool
    calls: list[CallSite] = field(default_factory=list)


@dataclass
class ClassInfo:
    """One class: its methods, bases, and inferred attribute types."""

    qname: str
    module: str
    name: str
    node: ast.ClassDef
    bases: list[str] = field(default_factory=list)      # raw dotted base text
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    # self.<attr> = <Call> assignments: attr -> dotted constructor text
    attr_ctors: dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleIndex:
    """Per-module symbol tables used during resolution."""

    module: str
    ctx: object
    imports: dict[str, str] = field(default_factory=dict)   # alias -> dotted
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)


class CallGraph:
    """The resolved project call graph plus memoized transitive queries."""

    def __init__(self, modules: dict[str, ModuleIndex],
                 functions: dict[str, FunctionInfo],
                 classes: dict[str, ClassInfo]):
        self.modules = modules
        self.functions = functions
        self.classes = classes

    def function(self, qname: str) -> FunctionInfo | None:
        return self.functions.get(qname)

    def iter_functions(self) -> Iterator[FunctionInfo]:
        return iter(self.functions.values())

    def find_path(self, qname: str,
                  pred: Callable[[FunctionInfo], object],
                  _seen: set[str] | None = None
                  ) -> list[tuple[str, object]] | None:
        """DFS for a call path from ``qname`` to a function where ``pred``
        returns truthy.

        Returns ``[(qname, witness), ..., (qname, pred_result)]`` — the
        chain of functions walked, ending with the predicate's witness — or
        None when nothing in the transitive closure satisfies ``pred``.
        """
        seen = _seen if _seen is not None else set()
        if qname in seen:
            return None
        seen.add(qname)
        info = self.functions.get(qname)
        if info is None:
            return None
        hit = pred(info)
        if hit:
            return [(qname, hit)]
        for call in info.calls:
            if call.target is None:
                continue
            sub = self.find_path(call.target, pred, seen)
            if sub is not None:
                return [(qname, call), *sub]
        return None


class _Resolver:
    """Resolution scope for one function body."""

    def __init__(self, graph_modules: dict[str, ModuleIndex],
                 index: ModuleIndex, cls: ClassInfo | None):
        self.modules = graph_modules
        self.index = index
        self.cls = cls
        self.local_types: dict[str, str] = {}   # var -> class qname

    def _project_class(self, dotted: str) -> ClassInfo | None:
        """A project class by dotted name (module-qualified or local)."""
        module, _, name = dotted.rpartition(".")
        index = self.modules.get(module)
        if index is not None and name in index.classes:
            return index.classes[name]
        # Local (same-module) name.
        if dotted in self.index.classes:
            return self.index.classes[dotted]
        return None

    def _project_function(self, dotted: str) -> FunctionInfo | None:
        module, _, name = dotted.rpartition(".")
        index = self.modules.get(module)
        if index is not None and name in index.functions:
            return index.functions[name]
        return None

    def resolve_dotted(self, expr: ast.AST) -> str | None:
        """Dotted text with the leading alias resolved through imports."""
        dotted = dotted_name(expr)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        target = self.index.imports.get(head)
        if target is not None:
            return target + ("." + rest if rest else "")
        return dotted

    def _method_on(self, cls: ClassInfo, name: str,
                   _seen: set[str] | None = None) -> FunctionInfo | None:
        """Method lookup on a class, following same-project bases."""
        seen = _seen or set()
        if cls.qname in seen:
            return None
        seen.add(cls.qname)
        if name in cls.methods:
            return cls.methods[name]
        for base in cls.bases:
            base_cls = self._resolve_class_text(base)
            if base_cls is not None:
                found = self._method_on(base_cls, name, seen)
                if found is not None:
                    return found
        return None

    def _resolve_class_text(self, text: str) -> ClassInfo | None:
        """A class from raw source text (local name or import alias)."""
        if text in self.index.classes:
            return self.index.classes[text]
        head, _, rest = text.partition(".")
        target = self.index.imports.get(head)
        dotted = (target + ("." + rest if rest else "")) if target else text
        return self._project_class(dotted)

    def resolve_call(self, call: ast.Call) -> CallSite:
        func = call.func
        dotted = self.resolve_dotted(func)
        target: str | None = None

        if isinstance(func, ast.Name):
            name = func.id
            if name in self.local_types:
                cls = self._project_class(self.local_types[name])
                # Calling a typed local is rare; leave unresolved.
            elif name in self.index.functions:
                target = self.index.functions[name].qname
            elif name in self.index.classes:
                cls = self.index.classes[name]
                init = cls.methods.get("__init__")
                target = init.qname if init is not None else None
                dotted = cls.qname
            elif dotted is not None:
                info = self._project_function(dotted)
                if info is not None:
                    target = info.qname
                else:
                    cls = self._project_class(dotted)
                    if cls is not None:
                        init = cls.methods.get("__init__")
                        target = init.qname if init is not None else None
                        dotted = cls.qname

        elif isinstance(func, ast.Attribute):
            base, attr = func.value, func.attr
            cls: ClassInfo | None = None
            if isinstance(base, ast.Name):
                if base.id == "self" and self.cls is not None:
                    cls = self.cls
                elif base.id in self.local_types:
                    cls = self._project_class(self.local_types[base.id])
            elif (isinstance(base, ast.Attribute)
                  and isinstance(base.value, ast.Name)
                  and base.value.id == "self" and self.cls is not None):
                ctor = self.cls.attr_ctors.get(base.attr)
                if ctor is not None:
                    cls = self._resolve_class_text(ctor)
            if cls is not None:
                method = self._method_on(cls, attr)
                if method is not None:
                    target = method.qname
            elif dotted is not None:
                # Module-attr call through an import: "a.b.f".
                info = self._project_function(dotted)
                if info is not None:
                    target = info.qname
                else:
                    klass = self._project_class(dotted)
                    if klass is not None:
                        init = klass.methods.get("__init__")
                        target = init.qname if init is not None else None

        return CallSite(node=call, target=target, dotted=dotted)

    def note_assign(self, stmt: ast.stmt) -> None:
        """Track ``v = SomeClass(...)`` so later ``v.m()`` calls resolve."""
        if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
            return
        tgt = stmt.targets[0]
        if not isinstance(tgt, ast.Name) or not isinstance(stmt.value, ast.Call):
            return
        dotted = self.resolve_dotted(stmt.value.func)
        if dotted is None:
            return
        cls = self._project_class(dotted)
        if cls is None and dotted_name(stmt.value.func) in self.index.classes:
            cls = self.index.classes[dotted_name(stmt.value.func)]
        if cls is not None:
            self.local_types[tgt.name if hasattr(tgt, "name") else tgt.id] = \
                cls.qname


def _is_self_attr(target: ast.AST) -> bool:
    return (isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self")


def _annotation_text(ann: ast.AST | None) -> str | None:
    """Best-effort dotted text of a type annotation (``X``, ``"X"``,
    ``X | None``); parameterized generics are left untyped."""
    if ann is None:
        return None
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        text = ann.value.strip().strip("'\"")
        return text if text.replace(".", "").replace("_", "").isalnum() \
            else None
    if isinstance(ann, (ast.Name, ast.Attribute)):
        return dotted_name(ann)
    if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
        left = _annotation_text(ann.left)
        right = _annotation_text(ann.right)
        if left not in (None, "None"):
            return left
        return right if right != "None" else None
    return None


def _annotated_params(func) -> dict[str, str]:
    """Parameter name -> annotation text for one function."""
    params: dict[str, str] = {}
    args = func.args
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        text = _annotation_text(arg.annotation)
        if text is not None:
            params[arg.arg] = text
    return params


def _collect_imports(tree: ast.Module) -> dict[str, str]:
    imports: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imports[alias.asname or alias.name.partition(".")[0]] = \
                    alias.name if alias.asname else alias.name.partition(".")[0]
                if alias.asname:
                    imports[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:     # relative imports: skip (none in this tree)
                continue
            base = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                imports[alias.asname or alias.name] = \
                    f"{base}.{alias.name}" if base else alias.name
    return imports


def _index_module(ctx) -> ModuleIndex:
    index = ModuleIndex(module=ctx.module, ctx=ctx,
                        imports=_collect_imports(ctx.tree))
    for node in ctx.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qname = f"{ctx.module}.{node.name}"
            index.functions[node.name] = FunctionInfo(
                qname=qname, module=ctx.module, cls=None, name=node.name,
                node=node, ctx=ctx,
                is_async=isinstance(node, ast.AsyncFunctionDef))
        elif isinstance(node, ast.ClassDef):
            cls = ClassInfo(qname=f"{ctx.module}.{node.name}",
                            module=ctx.module, name=node.name, node=node,
                            bases=[d for d in (dotted_name(b)
                                               for b in node.bases)
                                   if d is not None])
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qname = f"{cls.qname}.{item.name}"
                    cls.methods[item.name] = FunctionInfo(
                        qname=qname, module=ctx.module, cls=node.name,
                        name=item.name, node=item, ctx=ctx,
                        is_async=isinstance(item, ast.AsyncFunctionDef))
            # self.<attr> types, in priority order: annotated class-level /
            # AnnAssign declarations, `self.x = Ctor(...)` constructor
            # calls, and `self.x = param` stores of annotated parameters.
            for method in cls.methods.values():
                params = _annotated_params(method.node)
                for item in ast.walk(method.node):
                    target, value = None, None
                    if (isinstance(item, ast.Assign)
                            and len(item.targets) == 1):
                        target, value = item.targets[0], item.value
                    elif isinstance(item, ast.AnnAssign):
                        target = item.target
                        ann = _annotation_text(item.annotation)
                        if (ann is not None and _is_self_attr(target)):
                            cls.attr_ctors.setdefault(target.attr, ann)
                            continue
                    if target is None or not _is_self_attr(target):
                        continue
                    if isinstance(value, ast.Call):
                        text = dotted_name(value.func)
                        if text is not None:
                            cls.attr_ctors.setdefault(target.attr, text)
                    elif isinstance(value, ast.Name) and value.id in params:
                        cls.attr_ctors.setdefault(target.attr,
                                                  params[value.id])
            index.classes[node.name] = cls
    return index


def build_call_graph(contexts: Sequence) -> CallGraph:
    """Index every file and resolve every call expression once."""
    modules: dict[str, ModuleIndex] = {}
    for ctx in contexts:
        modules[ctx.module] = _index_module(ctx)

    functions: dict[str, FunctionInfo] = {}
    classes: dict[str, ClassInfo] = {}
    for index in modules.values():
        for info in index.functions.values():
            functions[info.qname] = info
        for cls in index.classes.values():
            classes[cls.qname] = cls
            for info in cls.methods.values():
                functions[info.qname] = info

    for index in modules.values():
        for info in index.functions.values():
            _resolve_function(info, modules, index, None)
        for cls in index.classes.values():
            for info in cls.methods.values():
                _resolve_function(info, modules, index, cls)
    return CallGraph(modules=modules, functions=functions, classes=classes)


def _resolve_function(info: FunctionInfo, modules: dict[str, ModuleIndex],
                      index: ModuleIndex, cls: ClassInfo | None) -> None:
    resolver = _Resolver(modules, index, cls)
    # Statement-ordered walk so local `v = Cls(...)` types apply to later
    # calls (close enough to flow order for real code).
    for stmt in ast.walk(info.node):
        if isinstance(stmt, ast.Assign):
            resolver.note_assign(stmt)
    for node in ast.walk(info.node):
        if isinstance(node, ast.Call):
            info.calls.append(resolver.resolve_call(node))


def project_call_graph(project) -> CallGraph:
    """The (cached) call graph for one :class:`ProjectContext`."""
    graph = project.cache.get("callgraph")
    if graph is None:
        graph = build_call_graph(project.files)
        project.cache["callgraph"] = graph
    return graph
