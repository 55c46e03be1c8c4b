"""``repro.lint.flow`` — interprocedural analysis layer.

Two building blocks and the rules on top:

- :mod:`.callgraph` — the project call graph with containment-aware
  resolution (imports, ``self`` methods, typed attributes and locals).
- :mod:`.rules` — ``LOCK-DISCIPLINE``, ``LOCK-ORDER``, ``ASYNC-BLOCKING``,
  registered into the shared :mod:`repro.lint` catalog as project-scoped
  rules.

The runtime companion — the lock-order watchdog that checks the *dynamic*
acquisition graph — lives in :mod:`repro.obs.lockwatch`; see
``docs/STATIC_ANALYSIS.md`` for both halves.
"""

from .callgraph import (CallGraph, CallSite, ClassInfo, FunctionInfo,
                        build_call_graph, project_call_graph)
from . import rules  # noqa: F401  (importing registers the flow rules)

__all__ = [
    "CallGraph", "CallSite", "ClassInfo", "FunctionInfo",
    "build_call_graph", "project_call_graph",
    "rules",
]
