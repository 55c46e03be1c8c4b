"""``python -m repro lint`` — run the rule catalog and gate on new findings.

Exit codes: 0 clean (or all findings baselined/suppressed), 1 new findings
or parse errors, 2 usage error.  See :mod:`repro.lint.framework` for the
suppression/baseline semantics and ``docs/STATIC_ANALYSIS.md`` for the
workflow.
"""

from __future__ import annotations

import sys
from pathlib import Path

from .baseline import Baseline, find_baseline
from .framework import all_rules, get_rule, lint_paths, rule_ids
from .reporters import render_json, render_text

__all__ = ["run_lint", "default_lint_root"]


def default_lint_root() -> Path:
    """The installed ``repro`` package directory (the default lint target)."""
    import repro
    return Path(repro.__file__).resolve().parent


def _select_rules(selector: str | None):
    if not selector:
        return None
    selected = []
    for rule_id in selector.split(","):
        rule_id = rule_id.strip().upper()
        if not rule_id:
            continue
        try:
            selected.append(get_rule(rule_id))
        except KeyError:
            raise ValueError(
                f"unknown rule {rule_id!r}; choose from {', '.join(rule_ids())}")
    if not selected:
        raise ValueError("no rules selected")
    return selected


def run_lint(args) -> int:
    """Execute the lint subcommand from parsed argparse arguments."""
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.rule_id:20s} {rule.description}")
        return 0
    paths = [Path(p) for p in args.paths] or [default_lint_root()]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"no such path: {', '.join(missing)}", file=sys.stderr)
        return 2
    try:
        rules = _select_rules(args.select)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2

    baseline = None
    baseline_path: Path | None = None
    if not args.no_baseline:
        baseline_path = (Path(args.baseline) if args.baseline
                         else find_baseline(paths[0]))
        if baseline_path is not None and baseline_path.exists():
            try:
                baseline = Baseline.load(baseline_path)
            except ValueError as error:
                print(str(error), file=sys.stderr)
                return 2
        elif args.baseline:
            # An explicitly-named baseline that does not exist yet is only
            # meaningful together with --write-baseline.
            if not args.write_baseline:
                print(f"no such baseline: {baseline_path}", file=sys.stderr)
                return 2

    result = lint_paths(paths, rules=rules, baseline=baseline)

    if args.write_baseline:
        target = baseline_path or (paths[0].resolve() / "lint-baseline.json")
        written = Baseline.from_findings(result.all_findings(),
                                         previous=baseline).save(target)
        print(f"baseline with {len(result.all_findings())} entr(ies) "
              f"written to {written}")
        return 0

    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result, verbose=args.verbose))
    return 0 if result.ok else 1
