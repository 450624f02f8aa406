"""repro.checks — the repository's own static-analysis pass.

The reproduction's headline guarantee — parallel sweeps bit-identical
to the serial pipelines — rests on code conventions that no general
linter knows about: every random draw flows through :mod:`repro.rng`,
worker payloads are JSON-serialisable values, simulation code never
reads the wall clock, broad exception handlers either re-raise or leave
a journal record.  This package encodes those invariants as AST rules
(stdlib :mod:`ast`, no third-party dependencies) and checks them
*before* a sweep ever runs, in the spirit of ShareBackup's own
correctness-first stance: failure handling is precomputed and verified
offline, not discovered at failure time.

Two rule families share one registry and one code namespace:

* **per-file rules** (:class:`Rule`) see a single parsed file;
* **project rules** (:class:`ProjectRule`) see the linked
  :class:`ProjectModel` — import graph, symbol tables, and a
  best-effort call graph over the whole repository — and catch what no
  single file can show: transitive seed taint, payloads that reach
  non-JSON values through helpers, circuit mutations laundered through
  another module, import cycles, dead exports.

Entry points:

* :func:`lint_paths` — the full pipeline behind ``repro lint``:
  per-file + project rules, with an incremental cache under
  ``.repro-cache/lint/`` so warm runs re-parse nothing;
* :func:`check_paths` / :func:`check_file` / :func:`check_source` — the
  per-file pass alone;
* :func:`render_json` / :func:`render_sarif` — machine-readable
  reports (``--format json|sarif``);
* :func:`all_rules` / :func:`project_rules` — the registered rule
  sets, sorted by code.

Suppressions: a line carrying ``# repro: noqa[CODE]`` (comma-separated
codes, or ``*`` for all) silences diagnostics whose suppression span
covers that line — for a multi-line statement any of its physical
lines, for a decorated ``def`` any decorator or signature line.  Every
suppression is an *audited allowlist entry* — it should carry a
justification in the surrounding comment.

See ``docs/static-analysis.md`` for the rule catalogue, the project
model design, and the cache/SARIF workflow.
"""

from __future__ import annotations

from .cache import CHECKS_REV, CacheStats, LintCache, checks_rev
from .context import FileContext, category_for, module_name_for
from .diagnostics import Diagnostic
from .engine import (
    DEFAULT_TARGETS,
    SYNTAX_ERROR_CODE,
    LintResult,
    LintStats,
    changed_source_files,
    check_file,
    check_paths,
    check_source,
    iter_source_files,
    lint_paths,
)
from .project import ProjectModel
from .registry import (
    ProjectRule,
    Rule,
    all_rule_codes,
    all_rules,
    get_rule,
    project_rules,
    register,
    register_project,
)
from .sarif import render_json, render_sarif

# Importing the rule modules registers every shipped rule.
from .rules import (  # noqa: F401
    controlplane,
    determinism,
    exceptions,
    interproc,
    perf,
    process,
    rng,
)

__all__ = [
    "CHECKS_REV",
    "CacheStats",
    "DEFAULT_TARGETS",
    "Diagnostic",
    "FileContext",
    "LintCache",
    "LintResult",
    "LintStats",
    "ProjectModel",
    "ProjectRule",
    "Rule",
    "SYNTAX_ERROR_CODE",
    "all_rule_codes",
    "all_rules",
    "category_for",
    "changed_source_files",
    "check_file",
    "check_paths",
    "check_source",
    "checks_rev",
    "get_rule",
    "iter_source_files",
    "lint_paths",
    "module_name_for",
    "project_rules",
    "register",
    "register_project",
    "render_json",
    "render_sarif",
]
