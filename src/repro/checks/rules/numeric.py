"""Numeric contracts of the water-fill kernels (NUM001–NUM004).

The vectorized allocator (:mod:`repro.simulation.columnar`) must stay
*bit-identical* to the scalar reference solver
(:mod:`repro.simulation.fairshare`) — that equivalence is the engine's
whole correctness argument — and its kernels are held to the
``nopython`` subset.  Both claims are numeric, not syntactic, so a general linter cannot see them
break.  These rules judge the facts the abstract interpreter
(:mod:`repro.checks.numeric`) extracts per ``@kernel`` function:

* **NUM001** — a value provably narrows on the way into an array:
  float results stored into integer buffers, ``float64`` into
  ``float32``, and friends.  Silent narrowing is exactly how the
  bit-identity proof dies without a single test failing on small
  inputs.
* **NUM002** — a shape-incompatibility witness: two symbolic shapes
  that can never broadcast (``(rows, width)`` against ``(rows,)``),
  a reduction over an axis the array does not have, more indices than
  the array has dimensions.
* **NUM003** — an aliasing hazard: an in-place write (``out=``,
  augmented assignment, ``.fill``) into a buffer that a later read in
  the same pass observes through a *different* view — the classic
  "workspace reused while still borrowed" bug that only manifests at
  sizes where views overlap.
* **NUM004** — a construct outside the ``nopython`` subset inside a
  ``@kernel`` function: dicts/sets, try/except, closures, untyped
  Python calls.  Calls into project code are resolved against the
  whole-program call graph — calling another ``@kernel`` is fine,
  calling anything else boxes objects and forces an object-mode
  fallback the day the JIT lands.

The first three are pure replays of cached per-file facts; NUM004 is
the one judgement that needs the :class:`ProjectModel`, to classify
cross-module calls.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import TYPE_CHECKING

from ..diagnostics import Diagnostic
from ..registry import ProjectRule, register_project

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..callgraph import FunctionSummary
    from ..numeric import NumericSummary
    from ..project import FunctionKey, ProjectModel

__all__ = [
    "KernelDtypeNarrowing",
    "KernelShapeMismatch",
    "KernelAliasingHazard",
    "KernelNopythonUnsafe",
]

#: The numeric core these rules police.  Kernels registered elsewhere
#: are still extracted (the facts ride the cache) but not judged — the
#: contract is only load-bearing where the bit-identity proof lives.
_NUMERIC_SCOPE = ("repro.simulation.columnar", "repro.simulation.fairshare")


def _kernel_items(
    model: "ProjectModel",
) -> Iterator[tuple["FunctionKey", "NumericSummary"]]:
    for key in sorted(model.functions):
        fn: "FunctionSummary" = model.functions[key]
        if fn.numeric is not None:
            yield key, fn.numeric


def _location(
    model: "ProjectModel", key: "FunctionKey", lineno: int, col: int
) -> tuple[str, int, int]:
    return (model.modules[key[0]].path, lineno, col)


class _IssueRule(ProjectRule):
    """Shared replay loop: one extraction ``kind`` → one diagnostic."""

    kind = ""  #: the NumericIssue.kind this rule replays

    def check(self, model: "ProjectModel") -> Iterator[Diagnostic]:
        for key, summary in _kernel_items(model):
            for issue in summary.issues:
                if issue.kind != self.kind:
                    continue
                path, line, col = _location(
                    model, key, issue.lineno, issue.col
                )
                yield self.diagnostic(
                    path, line, col, f"kernel {key[1]}: {issue.detail}"
                )


@register_project
class KernelDtypeNarrowing(_IssueRule):
    """NUM001: silent dtype narrowing or float→int mixing in a kernel."""

    code = "NUM001"
    name = "kernel-dtype-narrowing"
    kind = "narrowing"
    rationale = (
        "The vectorized water-fill must reproduce the scalar solver "
        "bit-for-bit; storing a float64 result into a float32 or "
        "integer buffer rounds silently and the divergence only shows "
        "at scales no unit test reaches. Keep every buffer at its "
        "declared dtype and cast explicitly where truncation is meant."
    )
    scope = _NUMERIC_SCOPE


@register_project
class KernelShapeMismatch(_IssueRule):
    """NUM002: a provable broadcast/shape incompatibility."""

    code = "NUM002"
    name = "kernel-shape-mismatch"
    kind = "shape"
    rationale = (
        "Symbolic shapes that can never broadcast — (rows, width) "
        "against (rows,), an axis the array does not have — either "
        "crash on the first non-degenerate input or, worse, broadcast "
        "into the wrong cells and corrupt rates silently. Declared "
        "dims are a contract; reshape or index explicitly."
    )
    scope = _NUMERIC_SCOPE


@register_project
class KernelAliasingHazard(_IssueRule):
    """NUM003: in-place write observed through another view."""

    code = "NUM003"
    name = "kernel-aliasing-hazard"
    kind = "alias"
    rationale = (
        "An in-place write (out=, +=, .fill) into a buffer that a "
        "later read observes through a different view makes the pass "
        "order-dependent: results change with numpy's traversal order "
        "and with the JIT's. Copy before mutating, or write to a "
        "buffer nothing else borrows."
    )
    scope = _NUMERIC_SCOPE


@register_project
class KernelNopythonUnsafe(_IssueRule):
    """NUM004: construct outside the nopython subset in a @kernel."""

    code = "NUM004"
    name = "kernel-nopython-unsafe"
    kind = "nopython"
    rationale = (
        "@kernel marks a function as a numba nopython candidate: "
        "dicts, try/except, closures, and untyped Python calls all "
        "force an object-mode fallback, which is slower than the "
        "interpreter. Keep kernels on arrays, scalars, and other "
        "kernels."
    )
    scope = _NUMERIC_SCOPE

    def check(self, model: "ProjectModel") -> Iterator[Diagnostic]:
        yield from super().check(model)
        for key, summary in _kernel_items(model):
            for call in summary.unresolved_calls:
                if self._calls_kernel(model, key, call.ref):
                    continue
                path, line, col = _location(
                    model, key, call.lineno, call.col
                )
                target = call.ref.split(":", 1)[1]
                yield self.diagnostic(
                    path,
                    line,
                    col,
                    f"kernel {key[1]} calls {target}, which is not a "
                    "@kernel function: the call boxes its arguments and "
                    "forces object mode — register the helper with "
                    "@kernel or inline it",
                )

    @staticmethod
    def _calls_kernel(
        model: "ProjectModel", caller: "FunctionKey", ref: str
    ) -> bool:
        candidates = model.resolve_ref(caller[0], ref)
        if not candidates:
            # Outside the modelled universe (e.g. a module the corpus
            # does not cover): stay conservative, no diagnostic.
            return True
        return any(
            model.functions[candidate].is_kernel for candidate in candidates
        )
