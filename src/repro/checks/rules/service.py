"""Event-loop and federation discipline in the recovery service.

SVC001: :mod:`repro.service` is a single-threaded asyncio control
plane: every coroutine shares one event loop with the probe-ingestion
drain, the boundary scan, and the failure-group resolver.  One blocking
call — ``time.sleep``, synchronous file or socket I/O, a subprocess
wait — stalls *all* of them at once: heartbeats pile into the bounded
queues, probe boundaries are missed, and decision latency (the SLO the
service exists to bound) spikes by the length of the stall.  Waiting
must go through the service clock (``await clock.sleep(...)``) and I/O
through asyncio streams.

SVC014: decision commits and :class:`ControllerCluster` epoch/primary
mutation inside ``repro.service`` must flow through the sanctioned
seams — the resolver's write-ahead-logged commit path and
:class:`~repro.service.federation.ServiceFederation` — or the crash
guarantees fall apart silently: a commit outside the resolver skips
the WAL (lost on takeover) and the fence check (a deposed primary's
late write lands), and a direct cluster mutation skips the election
listener (no takeover replay) and the crash audit trail.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..context import FileContext
from ..diagnostics import Diagnostic
from ..registry import Rule, register

__all__ = ["BlockingCallInCoroutine", "UnsanctionedFederationMutation"]

#: Import-resolvable calls that block the calling thread.
BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "os.system", "os.wait", "os.waitpid",
        "subprocess.run", "subprocess.call", "subprocess.check_call",
        "subprocess.check_output", "subprocess.Popen",
        "socket.create_connection", "socket.getaddrinfo",
        "urllib.request.urlopen",
        "http.client.HTTPConnection", "http.client.HTTPSConnection",
    }
)

#: Builtins that block on the terminal or filesystem.
BLOCKING_BUILTINS = frozenset({"open", "input"})

#: Method names that are synchronous filesystem I/O wherever they appear
#: (the ``pathlib.Path`` read/write family).
BLOCKING_METHODS = frozenset(
    {"read_text", "write_text", "read_bytes", "write_bytes"}
)


def blocking_call_reason(ctx: FileContext, node: ast.Call) -> str | None:
    """Why ``node`` blocks the event-loop thread, ``None`` if it doesn't."""
    resolved = ctx.resolve(node.func)
    if resolved in BLOCKING_CALLS:
        return f"call to {resolved}()"
    if (
        isinstance(node.func, ast.Name)
        and node.func.id in BLOCKING_BUILTINS
        and resolved is None  # not an import-shadowed name
    ):
        return f"call to builtin {node.func.id}()"
    if (
        isinstance(node.func, ast.Attribute)
        and node.func.attr in BLOCKING_METHODS
    ):
        return f"synchronous file I/O via .{node.func.attr}()"
    return None


@register
class BlockingCallInCoroutine(Rule):
    """SVC001: no blocking calls inside ``repro.service`` coroutines."""

    code = "SVC001"
    name = "blocking-call-in-coroutine"
    rationale = (
        "The recovery service is one shared event loop; a blocking call "
        "in any coroutine stalls probe ingestion, boundary scans, and "
        "failover decisions together, breaking the decision-latency SLO. "
        "Wait via the service clock and do I/O through asyncio."
    )
    scope = ("repro.service",)

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        reported: set[int] = set()
        for outer in ast.walk(ctx.tree):
            if not isinstance(outer, ast.AsyncFunctionDef):
                continue
            for node in ast.walk(outer):
                if not isinstance(node, ast.Call) or id(node) in reported:
                    continue
                offence = blocking_call_reason(ctx, node)
                if offence is not None:
                    reported.add(id(node))
                    yield self.diagnostic(
                        ctx,
                        node,
                        f"{offence} inside a repro.service coroutine blocks "
                        "the shared event loop; await the service clock "
                        "(clock.sleep) or use asyncio I/O instead",
                    )


#: Controller commit entry points; inside repro.service they are only
#: sanctioned in the resolver, whose commit path write-ahead logs and
#: fence-checks every call.
_COMMIT_CALLS = frozenset({"handle_node_failure", "handle_link_failure"})

#: The module whose commit path is the sanctioned one.
_COMMIT_MODULE = "repro.service.resolver"

#: ControllerCluster election/replica mutators; inside repro.service
#: they are only sanctioned behind ServiceFederation, which audits the
#: crash and notifies the takeover listener.
_CLUSTER_MUTATIONS = frozenset(
    {"fail_primary", "fail_replica", "restore_replica"}
)

#: Cluster state that must never be assigned directly.
_FENCED_ATTRS = frozenset({"epoch", "elections", "replicas", "_primary"})

#: The module that owns the sanctioned federation surface.
_FEDERATION_MODULE = "repro.service.federation"

#: Receiver-name stems that mark a cluster-shaped object.
_CLUSTER_STEMS = ("cluster",)


@register
class UnsanctionedFederationMutation(Rule):
    """SVC014: commits and cluster mutation outside the WAL/federation API."""

    code = "SVC014"
    name = "unsanctioned-federation-mutation"
    rationale = (
        "A controller commit outside the resolver skips the write-ahead "
        "log and the epoch fence (decisions lost on takeover, deposed "
        "primaries landing late writes); a direct cluster mutation skips "
        "ServiceFederation's election listener and crash audit.  Route "
        "commits through the resolver and cluster changes through "
        "ServiceFederation."
    )
    scope = ("repro.service",)

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        module = ctx.module or ""
        if not module and ctx.category is not None:
            # A repository file outside the repro package (benchmarks,
            # examples, tests) is call-driven by design — controller
            # commits there are the library API, not service code.
            # Only true unknowns (lint fixtures) stay strict.
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                func = node.func
                if not isinstance(func, ast.Attribute):
                    continue
                if func.attr in _COMMIT_CALLS and module != _COMMIT_MODULE:
                    yield self.diagnostic(
                        ctx,
                        node,
                        f"controller commit .{func.attr}() outside the "
                        "resolver's WAL-logged, fence-checked path; submit "
                        "a PendingFailure to FailureGroupResolver instead",
                    )
                elif (
                    func.attr in _CLUSTER_MUTATIONS
                    and module != _FEDERATION_MODULE
                ):
                    yield self.diagnostic(
                        ctx,
                        node,
                        f"cluster mutation .{func.attr}() outside "
                        "ServiceFederation; use federation.crash_primary() "
                        "/ federation.restore() so elections are audited "
                        "and takeover replays the WAL",
                    )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr in _FENCED_ATTRS
                        and _looks_like_cluster(target.value)
                        and module != _FEDERATION_MODULE
                    ):
                        yield self.diagnostic(
                            ctx,
                            target,
                            f"direct write to cluster.{target.attr} bypasses "
                            "the election seam; fencing epochs and primaries "
                            "only change inside ControllerCluster._elect()",
                        )


def _looks_like_cluster(receiver: ast.expr) -> bool:
    """Whether ``receiver`` is plausibly a ControllerCluster."""
    if isinstance(receiver, ast.Subscript):
        return _looks_like_cluster(receiver.value)
    if isinstance(receiver, ast.Attribute):
        name = receiver.attr
    elif isinstance(receiver, ast.Name):
        name = receiver.id
    else:
        return False
    lowered = name.lower()
    return any(stem in lowered for stem in _CLUSTER_STEMS)
