"""Concurrent failure-group resolution with per-decision latency.

Detected silent switches and ingested failure reports become
:class:`PendingFailure` work items; the resolver batches items that
arrive close together (one virtual instant, or ``batch_window`` of
wall time), partitions each batch by ShareBackup *failure group* —
failures in the same group contend for the same spare pool and circuit
switches, failures in different groups are independent — and commits
the groups concurrently, one asyncio task per group.

Inside a group the items run sequentially in ``(detected_at, target)``
order, each through the controller's existing two-phase machinery:
``validate_reconfigure`` then commit inside
:meth:`~repro.core.controller.ShareBackupController._assign_backup`,
wrapped in the shared :class:`~repro.retry.RetryPolicy` and the PR 3
degradation ladder (assign backup → alternate spare → global reroute).
The service adds no second recovery path — it *schedules* the proven
one, which is why the chaos-replay A/B test can demand decision
identity with the call-driven watchdog.

Every commit yields a :class:`FailoverDecision` carrying two clocks:

* ``latency`` — service-clock detection→decision delay (the SLO the
  benchmark aggregates into p50/p99/p999);
* ``recovery_time`` — the modelled data-plane recovery latency from
  :class:`~repro.core.recovery.RecoveryTimeModel` (the paper's <1 ms
  claim), carried through from the controller's report.
"""

from __future__ import annotations

import asyncio
from collections.abc import Callable
from dataclasses import dataclass, field

from ..core.controller import (
    EpochFencedError,
    RecoveryReport,
    ShareBackupController,
)
from .clock import ServiceClock
from .federation import ServiceFederation
from .ingest import FailureReport
from .wal import DecisionWAL

__all__ = [
    "PendingFailure",
    "FailoverDecision",
    "FailureGroupResolver",
    "report_outcome",
]


def report_outcome(report: RecoveryReport) -> str:
    """Classify a recovery report: recovered | rerouted | stranded.

    Shared by the service path and the call-driven comparison helpers
    (:func:`repro.service.replay.report_decision_key`) so the A/B test
    judges both paths by one rulebook.
    """
    if report.replaced and not report.unrecoverable:
        return "recovered"
    if report.degraded:
        return "rerouted"
    if report.unrecoverable:
        return "stranded"
    return "recovered" if report.fully_recovered else "stranded"


@dataclass(frozen=True)
class PendingFailure:
    """One failure awaiting a failover decision."""

    kind: str  # "node" | "link"
    logical: str = ""  # node failures: the logical slot
    end_a: tuple[str, tuple] | None = None  # link failures: the two ends
    end_b: tuple[str, tuple] | None = None
    true_faulty: tuple[tuple[str, tuple], ...] = ()
    detected_at: float = 0.0  # service-clock detection/report time
    source: str = "report"  # "scan" (watchdog path) | "report" (API)
    #: Set on items re-derived from the WAL during takeover so the
    #: replayed item reuses its original (group, decision_seq) key.
    wal_key: tuple[str, int] | None = None

    @classmethod
    def from_report(
        cls, report: FailureReport, detected_at: float
    ) -> "PendingFailure":
        return cls(
            kind=report.kind,
            logical=report.logical,
            end_a=report.end_a,
            end_b=report.end_b,
            true_faulty=report.true_faulty,
            detected_at=(
                report.reported_at
                if report.reported_at is not None
                else detected_at
            ),
            source="report",
        )

    def sort_key(self) -> tuple[float, str]:
        return (self.detected_at, self.logical or str(self.end_a))

    def to_payload(self) -> dict:
        """JSON-safe form for a WAL ``intent`` record."""
        def end(value: tuple[str, tuple] | None) -> list | None:
            return [value[0], list(value[1])] if value is not None else None

        return {
            "kind": self.kind,
            "logical": self.logical,
            "end_a": end(self.end_a),
            "end_b": end(self.end_b),
            "true_faulty": [
                [device, list(iface)] for device, iface in self.true_faulty
            ],
            "detected_at": self.detected_at,
            "source": self.source,
        }

    @classmethod
    def from_payload(
        cls, data: dict, wal_key: tuple[str, int] | None = None
    ) -> "PendingFailure":
        """Re-derive a pending failure from a WAL ``intent`` payload."""
        def end(value: object) -> tuple[str, tuple] | None:
            if value is None:
                return None
            device, iface = value  # type: ignore[misc]
            return (str(device), tuple(iface))

        return cls(
            kind=str(data["kind"]),
            logical=str(data.get("logical", "")),
            end_a=end(data.get("end_a")),
            end_b=end(data.get("end_b")),
            true_faulty=tuple(
                (str(device), tuple(iface))
                for device, iface in data.get("true_faulty", [])
            ),
            detected_at=float(data.get("detected_at", 0.0)),
            source=str(data.get("source", "report")),
            wal_key=wal_key,
        )


@dataclass(frozen=True)
class FailoverDecision:
    """The outcome of one resolved failure, JSON-safe."""

    seq: int
    kind: str
    logical: str
    group: str
    detected_at: float
    decided_at: float
    latency: float
    outcome: str  # "recovered" | "rerouted" | "stranded"
    replaced: tuple[tuple[str, str], ...]
    unrecoverable: tuple[str, ...]
    degraded: tuple[str, ...]
    circuit_switches_touched: int
    recovery_time: float
    source: str = "report"
    #: The fencing epoch the committing primary held.  Deliberately
    #: *not* part of :data:`~repro.service.replay.DecisionKey`: a
    #: takeover changes the stamp, never the decision.
    epoch: int = 0

    @classmethod
    def from_report(
        cls,
        seq: int,
        pending: PendingFailure,
        group: str,
        report: RecoveryReport,
        decided_at: float,
        epoch: int = 0,
    ) -> "FailoverDecision":
        return cls(
            seq=seq,
            kind=pending.kind,
            logical=pending.logical or (report.replaced[0][0]
                                        if report.replaced else ""),
            group=group,
            detected_at=pending.detected_at,
            decided_at=decided_at,
            latency=max(0.0, decided_at - pending.detected_at),
            outcome=report_outcome(report),
            replaced=report.replaced,
            unrecoverable=report.unrecoverable,
            degraded=report.degraded,
            circuit_switches_touched=report.circuit_switches_touched,
            recovery_time=report.recovery_time,
            source=pending.source,
            epoch=epoch,
        )

    def to_dict(self) -> dict[str, object]:
        return {
            "type": "decision",
            "seq": self.seq,
            "kind": self.kind,
            "logical": self.logical,
            "group": self.group,
            "detected_at": self.detected_at,
            "decided_at": self.decided_at,
            "latency": self.latency,
            "outcome": self.outcome,
            "replaced": [list(pair) for pair in self.replaced],
            "unrecoverable": list(self.unrecoverable),
            "degraded": list(self.degraded),
            "circuit_switches_touched": self.circuit_switches_touched,
            "recovery_time": self.recovery_time,
            "source": self.source,
            "epoch": self.epoch,
        }


@dataclass
class _Batch:
    """Work items accumulated since the resolver last woke."""

    items: list[PendingFailure] = field(default_factory=list)


class FailureGroupResolver:
    """Batches correlated failures and commits them group-concurrently."""

    def __init__(
        self,
        controller: ShareBackupController,
        clock: ServiceClock,
        on_decision: Callable[[FailoverDecision], None],
        on_error: Callable[[PendingFailure, Exception], None],
        batch_window: float = 0.0,
        wal: DecisionWAL | None = None,
        federation: ServiceFederation | None = None,
        on_fenced: Callable[
            [PendingFailure, str, int, EpochFencedError], None
        ] | None = None,
    ) -> None:
        if batch_window < 0:
            raise ValueError(f"batch_window must be >= 0, got {batch_window}")
        self.controller = controller
        self.clock = clock
        self.batch_window = batch_window
        self._on_decision = on_decision
        self._on_error = on_error
        self._on_fenced = on_fenced
        self.wal = wal
        self.federation = federation
        self._batch = _Batch()
        self._wakeup: asyncio.Future[None] | None = None
        # Replaying over an existing WAL resumes the sequence spaces
        # where the previous incarnation left them, so resumed work
        # reuses its original keys instead of minting colliding ones.
        # Error tombstones are commits that never took a decision seq.
        self._seq = (
            len(
                {
                    record.key
                    for record in wal.records
                    if record.type == "commit" and "error" not in record.data
                }
            )
            if wal is not None
            else 0
        )
        self._group_seq: dict[str, int] = (
            wal.next_seqs() if wal is not None else {}
        )
        self.batches_resolved = 0

    # ------------------------------------------------------------------
    # producer side
    # ------------------------------------------------------------------

    def submit(self, pending: PendingFailure) -> None:
        """Queue one failure for the next batch and wake the loop."""
        self._batch.items.append(pending)
        if self._wakeup is not None and not self._wakeup.done():
            self._wakeup.set_result(None)

    @property
    def backlog(self) -> int:
        return len(self._batch.items)

    # ------------------------------------------------------------------
    # the resolution loop
    # ------------------------------------------------------------------

    async def run(self) -> None:
        """Forever: wait for work, correlate a batch, commit it."""
        while True:
            if not self._batch.items:
                self._wakeup = asyncio.get_running_loop().create_future()
                try:
                    await self._wakeup
                finally:
                    self._wakeup = None
            if self.batch_window > 0:
                # Let correlated losses pile into the same batch.
                await self.clock.sleep(self.batch_window)
            batch, self._batch = self._batch, _Batch()
            if batch.items:
                await self._resolve_batch(batch.items)

    async def resolve_backlog(self) -> int:
        """Resolve whatever is queued right now (driver/test hook)."""
        batch, self._batch = self._batch, _Batch()
        if batch.items:
            await self._resolve_batch(batch.items)
        return len(batch.items)

    async def _resolve_batch(self, items: list[PendingFailure]) -> None:
        groups = self._correlate(items)
        # Every commit in this batch is stamped with the epoch observed
        # *here*: if the primary is deposed while the batch is in
        # flight, the remaining members fail the fence check instead of
        # landing as the deposed primary's late writes.
        epoch = self.federation.epoch if self.federation is not None else 0
        tasks = [
            asyncio.ensure_future(
                self._resolve_group(group_id, members, epoch)
            )
            for group_id, members in groups
        ]
        if tasks:
            await asyncio.gather(*tasks)
        self.batches_resolved += 1

    def _correlate(
        self, items: list[PendingFailure]
    ) -> list[tuple[str, list[PendingFailure]]]:
        """Partition a batch into failure groups, deterministically.

        Link failures touch two groups (one per endpoint); they are
        keyed by the *pair* so the controller call stays atomic, and
        ordered with node failures by the shared sort key.
        """
        by_group: dict[str, list[PendingFailure]] = {}
        for pending in items:
            try:
                key = self._group_key(pending)
            # A report naming a device the controller does not own must
            # not kill the resolution loop — it is journalled like any
            # other failed commit and the rest of the batch proceeds.
            except Exception as exc:  # repro: noqa[EXC001]
                self._on_error(pending, exc)
                continue
            by_group.setdefault(key, []).append(pending)
        for members in by_group.values():
            members.sort(key=PendingFailure.sort_key)
        return sorted(by_group.items())

    def _group_key(self, pending: PendingFailure) -> str:
        net = self.controller.net
        if pending.kind == "node":
            return net.group_of(pending.logical).group_id
        parts = []
        assert pending.end_a is not None and pending.end_b is not None
        for device, _iface in (pending.end_a, pending.end_b):
            if not device.startswith("H."):
                parts.append(net.group_of(device).group_id)
        return "+".join(sorted(parts)) or "hosts"

    async def _resolve_group(
        self, group_id: str, members: list[PendingFailure], epoch: int = 0
    ) -> None:
        """Commit one group's failures in order.

        The commit itself is synchronous controller code (two-phase
        validate-then-commit plus the retry/degradation ladder); the
        ``sleep(0)`` between members keeps one exhausted group from
        starving the others of the event loop.

        With a WAL attached each member is write-ahead logged: intents
        for the whole group land *before* the first commit, every
        commit is fence-checked against the batch epoch, and the commit
        record is durable before the decision callback fires — so a
        primary crash inside that callback can never lose the decision
        it interrupts, and replaying an already-committed key is a
        no-op rather than a double commit.
        """
        keyed: list[tuple[PendingFailure, int]] = []
        for pending in members:
            seq = self._wal_seq(group_id, pending)
            keyed.append((pending, seq))
            if self.wal is not None:
                self.wal.append_intent(
                    group_id, seq, epoch, pending.to_payload()
                )
        for pending, seq in keyed:
            if self.wal is not None and self.wal.is_committed(group_id, seq):
                # Idempotent replay: this key was durably decided by a
                # previous incarnation (or an earlier duplicate submit).
                continue
            try:
                if self.federation is not None:
                    self.federation.check_fence(
                        epoch, context=f"{group_id}:{seq}"
                    )
                report = self._commit(pending)
            except EpochFencedError as exc:
                # A deposed primary's late write.  The controller was
                # never touched; the intent stays incomplete for the
                # fenced-in primary to resume.
                if self.wal is not None:
                    self.wal.append_fence(
                        group_id, seq, epoch, {"error": str(exc)}
                    )
                if self._on_fenced is not None:
                    self._on_fenced(pending, group_id, seq, exc)
                continue
            # Every failure is journalled through the on_error callback
            # (service error log + event stream); one poisoned failure
            # must not kill the whole resolution loop.
            except Exception as exc:  # repro: noqa[EXC001]
                # Tombstone the key so takeover replay does not retry a
                # commit that terminally failed (at-most-once errors).
                if self.wal is not None:
                    self.wal.append_commit(
                        group_id,
                        seq,
                        epoch,
                        {"error": type(exc).__name__, "detail": str(exc)},
                    )
                self._on_error(pending, exc)
                continue
            decision = FailoverDecision.from_report(
                self._next_seq(),
                pending,
                group_id,
                report,
                self.clock.now(),
                epoch=epoch,
            )
            if self.wal is not None:
                self.wal.append_commit(group_id, seq, epoch, decision.to_dict())
            self._on_decision(decision)
            await asyncio.sleep(0)

    def _commit(self, pending: PendingFailure) -> RecoveryReport:
        now = self.clock.now()
        if pending.kind == "node":
            return self.controller.handle_node_failure(
                pending.logical, now=now
            )
        assert pending.end_a is not None and pending.end_b is not None
        return self.controller.handle_link_failure(
            pending.end_a,
            pending.end_b,
            now=now,
            true_faulty_interfaces=pending.true_faulty,
        )

    def _next_seq(self) -> int:
        seq = self._seq
        self._seq += 1
        return seq

    def _wal_seq(self, group_id: str, pending: PendingFailure) -> int:
        """Allocate (or reuse) an item's per-group decision_seq.

        Work re-derived from the WAL carries its original key; fresh
        work draws the next sequence number for its group.
        """
        if pending.wal_key is not None and pending.wal_key[0] == group_id:
            return pending.wal_key[1]
        nxt = self._group_seq.get(group_id, 0)
        self._group_seq[group_id] = nxt + 1
        return nxt
