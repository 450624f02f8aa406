"""The ``service_storm`` workload: the recovery service under open-loop load.

A wall-clock :class:`RecoveryService` over a ``ShareBackupNetwork(k=8,
n=2)`` (20 failure groups, 4 slots and 2 spares each), run the way
``repro serve`` runs without ``--wal``.  The load is open loop,
generated on the service's own event loop:

* 10,000 synthetic switches heartbeat at 50,000/s in 1 ms ticks, each
  heartbeat stamped with the time its tick was due;
* every 50 ms a correlated burst, due at a fixed time, fails 1-3 slots
  in each of 8 groups drawn by the seed.  A group's third failure finds
  both spares taken and walks the degradation ladder to rerouting;
* 30 ms after a burst was due its pools are repaired (once all of its
  reports are decided, so a slow service cannot have its spares
  refilled under it).

Latencies run from due times, so a stalled loop charges its stall to
every request that waited on it.  The boundary scan is parked as in
:mod:`repro.service.loadgen` (failures arrive by report), and one
:class:`EventBus` subscriber drains the stream as ``GET /events`` would.

A run is split into sessions, each with its own network, controller
and service.  A traced run has four: two untraced ones give the
end-to-end figures and the baseline of ``trace.overhead_frac``; one
has every service layer wrapped; and one adds a file-backed
:class:`DecisionWAL`, as ``repro serve --wal PATH`` does, with only the
WAL wrapped.  That last session is the one place the WAL append/fsync
path runs.  Its latencies are not reported end to end: they follow the
disk's flush latency, which on a shared 2-vCPU VM drifted tenfold from
one minute to the next (see ``trajectory.json``).
"""

from __future__ import annotations

import asyncio
import gc
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from spans import Tracer, percentile

from repro.core.controller import ShareBackupController
from repro.core.degradation import DegradationReport
from repro.core.sharebackup import ShareBackupNetwork
from repro.service.clock import WallClock
from repro.service.events import Subscription
from repro.service.ingest import FailureReport, Heartbeat
from repro.service.resolver import FailoverDecision
from repro.service.service import RecoveryService, ServiceConfig
from repro.service.wal import DecisionWAL

K, N = 8, 2
SWITCHES = 10_000
TICK = 0.001
HEARTBEATS_PER_TICK = 50
BURST_PERIOD = 0.050
BURST_GROUPS = 8
MAX_FAILURES_PER_GROUP = 3
REPAIR_AFTER = 0.030
#: ``repro serve --heartbeat-queue``: room for ~330 ms of heartbeats,
#: so a loop stalled by slow disk flushes sheds none.
HEARTBEAT_QUEUE = 16_384
SESSIONS = 4
#: The sessions of a traced run, in order.
TRACED_SESSIONS = ("plain", "traced", "plain", "wal")
#: Set-ups timed, and stopped again, before each session; their median
#: with the sessions' own set-ups is ``setup_s``.
EXTRA_SETUPS = 2
#: Give up waiting for outstanding decisions after this long.
SETTLE_TIMEOUT = 5.0


@dataclass
class Session:
    kind: str  # "plain" | "traced" | "wal"
    setup_s: float = 0.0
    latencies: list[float] = field(default_factory=list)
    burst_recovery: list[float] = field(default_factory=list)
    lateness: list[float] = field(default_factory=list)
    heartbeats_sent: int = 0
    reports_sent: int = 0
    reports_rejected: int = 0
    heartbeats_dropped: int = 0
    errors: int = 0
    undecided: int = 0
    batches: int = 0
    events_published: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def offered(self) -> int:
        return self.heartbeats_sent + self.reports_sent

    @property
    def failed(self) -> int:
        return (
            self.reports_rejected + self.errors + self.undecided
            + self.heartbeats_dropped
        )


class _Probe:
    """What the traced wrappers need to know about outstanding reports."""

    def __init__(self, service: RecoveryService) -> None:
        self.clock = service.clock
        #: logical slot -> (burst index, due time) of its latest report.
        self.report: dict[str, tuple[int, float]] = {}
        #: synthetic switch -> due time of its latest heartbeat.
        self.heartbeat_due: dict[str, float] = {}

    def rid(self, logical: object) -> str | None:
        entry = self.report.get(logical)  # type: ignore[arg-type]
        return None if entry is None else f"{entry[0]}:{logical}"


def _install(tracer: Tracer, service: RecoveryService, probe: _Probe) -> None:
    """Wrap the service's layers for one traced session; with a WAL
    attached, wrap only the WAL."""
    if service.wal is not None:
        for method in ("append_intent", "append_commit", "append_fence"):
            tracer.patch(
                service.wal, method, "service.wal.append",
                report_of=lambda _g, _s, _e, data: probe.rid(data.get("logical")),
            )
        return

    def heartbeat_lag(args, _result, _s):
        switch, now = args
        due = probe.heartbeat_due.get(switch)
        if due is not None:
            tracer.sample("heartbeat_lag", now - due)

    def decided(args, report, seconds):
        due = probe.report[args[0]][1]
        tracer.sample("report_wait", probe.clock.now() - seconds - due)
        if report.replaced:
            tracer.sample("recover", seconds)
        elif report.degraded:
            tracer.sample("reroute", seconds)

    tracer.patch(service.fleet, "record", None, after=heartbeat_lag)
    tracer.patch(
        service.controller, "handle_node_failure", "core.controller.decide",
        report_of=probe.rid, after=decided,
    )
    tracer.patch(
        service.bus, "publish", "service.events.publish",
        report_of=lambda event: probe.rid(event.get("logical")),
    )
    for cls in (FailoverDecision, DegradationReport):
        tracer.patch(
            cls, "to_dict", "service.events.serialize",
            report_of=lambda obj: probe.rid(obj.logical),
        )


async def _drain(subscription, seen: dict[str, int]) -> None:
    async for event in subscription:
        kind = str(event.get("type"))
        seen[kind] = seen.get(kind, 0) + 1


async def _set_up(
    seed: int, wal_path: Path | None
) -> tuple[RecoveryService, list[str], Subscription, float]:
    """A started service with its fleet registered and one subscriber;
    returns it with the seconds the set-up took."""
    gc.collect()
    t0 = time.perf_counter()
    net = ShareBackupNetwork(K, N)
    controller = ShareBackupController(net, degrade_to_reroute=True, rng=seed)
    service = RecoveryService(
        controller,
        clock=WallClock(),
        config=ServiceConfig(
            heartbeat_queue_size=HEARTBEAT_QUEUE,
            report_queue_size=4096,
            scan_interval=3600.0,
        ),
        wal=DecisionWAL(wal_path) if wal_path is not None else None,
    )
    fleet = service.fleet.register_many("sw-", SWITCHES)
    subscription = service.bus.subscribe()
    await service.start()
    return service, fleet, subscription, time.perf_counter() - t0


async def _session(
    seed: int,
    index: int,
    seconds: float,
    wal_path: Path | None,
    tracer: Tracer | None,
) -> Session:
    kind = "plain" if tracer is None else "traced" if wal_path is None else "wal"
    out = Session(kind)
    service, fleet, subscription, out.setup_s = await _set_up(seed, wal_path)
    wal = service.wal
    seen: dict[str, int] = {}
    drainer = asyncio.ensure_future(_drain(subscription, seen))
    probe = _Probe(service)
    if tracer is not None:
        _install(tracer, service, probe)
    try:
        await _load(service, fleet, seed, index, seconds, probe, out)
    finally:
        await service.stop()
        await drainer
        if tracer is not None:
            tracer.unpatch()
        if wal is not None:
            wal.close()
    out.batches = service.resolver.batches_resolved
    out.events_published = service.bus.published
    out.errors = len(service.errors)
    out.heartbeats_dropped = service.heartbeats.counters.dropped_oldest
    for name, queue, sent in (
        ("heartbeat", service.heartbeats, out.heartbeats_sent),
        ("report", service.reports, out.reports_sent),
    ):
        counters = queue.counters
        if counters.submitted != sent or counters.submitted != counters.accounted(
            len(queue)
        ):
            out.problems.append(
                f"{name} queue breaks conservation: {counters}, {sent} sent"
            )
    if seen.get("decision", 0) != len(service.decisions) or subscription.dropped:
        out.problems.append(
            f"subscriber saw {seen.get('decision', 0)} of "
            f"{len(service.decisions)} decisions ({subscription.dropped} dropped)"
        )
    if out.errors:
        out.problems.append(f"{out.errors} errors, first {service.errors[0]}")
    if out.undecided:
        out.problems.append(f"{out.undecided} accepted reports never decided")
    if wal_path is not None:
        out.problems += _check_wal(wal_path, service.decisions)
        wal_path.unlink()
    return out


def _check_wal(path: Path, decisions: list[FailoverDecision]) -> list[str]:
    """Reopen the log from disk: it must hold exactly the decisions."""
    reopened = DecisionWAL(path)
    try:
        commits = sorted(
            (r.group, r.data["seq"]) for r in reopened.records if r.type == "commit"
        )
        problems = []
        want = sorted((d.group, d.seq) for d in decisions)
        if commits != want or len(reopened.committed_keys()) != len(decisions):
            problems.append(
                f"WAL holds {len(commits)} commits for {len(decisions)} decisions"
            )
        if reopened.incomplete():
            problems.append(f"WAL has {len(reopened.incomplete())} incomplete intents")
        if reopened.truncated_bytes:
            problems.append(f"WAL truncated {reopened.truncated_bytes} bytes")
        return problems
    finally:
        reopened.close()


async def _load(
    service: RecoveryService,
    fleet: list[str],
    seed: int,
    index: int,
    seconds: float,
    probe: _Probe,
    out: Session,
) -> None:
    """Offer the open-loop schedule, then wait for its decisions."""
    clock = service.clock
    controller = service.controller
    groups = sorted(controller.net.groups)
    rng = random.Random(f"service:{seed}:{index}")
    start = clock.now() + 0.002
    ticks = int(seconds / TICK)
    bursts = int((seconds - REPAIR_AFTER) / BURST_PERIOD)
    burst_due = [start + (b + 0.5) * BURST_PERIOD for b in range(bursts)]
    burst_groups: list[list[str]] = []
    outstanding: list[int] = []  # per burst: accepted reports not yet decided
    pending: dict[tuple[str, float], int] = {}  # (logical, due) -> burst
    next_tick = next_burst = next_repair = decided = 0

    def collect() -> None:
        nonlocal decided
        for decision in service.decisions[decided:]:
            burst = pending.pop((decision.logical, decision.detected_at), None)
            if burst is None:
                out.problems.append(f"decision for no outstanding report: {decision}")
                continue
            out.latencies.append(decision.latency)
            outstanding[burst] -= 1
            if not outstanding[burst]:
                out.burst_recovery.append(decision.decided_at - burst_due[burst])
        decided = len(service.decisions)

    while next_tick < ticks or next_repair < bursts:
        now = clock.now()
        while next_tick < ticks and start + next_tick * TICK <= now:
            due = start + next_tick * TICK
            base = next_tick * HEARTBEATS_PER_TICK
            for j in range(HEARTBEATS_PER_TICK):
                switch = fleet[(base + j) % SWITCHES]
                probe.heartbeat_due[switch] = due
                service.submit_heartbeat(Heartbeat(switch, due))
            out.heartbeats_sent += HEARTBEATS_PER_TICK
            out.lateness.append(now - due)
            next_tick += 1
        while next_burst < bursts and burst_due[next_burst] <= now:
            due = burst_due[next_burst]
            chosen = rng.sample(groups, BURST_GROUPS)
            burst_groups.append(chosen)
            accepted = 0
            for group_id in chosen:
                slots = controller.net.groups[group_id].logical_slots
                count = rng.randint(1, MAX_FAILURES_PER_GROUP)
                for logical in rng.sample(slots, count):
                    probe.report[logical] = (next_burst, due)
                    report = FailureReport(
                        kind="node", logical=logical, reported_at=due
                    )
                    out.reports_sent += 1
                    if service.submit_failure(report):
                        pending[(logical, due)] = next_burst
                        accepted += 1
                    else:
                        out.reports_rejected += 1
            outstanding.append(accepted)
            out.lateness.append(now - due)
            next_burst += 1
        collect()
        while (
            next_repair < next_burst
            and burst_due[next_repair] + REPAIR_AFTER <= now
            and not outstanding[next_repair]
        ):
            for group_id in burst_groups[next_repair]:
                group = controller.net.groups[group_id]
                for physical in sorted(group.offline):
                    controller.repair(physical)
                    service.mark_repaired(physical)
            out.lateness.append(now - burst_due[next_repair] - REPAIR_AFTER)
            next_repair += 1
        wake = start + next_tick * TICK if next_tick < ticks else now + TICK
        await asyncio.sleep(min(max(0.0, wake - clock.now()), TICK))
        if next_tick >= ticks and clock.now() - start > seconds + SETTLE_TIMEOUT:
            break
    collect()
    out.undecided = len(pending) - len(service.errors)


def run(
    seed: int, seconds: float, tracer: Tracer | None, scratch: Path
) -> tuple[list[str], dict[str, float], dict[str, float], int, int, dict]:
    """Run the sessions; returns ``(problems, end_to_end, per_layer,
    attempted, failed, accounting)``."""

    async def main() -> tuple[list[float], list[Session]]:
        setups = []
        sessions = []
        for index, kind in enumerate(
            TRACED_SESSIONS if tracer is not None else ("plain",) * SESSIONS
        ):
            for _ in range(EXTRA_SETUPS):
                service, _fleet, _sub, taken = await _set_up(seed, None)
                setups.append(taken)
                await service.stop()
            wal_path = None
            if kind == "wal":
                wal_path = scratch / f"wal-{seed}.jsonl"
                wal_path.parent.mkdir(parents=True, exist_ok=True)
                wal_path.unlink(missing_ok=True)
            sessions.append(
                await _session(
                    seed, index, seconds / SESSIONS, wal_path,
                    tracer if kind != "plain" else None,
                )
            )
        return setups, sessions

    setups, sessions = asyncio.run(main())
    problems = [f"session {i}: {p}" for i, s in enumerate(sessions) for p in s.problems]
    plain = [s for s in sessions if s.kind == "plain"]
    latencies = [x for s in plain for x in s.latencies]
    e2e = {
        "setup_s": percentile(setups + [s.setup_s for s in sessions], 0.5),
        "latency_p50_ms": percentile(latencies, 0.5) * 1e3,
    }
    accounting = {
        "sessions": len(sessions),
        "decisions": sum(len(s.latencies) for s in sessions),
        "heartbeats_offered": sum(s.heartbeats_sent for s in sessions),
        "reports_offered": sum(s.reports_sent for s in sessions),
        "reports_rejected": sum(s.reports_rejected for s in sessions),
        "errors": sum(s.errors for s in sessions),
        "undecided": sum(s.undecided for s in sessions),
        "heartbeats_dropped": sum(s.heartbeats_dropped for s in sessions),
        "generator_late_p99_ms": percentile(
            [x for s in sessions for x in s.lateness], 0.99
        ) * 1e3,
    }
    layers: dict[str, float] = {}
    if tracer is not None:
        layers = layer_metrics(tracer, sessions)
    attempted = sum(s.offered for s in sessions)
    failed = sum(s.failed for s in sessions)
    return problems, e2e, layers, attempted, failed, accounting


def layer_metrics(tracer: Tracer, sessions: list[Session]) -> dict[str, float]:
    """Layer metrics of the wrapped sessions; end-to-end ones of the rest."""
    untraced = [s for s in sessions if s.kind == "plain"]
    traced = [s for s in sessions if s.kind == "traced"]
    table = tracer.table()
    samples = tracer.samples

    def total(span: str) -> float:
        return table.get(span, {}).get("total_s", 0.0)

    def calls(span: str) -> float:
        return table.get(span, {}).get("calls", 0)

    def p(name: str, q: float, scale: float) -> float:
        return percentile(samples.get(name, []), q) * scale

    decides = calls("core.controller.decide")
    batches = sum(s.batches for s in traced)
    plain = [x for s in untraced for x in s.latencies]
    traced_latencies = [x for s in traced for x in s.latencies]
    plain_p50 = percentile(plain, 0.5)
    wal_latencies = [x for s in sessions if s.kind == "wal" for x in s.latencies]
    return {
        "decision_p50_ms": plain_p50 * 1e3,
        "decision_p99_ms": percentile(plain, 0.99) * 1e3,
        "burst_recovery_p50_ms": percentile(
            [x for s in untraced for x in s.burst_recovery], 0.5
        ) * 1e3,
        "service.ingest.heartbeat_lag_p99_ms": p("heartbeat_lag", 0.99, 1e3),
        "service.ingest.heartbeats_dropped": sum(s.heartbeats_dropped for s in traced),
        "service.ingest.report_wait_p50_ms": p("report_wait", 0.5, 1e3),
        "service.ingest.report_wait_p99_ms": p("report_wait", 0.99, 1e3),
        "service.ingest.reports_rejected": sum(s.reports_rejected for s in traced),
        "service.resolver.batches": batches,
        "service.resolver.items_per_batch": decides / batches if batches else 0.0,
        "core.controller.decide_calls": decides,
        "core.controller.decide_s": total("core.controller.decide"),
        "core.controller.recover_p50_us": p("recover", 0.5, 1e6),
        "core.controller.reroute_p50_us": p("reroute", 0.5, 1e6),
        "core.controller.recovered_frac": (
            len(samples.get("recover", [])) / decides if decides else 0.0
        ),
        "service.events.published": sum(s.events_published for s in traced),
        "service.events.publish_s": total("service.events.publish"),
        "service.events.serialize_s": total("service.events.serialize"),
        "service.wal.decision_p50_ms": percentile(wal_latencies, 0.5) * 1e3,
        "service.wal.appends": calls("service.wal.append"),
        "service.wal.append_s": total("service.wal.append"),
        "service.wal.append_p99_us": percentile(
            tracer.durations("service.wal.append"), 0.99
        ) * 1e6,
        "loadgen.late_p99_ms": percentile(
            [x for s in traced for x in s.lateness], 0.99
        ) * 1e3,
        "loadgen.heartbeats_sent": sum(s.heartbeats_sent for s in traced),
        "loadgen.reports_sent": sum(s.reports_sent for s in traced),
        "trace.overhead_frac": (
            percentile(traced_latencies, 0.5) / plain_p50 - 1.0 if plain_p50 else 0.0
        ),
    }
