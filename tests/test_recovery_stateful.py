"""The live recovery stack, stepped next to the reference model.

A hypothesis state machine drives the real controller, resolver,
federation and :class:`DecisionWAL` through a :class:`RecoveryService`
on the virtual clock, and applies every step to
:class:`tests.sharebackup_model.RecoveryModel` as well.  After every
step:

* each failure group's decision stream (``decision_key``, spare
  identity included) and pool state equal the model's;
* :meth:`FailureGroup.validate` passes for every group;
* every circuit switch's port map is still a permutation;
* decision ``seq`` values run 0, 1, 2, … with no gap, across primary
  crashes and process restarts.

Each restart also checks that no task is left pending once ``stop()``
returns.  A restart is a new service and a new WAL object over the same
file and the same controller: the fabric outlives the process.

The fabric is k=6.  Link failures are host–edge and edge–aggregation
links, whose diagnosis always finds a probe partner of its own on a ring
neighbour, so a suspect is exonerated iff its interface is healthy.
A faulty end is only chosen when the model says that end gets a backup.

``test_seeded_service_bugs_are_caught`` execs the shipped service
sources with one seeded concurrency bug each and replays a fixed script
through the same checks.
"""

from __future__ import annotations

import asyncio
import sys
import tempfile
import types
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

import repro.service.resolver as resolver_module
import repro.service.service as service_module
from repro.core.controller import ControllerCluster, ShareBackupController
from repro.core.sharebackup import ShareBackupNetwork
from repro.service import (
    DecisionWAL,
    FailureReport,
    RecoveryService,
    ServiceConfig,
    VirtualClock,
    decision_key,
)
from tests.sharebackup_model import RecoveryModel

K = 6
#: Virtual seconds per step: longer than the controller's 1 s
#: circuit-switch report window, so link reports never add up to a halt.
STEP = 2.0
#: No keep-alives are sent, so the boundary scan must never run.
CONFIG = ServiceConfig(scan_interval=3600.0)

_REFERENCE = ShareBackupNetwork(K, 1)
GROUPS = {gid: group.logical_slots for gid, group in _REFERENCE.groups.items()}
SLOTS = sorted(slot for slots in GROUPS.values() for slot in slots)
#: Host–edge and edge–aggregation links as (end_a, end_b) logical ends.
LINKS = sorted(
    (cs.cable(down)[1], cs.cable(up)[1])
    for name, cs in _REFERENCE.circuit_switches.items()
    if name.startswith(("CS.1.", "CS.2."))
    for down, up in cs.mapping().items()
    if down[0] == "d"
)


class PoisonableController(ShareBackupController):
    """A controller whose next commit for a poisoned slot raises."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.poisoned: set[str] = set()

    def handle_node_failure(self, logical_switch, now=0.0):
        if logical_switch in self.poisoned:
            self.poisoned.discard(logical_switch)
            raise RuntimeError(f"poisoned commit for {logical_switch}")
        return super().handle_node_failure(logical_switch, now)


def _pending_tasks():
    current = asyncio.current_task()
    return [task for task in asyncio.all_tasks() if task is not current]


class Harness:
    """The real stack and the model, stepped together."""

    def __init__(self, n, reroute, service_cls=RecoveryService):
        self.service_cls = service_cls
        self.net = ShareBackupNetwork(K, n)
        self.controller = PoisonableController(
            self.net, degrade_to_reroute=reroute
        )
        self.model = RecoveryModel(
            {
                gid: (group.logical_slots, group.physical_backups)
                for gid, group in self.net.groups.items()
            },
            reroute=reroute,
        )
        self._tmp = tempfile.TemporaryDirectory()
        self.wal_path = Path(self._tmp.name) / "decisions.wal"
        self.loop = asyncio.new_event_loop()
        #: Decisions and error counts of earlier incarnations.
        self.past_decisions = []
        self.past_errors = 0
        self.clock = VirtualClock()
        self._boot()

    # ------------------------------------------------------------------
    # process lifecycle
    # ------------------------------------------------------------------

    def _run(self, coro):
        return self.loop.run_until_complete(coro)

    def _boot(self):
        self.cluster = ControllerCluster(controller=self.controller)
        self.wal = DecisionWAL(self.wal_path)
        self.service = self.service_cls(
            self.controller,
            clock=self.clock,
            config=CONFIG,
            cluster=self.cluster,
            wal=self.wal,
        )
        self.armed = 0
        self._run(self.service.start())
        self._settle()

    async def _stop(self):
        await self.service.stop()
        return _pending_tasks()

    def restart(self):
        leftover = self._run(self._stop())
        assert leftover == [], f"tasks still pending after stop(): {leftover}"
        self.wal.close()
        self.past_decisions += self.service.decisions
        self.past_errors += len(self.service.errors)
        self.clock = VirtualClock(self.clock.now())
        self._boot()

    def close(self):
        try:
            self._run(self.service.stop())
            self._run(_cancel_pending())
        finally:
            self.wal.close()
            self.loop.close()
            self._tmp.cleanup()

    def _settle(self):
        self._run(self.clock.run_until(self.clock.now() + STEP))

    # ------------------------------------------------------------------
    # steps
    # ------------------------------------------------------------------

    def fail_nodes(self, slots, poisoned=()):
        for slot in slots:
            if slot in poisoned:
                self.controller.poisoned.add(slot)
            self.service.submit_failure(FailureReport("node", logical=slot))
        self.model.fail_nodes(s for s in slots if s not in poisoned)
        for _ in poisoned:
            self.model.reject()
        self._settle()

    def fail_link(self, link, faulty_index):
        end_a, end_b = link
        faulty = ()
        if faulty_index is not None:
            device, iface = link[faulty_index]
            # Ground truth lands on a switch the controller takes
            # offline: a faulty interface on a still-serving switch
            # would leave the model's one-fault-per-switch premise.
            if not device.startswith("H.") and self.model.has_spare(device):
                faulty = ((self.model.physical_of(device), iface),)
        self.service.submit_failure(
            FailureReport("link", end_a=end_a, end_b=end_b, true_faulty=faulty)
        )
        self.model.fail_link(end_a, end_b, faulty)
        self._settle()

    def diagnose(self):
        self.controller.run_pending_diagnoses()
        self.model.diagnose()

    def repair(self, physical):
        self.controller.repair(physical)
        self.service.mark_repaired(physical)
        self.model.repair(physical)

    def live_replicas(self):
        return sum(self.cluster.replicas.values())

    def armed_pending(self):
        return self.armed - len(self.service.primary_crashes)

    def crash_primary(self, mid_batch):
        if mid_batch:
            self.service.federation.arm_primary_crash(1)
            self.armed += 1
        else:
            self.service.federation.crash_primary()
        self._settle()

    def restore_replicas(self):
        for replica, up in sorted(self.cluster.replicas.items()):
            if not up:
                self.service.federation.restore(replica)
        self._settle()

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------

    def decisions(self):
        return self.past_decisions + self.service.decisions

    def check(self):
        decisions = self.decisions()
        streams = {}
        for decision in decisions:
            streams.setdefault(decision.group, []).append(
                decision_key(decision)
            )
        assert streams == self.model.streams
        assert (
            self.past_errors + len(self.service.errors) == self.model.errors
        )
        seqs = [decision.seq for decision in decisions]
        assert seqs == list(range(len(decisions))), f"seq gap: {seqs}"
        for gid, group in self.net.groups.items():
            group.validate()
            expected = self.model.groups[gid]
            assert group.assignment == expected.assignment, gid
            assert group.spares == expected.pool, gid
            assert group.offline == expected.offline, gid
        for cs in self.net.circuit_switches.values():
            mapping = cs.mapping()
            for port, peer in mapping.items():
                assert peer != port and mapping.get(peer) == port, cs.name


async def _cancel_pending():
    pending = _pending_tasks()
    for task in pending:
        task.cancel()
    await asyncio.gather(*pending, return_exceptions=True)


class RecoveryMachine(RuleBasedStateMachine):
    @initialize(n=st.integers(1, 2), reroute=st.booleans())
    def build(self, n, reroute):
        self.h = Harness(n, reroute)

    def teardown(self):
        if hasattr(self, "h"):
            self.h.close()

    @rule(slot=st.sampled_from(SLOTS))
    def fail_switch(self, slot):
        self.h.fail_nodes([slot])

    @rule(
        link=st.sampled_from(LINKS),
        faulty=st.sampled_from([0, 1, None]),
    )
    def fail_link(self, link, faulty):
        self.h.fail_link(link, faulty)

    @rule(data=st.data(), gid=st.sampled_from(sorted(GROUPS)))
    def concurrent_reports(self, data, gid):
        slots = data.draw(
            st.lists(
                st.sampled_from(GROUPS[gid]), min_size=2, max_size=3,
                unique=True,
            )
        )
        self.h.fail_nodes(slots)

    @rule(slot=st.sampled_from(SLOTS))
    def poisoned_report(self, slot):
        self.h.fail_nodes([slot], poisoned=[slot])

    @rule()
    def diagnose(self):
        self.h.diagnose()

    @precondition(lambda self: self.h.model.offline())
    @rule(data=st.data())
    def repair(self, data):
        self.h.repair(data.draw(st.sampled_from(self.h.model.offline())))

    @precondition(
        lambda self: self.h.live_replicas() - self.h.armed_pending() >= 2
    )
    @rule(mid_batch=st.booleans())
    def crash_primary(self, mid_batch):
        self.h.crash_primary(mid_batch)

    @precondition(lambda self: self.h.live_replicas() < 3)
    @rule()
    def restore_replicas(self):
        self.h.restore_replicas()

    @rule()
    def restart(self):
        self.h.restart()

    @invariant()
    def matches_the_model(self):
        self.h.check()


RecoveryMachine.TestCase.settings = settings(
    max_examples=50, stateful_step_count=30, deadline=None
)
TestRecoveryMachine = RecoveryMachine.TestCase


# ----------------------------------------------------------------------
# the decision seq after a restart over error tombstones
# ----------------------------------------------------------------------


def test_restart_after_tombstone_keeps_seq_contiguous():
    """A tombstone never took a decision seq, so a restart must not
    skip one: incarnation 1 decides seq 0 and tombstones a poisoned
    commit, and the first decision of incarnation 2 is seq 1."""
    h = Harness(n=1, reroute=True)
    try:
        h.fail_nodes(["A.0.0"])
        h.fail_nodes(["A.1.0"], poisoned=["A.1.0"])
        assert [r.type for r in h.wal.records].count("commit") == 2
        h.restart()
        h.fail_nodes(["A.2.0"])
        assert [d.seq for d in h.decisions()] == [0, 1]
        h.check()
    finally:
        h.close()


# ----------------------------------------------------------------------
# seeded concurrency bugs in the shipped service sources
# ----------------------------------------------------------------------

#: ``mutation: (module, ((anchor, replacement), ...))`` edits of the
#: shipped sources.  SVC010 splits the decision counter's read and
#: write across an await; SVC011 drops the handles of the service's
#: tasks, so ``stop()`` cancels nothing; SVC013 moves the counter to
#: module scope, shared by every resolver in the process.
SERVICE_MUTATIONS = {
    "SVC010": (
        resolver_module,
        (
            (
                "            self._on_decision(decision)\n"
                "            await asyncio.sleep(0)\n",
                "            self._on_decision(decision)\n"
                "            seq_snapshot = self._seq\n"
                "            await asyncio.sleep(0)\n"
                "            self._seq = seq_snapshot + 1\n",
            ),
        ),
    ),
    "SVC011": (
        service_module,
        (("        self._tasks = [\n", "        [\n"),),
    ),
    "SVC013": (
        resolver_module,
        (
            (
                "class FailureGroupResolver:\n",
                "_NEXT_SEQ = 0\n\n\nclass FailureGroupResolver:\n",
            ),
            (
                "            decision = FailoverDecision.from_report(\n"
                "                self._next_seq(),\n",
                "            global _NEXT_SEQ\n"
                "            _NEXT_SEQ += 1\n"
                "            decision = FailoverDecision.from_report(\n"
                "                _NEXT_SEQ - 1,\n",
            ),
        ),
    ),
}


def _scripted_run(service_cls):
    """Two fresh services in one process, each with a concurrent batch,
    a second batch, a restart and a third batch."""
    for _ in range(2):
        h = Harness(n=1, reroute=True, service_cls=service_cls)
        try:
            for step in (
                lambda: h.fail_nodes(["A.0.0", "A.0.1"]),
                lambda: h.fail_nodes(["C.0", "E.1.0"]),
                h.restart,
                lambda: h.fail_nodes(["A.2.0"]),
            ):
                step()
                h.check()
        finally:
            h.close()


@pytest.mark.parametrize("mutation", sorted(SERVICE_MUTATIONS))
def test_seeded_service_bugs_are_caught(mutation, monkeypatch):
    module, edits = SERVICE_MUTATIONS[mutation]
    source = Path(module.__file__).read_text(encoding="utf-8")
    for anchor, replacement in edits:
        assert anchor in source, f"mutation anchor for {mutation} drifted"
        source = source.replace(anchor, replacement)
    mutated = types.ModuleType(f"{module.__name__}_{mutation}")
    mutated.__package__ = "repro.service"
    # Dataclass field annotations resolve through sys.modules.
    monkeypatch.setitem(sys.modules, mutated.__name__, mutated)
    exec(compile(source, mutated.__name__, "exec"), mutated.__dict__)

    _scripted_run(RecoveryService)
    if module is resolver_module:
        monkeypatch.setattr(
            service_module, "FailureGroupResolver",
            mutated.FailureGroupResolver,
        )
        service_cls = RecoveryService
    else:
        service_cls = mutated.RecoveryService
    with pytest.raises(AssertionError):
        _scripted_run(service_cls)
