"""A pure reference model of ShareBackup recovery (paper §3–4).

The model knows nothing about circuit switches, asyncio, epochs or the
write-ahead log.  It keeps only the state that decides which backup
replaces which failure, and the decision each failure must produce:

* every failure group owns a FIFO pool of free backups (the order in
  which :meth:`FailureGroup.allocate_spare` hands them out);
* a failed switch is *recovered* iff its group has a free backup: the
  backup takes over the logical slot and the failed switch goes
  offline.  With no free backup the slot is *rerouted* (the
  controller degrades to global rerouting) or *stranded*;
* a link failure replaces the switch at each end from that end's own
  group; host ends are never replaced;
* offline diagnosis exonerates every suspect interface that is not
  faulty, and an exonerated switch that went offline rejoins its pool;
* a repaired switch rejoins its pool as a spare.  There is no
  switch-back: the backup keeps serving the slot.

Failures that reach one group at the same instant are resolved in name
order, and a failure whose commit errors changes nothing.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

#: ``(kind, logical, outcome, replaced, unrecoverable, degraded)``, the
#: shape of :func:`repro.service.replay.decision_key`.
DecisionKey = tuple[
    str, str, str, tuple[tuple[str, str], ...], tuple[str, ...], tuple[str, ...]
]

#: ``(device, interface)``: a logical link end, or a physical suspect.
End = tuple[str, tuple]


@dataclass
class GroupModel:
    """One failure group: who serves each slot, and the free pool."""

    assignment: dict[str, str]
    pool: list[str]
    offline: set[str] = field(default_factory=set)


class RecoveryModel:
    """ShareBackup recovery semantics, one decision per failure."""

    def __init__(
        self,
        groups: Mapping[str, tuple[Sequence[str], Sequence[str]]],
        reroute: bool,
    ) -> None:
        """``groups`` maps a group id to its (logical slots, backups)."""
        self.groups = {
            gid: GroupModel({slot: slot for slot in slots}, list(backups))
            for gid, (slots, backups) in groups.items()
        }
        self._group_of = {
            slot: gid for gid, (slots, _) in groups.items() for slot in slots
        }
        self.reroute = reroute
        #: Ground-truth faulty interfaces, on physical switches.
        self.faults: set[End] = set()
        #: Suspect ends of each link failure awaiting diagnosis.
        self.pending: list[tuple[End, ...]] = []
        #: Decisions per resolver key (group id, or ``"a+b"`` for links).
        self.streams: dict[str, list[DecisionKey]] = {}
        self.errors = 0

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def group_of(self, slot: str) -> str:
        return self._group_of[slot]

    def physical_of(self, slot: str) -> str:
        return self.groups[self.group_of(slot)].assignment[slot]

    def has_spare(self, slot: str) -> bool:
        return bool(self.groups[self.group_of(slot)].pool)

    def offline(self) -> list[str]:
        return sorted(p for g in self.groups.values() for p in g.offline)

    # ------------------------------------------------------------------
    # failures
    # ------------------------------------------------------------------

    def fail_nodes(self, slots: Iterable[str]) -> None:
        """Switch failures reported together, resolved in name order."""
        for slot in sorted(slots):
            replaced, lost = self._replace(slot)
            self._decide(self.group_of(slot), "node", slot, replaced, lost)

    def fail_link(self, end_a: End, end_b: End, faulty: Iterable[End]) -> None:
        """A link failure; ``faulty`` is the physical ground truth."""
        self.faults.update(faulty)
        replaced: list[tuple[str, str]] = []
        lost: list[str] = []
        suspects: list[End] = []
        keys: list[str] = []
        for device, iface in (end_a, end_b):
            if device.startswith("H."):
                continue
            keys.append(self.group_of(device))
            suspects.append((self.physical_of(device), iface))
            got, missing = self._replace(device)
            replaced += got
            lost += missing
        self.pending.append(tuple(suspects))
        logical = replaced[0][0] if replaced else ""
        self._decide("+".join(sorted(keys)), "link", logical, replaced, lost)

    def reject(self) -> None:
        """A failure whose commit raised: an error, and no state change."""
        self.errors += 1

    # ------------------------------------------------------------------
    # diagnosis and repair
    # ------------------------------------------------------------------

    def diagnose(self) -> None:
        """Every healthy suspect interface exonerates its switch."""
        for suspects in self.pending:
            for end in suspects:
                if end not in self.faults:
                    self._reinstate(end[0])
        self.pending = []

    def repair(self, physical: str) -> None:
        self._reinstate(physical)

    # ------------------------------------------------------------------

    def _replace(self, slot: str) -> tuple[list[tuple[str, str]], list[str]]:
        group = self.groups[self.group_of(slot)]
        if not group.pool:
            return [], [slot]
        spare = group.pool.pop(0)
        group.offline.add(group.assignment[slot])
        group.assignment[slot] = spare
        return [(slot, spare)], []

    def _reinstate(self, physical: str) -> None:
        for group in self.groups.values():
            if physical in group.offline:
                group.offline.discard(physical)
                group.pool.append(physical)
                self.faults = {f for f in self.faults if f[0] != physical}
                return

    def _decide(
        self,
        key: str,
        kind: str,
        logical: str,
        replaced: list[tuple[str, str]],
        lost: list[str],
    ) -> None:
        if not lost:
            outcome = "recovered"
        else:
            outcome = "rerouted" if self.reroute else "stranded"
        degraded = tuple(lost) if self.reroute else ()
        self.streams.setdefault(key, []).append(
            (kind, logical, outcome, tuple(replaced), tuple(lost), degraded)
        )
