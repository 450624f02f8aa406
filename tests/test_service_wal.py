"""Tests for :mod:`repro.service.wal` — the write-ahead decision log.

Three layers:

* the codec — checksummed JSON lines round-trip, and anything torn or
  tampered decodes to ``None`` instead of a wrong record;
* recovery — a torn *tail* is truncated and forgotten (the crash case),
  while a corrupt record *followed by* valid ones raises
  :class:`WalCorruptionError` (real damage, never silently skipped);
* replay — appends are idempotent by ``(group, group_seq)``, so
  recovering twice re-executes nothing: the property the takeover path
  stakes its no-duplicate-decisions guarantee on.
"""

import asyncio
import json

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.controller import ControllerCluster, ShareBackupController
from repro.core.sharebackup import ShareBackupNetwork
from repro.service import (
    FailureReport,
    RecoveryService,
    ServiceConfig,
    VirtualClock,
)
from repro.service.wal import (
    DecisionWAL,
    WalCorruptionError,
    WalRecord,
)
from repro.service.wal import _decode, _encode


# ----------------------------------------------------------------------
# codec
# ----------------------------------------------------------------------


class TestCodec:
    def test_round_trip(self):
        record = WalRecord(
            "commit", "pod-0", 3, 2, {"outcome": "backup", "logical": "A.0.0"}
        )
        assert _decode(_encode(record)) == record

    def test_checksum_rejects_tampering(self):
        line = _encode(WalRecord("intent", "pod-0", 0, 1, {"kind": "node"}))
        tampered = line.replace("pod-0", "pod-1")
        assert _decode(tampered) is None

    def test_wrong_crc_rejected(self):
        payload = json.loads(_encode(WalRecord("fence", "g", 0, 1, {})))
        payload["crc"] = (payload["crc"] + 1) & 0xFFFFFFFF
        assert _decode(json.dumps(payload)) is None

    def test_non_json_and_wrong_shapes_rejected(self):
        assert _decode("not json at all") is None
        assert _decode('"a bare string"') is None
        assert _decode('{"no": "crc"}') is None

    def test_unknown_record_type_rejected(self):
        line = _encode(WalRecord("commit", "g", 0, 1, {}))
        payload = json.loads(line)
        # Re-sign a record with an out-of-vocabulary type: the CRC passes
        # but the vocabulary check must still refuse it.
        import zlib

        payload.pop("crc")
        payload["type"] = "rollback"
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        payload["crc"] = zlib.crc32(canonical.encode()) & 0xFFFFFFFF
        assert _decode(
            json.dumps(payload, sort_keys=True, separators=(",", ":"))
        ) is None


# ----------------------------------------------------------------------
# in-memory semantics
# ----------------------------------------------------------------------


class TestInMemory:
    def test_appends_are_idempotent_by_key(self):
        wal = DecisionWAL()
        assert wal.append_intent("g", 0, 1, {"p": 1})
        assert not wal.append_intent("g", 0, 1, {"p": 2})  # duplicate intent
        assert wal.append_commit("g", 0, 1, {"d": 1})
        assert not wal.append_commit("g", 0, 1, {"d": 2})  # duplicate commit
        assert not wal.append_intent("g", 0, 2, {"p": 3})  # committed already
        assert wal.stats()["records"] == 2

    def test_incomplete_is_intents_minus_commits_in_order(self):
        wal = DecisionWAL()
        wal.append_intent("g", 0, 1, {"n": 0})
        wal.append_intent("h", 0, 1, {"n": 1})
        wal.append_intent("g", 1, 1, {"n": 2})
        wal.append_commit("h", 0, 1, {})
        assert [r.key for r in wal.incomplete()] == [("g", 0), ("g", 1)]
        wal.append_commit("g", 0, 1, {})
        wal.append_commit("g", 1, 1, {})
        assert wal.incomplete() == []

    def test_fences_are_audit_only(self):
        wal = DecisionWAL()
        wal.append_intent("g", 0, 1, {})
        wal.append_fence("g", 0, 1, {"holder_epoch": 1, "current_epoch": 2})
        assert len(wal.fences) == 1
        # The fenced intent stays incomplete — fences never resolve work.
        assert [r.key for r in wal.incomplete()] == [("g", 0)]
        assert not wal.is_committed("g", 0)

    def test_next_seqs_spans_intents_and_commits(self):
        wal = DecisionWAL()
        wal.append_intent("g", 0, 1, {})
        wal.append_intent("g", 2, 1, {})
        wal.append_commit("h", 5, 1, {})
        assert wal.next_seqs() == {"g": 3, "h": 6}
        assert DecisionWAL().next_seqs() == {}

    def test_stats_shape(self):
        wal = DecisionWAL()
        wal.append_intent("g", 0, 1, {})
        assert wal.stats() == {
            "records": 1, "intents": 1, "commits": 0, "fences": 0,
            "incomplete": 1, "truncated_bytes": 0, "path": None,
        }


# ----------------------------------------------------------------------
# durability and recovery
# ----------------------------------------------------------------------


class TestRecovery:
    def test_reopen_restores_every_record(self, tmp_path):
        path = tmp_path / "decisions.wal"
        with DecisionWAL(path) as wal:
            wal.append_intent("g", 0, 1, {"kind": "node"})
            wal.append_commit("g", 0, 1, {"outcome": "backup"})
            wal.append_intent("g", 1, 1, {"kind": "node"})
            wal.append_fence("g", 1, 1, {"holder_epoch": 1})
        with DecisionWAL(path) as reopened:
            assert [r.type for r in reopened.records] == [
                "intent", "commit", "intent", "fence",
            ]
            assert reopened.is_committed("g", 0)
            assert [r.key for r in reopened.incomplete()] == [("g", 1)]
            assert reopened.truncated_bytes == 0

    def test_torn_tail_is_truncated_not_fatal(self, tmp_path):
        path = tmp_path / "decisions.wal"
        with DecisionWAL(path) as wal:
            wal.append_commit("g", 0, 1, {"outcome": "backup"})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type":"commit","group":"g","gro')  # torn write
        with DecisionWAL(path) as reopened:
            assert reopened.committed_keys() == [("g", 0)]
            assert reopened.truncated_bytes > 0
        # The truncation is durable: a third open sees a clean log.
        with DecisionWAL(path) as third:
            assert third.truncated_bytes == 0
            assert third.committed_keys() == [("g", 0)]

    def test_valid_json_without_newline_is_torn(self, tmp_path):
        path = tmp_path / "decisions.wal"
        with DecisionWAL(path) as wal:
            wal.append_commit("g", 0, 1, {})
            line = _encode(WalRecord("commit", "g", 1, 1, {}))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(line)  # no trailing newline: cut mid-flush
        with DecisionWAL(path) as reopened:
            assert reopened.committed_keys() == [("g", 0)]
            assert reopened.truncated_bytes == len(line)

    def test_mid_log_corruption_raises(self, tmp_path):
        path = tmp_path / "decisions.wal"
        with DecisionWAL(path) as wal:
            wal.append_commit("g", 0, 1, {})
            wal.append_commit("g", 1, 1, {})
        raw = path.read_text().splitlines()
        raw[0] = raw[0].replace('"epoch":1', '"epoch":9')  # breaks the CRC
        path.write_text("\n".join(raw) + "\n")
        with pytest.raises(WalCorruptionError):
            DecisionWAL(path)

    def test_missing_file_is_an_empty_log(self, tmp_path):
        wal = DecisionWAL(tmp_path / "fresh.wal")
        assert wal.records == ()
        wal.append_commit("g", 0, 1, {})
        wal.close()
        assert (tmp_path / "fresh.wal").exists()

    def test_appends_after_reopen_stay_idempotent(self, tmp_path):
        path = tmp_path / "decisions.wal"
        with DecisionWAL(path) as wal:
            wal.append_intent("g", 0, 1, {"p": 1})
            wal.append_commit("g", 0, 1, {"d": 1})
        with DecisionWAL(path) as reopened:
            assert not reopened.append_commit("g", 0, 2, {"d": 2})
            assert not reopened.append_intent("g", 0, 2, {"p": 2})
        with DecisionWAL(path) as third:
            assert third.stats()["records"] == 2  # nothing was re-appended


# ----------------------------------------------------------------------
# crash consistency at every byte offset
# ----------------------------------------------------------------------


async def _record_service_wal(path):
    """A service run that logs every record kind: two intents in one
    group, a decision, a fence from a mid-batch primary crash, the
    fenced member's decision under the new epoch, and a tombstone for
    a commit the halted controller refuses."""
    controller = ShareBackupController(ShareBackupNetwork(4, 1))
    clock = VirtualClock()
    service = RecoveryService(
        controller,
        clock=clock,
        config=ServiceConfig(scan_interval=3600.0),
        cluster=ControllerCluster(controller=controller),
        wal=DecisionWAL(path),
    )
    await service.start()
    service.federation.arm_primary_crash(1)
    for slot in ("A.0.0", "A.0.1"):
        service.submit_failure(FailureReport("node", logical=slot))
    await clock.run_until(1.0)
    controller.halted = True
    service.submit_failure(FailureReport("node", logical="E.1.0"))
    await clock.run_until(2.0)
    await service.stop()
    service.wal.close()


@pytest.fixture(scope="module")
def recorded_wal(tmp_path_factory):
    path = tmp_path_factory.mktemp("wal") / "recorded.wal"
    asyncio.run(_record_service_wal(path))
    with DecisionWAL(path) as wal:
        records = wal.records
    tombstones = [r for r in records if r.type == "commit" and "error" in r.data]
    assert {r.type for r in records} == {"intent", "commit", "fence"}
    assert len(tombstones) == 1
    return path.read_bytes(), records


def _reopened_records(path, raw):
    path.write_bytes(raw)
    with DecisionWAL(path) as wal:
        return wal.records


def test_every_truncation_recovers_a_prefix(recorded_wal, tmp_path):
    raw, records = recorded_wal
    path = tmp_path / "cut.wal"
    for offset in range(len(raw) + 1):
        got = _reopened_records(path, raw[:offset])
        assert got == records[: len(got)], offset
    assert got == records


def test_every_bit_flip_is_corruption_or_a_prefix(recorded_wal, tmp_path):
    raw, records = recorded_wal
    path = tmp_path / "flipped.wal"
    corrupt = 0
    for offset in range(len(raw)):
        flipped = bytearray(raw)
        flipped[offset] ^= 1 << (offset % 8)
        try:
            got = _reopened_records(path, bytes(flipped))
        except WalCorruptionError:
            corrupt += 1
            continue
        assert got == records[: len(got)] and len(got) < len(records), offset
    assert corrupt > 0


# ----------------------------------------------------------------------
# the idempotent-replay property
# ----------------------------------------------------------------------

# A run is a sequence of decisions; a crash may interrupt it anywhere.
decision_runs = st.lists(
    st.tuples(
        st.sampled_from(["g0", "g1", "g2"]),  # failure group
        st.booleans(),  # whether the commit landed before the crash
    ),
    min_size=0,
    max_size=40,
)


@given(decision_runs)
@settings(max_examples=100, deadline=None)
def test_double_recovery_commits_nothing_twice(tmp_path_factory, runs):
    """Recovering twice (or n times) yields zero duplicate commits.

    Model: a primary logs intent for every decision, commits some, then
    crashes.  Each successor replays ``incomplete()`` and commits it all.
    However many successors take over in sequence, each key commits
    exactly once — the at-most-once half of the takeover guarantee.
    """
    path = tmp_path_factory.mktemp("wal") / "decisions.wal"
    seqs: dict[str, int] = {}
    with DecisionWAL(path) as wal:
        for group, committed in runs:
            seq = seqs.get(group, 0)
            seqs[group] = seq + 1
            assert wal.append_intent(group, seq, 1, {"group": group})
            if committed:
                assert wal.append_commit(group, seq, 1, {"n": seq})
    committed_before = None
    for takeover in range(2):  # two successive takeovers
        with DecisionWAL(path) as wal:
            if committed_before is not None:
                # The second takeover finds the first one's work done.
                assert sorted(wal.committed_keys()) == committed_before
                assert wal.incomplete() == []
            fresh = 0
            for record in wal.incomplete():
                assert wal.append_commit(*record.key, 2, {"resumed": True})
                fresh += 1
            if committed_before is None:
                assert fresh == sum(1 for _, done in runs if not done)
            else:
                assert fresh == 0  # zero duplicate commits on re-recovery
            committed_before = sorted(wal.committed_keys())
    assert committed_before is not None
    assert len(committed_before) == len(runs)
