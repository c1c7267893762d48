"""What callers and pinned digests rely on in the package's records.

The repr strings are the format tests/churn_digest.py hashes, so they are
pinned exactly. Mutable records compare by value and stay unhashable;
immutable ones compare by value and hash; both build from positional or
keyword arguments with the same defaults.
"""

import pytest

from ffmcast.dataplane import ChainGroup
from ffmcast.failsim import (
    Delivery,
    DeliveryReport,
    FailureCase,
    RecoveryModel,
    RecoveryReport,
    ToleranceReport,
)
from ffmcast.harness import Event, GeoreplayResult, MetricsSnapshot, RunResult, Scenario
from ffmcast.protection import ProtectionConfig
from ffmcast.topology import Link
from ffmcast.trees import MulticastTree

REPRS = [
    (lambda: FailureCase(("A-B",), "B"), "FailureCase(failed=('A-B',), subscriber='B')"),
    (lambda: ToleranceReport(),
     "ToleranceReport(sets_checked=0, baseline_ok=True, unexcused=[], excused=0, "
     "loop_guard_tripped=False, duplicates=0, stray=0, unmatched=0, walks=0)"),
    (lambda: DeliveryReport({"B": Delivery("B", True, 2, 1)}, 0, 1),
     "DeliveryReport(outcomes={'B': Delivery(subscriber='B', delivered=True, hops=2, copies=1)}, "
     "unmatched=0, stray=1, loop_guard_tripped=False, read=0)"),
    (lambda: RecoveryReport("ff", 1, 0.0, 0, None),
     "RecoveryReport(mode='ff', cuts=1, outage_ms=0.0, packets_lost=0, packets_sent=None)"),
    (lambda: RecoveryModel(),
     "RecoveryModel(mode='ff', detection_ms=0.0, rtt_ms=0.0, flowmod_ms=1.0, compute_ms=0.0)"),
    (lambda: ProtectionConfig(), "ProtectionConfig(strategy='spt', max_failures=1)"),
    (lambda: Scenario("A", (Event("join", "B"),)), "Scenario(source='A', events=(Event(op='join', arg='B'),))"),
    (lambda: MetricsSnapshot(0, "init", 0, 1, 2, 3, 4, (("A", 1),), ()),
     "MetricsSnapshot(index=0, event='init', subscribers=0, tags=1, flows_total=2, groups_total=3, "
     "join_calls=4, flows_by_switch=(('A', 1),), groups_by_switch=())"),
    (lambda: ChainGroup(0, "B"), "ChainGroup(owner_tag=0, port='B', drops=(), members=[])"),
    (lambda: MulticastTree("A"),
     "MulticastTree(root='A', tag=0, parent={}, backup={}, terminals=set(), protects=None, down=frozenset())"),
    (lambda: MulticastTree("A", 1, {"B": "A"}, {}, {"B"}, (0, ("A", "B")), frozenset({Link("A", "B")})),
     "MulticastTree(root='A', tag=1, parent={'B': 'A'}, backup={}, terminals={'B'}, "
     "protects=(0, ('A', 'B')), down=frozenset({Link(a='A', b='B')}))"),
    (lambda: GeoreplayResult("geant", "spt", 1, "AT", 2, 1, ((1.0,),), (1.0,), (1,), (2,), (3,), (4,), (5,)),
     "GeoreplayResult(preset='geant', strategy='spt', max_failures=1, source='AT', subscribers=2, "
     "repetitions=1, depths=((1.0,),), mean_depths=(1.0,), tags=(1,), flows_total=(2,), groups_total=(3,), "
     "max_groups_per_switch=(4,), join_calls=(5,))"),
    (lambda: RunResult(None), "RunResult(gs=None, snapshots=[], injections=[], rejected_joins=[])"),
]


@pytest.mark.parametrize("make, expected", REPRS, ids=[r.split("(", 1)[0] for _, r in REPRS])
def test_repr_is_pinned_and_equality_is_by_value(make, expected):
    a, b = make(), make()
    assert repr(a) == expected
    assert a == b and not a != b
    assert a is not b


# (make a record, one of its fields, another value for that field)
MUTABLE = [
    (lambda: MulticastTree("A"), "tag", 3),
    (lambda: ChainGroup(0, "B"), "members", [(1, "C", 0)]),
    (lambda: DeliveryReport({}, 0, 0), "read", 5),
    (lambda: ToleranceReport(), "walks", 7),
    (lambda: RunResult(None), "rejected_joins", ["C"]),
]


@pytest.mark.parametrize("make, name, value", MUTABLE, ids=[make().__class__.__name__ for make, _, _ in MUTABLE])
def test_mutable_records_edit_in_place_and_stay_unhashable(make, name, value):
    a, b = make(), make()
    setattr(a, name, value)
    assert getattr(a, name) == value
    assert a != b
    setattr(b, name, value)
    assert a == b
    with pytest.raises(TypeError):
        hash(a)


def test_mutable_records_compare_only_within_their_class():
    assert DeliveryReport({}, 0, 0) != ToleranceReport()
    assert ToleranceReport() != (0, True, [], 0, False, 0, 0, 0, 0)


FROZEN = [
    lambda: FailureCase(("A-B",), "B"),
    lambda: RecoveryReport("ff", 1, 0.0, 0, None),
    lambda: RecoveryModel("switch", rtt_ms=2.0),
    lambda: ProtectionConfig("dst", 2),
    lambda: Event("join", "B"),
    lambda: Scenario("A", (Event("join", "B"),)),
    lambda: MetricsSnapshot(0, "init", 0, 1, 2, 3, 4, (("A", 1),), ()),
    lambda: GeoreplayResult("geant", "spt", 1, "AT", 2, 1, ((1.0,),), (1.0,), (1,), (2,), (3,), (4,), (5,)),
]


@pytest.mark.parametrize("make", FROZEN, ids=[make().__class__.__name__ for make in FROZEN])
def test_frozen_records_hash_and_refuse_edits(make):
    a, b = make(), make()
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    with pytest.raises(AttributeError):
        setattr(a, a._fields[0], None)


def test_keyword_and_positional_construction_share_defaults():
    assert MulticastTree("A") == MulticastTree(
        root="A", tag=0, parent={}, backup={}, terminals=set(), protects=None, down=frozenset())
    assert MulticastTree("A", 2, {"B": "A"}) == MulticastTree(root="A", tag=2, parent={"B": "A"})
    assert ChainGroup(1, "B", (4,), [(2, "B", 1)]) == ChainGroup(
        owner_tag=1, port="B", drops=(4,), members=[(2, "B", 1)])
    assert ChainGroup(1, "B") == ChainGroup(1, "B", (), [])
    assert DeliveryReport({}, 1, 2) == DeliveryReport(outcomes={}, unmatched=1, stray=2,
                                                      loop_guard_tripped=False, read=0)
    assert ToleranceReport(5, False) == ToleranceReport(sets_checked=5, baseline_ok=False, unexcused=[])
    assert RunResult("gs") == RunResult(gs="gs", snapshots=[], injections=[], rejected_joins=[])
    assert ProtectionConfig() == ProtectionConfig("spt", 1) == ProtectionConfig(max_failures=1)
    assert RecoveryModel() == RecoveryModel("ff", 0.0, 0.0, 1.0, 0.0) == RecoveryModel(flowmod_ms=1.0)
    assert Event("wait") == Event(op="wait", arg=None)
    assert FailureCase(failed=(), subscriber="B") == FailureCase((), "B")


def test_each_record_gets_its_own_mutable_defaults():
    a, b = MulticastTree("A"), MulticastTree("A")
    assert a.parent is not b.parent and a.backup is not b.backup and a.terminals is not b.terminals
    assert ChainGroup(0, "B").members is not ChainGroup(0, "B").members
    assert ToleranceReport().unexcused is not ToleranceReport().unexcused
    r, s = RunResult(None), RunResult(None)
    assert r.snapshots is not s.snapshots and r.injections is not s.injections
    assert r.rejected_joins is not s.rejected_joins


def ways(cls, bad):
    """Every public way of making a config with the fields in bad:
    positional, keyword, _make and _replace of a good one."""
    fields = dict(cls()._asdict(), **bad)
    return [
        lambda: cls(*fields.values()),
        lambda: cls(**fields),
        lambda: cls._make(fields.values()),
        lambda: cls()._replace(**bad),
    ]


BAD_CONFIGS = [
    (ProtectionConfig, {"strategy": "widest"}, "unknown join strategy 'widest'"),
    (ProtectionConfig, {"max_failures": -1}, "max_failures must be >= 0"),
    (ProtectionConfig, {"max_failures": 1.5}, "max_failures must be an int, not float"),
    (ProtectionConfig, {"max_failures": True}, "max_failures must be an int, not bool"),
    (RecoveryModel, {"mode": "magic"}, "unknown recovery mode 'magic'"),
    (RecoveryModel, {"detection_ms": -1.0}, "detection_ms must be >= 0"),
    (RecoveryModel, {"rtt_ms": -0.5}, "rtt_ms must be >= 0"),
    (RecoveryModel, {"flowmod_ms": float("inf")}, "flowmod_ms must be finite"),
    (RecoveryModel, {"compute_ms": -2}, "compute_ms must be >= 0"),
]


@pytest.mark.parametrize("cls, bad, message", BAD_CONFIGS, ids=[m for _, _, m in BAD_CONFIGS])
def test_configs_are_checked_on_every_construction_path(cls, bad, message):
    for make in ways(cls, bad):
        with pytest.raises(ValueError, match=message):
            make()


@pytest.mark.parametrize("config", [ProtectionConfig("dst", 2), RecoveryModel("restore", compute_ms=3.0)],
                         ids=["ProtectionConfig", "RecoveryModel"])
def test_configs_are_immutable(config):
    for name in config._fields:
        with pytest.raises(AttributeError):
            setattr(config, name, getattr(config, name))
    with pytest.raises(AttributeError):
        config.other = 1
    assert config._replace() == config and config._replace() is not config
    assert type(config._make(config)) is type(config)
