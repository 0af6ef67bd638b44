"""Unit and property tests for redundancy policies (replication + EC)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import UnrecoverableDataError
from repro.storage.redundancy import erasure_coding_policy
from repro.storage.replication import Replication


def test_replication_parameters():
    policy = Replication(3)
    assert policy.width == 3
    assert policy.fault_tolerance == 2
    assert policy.storage_overhead == 3.0


def test_replication_rejects_zero_copies():
    with pytest.raises(ValueError):
        Replication(0)


def test_replication_fragments_identical():
    policy = Replication(3)
    fragments = policy.fragment(b"same")
    assert fragments == [b"same"] * 3


def test_replication_assemble_any_survivor():
    policy = Replication(3)
    assert policy.assemble([None, b"data", None], 4) == b"data"


def test_replication_all_lost_raises():
    policy = Replication(2)
    with pytest.raises(UnrecoverableDataError):
        policy.assemble([None, None], 4)


def test_replication_wrong_width_raises():
    policy = Replication(2)
    with pytest.raises(ValueError):
        policy.assemble([b"x"], 1)


def test_replication_repair_copies_survivor():
    policy = Replication(3)
    assert policy.repair([b"abc", None, None], 1, 3) == b"abc"


def test_ec_parameters():
    policy = erasure_coding_policy(4, 2)
    assert policy.width == 6
    assert policy.fault_tolerance == 2
    assert policy.storage_overhead == 1.5


def test_ec_roundtrip():
    policy = erasure_coding_policy(4, 2)
    data = b"disaggregate everything" * 10
    fragments = policy.fragment(data)
    assert len(fragments) == 6
    assert policy.assemble(list(fragments), len(data)) == data


def test_ec_repair_restores_exact_fragment():
    policy = erasure_coding_policy(4, 2)
    data = b"rebuild me" * 20
    fragments = list(policy.fragment(data))
    lost = fragments[3]
    fragments[3] = None
    assert policy.repair(fragments, 3, len(data)) == lost


def test_ec_repair_nothing_left_raises():
    policy = erasure_coding_policy(2, 1)
    with pytest.raises(UnrecoverableDataError):
        policy.repair([None, None, None], 0, 8)


def test_describe_mentions_parameters():
    text = erasure_coding_policy(4, 2).describe()
    assert "6" in text and "1.50x" in text


POLICIES = [
    lambda: Replication(2),
    lambda: Replication(3),
    lambda: erasure_coding_policy(4, 2),
    lambda: erasure_coding_policy(8, 3),
]


@pytest.mark.parametrize("build_redundancy", POLICIES)
def test_overhead_invariant(build_redundancy):
    """Physical fragments always total >= logical bytes x overhead (±pad)."""
    policy = build_redundancy()
    data = b"q" * 1000
    fragments = policy.fragment(data)
    physical = sum(len(f) for f in fragments)
    assert physical >= len(data)
    assert physical == pytest.approx(
        len(data) * policy.storage_overhead, rel=0.05
    )


@settings(max_examples=25, deadline=None)
@given(data=st.binary(min_size=1, max_size=500),
       which=st.integers(min_value=0, max_value=3))
def test_any_policy_tolerates_declared_failures(data, which):
    """Dropping exactly fault_tolerance fragments never loses data."""
    policy = POLICIES[which]()
    fragments: list = list(policy.fragment(data))
    for index in range(policy.fault_tolerance):
        fragments[index] = None
    assert policy.assemble(fragments, len(data)) == data
