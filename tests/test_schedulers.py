"""Tests for the scoreboard engine models."""

import pytest

from repro.core.schedulers import (
    CoalescingScoreboard,
    OccupancyRing,
    OutOfOrderScoreboard,
    PipelineScoreboard,
    SequentialScoreboard,
    UnorderedScoreboard,
    make_scoreboard,
)
from repro.core.schemes import UpdateScheme
from repro.crypto.bmt import BMTGeometry


@pytest.fixture
def geometry():
    return BMTGeometry(num_leaves=64, arity=8)  # 3 levels


# ----------------------------------------------------------------------
# occupancy ring
# ----------------------------------------------------------------------


def test_ring_admits_until_full():
    ring = OccupancyRing(capacity=2)
    assert ring.admit(0) == 0
    ring.occupy(100)
    assert ring.admit(0) == 0
    ring.occupy(200)
    assert ring.admit(0) == 100  # waits for the oldest release
    ring.occupy(300)
    assert ring.admit(250) == 250  # 100 and 200 have released


def test_ring_fifo_release_order():
    ring = OccupancyRing(capacity=1)
    ring.occupy(100)
    ring.occupy(50)  # releases FIFO: clamped to 100
    assert ring.admit(0) == 100


def test_ring_invalid_capacity():
    with pytest.raises(ValueError):
        OccupancyRing(0)


# ----------------------------------------------------------------------
# sequential
# ----------------------------------------------------------------------


def test_sequential_back_to_back(geometry):
    sb = SequentialScoreboard(geometry, mac_latency=40)
    assert sb.submit(0, 0, arrival=0) == 120
    assert sb.submit(1, 1, arrival=0) == 240
    assert sb.engine_busy_until() == 240


def test_sequential_idle_gap(geometry):
    sb = SequentialScoreboard(geometry, mac_latency=40)
    sb.submit(0, 0, arrival=0)
    assert sb.submit(1, 1, arrival=1000) == 1120


# ----------------------------------------------------------------------
# pipeline
# ----------------------------------------------------------------------


def test_pipeline_throughput_one_per_stage(geometry):
    sb = PipelineScoreboard(geometry, mac_latency=40)
    completions = [sb.submit(i, i, arrival=0) for i in range(4)]
    assert completions == [120, 160, 200, 240]


def test_pipeline_respects_arrival(geometry):
    sb = PipelineScoreboard(geometry, mac_latency=40)
    sb.submit(0, 0, arrival=0)
    assert sb.submit(1, 1, arrival=500) == 620


def test_pipeline_root_updates_in_order(geometry):
    sb = PipelineScoreboard(geometry, mac_latency=40)
    times = [sb.submit(i, (i * 7) % 64, arrival=i * 3) for i in range(10)]
    assert times == sorted(times)


# ----------------------------------------------------------------------
# unordered
# ----------------------------------------------------------------------


def test_unordered_never_waits(geometry):
    sb = UnorderedScoreboard(geometry, mac_latency=40)
    assert sb.submit(0, 0, arrival=17) == 17
    assert sb.node_update_count == 3  # updates still happen


# ----------------------------------------------------------------------
# out-of-order
# ----------------------------------------------------------------------


def test_o3_epoch_roots_gated_on_prior_epoch(geometry):
    sb = OutOfOrderScoreboard(geometry, mac_latency=40)
    first = sb.submit_epoch([(0, 0), (1, 1)], arrival=0)
    second = sb.submit_epoch([(2, 2), (3, 3)], arrival=0)
    assert min(second) >= max(first)


def test_o3_admission_gated_two_epochs_back(geometry):
    sb = OutOfOrderScoreboard(geometry, mac_latency=40, ett_capacity=2)
    e0 = sb.submit_epoch([(0, 0)], arrival=0)
    sb.submit_epoch([(1, 1)], arrival=0)
    e2 = sb.submit_epoch([(2, 2)], arrival=0)
    assert min(e2) - 120 >= max(e0)


def test_o3_parallel_within_epoch(geometry):
    sb = OutOfOrderScoreboard(geometry, mac_latency=40)
    completions = sb.submit_epoch([(i, i) for i in range(8)], arrival=0)
    spread = max(completions) - min(completions)
    assert spread <= 8  # issue port spacing, not serial 120-cycle steps


def test_o3_wpq_ring_limits_flush_issue(geometry):
    ring = OccupancyRing(capacity=2)
    sb = OutOfOrderScoreboard(geometry, mac_latency=40, wpq_ring=ring)
    sb.submit_epoch([(i, i) for i in range(6)], arrival=0)
    # With 2 WPQ slots, later persists waited for earlier completions.
    assert sb.last_issue_time > 0


# ----------------------------------------------------------------------
# coalescing
# ----------------------------------------------------------------------


def test_coalescing_counts_fewer_updates(geometry):
    o3 = OutOfOrderScoreboard(geometry, mac_latency=40)
    coal = CoalescingScoreboard(geometry, mac_latency=40)
    persists = [(i, i) for i in range(8)]
    o3.submit_epoch(persists, arrival=0)
    coal.submit_epoch(persists, arrival=0)
    assert coal.node_update_count < o3.node_update_count
    assert coal.coalesced_away == o3.node_update_count - coal.node_update_count


def test_coalescing_delegates_complete_with_final_delegate(geometry):
    sb = CoalescingScoreboard(geometry, mac_latency=40)
    leading, trailing = sb.submit_epoch([(0, 0), (1, 1)], arrival=0)
    # The leading persist's root ack comes from the trailing persist.
    assert leading == trailing


def test_coalescing_cross_epoch_ordering_kept(geometry):
    sb = CoalescingScoreboard(geometry, mac_latency=40)
    first = sb.submit_epoch([(0, 0), (1, 1)], arrival=0)
    second = sb.submit_epoch([(2, 32), (3, 33)], arrival=0)
    assert min(second) >= max(first)


# ----------------------------------------------------------------------
# factory
# ----------------------------------------------------------------------


def test_make_scoreboard_types(geometry):
    assert isinstance(
        make_scoreboard(UpdateScheme.SP, geometry), SequentialScoreboard
    )
    assert isinstance(
        make_scoreboard(UpdateScheme.SECURE_WB, geometry), SequentialScoreboard
    )
    assert isinstance(
        make_scoreboard(UpdateScheme.PIPELINE, geometry), PipelineScoreboard
    )
    assert isinstance(
        make_scoreboard(UpdateScheme.UNORDERED, geometry), UnorderedScoreboard
    )
    assert isinstance(make_scoreboard(UpdateScheme.O3, geometry), OutOfOrderScoreboard)
    assert isinstance(
        make_scoreboard(UpdateScheme.COALESCING, geometry), CoalescingScoreboard
    )
