"""Property-based tests for the memory-system substrate."""

from hypothesis import given, settings, strategies as st

from repro.core.schedulers import OccupancyRing
from repro.mem.cache import Cache
from repro.mem.nvm import NVMConfig, NVMModel
from repro.mem.wpq import REQUIRED_ITEMS, TupleItem, WritePendingQueue


# ----------------------------------------------------------------------
# WPQ
# ----------------------------------------------------------------------


@given(order=st.permutations(list(TupleItem)))
def test_wpq_completion_independent_of_delivery_order(order):
    """A persist completes exactly when its fourth component arrives,
    regardless of arrival order."""
    wpq = WritePendingQueue()
    wpq.allocate(0)
    for i, item in enumerate(order):
        assert wpq.entry(0).complete == (i == len(order))
        wpq.deliver(0, item)
    assert wpq.entry(0).complete


@given(
    deliveries=st.lists(
        st.tuples(st.integers(0, 4), st.sampled_from(list(TupleItem))),
        max_size=40,
    )
)
def test_wpq_complete_iff_all_items_arrived(deliveries):
    wpq = WritePendingQueue(capacity=8)
    for pid in range(5):
        wpq.allocate(pid)
    seen = {pid: set() for pid in range(5)}
    for pid, item in deliveries:
        if item in seen[pid]:
            continue  # duplicates are rejected by design
        wpq.deliver(pid, item)
        seen[pid].add(item)
    for pid in range(5):
        assert wpq.entry(pid).complete == (seen[pid] == set(REQUIRED_ITEMS))


# ----------------------------------------------------------------------
# OccupancyRing
# ----------------------------------------------------------------------


@given(
    releases=st.lists(st.integers(0, 1000), min_size=1, max_size=50),
    capacity=st.integers(1, 8),
)
def test_ring_admission_never_before_now_and_monotone(releases, capacity):
    ring = OccupancyRing(capacity)
    admissions = []
    now = 0
    for release in releases:
        admit = ring.admit(now)
        assert admit >= now
        admissions.append(admit)
        ring.occupy(admit + release)
        now = admit
    assert admissions == sorted(admissions)


@given(capacity=st.integers(1, 16), count=st.integers(1, 40))
def test_ring_limits_outstanding_entries(capacity, count):
    """At most ``capacity`` entries can be outstanding at once."""
    ring = OccupancyRing(capacity)
    admit_times = []
    for i in range(count):
        admit = ring.admit(0)
        admit_times.append(admit)
        ring.occupy(1000 + i)  # all release far in the future
    # The first `capacity` admit immediately; the rest wait for releases.
    assert all(t == 0 for t in admit_times[:capacity])
    assert all(t >= 1000 for t in admit_times[capacity:])


# ----------------------------------------------------------------------
# NVM
# ----------------------------------------------------------------------


@given(times=st.lists(st.integers(0, 10_000), min_size=1, max_size=60))
def test_nvm_read_completion_after_request(times):
    nvm = NVMModel(NVMConfig())
    now = 0
    for t in sorted(times):
        now = max(now, t)
        done = nvm.read(now)
        assert done >= now + nvm.config.read_latency


@given(count=st.integers(1, 100))
def test_nvm_channel_throughput_bound(count):
    """Back-to-back transfers cannot exceed one per burst slot/channel."""
    cfg = NVMConfig(burst_cycles=10, channels=1, write_queue_size=1024)
    nvm = NVMModel(cfg)
    last = 0
    for _ in range(count):
        last = nvm.write(0)
    assert last >= cfg.write_latency + (count - 1) * cfg.burst_cycles


# ----------------------------------------------------------------------
# cache
# ----------------------------------------------------------------------


@given(blocks=st.lists(st.integers(0, 300), max_size=200))
def test_cache_residency_bounded_by_capacity(blocks):
    cache = Cache("t", size_bytes=8 * 64, assoc=2)
    for block in blocks:
        cache.access(block, is_write=bool(block % 2))
    assert len(cache) <= 8


@given(blocks=st.lists(st.integers(0, 300), max_size=200))
def test_cache_hit_after_access_until_evicted(blocks):
    """An accessed block stays resident at least until `assoc` other
    blocks map into its set."""
    cache = Cache("t", size_bytes=16 * 64, assoc=4)
    for block in blocks:
        cache.access(block, False)
        assert cache.probe(block) is not None
