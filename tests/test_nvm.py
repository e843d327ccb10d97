"""Tests for the NVM timing model."""

from repro.mem.nvm import NVMConfig, NVMModel
from repro.sim.stats import StatsRegistry


def test_read_latency():
    nvm = NVMModel(NVMConfig(read_latency=240, burst_cycles=20))
    assert nvm.read(100) == 100 + 240


def test_write_latency():
    nvm = NVMModel(NVMConfig(write_latency=600, burst_cycles=20))
    assert nvm.write(0) == 600


def test_channel_serializes_bursts():
    cfg = NVMConfig(read_latency=240, burst_cycles=20)
    nvm = NVMModel(cfg)
    first = nvm.read(0)
    second = nvm.read(0)
    assert second == first + cfg.burst_cycles


def test_write_queue_backpressure():
    cfg = NVMConfig(write_latency=600, burst_cycles=1, write_queue_size=4)
    nvm = NVMModel(cfg)
    completions = [nvm.write(0) for _ in range(5)]
    # The 5th write waits for the 1st to complete before admission.
    assert completions[4] >= completions[0] + cfg.write_latency


def test_read_queue_backpressure():
    cfg = NVMConfig(read_latency=100, burst_cycles=1, read_queue_size=2)
    nvm = NVMModel(cfg)
    completions = [nvm.read(0) for _ in range(3)]
    assert completions[2] >= completions[0] + cfg.read_latency


def test_queue_drains_over_time():
    cfg = NVMConfig(write_latency=100, burst_cycles=1, write_queue_size=2)
    nvm = NVMModel(cfg)
    nvm.write(0)
    nvm.write(0)
    # Much later, the queue is empty again: no admission delay.
    done = nvm.write(10_000)
    assert done == 10_000 + cfg.write_latency


def test_counters():
    stats = StatsRegistry()
    nvm = NVMModel(stats=stats)
    nvm.read(0)
    nvm.write(0)
    nvm.write(0)
    assert stats.as_dict()["nvm.reads"] == 1
    assert stats.as_dict()["nvm.writes"] == 2


def test_reads_and_writes_share_channel():
    cfg = NVMConfig(read_latency=100, write_latency=200, burst_cycles=50)
    nvm = NVMModel(cfg)
    nvm.write(0)
    read_done = nvm.read(0)
    # The read issues only after the write's burst slot.
    assert read_done == 50 + 100


def test_multi_channel_parallelism():
    """Two channels double back-to-back transfer throughput."""
    one = NVMModel(NVMConfig(read_latency=100, burst_cycles=10, channels=1))
    two = NVMModel(NVMConfig(read_latency=100, burst_cycles=10, channels=2))
    last_one = [one.read(0) for _ in range(8)][-1]
    last_two = [two.read(0) for _ in range(8)][-1]
    assert last_two < last_one
    # With 2 channels, pairs of reads complete together.
    assert two.read(1000) == two.read(1000)


def test_invalid_channel_count():
    import pytest

    with pytest.raises(ValueError):
        NVMModel(NVMConfig(channels=0))
