"""A queue-based NVM (PCM DIMM) timing model.

Table III: 8 GB DDR-based PCM at 1200 MHz with 128-entry write and
64-entry read queues; tWR = 150 ns dominates write service.  At the
4 GHz core clock the model uses cycle-denominated latencies:

* read access: ~240 cycles (60 ns array read),
* write service: ~600 cycles (150 ns tWR),
* channel burst occupancy: ~20 cycles per transfer.

The model captures exactly the two effects the evaluation depends on:
(1) reads behind a full read queue wait, and (2) bursty epoch-boundary
write traffic backs up the write queue (the Fig. 12 epoch-256
regression).
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

from repro.sim.stats import StatsRegistry


@dataclass
class NVMConfig:
    """Timing and queue parameters for the NVM DIMM."""

    read_latency: int = 240
    write_latency: int = 600
    burst_cycles: int = 8
    """Channel occupancy per 64 B transfer.  Smaller than the raw burst
    time because bank/rank parallelism overlaps transfers."""
    read_queue_size: int = 64
    write_queue_size: int = 128
    channels: int = 1
    """Independent memory channels; transfers go to the least-loaded
    one.  The Table III system is modelled as one (bank parallelism is
    folded into ``burst_cycles``), but the knob supports scaling
    studies."""

    def __post_init__(self) -> None:
        for name in ("read_latency", "write_latency", "burst_cycles"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")
        for name in ("read_queue_size", "write_queue_size", "channels"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")


class NVMModel:
    """Scoreboard NVM channel with bounded read/write queues."""

    def __init__(self, config: Optional[NVMConfig] = None, stats: Optional[StatsRegistry] = None) -> None:
        self.config = config or NVMConfig()
        registry = stats if stats is not None else StatsRegistry()
        self._reads = registry.counter("nvm.reads")
        self._writes = registry.counter("nvm.writes")
        self._read_stalls = registry.counter("nvm.read_queue_stall_cycles")
        self._write_stalls = registry.counter("nvm.write_queue_stall_cycles")
        self._channel_free = [0] * self.config.channels
        self._read_completions: Deque[int] = deque()
        self._write_completions: Deque[int] = deque()

    def read(self, now: int) -> int:
        """Issue a read; returns the cycle its data is available."""
        cfg = self.config
        return self._transfer(
            self._read_completions, cfg.read_queue_size, cfg.read_latency,
            self._read_stalls, self._reads, now, 1,
        )

    def write(self, now: int, count: int = 1) -> int:
        """Issue ``count`` writes at ``now``, one after another; returns
        the cycle the last is durable in the media.

        Note that with ADR the WPQ is already in the persistence domain,
        so persist *completion* does not wait for this time — but channel
        and queue occupancy still throttle everything else.
        """
        cfg = self.config
        return self._transfer(
            self._write_completions, cfg.write_queue_size, cfg.write_latency,
            self._write_stalls, self._writes, now, count,
        )

    def _transfer(
        self,
        completions: Deque[int],
        capacity: int,
        latency: int,
        stalls,
        counter,
        now: int,
        count: int,
    ) -> int:
        """``count`` transfers through a bounded queue, each issued at
        ``now`` after the one before; returns the last completion.

        Each waits for a free queue slot (charging the wait to
        ``stalls``), issues on the least-loaded channel for one burst,
        and records its completion in the queue's sorted completion
        deque.  Written as one body because every timed handler funnels
        through it.
        """
        channels = self._channel_free
        # Table III models one channel; skip the arg-min entirely.
        single = len(channels) == 1
        burst = self.config.burst_cycles
        for _ in range(count):
            while completions and completions[0] <= now:
                completions.popleft()
            admit = now
            if len(completions) >= capacity:
                admit = completions[len(completions) - capacity]
                if admit > now:
                    stalls.value += admit - now
            if single:
                index = 0
            else:
                index = min(range(len(channels)), key=channels.__getitem__)
            free = channels[index]
            issue = admit if admit >= free else free
            channels[index] = issue + burst
            completion = issue + latency
            if not completions or completion >= completions[-1]:
                completions.append(completion)  # completions are nearly FIFO
            else:
                insort(completions, completion)
        counter.value += count
        return completion
