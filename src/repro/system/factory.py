"""Convenience constructors for the benchmark harness and examples."""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Union

from repro.core.schemes import UpdateScheme
from repro.system.config import SystemConfig
from repro.system.timing import SimResult, TraceSimulator
from repro.workloads.trace import MemoryTrace

SchemeLike = Union[str, UpdateScheme]


def _as_scheme(scheme: SchemeLike) -> UpdateScheme:
    if isinstance(scheme, UpdateScheme):
        return scheme
    return UpdateScheme.from_name(scheme)


def build_simulator(
    scheme: SchemeLike, config: Optional[SystemConfig] = None, **overrides
) -> TraceSimulator:
    """Build a :class:`TraceSimulator` for a scheme.

    Args:
        scheme: Table IV scheme name or enum.
        config: Base configuration (Table III defaults when omitted).
        **overrides: ``SystemConfig`` field overrides.
    """
    base = config or SystemConfig()
    cfg = base.variant(scheme=_as_scheme(scheme), **overrides)
    return TraceSimulator(cfg)


def run_trace(
    trace: MemoryTrace,
    scheme: SchemeLike,
    config: Optional[SystemConfig] = None,
    warmup_fraction: float = 0.2,
    **overrides,
) -> SimResult:
    """Simulate one trace under one scheme.

    Args:
        trace: The workload.
        scheme: Table IV scheme name or enum.
        config: Base configuration.
        warmup_fraction: Leading trace fraction excluded from timing
            (the paper measures fast-forwarded, warm regions).
        **overrides: ``SystemConfig`` field overrides.
    """
    simulator = build_simulator(scheme, config, **overrides)
    return simulator.run(trace, warmup_fraction=warmup_fraction)


def run_benchmark(
    name: str,
    schemes: Iterable[SchemeLike],
    kilo_instructions: int = 50,
    config: Optional[SystemConfig] = None,
    seed: int = 2020,
    **overrides,
) -> Dict[str, SimResult]:
    """Run one Table V benchmark under several schemes.

    One in-process, uncached :func:`~repro.sweep.runner.run_jobs` call,
    so each run's config follows :meth:`SweepJob.resolved_config`: the
    profile's calibrated core IPC applies unless ``overrides`` set
    ``core_ipc``.

    Returns:
        ``scheme name -> SimResult``.
    """
    # Imported here: the runner loads numpy, which `import repro` must not.
    from repro.sweep.runner import SweepJob, run_jobs

    jobs = [
        SweepJob.make(name, scheme, kilo_instructions, seed, **overrides)
        for scheme in schemes
    ]
    results, _ = run_jobs(jobs, workers=1, cache=False, base_config=config)
    return {result.scheme: result for result in results}
