"""Content-addressed on-disk cache of packed binary traces.

Sweep workers used to regenerate every trace from ``(benchmark,
kilo_instructions, seed)`` — a pure-Python RNG walk that dominates cold
sweep start-up.  Traces are deterministic functions of those inputs plus
the *generator version* (the ``repro.workloads`` sources), so this cache
keys each trace by a SHA-256 digest over exactly that tuple and stores
the binary trace format (:mod:`repro.workloads.trace`; the cache has no
format code of its own).  Every Table V trace fits one segment, so a
warm hit is one bulk read of the columns, checked against the segment
index — orders of magnitude faster than re-running the generator — and
any edit to the generator sources invalidates the whole cache.  A file
that fails the format checks (a crashed writer, a file from an older
format version) is a miss and is regenerated.

Layout: one binary file per trace under
``<root>/<key[:2]>/<key>.trace``.  The root defaults to
``~/.cache/plp-repro/traces`` and can be moved with the
``PLP_TRACE_CACHE`` environment variable; setting
``PLP_NO_TRACE_CACHE=1`` disables the cache entirely (the generator
runs every time, as before).
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Dict, Optional, Union

from repro.workloads.trace import MemoryTrace, TraceFormatError

_GENERATOR_VERSION: Optional[str] = None


def generator_version() -> str:
    """Digest of the ``repro.workloads`` sources (cache invalidation key).

    Any change to the record format, the synthetic generators, or the
    profile calibration changes the traces they produce, so the digest
    covers every ``.py`` file in the package.
    """
    global _GENERATOR_VERSION
    if _GENERATOR_VERSION is None:
        root = Path(__file__).resolve().parent.parent / "workloads"
        digest = hashlib.sha256()
        for path in sorted(root.glob("*.py")):
            digest.update(path.name.encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _GENERATOR_VERSION = digest.hexdigest()[:16]
    return _GENERATOR_VERSION


def trace_key(benchmark: str, kilo_instructions: int, seed: int) -> str:
    """Content-addressed key for one deterministic benchmark trace."""
    blob = f"{benchmark}\0{kilo_instructions}\0{seed}\0{generator_version()}"
    return hashlib.sha256(blob.encode()).hexdigest()


def default_trace_cache_root() -> Path:
    env = os.environ.get("PLP_TRACE_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "plp-repro" / "traces"


def trace_caching_disabled() -> bool:
    return os.environ.get("PLP_NO_TRACE_CACHE", "") not in ("", "0")


class TraceCache:
    """Directory of content-addressed packed binary traces."""

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root = Path(root) if root is not None else default_trace_cache_root()
        self.hits = 0
        self.misses = 0

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.trace"

    def get(self, benchmark: str, kilo_instructions: int, seed: int) -> Optional[MemoryTrace]:
        """Load a cached packed trace; counts the hit/miss."""
        path = self.path_for(trace_key(benchmark, kilo_instructions, seed))
        try:
            trace = MemoryTrace.load_binary(path)
        except (OSError, TraceFormatError):
            # Missing, unreadable, corrupt (e.g. a crashed writer before
            # atomic-rename semantics) or in another format version:
            # treat as a miss and let the generator rebuild it.
            self.misses += 1
            return None
        self.hits += 1
        return trace

    def put(self, benchmark: str, kilo_instructions: int, seed: int, trace: MemoryTrace) -> None:
        """Store a packed trace atomically (write-then-rename).

        The payload is packed once with :meth:`MemoryTrace.to_bytes` and
        written in a single call — a ``mkstemp`` round-trip made the
        cold cache measurably slower than not caching at all on small
        traces.
        The temp name is pid-suffixed, so concurrent writers (sweep
        workers racing on the same cold key) never collide, and the
        ``os.replace`` keeps readers crash-consistent.
        """
        path = self.path_for(trace_key(benchmark, kilo_instructions, seed))
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_bytes(trace.to_bytes())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def load_or_generate(
        self, benchmark: str, kilo_instructions: int, seed: int = 2020
    ) -> MemoryTrace:
        """The trace for a benchmark: packed bytes if cached, else generated.

        A miss runs the synthetic generator and stores the packed result
        so every later worker (and every later process) loads bytes
        instead of re-walking the RNG.
        """
        from repro.workloads.spec_profiles import profile_trace

        cached = self.get(benchmark, kilo_instructions, seed)
        if cached is not None:
            return cached
        trace = profile_trace(benchmark, kilo_instructions, seed)
        self.put(benchmark, kilo_instructions, seed, trace)
        return trace

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
        }

    def __repr__(self) -> str:
        return f"TraceCache(root={str(self.root)!r}, hits={self.hits}, misses={self.misses})"
