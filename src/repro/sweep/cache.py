"""Content-addressed on-disk cache for simulation results.

A sweep job is fully determined by ``(trace key, scheme, SystemConfig,
code version)``: traces are generated deterministically from
``(benchmark, kilo_instructions, seed)``, and the simulator is
deterministic given a trace and a config.  The cache therefore keys each
:class:`~repro.system.timing.SimResult` by a SHA-256 digest over exactly
those inputs, where *code version* is a digest of every ``.py`` file
under ``repro`` — so any source change invalidates the whole cache, and
an unchanged artifact regeneration is a pure cache hit.

Layout: one JSON file per result under ``<root>/<key[:2]>/<key>.json``.
The root defaults to ``~/.cache/plp-repro/results`` and can be moved
with the ``PLP_SWEEP_CACHE`` environment variable; setting
``PLP_NO_RESULT_CACHE=1`` disables caching entirely.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import asdict
from pathlib import Path
from typing import Dict, Optional, Type, TypeVar, Union

from repro.system.config import SystemConfig
from repro.system.timing import SimResult

_CODE_VERSION: Optional[str] = None


def code_version() -> str:
    """Digest of the ``repro`` package sources (cache invalidation key)."""
    global _CODE_VERSION
    if _CODE_VERSION is None:
        root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _CODE_VERSION = digest.hexdigest()[:16]
    return _CODE_VERSION


def config_digest(config: SystemConfig) -> str:
    """Stable digest of every ``SystemConfig`` field (nested dataclasses
    included)."""
    payload = asdict(config)
    payload["scheme"] = config.scheme.value
    # Telemetry is pure observation: it never changes a SimResult, so it
    # must not fork cache keys (a telemetry-on run is a valid cache hit
    # for a telemetry-off sweep and vice versa).
    payload.pop("telemetry", None)
    # Likewise the timing-engine family: batched and skip-ahead are
    # bit-identical by construction (the differential harness enforces
    # it), so either engine's result is a valid hit for the other.
    payload.pop("engine", None)
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def job_key(
    benchmark: str,
    kilo_instructions: int,
    seed: int,
    warmup_fraction: float,
    config: SystemConfig,
) -> str:
    """Content-addressed key for one (trace, config) simulation."""
    blob = json.dumps(
        {
            "trace": [benchmark, kilo_instructions, seed],
            "warmup": warmup_fraction,
            "config": config_digest(config),
            "code": code_version(),
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def result_to_dict(result: SimResult) -> Dict:
    return asdict(result)


def result_from_dict(payload: Dict) -> SimResult:
    return SimResult(**payload)


def default_cache_root() -> Path:
    env = os.environ.get("PLP_SWEEP_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "plp-repro" / "results"


def caching_disabled() -> bool:
    return os.environ.get("PLP_NO_RESULT_CACHE", "") not in ("", "0")


CacheT = TypeVar("CacheT", bound="JSONCache")


def resolve_cache(
    cache: Union["JSONCache", str, os.PathLike, bool, None], cache_type: Type[CacheT]
) -> Optional[CacheT]:
    """The cache a runner's ``cache`` argument names, or ``None``.

    ``True`` is a ``cache_type`` at its default root, a path one rooted
    there, and a ``cache_type`` instance itself; ``False``/``None``
    disable caching, and ``PLP_NO_RESULT_CACHE=1`` forces it off.
    """
    if caching_disabled():
        return None
    if isinstance(cache, cache_type):
        return cache
    if cache is True:
        return cache_type()
    if isinstance(cache, (str, os.PathLike)):
        return cache_type(cache)
    return None


class JSONCache:
    """Directory of content-addressed JSON payloads.

    Base class for every on-disk result store in the sweep layer: one
    JSON file per entry under ``<root>/<key[:2]>/<key>.json``, written
    atomically (write-then-rename).  Subclasses override
    :meth:`_encode`/:meth:`_decode` to map their value type onto JSON.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    # -- value mapping (override in subclasses) -------------------------

    def _encode(self, value):
        return value

    def _decode(self, payload):
        return payload

    # -- storage --------------------------------------------------------

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str):
        """Fetch a cached value; counts the hit/miss."""
        path = self.path_for(key)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return self._decode(payload)

    def put(self, key: str, value) -> None:
        """Store a value atomically (write-then-rename)."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(self._encode(value), fh)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

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
        return (
            f"{type(self).__name__}(root={str(self.root)!r}, "
            f"hits={self.hits}, misses={self.misses})"
        )


class ResultCache(JSONCache):
    """Directory of content-addressed :class:`SimResult` JSON files."""

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        super().__init__(root if root is not None else default_cache_root())

    def _encode(self, value: SimResult) -> Dict:
        return result_to_dict(value)

    def _decode(self, payload: Dict) -> SimResult:
        return result_from_dict(payload)
