"""Shared fixtures: small geometries, keys, and helper factories."""

import pytest

from repro.crypto.bmt import BMTGeometry, BonsaiMerkleTree
from repro.crypto.keys import KeySchedule


@pytest.fixture(autouse=True, scope="session")
def _isolated_trace_cache(tmp_path_factory):
    """Keep the on-disk trace cache out of the user's ~/.cache during tests."""
    import os

    root = tmp_path_factory.mktemp("trace-cache")
    previous = os.environ.get("PLP_TRACE_CACHE")
    os.environ["PLP_TRACE_CACHE"] = str(root)
    yield
    if previous is None:
        os.environ.pop("PLP_TRACE_CACHE", None)
    else:
        os.environ["PLP_TRACE_CACHE"] = previous


@pytest.fixture(autouse=True, scope="session")
def _isolated_campaign_cache(tmp_path_factory):
    """Keep the on-disk campaign cache out of ~/.cache during tests."""
    import os

    root = tmp_path_factory.mktemp("campaign-cache")
    previous = os.environ.get("PLP_CAMPAIGN_CACHE")
    os.environ["PLP_CAMPAIGN_CACHE"] = str(root)
    yield
    if previous is None:
        os.environ.pop("PLP_CAMPAIGN_CACHE", None)
    else:
        os.environ["PLP_CAMPAIGN_CACHE"] = previous


@pytest.fixture
def keys():
    return KeySchedule(b"test-root-key")


@pytest.fixture
def small_geometry():
    """A 64-leaf, 8-ary tree: 3 levels (root, middle, leaf)."""
    return BMTGeometry(num_leaves=64, arity=8)


@pytest.fixture
def paper_geometry():
    """The Table III tree: 8 GB memory, 2M counter pages, 9 levels."""
    return BMTGeometry(num_leaves=2**21, arity=8, min_levels=9)


@pytest.fixture
def small_tree(small_geometry, keys):
    return BonsaiMerkleTree(small_geometry, keys)


def make_block(tag: int, size: int = 64) -> bytes:
    """Deterministic distinct 64-byte payloads for tests."""
    return bytes((tag * 31 + i) % 256 for i in range(size))


def v1_trace_bytes(trace) -> bytes:
    """``trace`` in the retired version-1 layout (a 24-byte header, the
    name, then each whole column in turn), as older checkouts wrote
    their trace-cache files."""
    import struct

    from repro.workloads.trace import TRACE_MAGIC

    name = trace.name.encode("utf-8")
    header = struct.pack("<8sHHIQ", TRACE_MAGIC, 1, 0, len(name), len(trace))
    columns = (trace.kind_codes, trace.addresses, trace.gaps, trace.persistent_flags)
    return b"".join((header, name, *(col.tobytes() for col in columns)))
