"""Property-based tests (hypothesis) for core invariants.

These check the algebraic properties the paper's correctness argument
rests on: BMT root determinism and order-independence, LCA algebra,
counter serialization, encryption round-trips, coalescing conservation,
and persist-order invariants of the update engines.
"""

from hypothesis import given, settings, strategies as st

from repro.core.coalescing import CoalescingUnit
from repro.core.invariants import check_root_order
from repro.core.schedulers import make_scoreboard
from repro.core.schemes import UpdateScheme
from repro.core.update_engine import CycleAccurateEngine, EngineConfig
from repro.crypto.bmt import BMTGeometry, BonsaiMerkleTree
from repro.crypto.counters import MINOR_COUNTER_MAX, SplitCounter
from repro.crypto.encryption import CounterModeEncryptor
from repro.crypto.keys import KeySchedule
from repro.crypto.mac import StatefulMAC
from repro.persistency.models import PersistencyModel

KEYS = KeySchedule(b"property-test-key")
GEOMETRY = BMTGeometry(num_leaves=64, arity=8)

leaf_indices = st.integers(min_value=0, max_value=63)
blocks64 = st.binary(min_size=64, max_size=64)


# ----------------------------------------------------------------------
# crypto round-trips
# ----------------------------------------------------------------------


@given(plaintext=blocks64, address=st.integers(0, 2**40), seed=st.binary(max_size=16))
def test_encryption_roundtrip(plaintext, address, seed):
    enc = CounterModeEncryptor(KEYS)
    assert enc.decrypt(enc.encrypt(plaintext, address, seed), address, seed) == plaintext


@given(
    plaintext=blocks64,
    address=st.integers(0, 2**40),
    seed_a=st.binary(max_size=8),
    seed_b=st.binary(max_size=8),
)
def test_mac_distinguishes_seeds(plaintext, address, seed_a, seed_b):
    mac = StatefulMAC(KEYS)
    tag_a = mac.compute(plaintext, address, seed_a)
    tag_b = mac.compute(plaintext, address, seed_b)
    assert (tag_a == tag_b) == (seed_a == seed_b)


# ----------------------------------------------------------------------
# counter serialization
# ----------------------------------------------------------------------


@given(
    major=st.integers(0, 2**64 - 1),
    minors=st.lists(
        st.integers(0, MINOR_COUNTER_MAX), min_size=64, max_size=64
    ),
)
def test_split_counter_roundtrip(major, minors):
    ctr = SplitCounter()
    ctr.major = major
    ctr.minors = list(minors)
    assert SplitCounter.from_bytes(ctr.to_bytes()) == ctr


@given(ops=st.lists(st.integers(0, 63), max_size=300))
def test_counter_monotonicity(ops):
    """A block's effective counter (major, minor) never repeats across
    increments — the pad-uniqueness requirement of counter mode."""
    ctr = SplitCounter()
    seen = {(0, tuple([0] * 64))}
    for block in ops:
        ctr.increment(block)
        state = (ctr.major, tuple(ctr.minors))
        assert state not in seen
        seen.add(state)


# ----------------------------------------------------------------------
# BMT algebra
# ----------------------------------------------------------------------


@given(updates=st.lists(st.tuples(leaf_indices, blocks64), max_size=20))
def test_bmt_root_depends_only_on_final_state(updates):
    """The root is a pure function of the final counter-block contents,
    independent of the update order/history — the property that makes
    OOO and coalesced updates safe (§IV-B)."""
    tree = BonsaiMerkleTree(GEOMETRY, KEYS)
    final = {}
    for leaf, block in updates:
        tree.update_leaf(leaf, block)
        final[leaf] = block
    fresh = BonsaiMerkleTree(GEOMETRY, KEYS)
    for leaf in sorted(final):
        fresh.update_leaf(leaf, final[leaf])
    assert tree.root == fresh.root


@given(updates=st.lists(st.tuples(leaf_indices, blocks64), max_size=16))
def test_bmt_rebuild_equals_incremental(updates):
    tree = BonsaiMerkleTree(GEOMETRY, KEYS)
    final = {}
    for leaf, block in updates:
        tree.update_leaf(leaf, block)
        final[leaf] = block
    rebuilt = BonsaiMerkleTree(GEOMETRY, KEYS)
    assert rebuilt.rebuild_from_counters(final) == tree.root


@given(updates=st.lists(st.tuples(leaf_indices, blocks64), min_size=1, max_size=16))
def test_bmt_verify_accepts_own_state(updates):
    tree = BonsaiMerkleTree(GEOMETRY, KEYS)
    final = {}
    for leaf, block in updates:
        tree.update_leaf(leaf, block)
        final[leaf] = block
    for leaf, block in final.items():
        assert tree.verify_leaf(leaf, block)


@given(a=leaf_indices, b=leaf_indices, c=leaf_indices)
def test_lca_properties(a, b, c):
    g = GEOMETRY
    lab = g.lca_of_leaves(a, b)
    # Symmetry.
    assert lab == g.lca_of_leaves(b, a)
    # The LCA is an ancestor (or the leaf itself) of both.
    for leaf in (a, b):
        assert lab in g.update_path(leaf)
    # Idempotence: lca with itself is the leaf.
    assert g.lca_of_leaves(a, a) == g.leaf_label(a)
    # The pairwise LCA of three leaves: the shallowest pairwise LCA
    # is an ancestor of all three.
    lall = min(
        (g.lca_of_leaves(a, b), g.lca_of_leaves(b, c), g.lca_of_leaves(a, c)),
        key=g.level_of,
    )
    for leaf in (a, b, c):
        assert lall in g.update_path(leaf)


# ----------------------------------------------------------------------
# coalescing conservation
# ----------------------------------------------------------------------


@given(leaves=st.lists(leaf_indices, min_size=1, max_size=24))
def test_coalescing_covers_exactly_needed_nodes(leaves):
    """Coalescing never loses a node update and never duplicates the
    suffix it removed."""
    unit = CoalescingUnit(GEOMETRY)
    persists = unit.coalesce_epoch(list(enumerate(leaves)))
    covered = [label for p in persists for label in p.path]
    needed = set()
    for leaf in leaves:
        needed.update(GEOMETRY.update_path(leaf))
    assert set(covered) == needed
    # Savings are real: total updates never exceed the uncoalesced count.
    assert len(covered) <= len(leaves) * GEOMETRY.levels
    # Delegation chains terminate at a persist that updates the root.
    for p in persists:
        final = CoalescingUnit.resolve_delegate(persists, p.persist_id)
        final_persist = next(x for x in persists if x.persist_id == final)
        assert GEOMETRY.ROOT_LABEL in final_persist.path


# ----------------------------------------------------------------------
# engine ordering invariants
# ----------------------------------------------------------------------


@settings(deadline=None, max_examples=25)
@given(leaves=st.lists(leaf_indices, min_size=1, max_size=12))
def test_strict_engines_never_violate_invariant2(leaves):
    for scheme in (UpdateScheme.SP, UpdateScheme.PIPELINE):
        engine = CycleAccurateEngine(
            GEOMETRY, EngineConfig(scheme=scheme, mac_latency=7)
        )
        for i, leaf in enumerate(leaves):
            while not engine.submit(i, leaf):
                engine.tick()
        engine.run_until_drained()
        assert not check_root_order(engine.events, PersistencyModel.STRICT)


@settings(deadline=None, max_examples=25)
@given(
    leaves=st.lists(leaf_indices, min_size=1, max_size=12),
    epoch_size=st.integers(1, 6),
)
def test_epoch_engines_never_violate_invariant2(leaves, epoch_size):
    for scheme in (UpdateScheme.O3, UpdateScheme.COALESCING):
        engine = CycleAccurateEngine(
            GEOMETRY, EngineConfig(scheme=scheme, mac_latency=7)
        )
        for i, leaf in enumerate(leaves):
            while not engine.submit(i, leaf, epoch_id=i // epoch_size):
                engine.tick()
        engine.run_until_drained()
        assert not check_root_order(engine.events, PersistencyModel.EPOCH)
        assert len(engine.completions) == len(leaves)


@settings(deadline=None, max_examples=25)
@given(leaves=st.lists(leaf_indices, min_size=1, max_size=20))
def test_scoreboard_strict_completions_monotonic(leaves):
    for scheme in (UpdateScheme.SP, UpdateScheme.PIPELINE):
        sb = make_scoreboard(scheme, GEOMETRY, mac_latency=7)
        times = [sb.submit(i, leaf, arrival=i) for i, leaf in enumerate(leaves)]
        assert times == sorted(times)
