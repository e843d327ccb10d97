"""Tests for counters and the stats registry."""

import pytest

from repro.sim.stats import StatsRegistry, geometric_mean


def test_registry_counter_identity():
    reg = StatsRegistry()
    assert reg.counter("a") is reg.counter("a")


def test_registry_as_dict_keeps_registration_order():
    reg = StatsRegistry()
    reg.counter("mem.l2.hits").add(3)
    reg.counter("core.total").add(1)
    reg.counter("mem.l2.hits").add(2)
    assert list(reg.as_dict().items()) == [("mem.l2.hits", 5), ("core.total", 1)]


def test_geometric_mean_matches_definition():
    values = [2.0, 8.0]
    assert geometric_mean(values) == pytest.approx(4.0)
    assert geometric_mean([7.2]) == pytest.approx(7.2)


def test_geometric_mean_rejects_bad_input():
    with pytest.raises(ValueError):
        geometric_mean([])
    with pytest.raises(ValueError):
        geometric_mean([1.0, 0.0])

