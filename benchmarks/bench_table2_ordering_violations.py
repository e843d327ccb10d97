"""Table II — recovery failures from memory-tuple ordering violations.

Rendered from the crash campaign's own cells: the ``unordered``
strawman (no 2SP) runs the ``ordered_pair`` workload, two ordered
persists α1 → α2 on different pages, and each singleton drop loses one
tuple item of one persist while the other persists whole, violating
that item's order.  Expected (paper Table II):

===================  =========================================
violated order       outcome
===================  =========================================
gamma1 -> gamma2     Plaintext P1 not recoverable
M1 -> M2             MAC (verification) failure for C1
R1 -> R2             BMT (verification) failure
===================  =========================================
"""

from repro.analysis.campaign import TABLE1_SCHEME, TABLE2_WORKLOAD, table2
from repro.campaign import SINGLETON_SUBSETS, enumerate_grid, run_scenario

from common import archive


def run_table2():
    grid = enumerate_grid(
        schemes=[TABLE1_SCHEME], workloads=[TABLE2_WORKLOAD], subsets=SINGLETON_SUBSETS
    )
    return table2([run_scenario(scenario) for scenario in grid])


def test_table2_ordering_violations(benchmark):
    table = benchmark.pedantic(run_table2, rounds=1, iterations=1)
    archive("table2_ordering_violations", table.render())
    assert [row[-1] for row in table.rows] == ["yes"] * 3
