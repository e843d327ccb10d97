"""Table I — recovery failure cases due to persist failure.

Rendered from the crash campaign's own cells: the ``unordered``
strawman (no 2SP) runs the ``overwrite`` workload, a new value over an
old one, and each singleton drop loses one tuple item of the youngest
persist across the power failure.  Expected (paper Table I):

========  ========================================
dropped   outcome
========  ========================================
R         BMT (verification) failure
M         MAC (verification) failure
gamma     Wrong plaintext, BMT & MAC failure
C         Wrong plaintext, MAC failure
========  ========================================
"""

from repro.analysis.campaign import TABLE1_SCHEME, TABLE1_WORKLOAD, table1
from repro.campaign import SINGLETON_SUBSETS, enumerate_grid, run_scenario

from common import archive


def run_table1():
    grid = enumerate_grid(
        schemes=[TABLE1_SCHEME], workloads=[TABLE1_WORKLOAD], subsets=SINGLETON_SUBSETS
    )
    return table1([run_scenario(scenario) for scenario in grid])


def test_table1_tuple_failures(benchmark):
    table = benchmark.pedantic(run_table1, rounds=1, iterations=1)
    archive("table1_tuple_failures", table.render())
    assert [row[-1] for row in table.rows] == ["yes"] * 4
