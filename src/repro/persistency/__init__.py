"""Memory persistency models: strict and epoch persistency.

Persistency models define the order in which stores become durable, as
observed by a post-crash *crash recovery observer*.  The paper's point
is that on secure NVMM the ordering obligation extends beyond the data
block to its entire memory tuple — counter, MAC, and BMT root update.
"""

from repro.persistency.models import PersistencyModel
from repro.persistency.epochs import EpochTracker, Epoch

__all__ = [
    "PersistencyModel",
    "EpochTracker",
    "Epoch",
]
