"""Persistency model definitions.

* **Strict persistency (SP)** — persists follow the sequential program
  order of stores.  Every pair of persists is ordered, so Invariant 2
  applies between every consecutive pair; with write-back caches this
  forces write-through behaviour (the paper's 2SP baseline).
* **Epoch persistency (EP)** — code is divided into epochs by persist
  barriers (``sfence``).  Persists within an epoch are unordered (and
  may be overlapped, reordered, or coalesced); persists in an older
  epoch must complete before any persist of a younger epoch.
* **Buffered epoch persistency (BEP)** — as EP, but execution may run
  ahead of persistence by a bounded number of epochs.  The paper's
  2-entry ETT implements exactly this: two epochs may be in flight.
"""

from __future__ import annotations

import enum


class PersistencyModel(enum.Enum):
    """Which persist-ordering contract the system enforces."""

    NONE = "none"
    STRICT = "strict"
    EPOCH = "epoch"

    def requires_ordering(self, epoch_a: int, epoch_b: int) -> bool:
        """Whether a persist in ``epoch_a`` must precede one in ``epoch_b``.

        Args:
            epoch_a: Epoch of the older (program-order) persist.
            epoch_b: Epoch of the younger persist.
        """
        if self is PersistencyModel.NONE:
            return False
        if self is PersistencyModel.STRICT:
            return True
        return epoch_a < epoch_b
