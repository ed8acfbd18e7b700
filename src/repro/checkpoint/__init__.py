"""Checkpoint/restore for the timing simulator.

See :mod:`repro.checkpoint.state` for the capture model and
:class:`repro.runner.sharded.ShardedRun` for the executor that fans a
single long run's shards across the sweep process pool.
"""

from .state import (CHECKPOINT_VERSION, Checkpoint, advance_trace, capture,
                    frontend_position, materialize)

__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "advance_trace",
    "capture",
    "frontend_position",
    "materialize",
]
