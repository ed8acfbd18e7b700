"""Host-speed calibration.

The host this benchmark was tuned on (a 2-CPU virtual machine) changes
speed by up to 1.5x over minutes, with nothing else running in it:
other tenants share the physical machine.  No run-length average
removes a drift that slow, so every op is bracketed by a fixed
pure-Python reference kernel, and the op's wall seconds are scaled by
``NOMINAL_S / reference seconds``: the seconds the op would have taken
with the host at its nominal speed.

The kernel does the interpreter work the simulator does (method calls,
slot attributes, dict and deque operations) but shares no code with it,
so a change to the simulator never moves the reference.  It allocates
nothing (every integer it makes is a cached small int) and runs with
the collector off, so the state the simulator leaves in the process
(its heap, the allocator's free lists) does not move it either.
"""

from __future__ import annotations

import gc
import time
from collections import deque

#: Reference-kernel seconds at the tuning host's nominal speed (Python
#: 3.11.7): calibrated seconds are wall seconds on a host where
#: ``reference()`` takes this long.
NOMINAL_S = 0.0085


class _Slot:
    __slots__ = ("ready", "done")

    def __init__(self):
        self.ready = 0
        self.done = False

    def step(self, cycle: int) -> int:
        self.ready = (self.ready + cycle) & 255
        self.done = not self.done
        return self.ready


_SLOTS = [_Slot() for _ in range(200)]


def reference(rounds: int = 100) -> int:
    """A toy scheduler loop over preallocated slots."""
    slots = _SLOTS
    table = {}
    ring = deque()
    checksum = 0
    for _ in range(rounds):
        for cycle in range(200):
            slot = slots[cycle]
            ready = slot.step(cycle)
            other = table.get(ready)
            if other is not None and other.done:
                checksum ^= other.ready
            table[cycle & 127] = slot
            ring.append(slot)
            if len(ring) > 64:
                checksum ^= ring.popleft().ready
    return checksum


def reference_seconds() -> float:
    """Wall seconds of :func:`reference`, the faster of two runs (one
    run can catch an interrupt), collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            reference()
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        if enabled:
            gc.enable()


class Calibrator:
    """Times the reference between consecutive ops; each op's factor
    comes from the references just before and just after it."""

    def __init__(self):
        self._last = reference_seconds()

    def factor(self) -> float:
        """Call right after an op: ``NOMINAL_S`` over the mean of the
        references around it."""
        now = reference_seconds()
        factor = NOMINAL_S / ((self._last + now) / 2)
        self._last = now
        return factor
