"""The cycle unit alias.

The simulator avoids per-cycle ticking: a shared hardware resource (a DRAM
bank, a channel data bus) is a "busy until" timestamp, and a request for
it at ``t`` is granted ``[max(t, busy_until), ... + duration)``.  That
reservation model lives with the resources it times, in
:class:`repro.mem.device.MemoryDevice`; see DESIGN.md Section 5.
"""

from __future__ import annotations

#: Unit alias checked by the RL004 lint rule (see docs/LINTING.md).
#: Marks CPU-cycle quantities (timestamps and durations at the 2 GHz core
#: clock).  Plain ``int`` at run time; the alias keeps cycle arithmetic
#: visibly separate from byte and address arithmetic.
Cycles = int
