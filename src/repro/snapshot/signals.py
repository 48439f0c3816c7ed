"""Cooperative signal handling for checkpointed runs.

:class:`SignalGuard` converts the first SIGINT/SIGTERM into a flag the
simulation loop polls at its next safe point (between operations), where
the :class:`repro.snapshot.hooks.Checkpointer` writes exactly one final
checkpoint and unwinds with
:class:`repro.common.errors.CheckpointInterrupt`.  A second signal means
the user is done waiting: the process force-quits immediately with the
conventional ``128 + signum`` code, skipping all cleanup.

The guard is a context manager and restores the previous handlers on
exit, so nested non-checkpointed work (e.g. report generation after a
run) keeps default signal behaviour.  Outside the main thread — where
CPython forbids installing handlers — the guard degrades to an inert
flag holder rather than failing, because sweep jobs get their lifecycle
managed by their worker's watchdog instead.
"""

from __future__ import annotations

import os
import signal
from typing import Callable, Dict, Optional, Tuple

#: Exit code for "run interrupted, state checkpointed, resume to finish".
#: Distinct from 1 (error) and from 128+signum (killed without checkpoint);
#: 75 is EX_TEMPFAIL, the closest sysexits.h has to "try again later".
EXIT_CHECKPOINTED = 75

DEFAULT_SIGNALS: Tuple[int, ...] = (signal.SIGINT, signal.SIGTERM)


def _default_force_exit(code: int) -> None:
    # os._exit, not sys.exit: a second signal must not run atexit hooks
    # or get swallowed by an except clause mid-checkpoint.
    os._exit(code)


class SignalGuard:
    """Flag-setting SIGINT/SIGTERM handler with second-signal force-quit."""

    def __init__(
        self,
        signals: Tuple[int, ...] = DEFAULT_SIGNALS,
        force_exit: Callable[[int], None] = _default_force_exit,
    ):
        self.signals = tuple(signals)
        self.pending = False
        self.signum: Optional[int] = None
        self._force_exit = force_exit
        self._previous: Dict[int, object] = {}
        self.installed = False

    def _handle(self, signum, frame) -> None:
        if self.pending:
            self._force_exit(128 + signum)
            return  # only reachable with an injected force_exit (tests)
        self.pending = True
        self.signum = signum

    def __enter__(self) -> "SignalGuard":
        try:
            for signum in self.signals:
                self._previous[signum] = signal.signal(signum, self._handle)
            self.installed = True
        except ValueError:
            # Not the main thread: leave handlers alone, stay inert.
            for signum, previous in self._previous.items():
                signal.signal(signum, previous)
            self._previous.clear()
        return self

    def __exit__(self, *exc_info) -> None:
        for signum, previous in self._previous.items():
            signal.signal(signum, previous)
        self._previous.clear()
        self.installed = False
