"""The active-telemetry-session holder.

Kept dependency-free on purpose: :class:`~repro.sim.Engine` imports this
module to ask "is anyone observing?" at construction time, so it must not
(transitively) import the engine, the counters, or anything heavy.  The
cost of telemetry being *off* is exactly one function call and one ``None``
check per engine construction — nothing per step, nothing per event.

Sessions are process-local.  Parallel trial workers each activate their own
session inside their own process (see
:func:`repro.experiments.batch.run_spec_trials`), so there is no shared
mutable state to synchronize.
"""

from __future__ import annotations

from typing import Optional

#: The currently active session, or None.  Managed exclusively by
#: :class:`repro.telemetry.session.TelemetrySession`'s context protocol.
_ACTIVE: Optional[object] = None


def current_session() -> Optional[object]:
    """The active :class:`~repro.telemetry.TelemetrySession`, if any."""
    return _ACTIVE


def activate(session: object) -> None:
    """Install ``session`` as the process's active session (no nesting)."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError(
            "a telemetry session is already active; sessions do not nest"
        )
    _ACTIVE = session


def deactivate(session: object) -> None:
    """Remove ``session`` if it is the active one (idempotent)."""
    global _ACTIVE
    if _ACTIVE is session:
        _ACTIVE = None
