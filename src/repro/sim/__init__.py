"""Synchronous bufferless (hot-potato) simulation engine."""

from .packet import Packet, PacketStatus
from .events import EventKind, TraceEvent, TraceRecorder
from .router import DesiredMove, Router
from .metrics import RunResult
from .engine import Engine, Slot
from .soa import GeometryArrays

__all__ = [
    "Packet",
    "PacketStatus",
    "EventKind",
    "TraceEvent",
    "TraceRecorder",
    "DesiredMove",
    "Router",
    "RunResult",
    "Engine",
    "Slot",
    "GeometryArrays",
]
