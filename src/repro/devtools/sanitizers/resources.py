"""ResourceSanitizer: SharedMemory / socket / file-handle leak tracking.

The fleet engine creates ``multiprocessing.shared_memory`` segments
(which outlive the process if not unlinked), the cluster layer opens
listening and per-connection sockets, and the metrics log holds a file
handle. Every tracked resource not released by end-of-run is reported
with its creation site.

Hot-path contract: :func:`track_resource` and :func:`release_resource`
are no-ops behind an ``ACTIVE is None`` guard at each call site —
disabled cost is one module-attribute load per resource *lifecycle
event* (never per packet or per draw).
"""

from __future__ import annotations

import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "ACTIVE",
    "ResourceSanitizer",
    "TrackedResource",
    "disable",
    "enable",
    "enabled",
    "release_resource",
    "track_resource",
    "tracking",
]


@dataclass(frozen=True)
class TrackedResource:
    """One live (or leaked) resource."""

    kind: str  #: ``"shm"``, ``"socket"``, ``"file"``, …
    token: str  #: identity — SHM name, or ``id()`` of the object
    label: str  #: human description (address, path, segment size…)
    site: str  #: ``file:line:function`` of the creation site

    def to_dict(self) -> Dict[str, str]:
        return {
            "kind": self.kind,
            "token": self.token,
            "label": self.label,
            "site": self.site,
        }


def _site() -> str:
    frame = sys._getframe(1)
    own = __file__
    while frame is not None:
        filename = frame.f_code.co_filename
        if filename != own:
            return f"{filename}:{frame.f_lineno}:{frame.f_code.co_name}"
        frame = frame.f_back
    return "<unknown>"


class ResourceSanitizer:
    """Tracks resource acquisition/release; reports end-of-run leaks."""

    def __init__(self) -> None:
        self._live: Dict[Tuple[str, str], TrackedResource] = {}
        self.tracked = 0
        self.released = 0
        self._mutex = threading.Lock()

    def track(self, kind: str, token: str, label: str) -> None:
        with self._mutex:
            self.tracked += 1
            self._live[(kind, token)] = TrackedResource(kind, token, label, _site())

    def release(self, kind: str, token: str) -> None:
        with self._mutex:
            if self._live.pop((kind, token), None) is not None:
                self.released += 1

    def leaks(self) -> Tuple[TrackedResource, ...]:
        """Resources tracked but never released, in creation order."""
        with self._mutex:
            return tuple(
                sorted(self._live.values(), key=lambda r: (r.kind, r.token))
            )

    def to_json(self) -> Dict[str, Any]:
        leaks: List[Dict[str, str]] = [r.to_dict() for r in self.leaks()]
        return {
            "tracked": self.tracked,
            "released": self.released,
            "leaks": leaks,
        }


#: Process-wide active sanitizer; ``None`` disables resource tracking.
ACTIVE: Optional[ResourceSanitizer] = None


def enabled() -> bool:
    """Whether resource tracking is currently active."""
    return ACTIVE is not None


def enable(sanitizer: Optional[ResourceSanitizer] = None) -> ResourceSanitizer:
    """Install ``sanitizer`` (or a fresh one) as the active tracker."""
    global ACTIVE
    ACTIVE = sanitizer if sanitizer is not None else ResourceSanitizer()
    return ACTIVE


def disable() -> Optional[ResourceSanitizer]:
    """Stop tracking; returns the sanitizer that was active, if any."""
    global ACTIVE
    previous = ACTIVE
    ACTIVE = None
    return previous


@contextmanager
def tracking(
    sanitizer: Optional[ResourceSanitizer] = None,
) -> Iterator[ResourceSanitizer]:
    """Track resources for the block's duration; restores prior state."""
    global ACTIVE
    previous = ACTIVE
    active = sanitizer if sanitizer is not None else ResourceSanitizer()
    ACTIVE = active
    try:
        yield active
    finally:
        ACTIVE = previous


def track_resource(kind: str, token: str, label: str) -> None:
    """Record a resource acquisition (no-op when disabled)."""
    if ACTIVE is not None:
        ACTIVE.track(kind, token, label)


def release_resource(kind: str, token: str) -> None:
    """Record a resource release (no-op when disabled)."""
    if ACTIVE is not None:
        ACTIVE.release(kind, token)
