"""The sanctioned time sources for traced modules.

Span timestamps must be mutually comparable: parent-side dispatch spans
and worker-side solve spans are stitched into one timeline, so every
traced module reads time through these two helpers instead of calling
``time.*`` directly.  ``repro check`` rule REP106 enforces this --
direct ``time.time()`` / ``time.monotonic()`` / ``time.perf_counter()``
calls in traced modules are findings unless allowlisted as sanctioned
measurement sites that predate the obs layer.

On Linux ``time.monotonic`` is ``CLOCK_MONOTONIC``, which is shared by
every process since boot -- fork-pool workers and the parent therefore
read the *same* monotonic timeline, which is what makes cross-process
span stitching work without offset negotiation.  ``wall_now`` exists for
human-facing anchors only (log records, the trace header); it never
orders spans.
"""

from __future__ import annotations

import time

__all__ = ["mono_now", "wall_now"]


def wall_now() -> float:
    """Epoch seconds -- human-facing anchors (log ``ts``, trace header)."""
    return time.time()


def mono_now() -> float:
    """Monotonic seconds -- span start/end stamps, cross-process safe."""
    return time.monotonic()
