"""Output checks. Each returns ``(attempted, failed, problems)``.

A unit is what a user of the workload waits for: a frame of a
campaign, a session of the serving layer, a timestep or a redraw of
the viewer. Every unit that does not pass counts once in ``failed``;
``problems`` says why, in words, for the report.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Mapping, Sequence, Set, Tuple

import numpy as np

Outcome = Tuple[int, int, List[str]]


def check_campaign(
    n_frames: int,
    n_pes: int,
    frames_completed: Mapping[int, Set[int]],
    degraded_frames: Iterable[int],
    bytes_read: float,
    bytes_needed: float,
) -> Outcome:
    """Every frame reaches the viewer from every PE, none is degraded,
    and the DPSS delivered exactly the bytes the frames needed."""
    problems: List[str] = []
    bad: Set[int] = set()
    for frame in range(n_frames):
        got = len(frames_completed.get(frame, ()))
        if got < n_pes:
            bad.add(frame)
            problems.append(
                f"frame {frame}: {got}/{n_pes} slabs reached the viewer"
            )
    for frame in sorted(set(degraded_frames)):
        bad.add(frame)
        problems.append(f"frame {frame}: degraded in a fault-free run")
    if bytes_read != bytes_needed:
        # Not attributable to one frame: every frame is suspect.
        bad.update(range(n_frames))
        problems.append(
            f"DPSS read {bytes_read:.0f} B, frames needed "
            f"{bytes_needed:.0f} B"
        )
    return n_frames, len(bad), problems


def check_sessions(
    session_ids: Sequence[int],
    completed: Iterable[int],
    rejected: Iterable[int],
    end_events: Iterable[int],
) -> Outcome:
    """Sessions are conserved: each offered session either completed
    or was rejected, exactly once, and no session ended twice.

    ``end_events`` holds the session id of every end-of-session log
    event, so a double completion shows as a repeated id.
    """
    problems: List[str] = []
    bad: Set[int] = set()
    done = Counter(completed)
    refused = Counter(rejected)
    ends = Counter(end_events)
    offered = Counter(session_ids)
    for sid, n in offered.items():
        if n > 1:
            bad.add(sid)
            problems.append(f"session {sid} offered {n} times")
    for sid in offered:
        outcomes = done[sid] + refused[sid]
        if outcomes != 1:
            bad.add(sid)
            problems.append(
                f"session {sid}: {done[sid]} completion(s), "
                f"{refused[sid]} rejection(s)"
            )
        if ends[sid] > 1:
            bad.add(sid)
            problems.append(f"session {sid} ended {ends[sid]} times")
        if done[sid] and ends[sid] == 0:
            bad.add(sid)
            problems.append(f"session {sid} completed without ending")
    for sid in set(done) | set(refused) | set(ends):
        if sid not in offered:
            bad.add(sid)
            problems.append(f"session {sid} resolved but never offered")
    return len(offered), len(bad), problems[:20]


def check_codec(sent: np.ndarray, received: np.ndarray) -> List[str]:
    """The texture that came off the wire is the one that went on."""
    if sent.shape != received.shape or sent.dtype != received.dtype:
        return [
            f"texture {sent.dtype}{sent.shape} decoded as "
            f"{received.dtype}{received.shape}"
        ]
    if not np.array_equal(sent, received):
        n = int(np.count_nonzero(sent != received))
        return [f"texture differs in {n} byte(s) after decode"]
    return []


def check_frame(frame: np.ndarray) -> List[str]:
    """A redraw is finite premultiplied RGBA with alpha in [0, 1]."""
    if frame.ndim != 3 or frame.shape[2] != 4:
        return [f"frame shape {frame.shape} is not (H, W, 4)"]
    if not np.all(np.isfinite(frame)):
        return ["frame holds non-finite pixels"]
    alpha = frame[..., 3]
    lo, hi = float(alpha.min()), float(alpha.max())
    if lo < 0.0 or hi > 1.0:
        return [f"alpha spans [{lo}, {hi}], outside [0, 1]"]
    return []


def counter_mismatches(
    runs: Sequence[Mapping[str, float]],
) -> Dict[str, List[float]]:
    """Counters that did not repeat exactly across same-seed runs,
    each with the values seen (in run order)."""
    if not runs:
        return {}
    names = sorted(set().union(*(set(r) for r in runs)))
    out: Dict[str, List[float]] = {}
    for name in names:
        values = [r.get(name) for r in runs]
        if any(v != values[0] for v in values[1:]):
            out[name] = values
    return out
