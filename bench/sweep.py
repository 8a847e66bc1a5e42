"""Scaling sweeps with a per-case time cap.

Each case runs at increasing sizes.  Before starting the next size the
sweep predicts its time from the last measured growth factor and skips
it, and every later size, when the prediction passes the cap.
"""

from __future__ import annotations

FLOOR_S = 0.01


def grow(measure, sizes, cap_s: float, case: str) -> dict:
    """Time `measure(size)` over `sizes` until the cap; report the frontier.

    The frontier is the largest size measured within the cap.  Growth is
    the last time over the one before it, with that earlier time floored
    at 10 ms: below that, timer noise and constant costs would make the
    factor meaningless.
    """
    points = []
    frontier = 0
    predicted = None
    for size in sizes:
        if points:
            last = points[-1][1]
            prev = points[-2][1] if len(points) > 1 else 0.0
            predicted = last * max(last / max(prev, FLOOR_S), 1.0)
            if predicted > cap_s:
                break
        seconds = measure(size)
        points.append((size, seconds))
        if seconds > cap_s:
            break
        frontier = size
        predicted = None
    return {"case": case, "cap_s": cap_s, "points": points, "frontier": frontier,
            "next_predicted_s": predicted}
