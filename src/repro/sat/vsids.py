"""VSIDS decision heuristic (variable state independent decaying sum).

The heuristic of Chaff (Moskewicz et al. 2001), used by every solver
compared in the paper: each variable carries an activity score bumped
when it participates in a conflict; scores decay geometrically; the
unassigned variable of highest activity is picked at each decision.

Implemented as the usual exponential-bump variant: instead of decaying
all scores, the bump amount grows by ``1/decay`` each conflict and all
scores are rescaled when they overflow a threshold.

Selection uses a MiniSat-style indexed binary heap ordered by activity
descending, ties broken by the lower variable index.  Each variable
sits in the heap at most once and the heap records its position, so a
bump sifts the variable up in place and a push of a queued variable is
a no-op.  Assigned variables are dropped lazily: ``pop_unassigned``
discards them as they surface, and the solver pushes every variable it
unassigns on backtrack, so every unassigned variable is always queued.
A rescale multiplies the activities in place and then re-heapifies:
scaling underflows the smallest activities, so two variables that were
strictly ordered can tie and the tie-break may reorder them.
"""

from __future__ import annotations

from typing import Callable, List


class VSIDS:
    """Activity-ordered variable picker over variables ``1..num_vars``."""

    RESCALE_LIMIT = 1e100

    def __init__(self, num_vars: int, decay: float = 0.95):
        if not 0.0 < decay <= 1.0:
            raise ValueError("decay must be in (0, 1]")
        self._decay = decay
        self.activity: List[float] = []
        # _heap[i] is a variable; _pos[var] is its heap index, -1 if absent.
        self._heap: List[int] = []
        self._pos: List[int] = []
        self._inc = 1.0
        self._fill(num_vars)

    def _fill(self, num_vars: int) -> None:
        # All activities equal: ascending variables already form a heap.
        self.activity[:] = [0.0] * (num_vars + 1)
        self._heap[:] = range(1, num_vars + 1)
        self._pos[:] = range(-1, num_vars)

    def reset(self) -> None:
        """Forget all activity: every variable back in the heap at 0.

        The bump increment returns to 1; the decay factor is kept.
        """
        self._inc = 1.0
        self._fill(len(self.activity) - 1)

    def grow(self, num_vars: int) -> None:
        """Extend to cover variables up to ``num_vars``."""
        for v in range(len(self.activity), num_vars + 1):
            self.activity.append(0.0)
            self._pos.append(-1)
            self.push(v)

    def bump(self, var: int) -> None:
        """Increase ``var``'s activity; a queued variable moves up in place."""
        activity = self.activity
        act = activity[var] + self._inc
        if act > self.RESCALE_LIMIT:
            self._rescale()
            act = activity[var] + self._inc
        activity[var] = act
        i = self._pos[var]
        if i > 0:
            self._sift_up(i)

    def _rescale(self) -> None:
        scale = 1.0 / self.RESCALE_LIMIT
        activity = self.activity
        activity[:] = [a * scale for a in activity]
        self._inc *= scale
        for i in range(len(self._heap) // 2 - 1, -1, -1):
            self._sift_down(i)

    def decay(self) -> None:
        """Apply one conflict's worth of geometric decay."""
        self._inc /= self._decay

    def push(self, var: int) -> None:
        """Queue a variable that became unassigned; no-op if already queued."""
        if self._pos[var] < 0:
            heap = self._heap
            heap.append(var)
            self._sift_up(len(heap) - 1)

    def pop_unassigned(self, is_assigned: Callable[[int], object]) -> int:
        """Pop the highest-activity variable for which ``is_assigned(v)`` is false.

        Assigned variables met on the way are dropped from the heap.
        Returns 0 when every variable is assigned.
        """
        heap = self._heap
        pos = self._pos
        while heap:
            var = heap[0]
            last = heap.pop()
            pos[var] = -1
            if heap:
                heap[0] = last
                self._sift_down(0)
            if not is_assigned(var):
                return var
        return 0

    def _sift_up(self, i: int) -> None:
        heap = self._heap
        pos = self._pos
        activity = self.activity
        var = heap[i]
        act = activity[var]
        while i:
            parent = (i - 1) >> 1
            above = heap[parent]
            above_act = activity[above]
            if above_act > act or (above_act == act and above < var):
                break
            heap[i] = above
            pos[above] = i
            i = parent
        heap[i] = var
        pos[var] = i

    def _sift_down(self, i: int) -> None:
        heap = self._heap
        pos = self._pos
        activity = self.activity
        n = len(heap)
        var = heap[i]
        act = activity[var]
        child = 2 * i + 1
        while child < n:
            best = heap[child]
            best_act = activity[best]
            right = child + 1
            if right < n:
                other = heap[right]
                other_act = activity[other]
                if other_act > best_act or (other_act == best_act and other < best):
                    child = right
                    best = other
                    best_act = other_act
            if act > best_act or (act == best_act and var < best):
                break
            heap[i] = best
            pos[best] = i
            i = child
            child = 2 * i + 1
        heap[i] = var
        pos[var] = i
