"""Combinatorial train tracks: switch relations, weight cones, recurrence.

A track is abstract (not embedded): indexed branches plus switches, each
switch holding two nonempty lists of half-branches.  Half-branch id 2*b + e
is end e of branch b; every half-branch is placed exactly once.

Switch relations are integer vectors, so cones are computed in exact rational
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True, slots=True)
class TrainTrack:
    num_branches: int
    switches: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    def __post_init__(self):
        if self.num_branches <= 0:
            raise ValueError("track needs at least one branch")
        placed = []
        for one, two in self.switches:
            if not one or not two:
                raise ValueError("every switch needs both sides nonempty")
            placed.extend(one)
            placed.extend(two)
        # the count first, so that a huge branch count builds no range
        if len(placed) != 2 * self.num_branches or sorted(placed) != list(range(len(placed))):
            raise ValueError("every half-branch must be placed exactly once")

@dataclass(frozen=True, slots=True)
class WeightVector:
    weights: tuple

    def satisfies_switch_conditions(self, tt: TrainTrack) -> bool:
        for row in switch_matrix(tt):
            if sum(r * w for r, w in zip(row, self.weights)) != 0:
                return False
        return True


def switch_matrix(tt: TrainTrack) -> list[list[Fraction]]:
    """One row per switch: net +1/-1 coefficient per branch by side membership."""
    rows = []
    for one, two in tt.switches:
        row = [Fraction(0)] * tt.num_branches
        for half in one:
            row[half // 2] += 1
        for half in two:
            row[half // 2] -= 1
        rows.append(row)
    return rows


def _rational_nullspace(rows: list[list[Fraction]], n: int) -> list[list[Fraction]]:
    """Basis of the kernel of the matrix, exact over the rationals."""
    m = [row[:] for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(n):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    free_cols = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free_cols:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for row_idx, pc in enumerate(pivots):
            v[pc] = -m[row_idx][fc]
        basis.append(v)
    return basis


def weight_cone_basis(tt: TrainTrack) -> list[WeightVector]:
    """Exact rational basis of the switch-condition kernel."""
    basis = _rational_nullspace(switch_matrix(tt), tt.num_branches)
    return [WeightVector(tuple(v)) for v in basis]


def _legal_successors(tt: TrainTrack) -> list[list[int]]:
    """Directed graph on arrival half-branches.

    Node 2b+e: traversing branch b and arriving at its end e.  From there the
    trajectory exits the switch through any half-branch on the other side.
    """
    succ: list[list[int]] = [[] for _ in range(2 * tt.num_branches)]
    for one, two in tt.switches:
        for arrivals, exits in ((one, two), (two, one)):
            for h in arrivals:
                for h2 in exits:
                    succ[h].append(2 * (h2 // 2) + 1 - (h2 % 2))
    return succ


def _cycle_through(succ: list[list[int]], start: int) -> list[int] | None:
    """Shortest closed walk through start, as the list of visited nodes."""
    from collections import deque

    parent: dict[int, int] = {}
    queue = deque()
    for w in succ[start]:
        if w == start:
            return [start]
        if w not in parent:
            parent[w] = start
            queue.append(w)
    while queue:
        v = queue.popleft()
        for w in succ[v]:
            if w == start:
                walk = [v]
                while walk[-1] != start:
                    walk.append(parent[walk[-1]])
                walk.reverse()
                return walk
            if w not in parent:
                parent[w] = v
                queue.append(w)
    return None


def is_recurrent(tt: TrainTrack) -> bool:
    """True iff every branch lies on a closed legal trajectory."""
    succ = _legal_successors(tt)
    # A legal trajectory run backwards is legal and arrives at the other end
    # of every branch it crosses, so a closed walk through node 2b gives one
    # through 2b+1: one search per branch settles both of its ends.
    return all(_cycle_through(succ, 2 * b) is not None for b in range(tt.num_branches))


def positive_weight_witness(tt: TrainTrack) -> WeightVector | None:
    """Strictly positive integer weights satisfying all switch conditions,
    built by summing closed-trajectory indicator vectors; None if impossible."""
    succ = _legal_successors(tt)
    counts = [0] * tt.num_branches
    for b in range(tt.num_branches):
        walk = _cycle_through(succ, 2 * b)
        if walk is None:
            return None
        for node in walk:
            counts[node // 2] += 1
    witness = WeightVector(tuple(Fraction(c) for c in counts))
    if not witness.satisfies_switch_conditions(tt) or any(c <= 0 for c in counts):
        raise AssertionError("closed-walk witness violated the switch conditions")
    return witness


def carries_positive(tt: TrainTrack) -> bool:
    """True iff some strictly positive weight vector satisfies the switch conditions."""
    return positive_weight_witness(tt) is not None


def standard_torus_track() -> TrainTrack:
    """The standard maximal once-punctured-torus track: two loops joined
    through a connector branch at two trivalent switches; cone dimension 2."""
    return TrainTrack(
        num_branches=3,
        switches=(
            ((0, 4), (2,)),
            ((3,), (1, 5)),
        ),
    )


def single_loop_track() -> TrainTrack:
    return TrainTrack(num_branches=1, switches=(((0,), (1,)),))


def loop_with_stub_track() -> TrainTrack:
    """A loop plus a dead-end stub: both stub ends enter the same switch side,
    so no closed legal trajectory ever traverses the stub."""
    return TrainTrack(num_branches=2, switches=(((0, 2, 3), (1,)),))
