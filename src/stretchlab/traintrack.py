"""Combinatorial train tracks: switch relations, weight cones, recurrence.

A track is abstract (not embedded): indexed branches plus switches, each
switch holding two nonempty lists of half-branches.  Half-branch id 2*b + e
is end e of branch b; every half-branch is placed exactly once.

Switch relations are integer rows of a signed graph's incidence matrix, so the
cone dimension comes from the graph's balanced components (`cone_dimension`);
an exact rational basis of the cone is computed on request.
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


def switch_matrix(tt: TrainTrack) -> list[list[int]]:
    """One row per switch: net +1/-1 coefficient per branch by side membership."""
    rows = []
    for one, two in tt.switches:
        row = [0] * tt.num_branches
        for half in one:
            row[half // 2] += 1
        for half in two:
            row[half // 2] -= 1
        rows.append(row)
    return rows


def _rational_nullspace(rows: list[list[int]], n: int) -> list[list[Fraction]]:
    """Basis of the kernel of the integer matrix, exact over the rationals."""
    m = [row[:] for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(n):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = Fraction(1, m[r][c])  # the pivot row, and so the basis, becomes exact rationals
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


def cone_dimension(tt: TrainTrack) -> int:
    """num_branches - rank of the switch matrix, the incidence matrix of a signed
    graph: branch b joins the switches of its ends, signed +1 on side one and -1
    on side two.  Its rank is #switches - #balanced components (Zaslavsky,
    "Signed graphs", 1982): those with a y != 0 on their switches that has
    y(s0) = -sign0 * sign1 * y(s1) along every branch, i.e. a consistent parity."""
    end = {}  # half-branch -> (switch, 0 on side one or 1 on side two)
    for s, (one, two) in enumerate(tt.switches):
        end.update((h, (s, 0)) for h in one)
        end.update((h, (s, 1)) for h in two)
    parent = list(range(len(tt.switches)))
    parity = [0] * len(tt.switches)  # 1 where y flips from a switch to its parent
    balanced = [True] * len(tt.switches)  # read at the roots
    size = [1] * len(tt.switches)  # the smaller tree goes under the larger

    def find(s: int) -> tuple[int, int]:
        p = 0
        while parent[s] != s:
            p ^= parity[s]
            s = parent[s]
        return s, p

    for b in range(tt.num_branches):
        (s0, side0), (s1, side1) = end[2 * b], end[2 * b + 1]
        (r0, p0), (r1, p1) = find(s0), find(s1)
        flip = 1 ^ side0 ^ side1  # y flips where both ends are on side one, or both on two
        if r0 == r1:
            balanced[r0] = balanced[r0] and (p0 ^ p1) == flip
        else:
            if size[r0] < size[r1]:
                r0, r1 = r1, r0
            parent[r1], parity[r1] = r0, p0 ^ p1 ^ flip
            size[r0] += size[r1]
            balanced[r0] = balanced[r0] and balanced[r1]
    return tt.num_branches - len(tt.switches) + sum(balanced[s] for s, r in enumerate(parent) if r == s)


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
    witness = WeightVector(tuple(counts))
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
