"""Switch relations, weight cones, recurrence; verdicts checked against an
independent strongly-connected-component oracle built on networkx."""

import random
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stretchlab import (
    TrainTrack,
    carries_positive,
    cone_dimension,
    is_recurrent,
    switch_matrix,
    weight_cone_basis,
)
from stretchlab.traintrack import (
    WeightVector,
    loop_with_stub_track,
    positive_weight_witness,
    single_loop_track,
    standard_torus_track,
)

from track_corpus import CORPUS


# -- independent recurrence oracle ----------------------------------------------

def oracle_recurrent(tt: TrainTrack) -> bool:
    """Every branch traversal lies on a directed cycle of legal continuations."""
    g = nx.DiGraph()
    g.add_nodes_from(range(2 * tt.num_branches))
    for one, two in tt.switches:
        for arrivals, exits in ((one, two), (two, one)):
            for h in arrivals:
                for h2 in exits:
                    g.add_edge(h, 2 * (h2 // 2) + 1 - (h2 % 2))
    on_cycle = set()
    for comp in nx.strongly_connected_components(g):
        sub = g.subgraph(comp)
        if len(comp) > 1 or any(sub.has_edge(v, v) for v in comp):
            on_cycle.update(comp)
    return all(2 * b in on_cycle and 2 * b + 1 in on_cycle for b in range(tt.num_branches))


# -- examples ----------------------------------------------------------------------

def test_switch_matrix_single_loop_zero_row():
    assert switch_matrix(single_loop_track()) == [[0]]


def test_switch_matrix_trivalent_row():
    tt = TrainTrack(3, (((0, 2), (4,)), ((5,), (1, 3))))
    assert switch_matrix(tt)[0] == [1, 1, -1]


def test_switch_matrix_dimensions():
    for _, tt, _, _ in CORPUS:
        m = switch_matrix(tt)
        assert len(m) == len(tt.switches)
        assert all(len(row) == tt.num_branches for row in m)


def test_weight_cone_single_loop():
    (v,) = weight_cone_basis(single_loop_track())
    assert v.weights == (Fraction(1),)


def test_weight_cone_standard_torus_dimension_two():
    assert len(weight_cone_basis(standard_torus_track())) == 2


def test_recurrence_examples():
    assert is_recurrent(single_loop_track())
    assert not is_recurrent(loop_with_stub_track())
    assert is_recurrent(standard_torus_track())


def test_carries_positive_examples():
    assert carries_positive(single_loop_track())
    assert not carries_positive(loop_with_stub_track())
    witness = positive_weight_witness(standard_torus_track())
    assert witness is not None
    assert all(w > 0 for w in witness.weights)
    assert witness.satisfies_switch_conditions(standard_torus_track())


# -- corpus-wide properties -----------------------------------------------------------

@pytest.mark.parametrize("name,tt,cone_dim,recurrent", CORPUS, ids=[c[0] for c in CORPUS])
def test_corpus_cone_dimensions_exact(name, tt, cone_dim, recurrent):
    basis = weight_cone_basis(tt)
    assert len(basis) == cone_dim
    matrix = switch_matrix(tt)
    for v in basis:
        for row in matrix:
            assert sum(r * w for r, w in zip(row, v.weights)) == 0


def _rank_dimension(tt: TrainTrack) -> int:
    return tt.num_branches - int(np.linalg.matrix_rank(np.array(switch_matrix(tt), dtype=float)))


@pytest.mark.parametrize("name,tt,cone_dim,recurrent", CORPUS, ids=[c[0] for c in CORPUS])
def test_corpus_cone_dimension_from_signed_switch_graph(name, tt, cone_dim, recurrent):
    assert cone_dimension(tt) == len(weight_cone_basis(tt)) == _rank_dimension(tt) == cone_dim


def seeded_track(rng: random.Random, max_branches: int) -> TrainTrack:
    """Random valid track: half-branches shuffled into switches of at least two,
    each cut into two nonempty sides."""
    n = rng.randint(1, max_branches)
    halves = list(range(2 * n))
    rng.shuffle(halves)
    sizes = [2] * rng.randint(1, n)
    for _ in range(2 * n - 2 * len(sizes)):
        sizes[rng.randrange(len(sizes))] += 1
    switches, start = [], 0
    for size in sizes:
        group, start = halves[start:start + size], start + size
        cut = rng.randint(1, size - 1)
        switches.append((tuple(group[:cut]), tuple(group[cut:])))
    return TrainTrack(n, tuple(switches))


def test_cone_dimension_on_seeded_random_tracks():
    rng = random.Random(1212)
    for i in range(1200):
        tt = seeded_track(rng, 32 if i % 4 == 0 else 10)
        assert cone_dimension(tt) == len(weight_cone_basis(tt)) == _rank_dimension(tt), tt


@pytest.mark.parametrize(
    "tt,rank",
    [
        # both ends of each branch on one side of one switch: columns (2, -2)
        (TrainTrack(2, (((0, 1), (2, 3)),)), 1),
        # the two ends on opposite sides of one switch: a zero column
        (TrainTrack(1, (((0,), (1,)),)), 0),
        (TrainTrack(2, (((0, 2), (1, 3)),)), 0),
        # a balanced theta (2 switches) beside an unbalanced pair of +-2 loops
        (TrainTrack(5, (((0,), (2, 4)), ((3, 5), (1,)), ((6, 7), (8, 9)))), 2),
        # a cycle of odd sign: one branch joins equal sides, one opposite sides
        (TrainTrack(3, (((0, 2), (4,)), ((1,), (3, 5)))), 2),
    ],
    ids=["two_pm2_columns", "zero_column", "two_zero_columns", "balanced_and_unbalanced", "odd_cycle"],
)
def test_cone_dimension_edge_cases(tt, rank):
    assert np.linalg.matrix_rank(np.array(switch_matrix(tt), dtype=float)) == rank
    assert cone_dimension(tt) == len(weight_cone_basis(tt)) == tt.num_branches - rank


@pytest.mark.parametrize("name,tt,cone_dim,recurrent", CORPUS, ids=[c[0] for c in CORPUS])
def test_corpus_recurrence_matches_oracle(name, tt, cone_dim, recurrent):
    assert oracle_recurrent(tt) == recurrent
    assert is_recurrent(tt) == recurrent


@pytest.mark.parametrize("name,tt,cone_dim,recurrent", CORPUS, ids=[c[0] for c in CORPUS])
def test_corpus_recurrent_implies_positive(name, tt, cone_dim, recurrent):
    positive = carries_positive(tt)
    assert positive == recurrent  # on this corpus the verdicts coincide
    if positive:
        witness = positive_weight_witness(tt)
        assert all(w > 0 for w in witness.weights)
        assert witness.satisfies_switch_conditions(tt)


def add_dead_end(tt: TrainTrack) -> TrainTrack:
    """Attach a stub branch with both ends on side one of switch 0."""
    n = tt.num_branches
    one, two = tt.switches[0]
    switches = ((one + (2 * n, 2 * n + 1), two),) + tt.switches[1:]
    return TrainTrack(n + 1, switches)


@pytest.mark.parametrize(
    "name,tt",
    [(c[0], c[1]) for c in CORPUS if c[3]],
    ids=[c[0] for c in CORPUS if c[3]],
)
def test_dead_end_stub_kills_recurrence(name, tt):
    stubbed = add_dead_end(tt)
    assert oracle_recurrent(stubbed) is False
    assert is_recurrent(stubbed) is False
    assert carries_positive(stubbed) is False


# -- validation --------------------------------------------------------------------------

def test_track_validation():
    with pytest.raises(ValueError):
        TrainTrack(1, (((0,), ()),))
    with pytest.raises(ValueError):
        TrainTrack(2, (((0, 1), (2,)),))  # half 3 missing
    with pytest.raises(ValueError):
        TrainTrack(1, (((0, 0), (1,)),))


def test_weight_vector_switch_check():
    tt = standard_torus_track()
    good = WeightVector((Fraction(1), Fraction(2), Fraction(1)))
    bad = WeightVector((Fraction(1), Fraction(1), Fraction(1)))
    assert good.satisfies_switch_conditions(tt)
    assert not bad.satisfies_switch_conditions(tt)


# -- randomized cross-check against the oracle ----------------------------------------------

@st.composite
def random_tracks(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    halves = list(range(2 * n))
    perm = draw(st.permutations(halves))
    cuts = sorted(draw(st.sets(st.integers(min_value=1, max_value=2 * n - 1), max_size=3)))
    groups = []
    prev = 0
    for c in cuts + [2 * n]:
        if c > prev:
            groups.append(perm[prev:c])
            prev = c
    switches = []
    for grp in groups:
        if len(grp) == 1:
            return None
        split = max(1, len(grp) // 2)
        switches.append((tuple(grp[:split]), tuple(grp[split:])))
    return TrainTrack(n, tuple(switches))


@given(random_tracks())
@settings(max_examples=150)
def test_random_tracks_match_oracle(tt):
    if tt is None:
        return
    assert is_recurrent(tt) == oracle_recurrent(tt)
    assert carries_positive(tt) == oracle_recurrent(tt)
    if carries_positive(tt):
        witness = positive_weight_witness(tt)
        assert all(w > 0 for w in witness.weights)
        assert witness.satisfies_switch_conditions(tt)
