"""The oracle on its own: known values of the zero-shear punctured torus."""

import math

import oracle
from oracle import MP

ZERO = (0.0, 0.0, 0.0)


def markov_numbers(limit: int) -> set:
    """Every Markov number up to limit, by Vieta jumps from (1, 1, 1)."""
    seen, found, todo = set(), set(), [(1, 1, 1)]
    while todo:
        triple = tuple(sorted(todo.pop()))
        if triple in seen or triple[2] > limit:
            continue
        seen.add(triple)
        found.update(triple)
        x, y, z = triple
        todo += [(3 * y * z - x, y, z), (x, 3 * x * z - y, z), (x, y, 3 * x * y - z)]
    return found


def christoffel(p: int, q: int) -> str:
    """Christoffel word of p/q with p >= 0, by mediants: 1/0 -> a, 0/1 -> b."""
    left, right = ((1, 0), "a"), ((0, 1), "b")
    for vector, word in (left, right):
        if vector == (p, q):
            return word
    while True:
        mid = ((left[0][0] + right[0][0], left[0][1] + right[0][1]), left[1] + right[1])
        if mid[0] == (p, q):
            return mid[1]
        if q * mid[0][0] < p * mid[0][1]:
            right = mid
        else:
            left = mid


def test_zero_shear_trace_triple_and_systole():
    a, b = oracle.generators(ZERO)
    triple = [abs(oracle.trace(a)), abs(oracle.trace(b)), abs(oracle.word_trace(a, b, "ab"))]
    assert all(abs(t - 3) < MP.mpf("1e-45") for t in triple)
    assert abs(oracle.commutator_trace(a, b) + 2) < MP.mpf("1e-45")
    lengths = {s: oracle.length_from_trace(t) for s, t in oracle.Holonomy(a, b).slope_traces(12).items()}
    systole = min(lengths.values())
    assert abs(systole - 2 * MP.acosh(MP.mpf(3) / 2)) < MP.mpf("1e-45")
    assert abs(lengths[(1, 0)] - systole) < MP.mpf("1e-45")


def test_zero_shear_simple_traces_are_three_times_markov_numbers():
    traces = oracle.Holonomy.from_shears(ZERO).slope_traces(14)
    markov = markov_numbers(10**12)
    for slope, t in traces.items():
        m = abs(t) / 3
        k = int(MP.nint(m))
        assert abs(m - k) < MP.mpf("1e-30"), slope
        assert k in markov, (slope, k)
    assert {3, 6, 15, 39, 87, 102} <= {int(MP.nint(abs(t))) for t in traces.values()}


def test_farey_recursion_matches_direct_products_and_tree_walk():
    hol = oracle.Holonomy.from_shears((0.37, -1.2, 0.83))
    traces = hol.slope_traces(16)
    assert len(traces) == oracle.slope_count(16)
    for (p, q), t in traces.items():
        if p >= 0:
            direct = oracle.word_trace(hol.a, hol.b, christoffel(p, q))
        else:
            direct = oracle.word_trace(hol.a, hol.b, christoffel(-p, q).translate(str.maketrans("aA", "Aa")))
        assert abs(direct - t) <= MP.mpf("1e-40") * abs(t), (p, q)
        assert abs(hol.slope_trace(p, q) - t) <= MP.mpf("1e-40") * abs(t), (p, q)


def test_slope_count_matches_a_direct_enumeration():
    for n in (1, 2, 8, 12, 30):
        direct = {(1, 0)} | {
            (p, q) for q in range(1, n + 1) for p in range(-n, n + 1)
            if abs(p) + q <= n and math.gcd(abs(p), q) == 1
        }
        assert oracle.slope_count(n) == len(direct)


def test_float_context_agrees_with_fifty_digits():
    g, h = (0.4, -0.9, 0.5), (-1.1, 0.2, 0.9)
    assert abs(oracle.k_over_slopes(g, h, 12, oracle.FLOAT) - float(oracle.k_over_slopes(g, h, 12))) < 1e-12
