"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  Tolerances are pinned here
and nowhere else; random sampling is seeded so the suite is reproducible.
"""

import math
import random
import time

import pytest

from stretchlab import (
    HPoint,
    ShearStructure,
    Slope,
    antisymmetry_residual,
    asymmetry_probe,
    carries_positive,
    cone_dimension,
    convex_cloud,
    curve_length,
    enumerate_slopes,
    holonomy_of_loop,
    hyp_distance,
    is_recurrent,
    k_lower_bound,
    puncture_loops,
    shear_to_holonomy_rep,
    shears_from_coefficients,
    stretch,
    stretch_march,
    stretch_triangle_map,
    weight_cone_basis,
)
from stretchlab.hypgeom import in_ideal_triangle
from stretchlab.metric import nonperipheral_classes

from track_corpus import CORPUS
from util import TORUS, random_complete


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:2d} {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def sample_structures(seed: int, count: int, scale: float = 1.5):
    rng = random.Random(seed)
    return [random_complete(rng, scale=scale) for _ in range(count)]


# 1. completeness: parabolic punctures and commutator trace -2, 1000 samples

def test_criterion_1_completeness():
    loops = puncture_loops(TORUS)
    worst_tr = 0.0
    worst_comm = 0.0
    for S in sample_structures(101, 1000):
        for loop in loops:
            worst_tr = max(worst_tr, abs(abs(holonomy_of_loop(S, loop).trace) - 2.0))
        worst_comm = max(worst_comm, abs(shear_to_holonomy_rep(S).commutator_trace() + 2.0))
    ok = worst_tr <= 1e-9 and worst_comm <= 1e-9
    report(1, ok, f"puncture |trace|-2 max {worst_tr:.2e}, commutator+2 max {worst_comm:.2e} (tol 1e-9)")


# 2. Fricke/Markov identity and the symmetric point

def test_criterion_2_fricke_identity():
    worst = 0.0
    for S in sample_structures(101, 1000):
        x, y, z = shear_to_holonomy_rep(S).trace_triple()
        worst = max(worst, abs(x * x + y * y + z * z - x * y * z))
    zero = ShearStructure(TORUS, (0.0, 0.0, 0.0))
    triple = [abs(t) for t in shear_to_holonomy_rep(zero).trace_triple()]
    systole = curve_length(zero, Slope(1, 0))
    triple_ok = max(abs(t - 3.0) for t in triple) <= 1e-9
    systole_ok = abs(systole - 2.0 * math.acosh(1.5)) <= 1e-9
    ok = worst <= 1e-9 and triple_ok and systole_ok
    report(2, ok, f"Fricke residual max {worst:.2e}, zero-shear triple {tuple(round(t, 9) for t in triple)}, systole {systole:.9f}")


# 3. simple-curve sufficiency: slope sweep equals conjugacy-class sweep

def test_criterion_3_simple_curves_suffice():
    slopes = enumerate_slopes(30)
    words = nonperipheral_classes(8)
    rng = random.Random(303)
    worst = 0.0
    for _ in range(25):
        g = random_complete(rng, scale=0.8)
        h = random_complete(rng, scale=0.8)
        k_s = k_lower_bound(g, h, slopes).k_lower
        k_w = k_lower_bound(g, h, words).k_lower
        worst = max(worst, abs(k_s - k_w))
    ok = worst <= 1e-6
    report(3, ok, f"25 pairs, max |K_slopes - K_words| = {worst:.2e} (tol 1e-6)")


# 4. exact triangle inequality on a shared curve set

def test_criterion_4_triangle_inequality():
    curves = enumerate_slopes(30)
    rng = random.Random(404)
    worst_violation = -math.inf
    for _ in range(100):
        f, g, h = (random_complete(rng) for _ in range(3))
        kfh = k_lower_bound(f, h, curves).k_lower
        kfg = k_lower_bound(f, g, curves).k_lower
        kgh = k_lower_bound(g, h, curves).k_lower
        worst_violation = max(worst_violation, kfh - kfg - kgh)
    ok = worst_violation <= 1e-12
    report(4, ok, f"100 triples, max K(f,h)-K(f,g)-K(g,h) = {worst_violation:.2e} (tol 1e-12)")


# 5. directed positivity with explicit witnesses

def test_criterion_5_positivity():
    curves = enumerate_slopes(30)
    rng = random.Random(505)
    count = 0
    min_k = math.inf
    witness_example = None
    while count < 100:
        g = random_complete(rng)
        h = random_complete(rng)
        if max(abs(a - b) for a, b in zip(g.shears, h.shears)) < 0.1:
            continue
        rep = k_lower_bound(g, h, curves)
        if rep.k_lower <= 0.0:
            report(5, False, f"pair with K_lower = {rep.k_lower}")
        min_k = min(min_k, rep.k_lower)
        witness_example = rep.best_curve
        count += 1
    report(5, True, f"100 distinct pairs, min K_lower = {min_k:.3e} > 0, witness e.g. {witness_example.spec()}")


# 6. stretch Lipschitz bound with gap reported

def test_criterion_6_stretch_bound():
    curves = enumerate_slopes(30)
    rng = random.Random(606)
    ok = True
    gaps = {}
    for t in (0.1, 0.5, 1.0):
        worst_ratio = -math.inf
        for _ in range(20):
            g = random_complete(rng)
            h = stretch(g, t)
            for s in curves:
                ratio = math.log(curve_length(h, s) / curve_length(g, s))
                worst_ratio = max(worst_ratio, ratio)
                if ratio > t + 1e-9:
                    ok = False
        gaps[t] = t - worst_ratio
    detail = ", ".join(f"t={t}: gap {gaps[t]:.4f}" for t in gaps)
    report(6, ok, f"all log-ratios <= t + 1e-9; measured gaps (reported, not asserted): {detail}")


# 7. ideal-triangle stretch map: K-Lipschitz and exact side scaling

def _triangle_point(rng):
    while True:
        x = rng.uniform(0.0, 1.0)
        y = math.exp(rng.uniform(math.log(0.05), math.log(10.0)))
        p = HPoint(x, y)
        if in_ideal_triangle(p):
            return p


def test_criterion_7_triangle_map():
    rng = random.Random(707)
    ok = True
    worst_excess = -math.inf
    for _ in range(10_000):
        K = rng.choice((1.1, 1.5, 2.0))
        p, q = _triangle_point(rng), _triangle_point(rng)
        d = hyp_distance(p, q)
        d_img = hyp_distance(stretch_triangle_map(p, K), stretch_triangle_map(q, K))
        excess = d_img - K * d * (1.0 + 1e-6)
        worst_excess = max(worst_excess, excess)
        if excess > 0.0:
            ok = False
    side_ok = True
    K = 1.8
    for s in (-1.5, -0.2, 0.7, 2.0):
        img = stretch_triangle_map(HPoint(0.0, math.exp(s)), K)
        if abs(math.log(img.y) - K * s) > 1e-9:
            side_ok = False
    report(7, ok and side_ok, f"10^4 pairs K-Lipschitz (worst slack {worst_excess:.2e}), side arc length x K within 1e-9")


# 8. gradient cloud convexity

def test_criterion_8_convexity():
    rng = random.Random(808)
    ok = True
    for _ in range(20):
        g = random_complete(rng)
        rep = convex_cloud(g, 20)
        if not (rep.origin_interior and rep.all_vertices):
            ok = False
    report(8, ok, "20 structures, N=20: origin strictly interior and all points hull vertices (tol 1e-8)")


# 9. earthquake antisymmetry

def test_criterion_9_antisymmetry():
    rng = random.Random(909)
    slopes = [s for s in enumerate_slopes(5)]
    worst = 0.0
    for _ in range(50):
        g = random_complete(rng, scale=1.0)
        s, t = rng.sample(slopes, 2)
        worst = max(worst, abs(antisymmetry_residual(g, s, t)))
    same = antisymmetry_residual(random_complete(rng), Slope(2, 1), Slope(2, 1))
    ok = worst <= 1e-4 and same == 0.0
    report(9, ok, f"50 triples |p|+|q|<=5: max |E_s len_t + E_t len_s| = {worst:.2e} (tol 1e-4); s=t residual {same}")


# 10. train-track suite against the SCC oracle

def test_criterion_10_train_tracks():
    import networkx as nx

    def oracle(tt):
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

    ok = len(CORPUS) == 10
    details = []
    for name, tt, cone_dim, recurrent in CORPUS:
        dim = len(weight_cone_basis(tt))
        rec = is_recurrent(tt)
        if dim != cone_dim or cone_dimension(tt) != dim or rec != oracle(tt) or rec != recurrent:
            ok = False
        if rec and not carries_positive(tt):
            ok = False
        details.append(f"{name}:dim{dim}{'R' if rec else 'r'}")
    std_dim = len(weight_cone_basis([c for c in CORPUS if c[0] == "standard_torus"][0][1]))
    ok = ok and std_dim == 2
    report(10, ok, f"10-track corpus matches SCC oracle, exact dims: {' '.join(details)}")


# 11. march surrogate

def _pair_with_k_in_range(rng, lo, hi, curves):
    g = random_complete(rng, scale=1.0)
    direction = (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
    norm = math.hypot(*direction)
    direction = (direction[0] / norm, direction[1] / norm)
    scale_lo, scale_hi = 0.05, 4.0
    for _ in range(40):
        c = 0.5 * (scale_lo + scale_hi)
        offset = shears_from_coefficients(TORUS, (c * direction[0], c * direction[1]))
        h = ShearStructure(TORUS, tuple(x + o for x, o in zip(g.shears, offset)))
        k = k_lower_bound(g, h, curves).k_lower
        if k < lo:
            scale_lo = c
        elif k > hi:
            scale_hi = c
        else:
            return g, h, k
    raise AssertionError("could not calibrate a pair")


def test_criterion_11_march():
    curves = enumerate_slopes(12)
    rng = random.Random(1111)
    ok = True
    details = []
    for i in range(10):
        g, h, k0 = _pair_with_k_in_range(rng, 0.3, 1.0, curves)
        t0 = time.time()
        result = stretch_march(g, h, step=0.01, max_steps=500)
        elapsed = time.time() - t0
        ks = [k for _, k, _ in result.records]
        monotone = all(ks[j + 1] <= ks[j] + 1e-3 for j in range(len(ks) - 1))
        if not (result.converged and monotone and elapsed < 60.0):
            ok = False
        details.append(f"K0={k0:.2f}->{len(result.records)} steps/{elapsed:.1f}s")
    report(11, ok, f"10 pairs below 0.01 within 500 steps, monotone (1e-3): {'; '.join(details[:3])} ...")


# 12. asymmetry on pinched pairs

def test_criterion_12_asymmetry():
    # g pinches a short geodesic (built by stretching a base far along one
    # direction), h is generic: maps out of the pinched surface need a huge
    # constant, so K(g,h) dwarfs K(h,g)
    rng = random.Random(1212)
    ok = True
    ratios = []
    base = ShearStructure(TORUS, (0.0, 0.8, -0.8))
    for _ in range(5):
        g = stretch(base, math.log(8.0 / 0.8))
        h = random_complete(rng, scale=0.4)
        kgh, khg = asymmetry_probe(g, h, 20)
        ratios.append(kgh / khg)
        if kgh / khg <= 2.0:
            ok = False
    report(12, ok, f"pinched pairs: K(g,h)/K(h,g) = {', '.join(f'{r:.2f}' for r in ratios)} (all > 2)")
