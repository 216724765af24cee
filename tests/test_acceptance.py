"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line with the
measured statistic and asserts it.  Tolerances and runtime budgets are
pinned in the assertions, not in helper config.
"""

import json
import time

import numpy as np
import pytest

from monotone_lab import (
    BRRequest,
    DualPair,
    FiniteGraph,
    GapQuery,
    HalfSqNorm,
    IndicatorFn,
    Linear,
    NormFn,
    NormTag,
    PairedPoint,
    Polytope,
    Quadratic,
    Subdifferential,
    SumFn,
    SupportFn,
    Translate,
    br_corollary,
    br_point,
    check_fp,
    check_fpv,
    fitz_membership,
    fuzzy_gap_dual,
    fuzzy_gap_primal,
    gap,
    gap_euclidean_oracle,
    interval,
    minimize,
    ni_infimum,
    normal_cone,
    phi,
    quasidense_witness,
    report_json,
    run_scenario,
    singleton,
    strip_timings,
    strong_max_dual,
    strong_max_primal,
    sum_test,
    support_subdiff,
    tail_experiment,
)

PAIR1 = DualPair(1, NormTag.L2)
PAIR2 = DualPair(2, NormTag.L2)
SQUARE = Polytope(vertices=np.array([[1.0, 1.0], [1.0, -1.0],
                                     [-1.0, 1.0], [-1.0, -1.0]]))
SQUARE_DUAL = Polytope(vertices=SQUARE.vertices)


def _line(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def arr(*vals):
    return np.array([float(v) for v in vals])


# -------------------------------------------------------------------------
# 1. Fitzpatrick inequality and equality set on finite graphs


def test_criterion_01_fitzpatrick_inequality_and_equality_set():
    t0 = time.perf_counter()
    generators = [
        lambda u: u,
        lambda u: 2.0 * u + 0.5,
        lambda u: u ** 3,
        np.tanh,
        lambda u: u + 0.3 * np.sin(u),  # slope in [0.7, 1.3], monotone
    ]
    rng = np.random.default_rng(101)
    worst_slack = np.inf
    equality_errors = 0
    for g in generators:
        grid = np.linspace(-2.0, 2.0, 81)
        pts = tuple(PairedPoint([float(u)], [float(g(u))]) for u in grid)
        G = FiniteGraph(pair=PAIR1, points=pts)
        # probe cloud: every graph point, plus random probes kept clear
        # of the generating curve (a finite grid cannot resolve the
        # equality set closer than its own spacing)
        fine = np.linspace(-2.5, 2.5, 2001)
        curve = np.stack([fine, g(fine)], axis=1)
        probes = [(p.x[0], p.xstar[0], True) for p in pts]
        while len(probes) < 500:
            x, xs = rng.uniform(-2.0, 2.0, size=2)
            d = np.min(np.hypot(curve[:, 0] - x, curve[:, 1] - xs))
            if d >= 0.1:
                probes.append((x, xs, False))
        for x, xs, on_graph in probes:
            ev = phi(G, arr(x), arr(xs))
            slack = ev.value - x * xs
            worst_slack = min(worst_slack, slack)
            if (slack <= 1e-8) != on_graph:
                equality_errors += 1
    elapsed = time.perf_counter() - t0
    ok = worst_slack >= -1e-8 and equality_errors == 0 and elapsed < 5.0
    _line("criterion 1 (Fitzpatrick inequality / equality set)", ok,
          f"worst slack {worst_slack:.2e}, equality mismatches "
          f"{equality_errors}, {elapsed:.2f}s")


# -------------------------------------------------------------------------
# 2. Euclidean gap identity


def test_criterion_02_euclidean_gap_identity():
    t0 = time.perf_counter()
    families = [
        Subdifferential(pair=PAIR2, f=HalfSqNorm(2)),
        Subdifferential(pair=PAIR1, f=NormFn(1)),
        normal_cone(PAIR2, SQUARE),
        support_subdiff(PAIR2, SQUARE_DUAL),
        Linear(pair=DualPair(4, NormTag.L2), M=np.triu(np.ones((4, 4)))),
    ]
    rng = np.random.default_rng(202)
    worst = 0.0
    for S in families:
        n = S.pair.dim
        for _ in range(100):
            t = PairedPoint(rng.uniform(-3, 3, n), rng.uniform(-3, 3, n))
            a = gap(S, GapQuery(t)).value
            b = gap_euclidean_oracle(S, t).value
            worst = max(worst, abs(a - b))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-7 and elapsed < 10.0
    _line("criterion 2 (Euclidean gap identity)", ok,
          f"max |gap - oracle| {worst:.2e} over 500 probes, {elapsed:.2f}s")


# -------------------------------------------------------------------------
# 3. Subdifferential quasidensity: resolvent and constructive paths


def test_criterion_03_subdifferential_quasidensity_both_paths():
    t0 = time.perf_counter()
    families = [
        HalfSqNorm(1),
        NormFn(1),
        IndicatorFn(interval(-1.0, 1.0)),
        SupportFn(interval(-1.0, 1.0)),
        Translate(NormFn(1), shift=arr(0.5), tilt=arr(-0.25)),
    ]
    rng = np.random.default_rng(303)
    worst_res = worst_wit = 0.0
    disagreements = 0
    for f in families:
        S = Subdifferential(pair=PAIR1, f=f)
        for _ in range(100):
            x, xs = rng.uniform(-2, 2, size=2)
            res_gap = gap(S, GapQuery(PairedPoint(arr(x), arr(xs)))).value
            p = quasidense_witness(f, arr(x), arr(xs), 1e-6)
            a, b = p.x - x, p.xstar - xs
            wit_gap = float(0.5 * a @ a + 0.5 * b @ b + a @ b)
            worst_res = max(worst_res, res_gap)
            worst_wit = max(worst_wit, wit_gap)
            if (res_gap <= 1e-6) != (wit_gap <= 1e-6):
                disagreements += 1
    elapsed = time.perf_counter() - t0
    ok = (worst_res <= 1e-6 and worst_wit <= 1e-6 and disagreements == 0
          and elapsed < 30.0)
    _line("criterion 3 (quasidensity of subdifferentials, both paths)", ok,
          f"worst resolvent gap {worst_res:.2e}, worst witness gap "
          f"{worst_wit:.2e}, disagreements {disagreements}, {elapsed:.2f}s")


# -------------------------------------------------------------------------
# 4. Near-minimizer subgradient certificates


def test_criterion_04_br_certificates_and_sequence():
    families = [
        HalfSqNorm(1),
        NormFn(1),
        Quadratic(np.array([[2.0, 0.5], [0.5, 1.0]]), arr(-1.0, 0.5)),
        SumFn(NormFn(1), HalfSqNorm(1)),
        Translate(NormFn(1), shift=arr(-1.5), tilt=arr(0.0)),
    ]
    rng = np.random.default_rng(404)
    worst_slack = np.inf
    bad = 0
    count = 0
    for h in families:
        xmin, f_inf = minimize(h)
        for _ in range(10):
            u = xmin + rng.uniform(-0.2, 0.2, size=h.dim)
            hu = float(h.eval(u))
            beta = 2.0 * max(hu - f_inf, 1e-3)
            res = br_point(BRRequest(h, u, 1.0, beta))
            count += 1
            m = min(res.slack_value, res.slack_dist, res.slack_slope)
            worst_slack = min(worst_slack, m)
            if m < -1e-7 or res.membership == "no":
                bad += 1
    # shrinking-slope sequence: beta = 1/n drives the value monotonically
    h = SumFn(Translate(HalfSqNorm(1), shift=arr(-1.0), tilt=arr(0.0)),
              NormFn(1))
    values = [float(h.eval(br_corollary(h, 1.0 / n).s))
              for n in range(1, 21)]
    monotone = all(b <= a + 1e-8 for a, b in zip(values, values[1:]))
    ok = count == 50 and bad == 0 and monotone
    _line("criterion 4 (near-minimizer subgradient certificates)", ok,
          f"{count} requests, {bad} failures, worst slack "
          f"{worst_slack:.2e}, sequence monotone within 1e-8: {monotone}")


# -------------------------------------------------------------------------
# 5. Extension membership matches the conjugate subdifferential


def _membership_probes(S, rng, n):
    probes = []
    for _ in range(50):
        z = rng.uniform(-3, 3, size=n)
        p = S.resolvent(z)
        probes.append((p.xstar.copy(), p.x.copy()))
    for _ in range(50):
        z = rng.uniform(-3, 3, size=n)
        p = S.resolvent(z)
        d = rng.uniform(0.05, 0.5, size=n) * rng.choice([-1.0, 1.0], size=n)
        if rng.random() < 0.5:
            probes.append((p.xstar + d, p.x.copy()))
        else:
            probes.append((p.xstar.copy(), p.x + d))
    return probes


def test_criterion_05_extension_equals_conjugate_subdifferential():
    rng = np.random.default_rng(505)
    families = [
        Quadratic(np.array([[1.0]]), arr(0.0)),
        NormFn(1),
        IndicatorFn(interval(-1.0, 1.0)),
        SupportFn(interval(-1.0, 1.0)),
    ]
    disagreements = unknowns = total = 0
    for f in families:
        S = Subdifferential(pair=PAIR1, f=f)
        fstar = f.conjugate_fn()
        assert fstar is not None
        for ystar, ystarstar in _membership_probes(S, rng, 1):
            total += 1
            m = fitz_membership(S, ystar, ystarstar, tol=1e-6)
            c = fstar.subdiff_contains(ystar, ystarstar, tol=1e-6)
            if m == "unknown" or c == "unknown":
                unknowns += 1
            elif (m == "in") != (c == "yes"):
                disagreements += 1

    # worked case A: the normal cone of K; (y*, y**) is in the
    # extension iff y** is in K and <y*, y**> attains sup<K, y*>
    worked_bad = 0
    for K in (interval(-1.0, 1.0), SQUARE):
        pair = DualPair(K.dim, NormTag.L2)
        S = normal_cone(pair, K)
        for _ in range(40):
            yss = rng.uniform(-1.5, 1.5, size=K.dim)
            ystar = rng.uniform(-1.5, 1.5, size=K.dim)
            inside = K.contains(yss, tol=1e-9)
            attains = abs(float(ystar @ yss) - K.support(ystar)) <= 1e-6
            margin = abs(float(ystar @ yss) - K.support(ystar))
            if 1e-6 < margin < 5e-2 or abs(K.dist(yss) - 0.0) < 1e-9 \
                    and not inside:
                continue  # skip borderline draws
            m = fitz_membership(S, ystar, yss, tol=1e-6)
            expected = "in" if (inside and attains) else "out"
            if m != expected:
                worked_bad += 1

    # worked case B: the support subdifferential of Kt; membership iff
    # y* is in Kt and <y*, y**> attains sup<Kt, y**>
    for Kt in (interval(-1.0, 1.0), SQUARE_DUAL):
        pair = DualPair(Kt.dim, NormTag.L2)
        S = support_subdiff(pair, Kt)
        for _ in range(40):
            ystar = rng.uniform(-1.5, 1.5, size=Kt.dim)
            yss = rng.uniform(-1.5, 1.5, size=Kt.dim)
            inside = Kt.contains(ystar, tol=1e-9)
            margin = abs(float(ystar @ yss) - Kt.support(yss))
            attains = margin <= 1e-6
            if 1e-6 < margin < 5e-2:
                continue
            m = fitz_membership(S, ystar, yss, tol=1e-6)
            expected = "in" if (inside and attains) else "out"
            if m != expected:
                worked_bad += 1

    ok = disagreements == 0 and unknowns == 0 and worked_bad == 0
    _line("criterion 5 (extension = conjugate subdifferential)", ok,
          f"{total} probes, {disagreements} disagreements, {unknowns} "
          f"unknowns, worked-case mismatches {worked_bad}")


# -------------------------------------------------------------------------
# 6. Windowed class checks never contradict membership


def test_criterion_06_windowed_class_consistency():
    rng = np.random.default_rng(606)
    ops = [
        Subdifferential(pair=PAIR1, f=NormFn(1)),
        Subdifferential(pair=PAIR1, f=HalfSqNorm(1)),
        normal_cone(PAIR1, interval(-1.0, 1.0)),
        Linear(pair=PAIR1, M=np.array([[2.0]])),
    ]
    bad = 0
    for trial in range(50):
        S = ops[trial % len(ops)]
        w = rng.uniform(-2.0, 2.0)
        ws = rng.uniform(-2.0, 2.0)
        U = interval(w - 1.0, w + 1.0)
        v = check_fpv(S, U, arr(w), arr(ws), budget=150, seed=trial)
        if v.premise_holds and v.conclusion == "out":
            bad += 1
        Ut = interval(ws - 1.0, ws + 1.0)
        v = check_fp(S, Ut, arr(w), arr(ws), budget=150, seed=trial)
        if v.premise_holds and v.conclusion == "out":
            bad += 1

    G = FiniteGraph(pair=PAIR1, points=(PairedPoint([0.0], [0.0]),))
    ni = ni_infimum(G, arr(1.0), arr(1.0))
    ni_ok = ni == pytest.approx(1.0, abs=1e-12) and ni > 0.5
    ok = bad == 0 and ni_ok
    _line("criterion 6 (windowed class consistency)", ok,
          f"100 windowed trials, {bad} premise-and-out conflicts; "
          f"truncated-graph infimum {ni:.6f} (want 1)")


# -------------------------------------------------------------------------
# 7. Strong maximality searches


def test_criterion_07_strong_maximality():
    rng = np.random.default_rng(707)
    abs_op = Subdifferential(pair=PAIR1, f=NormFn(1))
    sq_op = Subdifferential(pair=PAIR1, f=HalfSqNorm(1))
    cone = normal_cone(PAIR1, interval(-1.0, 1.0))
    worst = 0.0
    bad = 0

    dual_configs = []
    for _ in range(10):
        c = rng.uniform(-1.0, 1.0)
        dual_configs.append((sq_op, c, interval(c - 0.3, c + 0.3)))
    for _ in range(8):
        a = rng.uniform(-1.0, 0.8)
        dual_configs.append((abs_op, 0.0, interval(a, a + 0.2)))
    for _ in range(7):
        b = rng.uniform(0.0, 2.0)
        dual_configs.append((cone, 1.0, interval(b, b + 0.5)))
    assert len(dual_configs) == 25
    for S, w, Wt in dual_configs:
        res = strong_max_dual(S, arr(w), Wt)
        if not (res.premise_holds and res.found and res.residual <= 1e-6):
            bad += 1
        worst = max(worst, res.residual)

    primal_configs = []
    for _ in range(10):
        c = rng.uniform(-1.0, 1.0)
        primal_configs.append((sq_op, interval(c - 0.3, c + 0.3), c))
    for _ in range(8):
        s = rng.uniform(0.5, 5.0) * (1.0 if rng.random() < 0.5 else -1.0)
        primal_configs.append((cone, interval(-1.0, 1.0), s))
    for _ in range(7):
        s = rng.uniform(-0.9, 0.9)
        primal_configs.append((abs_op, interval(-0.5, 0.5), s))
    assert len(primal_configs) == 25
    for S, W, ws in primal_configs:
        res = strong_max_primal(S, W, arr(ws))
        if not (res.premise_holds and res.found and res.residual <= 1e-6):
            bad += 1
        worst = max(worst, res.residual)

    # singleton fuzz reduces to the plain gap
    reduction = 0.0
    for _ in range(20):
        w, ws = rng.uniform(-2, 2, size=2)
        plain = gap(abs_op, GapQuery(PairedPoint(arr(w), arr(ws)))).value
        d = fuzzy_gap_dual(abs_op, arr(w),
                           singleton(arr(ws))).value
        p = fuzzy_gap_primal(abs_op, singleton(arr(w)), arr(ws)).value
        reduction = max(reduction, abs(d - plain), abs(p - plain))

    ok = bad == 0 and reduction <= 1e-12
    _line("criterion 7 (strong maximality)", ok,
          f"50 configs, {bad} failures, worst residual {worst:.2e}, "
          f"singleton reduction {reduction:.2e}")


# -------------------------------------------------------------------------
# 8. Sum rules as instances


def test_criterion_08_sum_rules():
    S = Subdifferential(pair=PAIR1, f=NormFn(1))
    T = normal_cone(PAIR1, interval(-1.0, 1.0))

    dom = sum_test(S, T, "domain", probes=50, seed=0, eta=1e-6)
    rng_rep = sum_test(T, S, "range", probes=50, seed=0, eta=1e-3)
    disjoint = sum_test(
        normal_cone(PAIR1, interval(-2.0, -1.0)),
        normal_cone(PAIR1, interval(1.0, 2.0)),
        "domain", probes=5, seed=0,
    )
    ok = (
        dom["status"] == "ok" and dom["failed"] == 0 and dom["errors"] == 0
        and rng_rep["status"] == "ok" and rng_rep["failed"] == 0
        and disjoint["status"] == "skipped"
    )
    _line("criterion 8 (sum rules)", ok,
          f"domain worst gap {dom.get('worst_gap', float('nan')):.2e} "
          f"(eta 1e-6), range worst gap "
          f"{rng_rep.get('worst_gap', float('nan')):.2e} (eta 1e-3), "
          f"disjoint case: {disjoint['status']}")


# -------------------------------------------------------------------------
# 9. Tail truncation experiment


def test_criterion_09_tail_experiment():
    t0 = time.perf_counter()
    rows = tail_experiment([1, 2, 4, 8, 16])
    elapsed = time.perf_counter() - t0
    n1 = rows[0]
    bounds_ok = all(
        r["status"] == "upper_bound" and r["gap_bound"] >= 0.0
        and r["steps"] > 0 and r["restarts"] > 0 and "witness" in r
        for r in rows[1:]
    )
    ok = (elapsed < 60.0 and n1["status"] == "exact"
          and abs(n1["gap_bound"]) <= 1e-9 and bounds_ok)
    detail_bounds = ", ".join(f"n={r['n']}: {r['gap_bound']:.3g}"
                              for r in rows)
    _line("criterion 9 (tail experiment)", ok,
          f"{detail_bounds}; {elapsed:.1f}s (n >= 2 reported as upper "
          f"bounds only)")


# -------------------------------------------------------------------------
# 10. Bit-identical reports under a fixed seed


def test_criterion_10_reproducibility(tmp_path):
    data = {
        "schema": 1,
        "space": {"dim": 1, "norm": "l2"},
        "operators": {
            "abs": {"subdiff": {"norm": {"dim": 1}}},
            "cone": {"normal_cone": {"polytope": [[-1.0], [1.0]]}},
        },
        "tasks": [
            {"kind": "gap", "operator": "abs", "seed": 7, "count": 15},
            {"kind": "fitz", "operator": "cone", "seed": 7,
             "points": [[[0.5], [1.0]], [[2.0], [1.0]], [[0.0], [0.0]]]},
            {"kind": "classify", "operator": "abs", "class": "strongmax",
             "seed": 7, "w": [0.0],
             "fuzz": {"polytope": [[0.2], [0.4]]}},
            {"kind": "br", "mode": "corollary", "seed": 7,
             "fn": {"half_sq": {"dim": 1}}, "beta": 0.25},
            {"kind": "sum_test", "S": "abs", "T": "cone", "seed": 7,
             "mode": "domain", "probes": 10},
            {"kind": "tail_experiment", "n_list": [1, 2], "seed": 7,
             "step_cap": 3000},
        ],
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    a = report_json(strip_timings(run_scenario(str(path))))
    b = report_json(strip_timings(run_scenario(str(path))))
    ok = a == b
    _line("criterion 10 (reproducibility)", ok,
          f"two runs, identical stripped reports: {ok}")
