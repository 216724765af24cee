"""The package's calls at numpy's and the stdlib's C entry points
against the wrapper expressions they replaced, which are kept here as
the references: equal type, dtype, shape and bytes, signed zeros
included, on arrays with NaN, +-inf, +-0.0 and empty rows and 1-8
columns; and the same values, texts and errors for the norm tags, the
scenario reader and the report encoder."""

import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from monotone_lab import (Ball, DualPair, IndicatorFn, Linear, NormalCone,
                          NormTag, Polytope, ScenarioError, Subdifferential)
from monotone_lab import harness, sets
from monotone_lab.functions import NormFn
from monotone_lab.spaces import first_min, row_norms

NORMS = (NormTag.L1, NormTag.L2, NormTag.LINF)
SPECIAL = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0, 1.5, -1.5,
           1e-300, -1e-300, 5e-324, 1e308, -1e308]
ENTRIES = st.sampled_from(SPECIAL) | st.floats()


def stacks(rows=(0, 6), cols=(1, 8), entries=ENTRIES):
    """(m, n) float arrays."""
    return hnp.arrays(np.float64, st.tuples(st.integers(*rows),
                                            st.integers(*cols)),
                      elements=entries)


def vectors(size=(0, 8), entries=ENTRIES):
    return hnp.arrays(np.float64, st.integers(*size), elements=entries)


def same(a, b):
    """Equal type, dtype, shape and bytes."""
    assert type(a) is type(b)
    a, b = np.asarray(a), np.asarray(b)
    assert (a.dtype, a.shape) == (b.dtype, b.shape)
    assert a.tobytes() == b.tobytes()


pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


# ---------------------------------------------------------------------------
# spaces


@given(V=stacks() | vectors())
def test_row_norms_are_the_wrapper_reductions(V):
    same(row_norms(V, NormTag.L1), np.sum(np.abs(V), axis=-1))
    same(row_norms(V, NormTag.LINF), np.max(np.abs(V), axis=-1,
                                            initial=0.0))


def first_min_reference(v):
    low = np.min(v, initial=np.inf, where=~np.isnan(v))
    if not low < np.inf:
        return None
    return int(np.argmax(v == low))


@given(v=vectors())
def test_first_min_is_the_wrapper_reductions(v):
    assert first_min(v) == first_min_reference(v)


@given(text=st.sampled_from(["l1", "L2", "Linf", "LINF", "l3", "", " l1"])
       | st.text(max_size=5))
def test_a_norm_tag_parses_as_the_enum_call(text):
    try:
        expected = NormTag(text.lower())
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            NormTag.parse(text)
        assert str(got.value) == str(exc)
    else:
        assert NormTag.parse(text) is expected


# ---------------------------------------------------------------------------
# sets


def dist_reference(U, y, norm):
    """``dist`` with its finiteness gate ``y.sum()``."""
    y = np.asarray(y, dtype=float)
    y = U._check_rows(y) if y.ndim == 2 else U._check(y)
    if math.isfinite(y.sum()):
        d = U._dists(y, norm)
        return d if y.ndim == 2 else float(d)
    Y = np.atleast_2d(y)
    d = np.abs(Y).max(axis=1, initial=0.0)
    ok = np.isfinite(d)
    d[ok] = U._dists(Y[ok], norm)
    return d if y.ndim == 2 else float(d[0])


def interior_mask_reference(U, Y, tol):
    Y = U._check_rows(Y)
    delta = 16 * np.reshape(np.maximum(tol, 1e-9), (-1, 1))
    P = Y + delta * sets._axis_offsets(U.dim)[:, None, :]
    d = dist_reference(U, P.reshape(-1, U.dim), NormTag.L2)
    return (d.reshape(P.shape[:2]) <= tol).all(axis=0)


def box_bounds_reference(V):
    lo, hi = V.min(axis=0), V.max(axis=0)
    free = lo < hi
    k = int(np.count_nonzero(free))
    if k <= 1:
        return lo, hi
    if 2**k > len(V):
        return None
    W = V[:, free]
    at_hi = W == hi[free]
    corner = np.all(at_hi | (W == lo[free]), axis=1)
    seen = np.zeros(2**k, dtype=bool)
    seen[at_hi[corner] @ (1 << np.arange(k))] = True
    return (lo, hi) if seen.all() else None


# few values, so that corners coincide and many hulls are boxes
CORNERS = st.sampled_from([-1.0, -0.0, 0.0, 1.0, 2.0, np.nan, np.inf])


@settings(max_examples=300)
@given(V=stacks(rows=(1, 8), cols=(1, 3), entries=CORNERS))
# every code found, one of them from a row that is no corner
@example(V=np.array([[0.0, 0.0], [2.0, -1.0], [-1.0, 2.0], [2.0, 2.0]]))
def test_box_bounds_are_the_array_code(V):
    got, ref = sets._box_bounds(V), box_bounds_reference(V)
    assert (got is None) == (ref is None)
    if got is not None:
        same(got[0], ref[0])
        same(got[1], ref[1])


FINITE = st.floats(-4.0, 4.0) | st.sampled_from([0.0, -0.0, 1.0, -1.0])


@st.composite
def sets_and_points(draw):
    """A box, a hull or a ball of dimension 1-3 and a stack of points
    with NaN, +-inf and +-0.0 entries."""
    n = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["box", "hull", "ball"]))
    if kind == "ball":
        U = Ball(draw(hnp.arrays(np.float64, n, elements=FINITE)),
                 draw(st.floats(0.0, 2.0)), draw(st.sampled_from(NORMS)))
    elif kind == "box":
        lo = draw(hnp.arrays(np.float64, n, elements=FINITE))
        U = sets.box(lo, lo + draw(hnp.arrays(np.float64, n,
                                              elements=st.floats(0.0, 2.0))))
    else:
        U = Polytope(draw(hnp.arrays(np.float64, (n + 2, n),
                                     elements=FINITE)))
    Y = draw(stacks(rows=(0, 4), cols=(n, n),
                    entries=FINITE | st.sampled_from(SPECIAL)))
    return U, Y


@settings(max_examples=60, deadline=None)
@given(case=sets_and_points(), norm=st.sampled_from(NORMS))
def test_dist_is_the_wrapper_code(case, norm):
    U, Y = case
    same(U.dist(Y, norm), dist_reference(U, Y, norm))
    for y in Y:
        same(U.dist(y, norm), dist_reference(U, y, norm))


@settings(max_examples=60, deadline=None)
@given(case=sets_and_points(), tol=st.sampled_from([1e-12, 1e-9, 0.1]))
def test_interior_mask_is_the_wrapper_code(case, tol):
    U, Y = case
    if isinstance(U, Ball):  # a ball has its closed form
        return
    tols = np.full(len(Y), tol)
    same(U.interior_mask(Y, tol), interior_mask_reference(U, Y, tol))
    same(U.interior_mask(Y, tols), interior_mask_reference(U, Y, tols))


@given(M=hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2,
                                                  max_side=1),
                    elements=ENTRIES))
def test_a_matrix_is_atleast_2d(M):
    same(Linear(pair=DualPair(1), M=M).M, np.atleast_2d(M))


# ---------------------------------------------------------------------------
# operators and classifiers


@given(Xs=stacks())
def test_nonzero_rows_are_np_any(Xs):
    # NormalCone.graph_rows' rows with a normal to rescale
    same(np.logical_or.reduce(Xs, axis=1, dtype=bool), np.any(Xs, axis=1))


@given(B=hnp.arrays(np.bool_, st.tuples(st.integers(0, 5),
                                         st.integers(0, 6))))
def test_all_is_the_logical_and_reduction(B):
    # interior_mask over its probes, _window_probes over its leading rows
    same(np.logical_and.reduce(B, axis=0), B.all(axis=0))
    for row in B:
        same(np.logical_and.reduce(row), row.all())


@given(X=stacks(rows=(1, 6)), m=st.integers(0, 9))
def test_stacks_and_fills_are_the_wrapper_code(X, m):
    # _window_probes' targets and partners
    same(np.concatenate([X, np.zeros((1, X.shape[1]))]),
         np.vstack([X, np.zeros((1, X.shape[1]))]))
    same(np.concatenate([X[0][None], X[:6]]), np.vstack([X[0], X[:6]]))
    # _windowed_check's tolerances
    tol = np.empty(m)
    tol.fill(1e-12)
    same(tol, np.full(m, 1e-12))


@settings(max_examples=40, deadline=None)
@given(lo=hnp.arrays(np.float64, 2, elements=FINITE), seed=st.integers(0, 50))
def test_normal_cone_rows_are_the_wrapper_code(lo, seed):
    K = sets.box(lo, lo + 1.0)
    S = NormalCone(pair=DualPair(2), f=IndicatorFn(K))
    X, Xs = Subdifferential.graph_rows(S, 16, seed)
    t = np.array([1.0, 0.0, 2.0, 5.0])[:, None]
    keep = np.ones((len(X), 4), dtype=bool)
    keep[:, 1:] = np.any(Xs, axis=1)[:, None]
    keep = keep.ravel()
    X_ref = np.vstack([np.repeat(X, 4, axis=0)[keep], K.vertices])
    Xs_ref = np.vstack([(t * Xs[:, None, :]).reshape(-1, 2)[keep],
                        np.zeros_like(K.vertices)])
    X_got, Xs_got = S.graph_rows(32, seed)
    same(X_got, X_ref[:32])
    same(Xs_got, Xs_ref[:32])


OPERATORS = [
    NormalCone(pair=DualPair(2), f=IndicatorFn(sets.box([0.0, -1.0],
                                                        [1.0, 0.0]))),
    Subdifferential(pair=DualPair(2), f=NormFn(2, 1.0, NormTag.L1)),
    Linear(pair=DualPair(2), M=np.array([[1.0, 2.0], [-2.0, 0.5]])),
]


@given(Z=stacks(rows=(0, 5), cols=(2, 2),
                entries=FINITE | st.sampled_from(SPECIAL)))
def test_a_resolvent_mask_is_np_full(Z):
    for T in OPERATORS:
        same(T.resolvent(Z)[2], np.full(len(Z), True))


# ---------------------------------------------------------------------------
# harness


def report_json_reference(report):
    encode = json.JSONEncoder(sort_keys=True, allow_nan=False).encode
    try:
        return encode(report)
    except ValueError:
        return encode(harness._finite_json(report))


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.sampled_from(SPECIAL) | st.floats(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12)


@given(reports=st.lists(JSON, min_size=1, max_size=4))
def test_report_json_is_the_encoder_call(reports):
    # several in a row, some refused first for a non-finite float
    for report in reports:
        assert harness.report_json(report) == report_json_reference(report)


def test_an_encode_that_raises_leaves_nothing_behind(monkeypatch):
    # the report is refused once for its NaN; written again once finite,
    # it is not refused, and so not copied, for the ids of its containers
    copies = []
    finite_json = harness._finite_json
    monkeypatch.setattr(harness, "_finite_json",
                        lambda obj: copies.append(obj) or finite_json(obj))
    report = {"a": [float("nan")]}
    assert harness.report_json(report) == '{"a": ["nan"]}'
    report["a"][0] = 1.0
    assert harness.report_json(report) == '{"a": [1.0]}'
    assert sum(obj is report for obj in copies) == 1


def load_reference(path):
    """``load_scenario`` as read in text mode: (tasks, None) or (None,
    the error)."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = harness.load_json(text)
    except json.JSONDecodeError as exc:
        return None, (f"parse error at line {exc.lineno}, column "
                      f"{exc.colno}: {exc.msg}")
    try:
        return harness.parse_scenario(data).tasks, None
    except ScenarioError as exc:
        return None, str(exc)


DOC = ('{"schema": 1, "space": {"dim": 1}, "operators": {"a": {"linear": '
       '[[1]]}}, "tasks": [{"kind": "gap", "operator": "a", "count": 1}]}')


@given(pieces=st.lists(st.sampled_from(
    ["\r", "\n", "\r\n", " ", "é", '"', "x", "1", ",", "{", "}"])
    | st.sampled_from(DOC.split(" ")), max_size=12))
def test_a_scenario_is_read_as_in_text_mode(pieces):
    raw = "".join(pieces).encode("utf-8")
    for doc in (raw, DOC.replace(" ", "\r\n").encode() + raw,
                DOC.replace(" ", "\r").encode() + b"\r"):
        fd, path = tempfile.mkstemp(suffix=".json")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(doc)
            tasks, error = load_reference(path)
            if error is None:
                assert harness.load_scenario(path).tasks == tasks
            else:
                with pytest.raises(ScenarioError) as got:
                    harness.load_scenario(path)
                assert str(got.value) == error
        finally:
            os.unlink(path)
