"""Property-based checks of the input stage, the estimator kernel, the
sweep's window arithmetic and the network layer over small random inputs."""

import os
import pickle
import sys
import tempfile
import warnings
from dataclasses import replace
from math import gcd
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qdcca.config import AnalysisConfig
from qdcca.data import (
    _PEG_SCREEN,
    QuoteSeries,
    ReturnMatrix,
    _common_minutes,
    _volatile_head,
    build_return_matrix,
    log_returns,
    normalize,
)
from qdcca.dfa import (
    DetrendConfig,
    _box_profiles,
    cross_fluctuation_matrices,
    fluctuation_matrices,
    rho_q_lagged,
)
from qdcca import pipeline
from qdcca.emit import write_outputs
from qdcca.errors import (
    EigensolverError,
    EmptyIntersectionError,
    QdccaError,
    ZeroVarianceError,
)
from qdcca.network import (
    DistanceMatrix,
    _aggregate,
    _local_phase,
    degree_distribution,
    louvain,
    mean_path_length,
    minimum_spanning_tree,
)
from qdcca.pipeline import (
    ALL_FAMILIES,
    compute_window,
    rolling_windows,
    run_analysis,
    threshold_periods,
)
from qdcca.spectra import DetrendedCorrelationMatrix, correlation_matrices, eigendecompose

from oracles import (
    aggregate_loop,
    align_series_pairwise,
    all_pairs_hops,
    box_index_ranges,
    brute_force_mst,
    build_return_matrix_pairwise,
    local_phase_loop,
    louvain_loop,
    prim_mst_loop,
    prufer_tree_edges,
    shannon_entropy_literal,
    survival_at,
    tree_from_edges,
    tree_pairs,
    tree_weight,
)

_Q = st.sampled_from([0.5, 1.0, 2.0, 3.0, 4.0])


@st.composite
def _quote_grids(draw):
    """2-5 quote series whose minute grids lie in a 49-minute span placed
    anywhere from -2^40 to 2^40, in one of six layouts: independent,
    identical, each a subset of the first, touching at exactly one minute
    (the first ends where the second begins), disjoint, or fully quoted
    (every minute of a span that differs per series, so every series quotes
    all of the common span)."""
    origin = draw(st.sampled_from([0, -1_000, -(2**40), 2**40 - 48, 2**40]))
    n = draw(st.integers(2, 5))
    layout = draw(st.sampled_from(["any", "identical", "subset", "touching", "disjoint", "full"]))
    minutes = st.lists(st.integers(0, 48), min_size=1, max_size=40, unique=True)
    if layout == "any":
        grids = [draw(st.lists(st.integers(0, 48), max_size=40, unique=True)) for _ in range(n)]
    elif layout == "identical":
        grids = [draw(minutes)] * n
    elif layout == "subset":
        first = draw(minutes)
        grids = [first] + [draw(st.lists(st.sampled_from(first), unique=True)) for _ in range(n - 1)]
    elif layout == "touching":
        m = draw(st.integers(0, 48))
        grids = [[t for t in draw(minutes) if t < m] + [m], [m] + [t for t in draw(minutes) if t > m]]
        grids += [draw(minutes) + [m] for _ in range(n - 2)]
    elif layout == "full":
        grids = [list(range(draw(st.integers(0, 24)), draw(st.integers(24, 48)) + 1))
                 for _ in range(n)]
    else:
        grids = [draw(st.lists(st.integers(0, 23), min_size=1, unique=True)),
                 draw(st.lists(st.integers(24, 48), min_size=1, unique=True))]
        grids += [draw(minutes) for _ in range(n - 2)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    quotes = []
    for k, grid in enumerate(grids):
        stamps = origin + np.array(sorted(set(grid)), dtype=np.int64)
        prices = np.exp(rng.standard_normal(stamps.size) * 0.01) * 10.0 ** rng.uniform(-3, 3)
        quotes.append(QuoteSeries(f"T{k}", stamps, prices))
    return quotes


def _outcome(call):
    """What ``call`` returns, or the type of the package error it raises."""
    try:
        return call()
    except QdccaError as exc:
        return type(exc)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=300, deadline=None)
@given(_quote_grids())
def test_minute_count_matches_pairwise_intersection_bitwise(quotes):
    common, prices = _common_minutes(quotes)
    want = _outcome(lambda: align_series_pairwise(quotes))
    if isinstance(want, type):
        assert want is EmptyIntersectionError and common.size == 0
    else:
        assert _same_bits(common, want[0]) and _same_bits(prices, want[1])
    for grid in ("uniform", "intersection"):
        for base in (None, "T0"):
            with warnings.catch_warnings():  # the mean of no returns
                warnings.simplefilter("ignore", RuntimeWarning)
                want = _outcome(lambda: build_return_matrix_pairwise(quotes, base=base, grid=grid))
            got = _outcome(lambda: build_return_matrix(quotes, base=base, grid=grid))
            if isinstance(want, type) or want[0].n_samples == 0:
                # One common minute: the pairwise path returned no returns.
                assert got is (want if isinstance(want, type) else EmptyIntersectionError)
                continue
            (rm, report), (rm_want, report_want) = got, want
            assert rm.tickers == rm_want.tickers
            for field in ("timestamps", "values", "filled"):
                assert _same_bits(getattr(rm, field), getattr(rm_want, field)), field
            assert report == report_want


def _spike(t, price, at):
    """t + 1 prices of 1.0 but one, ``price`` at index ``at``: the returns
    ln(price) and -ln(price) in a row, the extreme case of the peg screen's
    bound (their spread is exactly sqrt(2t) times the std)."""
    prices = np.ones(t + 1)
    prices[at] = price
    return prices


def _screen_edge(t, threshold, at):
    """The least spike price above 1 that the peg screen clears, found by
    bisecting the bit patterns of the floats in (1, 1e300]."""
    lo, hi = (int(bits) for bits in np.array([1.0, 1e300]).view(np.int64))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        price = float(np.int64(mid).view(np.float64))
        quotes = QuoteSeries("S", np.arange(t + 1), _spike(t, price, at))
        lo, hi = (lo, mid) if _volatile_head(quotes, threshold) else (mid, hi)
    return float(np.int64(hi).view(np.float64))


@st.composite
def _peg_candidates(draw):
    """(quotes, threshold): 2-4 series of t returns on one minute grid, with
    t = 2, 3, _PEG_SCREEN - 1, _PEG_SCREEN, _PEG_SCREEN + 1 or up to
    4 _PEG_SCREEN and the threshold 0, 1e-300, the default or drawn, each
    series one of: a random walk whose step sits anywhere from far below to
    far above the threshold; a flat head of at least _PEG_SCREEN returns,
    then a volatile tail; or a flat series with one spike in the head, its
    spread the nearest float below or at the screen's bound."""
    t = draw(st.sampled_from([2, 3, _PEG_SCREEN - 1, _PEG_SCREEN, _PEG_SCREEN + 1])
             | st.integers(_PEG_SCREEN + 2, 4 * _PEG_SCREEN))
    threshold = draw(st.sampled_from([0.0, 1e-300, 1e-6]) | st.floats(-9, 0).map(lambda e: 10**e))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    quotes = []
    for k in range(draw(st.integers(2, 4))):
        kind = draw(st.sampled_from(["walk", "flat_head", "spike"]))
        if kind == "walk":
            step = min(max(threshold, 1e-6) * 10.0 ** draw(st.floats(-3, 3)), 0.1)
            prices = np.exp(rng.standard_normal(t + 1).cumsum() * step)
        elif kind == "flat_head":
            head = draw(st.integers(_PEG_SCREEN, max(_PEG_SCREEN, t)))
            returns = rng.standard_normal(t) * 1e-3
            returns[:head] = 0.0
            prices = np.exp(np.concatenate([[0.0], returns.cumsum()]))
        else:
            at = draw(st.integers(1, min(t, _PEG_SCREEN) - 1))
            price = _screen_edge(t, threshold, at)
            if draw(st.booleans()):
                price = float(np.nextafter(price, 0.0))
            prices = _spike(t, price, at)
        prices *= 10.0 ** rng.uniform(-3, 3)
        quotes.append(QuoteSeries(f"T{k}", np.arange(t + 1), prices))
    return quotes, threshold


@settings(max_examples=200, deadline=None)
@given(_peg_candidates())
def test_peg_screen_keeps_only_series_the_exact_rule_keeps(case):
    quotes, threshold = case
    for qs in quotes:
        if _volatile_head(qs, threshold):
            assert log_returns(qs).std() >= threshold
    want = _outcome(lambda: build_return_matrix_pairwise(quotes, stable_threshold=threshold))
    got = _outcome(lambda: build_return_matrix(quotes, stable_threshold=threshold))
    if isinstance(want, type):
        assert got is want
        return
    (rm, report), (rm_want, report_want) = got, want
    assert rm.tickers == rm_want.tickers and report == report_want
    for field in ("timestamps", "values", "filled"):
        assert _same_bits(getattr(rm, field), getattr(rm_want, field)), field


@st.composite
def _normalization_windows(draw):
    """A window [lo, lo + width) of an (N, T) return matrix, a strided view
    as the sweep takes it.  A row is Gaussian around an offset at a scale
    from 1e-150 to 1e150, constant, or +-1e200 (a std that overflows)."""
    n = draw(st.integers(1, 5))
    t = draw(st.integers(1, 20_000))
    width = draw(st.integers(1, t))
    lo = draw(st.integers(0, t - width))
    kinds = draw(st.lists(st.sampled_from(["gaussian"] * 6 + ["constant", "overflows"]),
                          min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = ((rng.standard_normal((n, t)) + rng.uniform(-10.0, 10.0, (n, 1)))
              * 10.0 ** rng.uniform(-150.0, 150.0, (n, 1)))
    for row, kind in zip(values, kinds):
        if kind == "constant":
            row[:] = row[0]
        elif kind == "overflows":
            row[:] = rng.choice([-1e200, 1e200], t)
    returns = ReturnMatrix(tickers=tuple(f"T{k}" for k in range(n)),
                           timestamps=np.arange(t, dtype=np.int64), values=values)
    return pipeline._window(returns, lo, lo + width)


def _normalized_row_by_row(returns):
    """One `normalize` call per series, naming the first it refuses; and
    each series' std."""
    rows = []
    for name, row in zip(returns.tickers, returns.values):
        try:
            rows.append(normalize(row))
        except ZeroVarianceError as exc:
            raise ZeroVarianceError(f"{name}: {exc}", label=name) from exc
    return np.array(rows), np.array([row.std() for row in returns.values])


@settings(max_examples=150, deadline=None)
@given(_normalization_windows())
def test_one_pass_normalization_is_the_row_by_row_loop_bitwise(window):
    # `global_norm`'s returns and the stds that weight the residual pass's
    # eigensignal are those of one `normalize` call per series, and a
    # series it refuses raises its message and label.
    try:
        want, want_sigma = _normalized_row_by_row(window)
    except ZeroVarianceError as exc:
        for one_pass in (pipeline._normalized, pipeline._stds):
            with pytest.raises(ZeroVarianceError) as err:
                one_pass(window)
            assert (str(err.value), err.value.label) == (str(exc), exc.label)
        return
    got = pipeline._normalized(window)
    assert _same_bits(got.values, want) and _same_bits(pipeline._stds(window), want_sigma)
    assert got.tickers == window.tickers and got.timestamps is window.timestamps


@st.composite
def _stacks(draw):
    """(values, scale, poly_order): N mixed series with per-series scales
    spread over six decades, T from 2s up to 2s + 3s - 1."""
    n = draw(st.integers(2, 7))
    poly_order = draw(st.integers(0, 3))
    scale = draw(st.integers(poly_order + 2, 24))
    t = 2 * scale + draw(st.integers(0, 3 * scale - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mix = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
    values = mix @ rng.standard_normal((n, t))
    values *= 10.0 ** rng.uniform(-3.0, 3.0, (n, 1))
    return values, scale, poly_order


def _rho(values, scale, poly_order, q):
    return correlation_matrices(values, scale, poly_order, [q])[q].values


@settings(max_examples=80, deadline=None)
@given(_stacks(), _Q)
def test_correlation_matrix_is_symmetric_with_unit_diagonal(stack, q):
    values, scale, poly_order = stack
    rho = _rho(values, scale, poly_order, q)
    assert np.array_equal(rho, rho.T)
    assert np.all(np.diag(rho) == 1.0)
    assert np.all(np.isfinite(rho))
    # Cauchy-Schwarz per box and then over the boxes bounds |rho_q| by 1
    # for every q > 0 (see the dfa notes); only rounding may overshoot.
    assert np.all(np.abs(rho) <= 1.0 + 1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.3, 1.0, 4.0, 8.0]), st.integers(1, 9))
def test_heavy_tailed_collinear_coefficients_stay_within_one(seed, q, k):
    # The bound is a theorem for every q > 0 and every lag (see the dfa
    # notes), so only rounding may take |rho_q| past 1, even on Student-t
    # (nu = 1.5) series that share one factor up to noise of 1e-8 to 1.
    rng = np.random.default_rng(seed)
    n, scale, t = 5, 10, 300
    noise = 10.0 ** rng.uniform(-8.0, 0.0, (n, 1)) * rng.standard_t(1.5, (n, t))
    values = rng.choice([-1.0, 1.0], (n, 1)) * rng.standard_t(1.5, t) + noise
    labels = tuple(f"series {i}" for i in range(n))
    rhos = [_rho(values, scale, 2, q)]
    (lagged,) = cross_fluctuation_matrices(values, [k], scale, 2, [q], range(n)).values()
    rhos += [lagged.coefficients(tau, range(n), scale, labels)[q] for tau in (k, -k)]
    for rho in rhos:
        assert np.all(np.abs(rho) <= 1.0 + 1e-12)


@settings(max_examples=60, deadline=None)
@given(_stacks(), _Q, st.randoms(use_true_random=False))
def test_correlation_matrix_is_permutation_equivariant(stack, q, random):
    values, scale, poly_order = stack
    perm = list(range(values.shape[0]))
    random.shuffle(perm)
    rho = _rho(values, scale, poly_order, q)
    permuted = _rho(values[perm], scale, poly_order, q)
    assert np.allclose(permuted, rho[np.ix_(perm, perm)], rtol=0, atol=1e-12)


@settings(max_examples=80, deadline=None)
@given(_stacks(), _Q, st.integers(0, 2**32 - 1))
def test_correlation_matrix_is_affine_invariant(stack, q, seed):
    # x_i -> a_i x_i + b_i leaves rho_ij unchanged up to sign(a_i a_j) for
    # m >= 1: the shift adds a linear ramp to every box profile, which the
    # fit removes.  For m = 0 the ramp stays, so only the scale map applies.
    values, scale, poly_order = stack
    rng = np.random.default_rng(seed)
    n = values.shape[0]
    a = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
    b = rng.uniform(-5.0, 5.0, n) * values.std(axis=1) if poly_order >= 1 else 0.0
    mapped = a[:, None] * values + np.reshape(b, (-1, 1))
    rho = _rho(values, scale, poly_order, q)
    expected = np.outer(np.sign(a), np.sign(a)) * rho
    assert np.allclose(_rho(mapped, scale, poly_order, q), expected, rtol=0, atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(_stacks(), st.lists(_Q, min_size=1, max_size=3, unique=True))
def test_self_and_cross_entry_points_agree(stack, q_values):
    # A stack against itself through the lagged entry point must give the
    # same box sums as the symmetric one: cross terms and both normalizers
    # within 1e-12 of sqrt(F_ii * F_jj), the scale of F_ij, and energies
    # within 1e-12 relative (the two sum the boxes in different orders).
    values, scale, poly_order = stack
    own = fluctuation_matrices(values, scale, poly_order, q_values)
    (cross,) = cross_fluctuation_matrices(
        values, [0], scale, poly_order, q_values, range(values.shape[0])
    ).values()
    for side in (0, 1):
        assert np.allclose(cross.energy[side], own.energy, rtol=1e-12, atol=0)
        assert np.allclose(cross.reference[side], own.reference, rtol=1e-12, atol=0)
    for i, q in enumerate(cross.q):
        f = own.power[q]
        diag = np.diag(f)
        bound = 1e-12 * np.sqrt(np.outer(diag, diag))
        for f_side in cross.cross[:, i]:
            assert np.all(np.abs(f_side - f) <= bound)
        for f_self in cross.own[:, i]:
            assert np.all(np.abs(f_self - diag) <= 1e-12 * diag)


@settings(max_examples=60, deadline=None)
@given(_stacks(), st.integers(1, 3), st.integers(1, 3),
       st.lists(_Q, min_size=1, max_size=3, unique=True))
def test_box_layout_is_the_literal_one_and_ignores_strides(stack, a, k, q_values):
    # Each box profile is the running sum over its literal sample range,
    # from 0 at the box's first sample: forward boxes, then backward ones
    # unless s divides T (they would repeat the forward boxes).  Row-strided views of a wider stack give
    # the same bits as contiguous copies through both entry points.
    values, scale, poly_order = stack
    n, t = values.shape
    ranges = box_index_ranges(t, scale)
    if t % scale == 0:
        ranges = ranges[: t // scale]
    profiles = _box_profiles(values, scale)
    assert profiles.shape == (n, len(ranges), scale)
    for b, (lo, hi) in enumerate(ranges):
        assert np.all(profiles[:, b, 0] == 0.0)
        assert np.array_equal(profiles[:, b, 1:], np.cumsum(values[:, lo:hi], axis=-1))
    wide = np.hstack([0.5 * values[:, :a], values, 2.0 * values[:, -k:]])
    view = wide[:, a : a + t]
    own = fluctuation_matrices(view, scale, poly_order, q_values)
    copy = fluctuation_matrices(view.copy(), scale, poly_order, q_values)
    assert own.n_boxes == copy.n_boxes
    for got, want in [(own.energy, copy.energy), (own.reference, copy.reference)] + [
        (own.power[q], copy.power[q]) for q in q_values
    ]:
        assert np.array_equal(got, want)
    stretch, rows = wide[:, :-k], range(0, n, 2)
    cross = cross_fluctuation_matrices(stretch, [k], scale, poly_order, q_values, rows)
    copied = cross_fluctuation_matrices(stretch.copy(), [k], scale, poly_order, q_values, rows)
    assert cross.keys() == copied.keys() == {(k, 0)}
    cross, copied = cross[k, 0], copied[k, 0]
    for field in ("cross", "own", "energy", "reference"):
        assert np.array_equal(getattr(cross, field), getattr(copied, field)), field


@st.composite
def _distances(draw, max_n):
    """Symmetric zero-diagonal distances in [0, 2]; rounded to one decimal
    about half the time, so that equal weights occur."""
    n = draw(st.integers(2, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mat = rng.uniform(0.0, 2.0, (n, n))
    mat = (mat + mat.T) / 2
    if draw(st.booleans()):
        mat = np.round(mat, 1)
    np.fill_diagonal(mat, 0.0)
    return mat


def _mst(mat):
    labels = tuple(f"A{i}" for i in range(mat.shape[0]))
    return minimum_spanning_tree(DistanceMatrix(values=mat, labels=labels))


def _distinct_weights(mat):
    upper = mat[np.triu_indices(mat.shape[0], 1)]
    return np.unique(upper).size == upper.size


@settings(max_examples=150, deadline=None)
@given(_distances(7))
def test_prim_matches_exhaustive_mst(mat):
    # Every minimum spanning tree has the same sorted weights; the edge set
    # is unique when the weights are distinct.
    tree = _mst(mat)
    weight, edges = brute_force_mst(mat)
    assert tree_weight(tree) == weight
    if _distinct_weights(mat):
        assert set(tree_pairs(tree)) == edges


@settings(max_examples=100, deadline=None)
@given(_distances(40), st.integers(0, 2**32 - 1))
def test_prim_tree_is_invariant_under_increasing_reweighting(mat, seed):
    # A strictly increasing map of the distinct values keeps every
    # comparison Prim makes, ties included.
    values, rank = np.unique(mat, return_inverse=True)
    steps = np.random.default_rng(seed).uniform(0.01, 5.0, values.size)
    reweighted = np.cumsum(steps)[rank.reshape(mat.shape)]
    np.fill_diagonal(reweighted, 0.0)
    assert tree_pairs(_mst(reweighted)) == tree_pairs(_mst(mat))


@settings(max_examples=100, deadline=None)
@given(_distances(40), st.randoms(use_true_random=False))
def test_prim_tree_follows_relabelling(mat, random):
    assume(_distinct_weights(mat))
    perm = list(range(mat.shape[0]))
    random.shuffle(perm)
    relabelled = _mst(mat[np.ix_(perm, perm)])
    mapped = {tuple(sorted((perm[i], perm[j]))) for i, j in tree_pairs(relabelled)}
    assert mapped == set(tree_pairs(_mst(mat)))


@st.composite
def _distance_stacks(draw):
    """1-8 distance matrices of one size, each raw or rounded to one or two
    decimals, so that equal weights occur within and across trees; half the
    draws give each tree its own rho, the rest recover it from distances."""
    n = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = []
    for _ in range(draw(st.integers(1, 8))):
        mat = rng.uniform(0.0, 2.0, (n, n))
        mat = (mat + mat.T) / 2
        digits = draw(st.sampled_from([None, 1, 2]))
        if digits is not None:
            mat = np.round(mat, digits)
        np.fill_diagonal(mat, 0.0)
        mats.append(mat)
    rhos = [rng.uniform(-1.0, 1.0, (n, n)) for _ in mats] if draw(st.booleans()) else None
    return mats, rhos


@settings(max_examples=150, deadline=None)
@given(_distance_stacks())
def test_stacked_prim_grows_every_tree_as_it_grows_alone(stack):
    # Each tree of the lock-step Prim keeps its own (weight, min, max) tie
    # rule, so its edges, in Prim order, are the ones a K = 1 call and the
    # literal loop give.
    mats, rhos = stack
    labels = tuple(f"A{i}" for i in range(mats[0].shape[0]))
    ds = [DistanceMatrix(values=m, labels=labels, rho=None if rhos is None else rhos[k])
          for k, m in enumerate(mats)]
    trees = minimum_spanning_tree(ds)
    assert len(trees) == len(ds)
    for d, tree in zip(ds, trees):
        alone = minimum_spanning_tree(d)
        for name in ("i", "j", "distance", "rho"):
            assert getattr(tree, name).tobytes() == getattr(alone, name).tobytes()
        loop = prim_mst_loop(d.values, 1.0 - d.values**2 / 2.0 if d.rho is None else d.rho)
        assert list(zip(tree.i.tolist(), tree.j.tolist())) == [e[:2] for e in loop]
        assert tree.rho.tolist() == [e[3] for e in loop]


@st.composite
def _louvain_stacks(draw):
    """1-6 symmetric problems of one size, each all non-positive (no edges),
    small integers times a scale that makes totals inexact (tie-heavy), or
    random coefficients; one seed each."""
    n = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["degenerate", "integer", "random"]))
        if kind == "degenerate":
            rho = -rng.uniform(0.0, 1.0, (n, n))
        elif kind == "integer":
            rho = rng.integers(-1, 4, (n, n)) * draw(st.sampled_from([1.0, 0.1, 0.7e7]))
        else:
            rho = rng.uniform(-0.3, 1.0, (n, n))
        upper = np.triu(rho, 1)
        mats.append(upper + upper.T + np.eye(n))
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=len(mats), max_size=len(mats)))
    return mats, seeds


@settings(max_examples=150, deadline=None)
@given(_louvain_stacks(), st.sampled_from([0.5, 1.0, 1.5]))
def test_lock_step_louvain_gives_every_problem_its_own_partition(stack, resolution):
    # The first sweep runs over all problems at once; each problem's sums,
    # comparisons and generator draws are the ones it makes alone.
    mats, seeds = stack
    labels = tuple(f"A{i}" for i in range(mats[0].shape[0]))
    cs = [DetrendedCorrelationMatrix(values=m, labels=labels) for m in mats]
    parts = louvain(cs, resolution=resolution, seed=seeds)
    assert len(parts) == len(cs)
    for c, seed, part in zip(cs, seeds, parts):
        assert part == louvain(c, resolution=resolution, seed=seed)
    weights = [np.maximum(m, 0.0) for m in mats]
    for w in weights:
        np.fill_diagonal(w, 0.0)
    live = [k for k, w in enumerate(weights) if w.sum() > 0.0]
    assume(live)
    two_m = np.array([weights[k].sum() for k in live])
    gens = [np.random.default_rng(seeds[k]) for k in live]
    got = _local_phase(np.stack([weights[k] for k in live]), two_m, resolution, gens)
    for row, k, gen, total in zip(got, live, gens, two_m):
        alone_gen, loop_gen = np.random.default_rng(seeds[k]), np.random.default_rng(seeds[k])
        assert np.array_equal(row, _local_phase(weights[k], total, resolution, alone_gen))
        assert np.array_equal(row, local_phase_loop(weights[k], total, resolution, loop_gen))
        assert gen.bit_generator.state == alone_gen.bit_generator.state
        assert gen.bit_generator.state == loop_gen.bit_generator.state


@st.composite
def _correlations(draw):
    n = draw(st.integers(2, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rho = rng.uniform(-0.3, 1.0, (n, n))
    rho = (rho + rho.T) / 2
    if draw(st.booleans()):
        rho = np.round(rho, 1)
    np.fill_diagonal(rho, 1.0)
    labels = tuple(f"A{i}" for i in range(n))
    return DetrendedCorrelationMatrix(values=rho, labels=labels)


@settings(max_examples=150, deadline=None)
@given(_correlations(), st.integers(0, 2**32 - 1), st.sampled_from([0.5, 1.0, 2.0]))
def test_louvain_partition_is_an_exact_cover(c, seed, resolution):
    part = louvain(c, resolution=resolution, seed=seed)
    assert list(part.communities) == list(c.labels)
    ids = [part.communities[lab] for lab in c.labels]
    assert all(type(cid) is int for cid in ids)
    # ids are 0..k-1, numbered in order of first appearance
    assert list(dict.fromkeys(ids)) == list(range(len(set(ids))))


@settings(max_examples=60, deadline=None)
@given(_correlations(), st.integers(0, 2**32 - 1))
def test_louvain_is_reproducible_per_seed(c, seed):
    first = louvain(c, seed=seed)
    again = louvain(c, seed=seed)
    assert again.communities == first.communities


@st.composite
def _unit_diagonal_matrices(draw):
    # Dense, block-diagonal or the identity: the last two give eigenvectors
    # with exact zero components, which the entropy leaves out.
    n = draw(st.integers(2, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rho = rng.uniform(-1.0, 1.0, (n, n))
    rho = (rho + rho.T) / 2
    shape = draw(st.sampled_from(["dense", "blocks", "identity"]))
    if shape == "blocks":
        group = rng.integers(0, 3, n)
        rho[group[:, None] != group[None, :]] = 0.0
    elif shape == "identity":
        rho[:] = 0.0
    np.fill_diagonal(rho, 1.0)
    labels = tuple(f"A{i}" for i in range(n))
    return DetrendedCorrelationMatrix(values=rho, labels=labels)


@settings(max_examples=150, deadline=None)
@given(_unit_diagonal_matrices())
def test_spectral_row_localization_is_the_literal_entropy_and_peak(c):
    summary = eigendecompose(c)
    row = pipeline._spectral_row(summary, None)
    for h, vmax, v in ((row.h1, row.v1max, summary.eigenvectors[:, 0]),
                       (row.h2, row.v2max, summary.eigenvectors[:, 1])):
        # A single-node block's vector can come back with its one component
        # at 1 + 2**-52, and the entropy at -4.4e-16: a rounding of 0.
        assert 0.0 <= h <= np.log(c.dim) + 1e-12
        assert abs(h - shannon_entropy_literal(v)) <= 1e-12
        assert vmax == max(x * x for x in v.tolist())
    # The residual pass's first vector is read the same way.
    res = pipeline._spectral_row(summary, summary)
    assert (res.res_h1, res.res_v1max) == (row.h1, row.v1max)


@st.composite
def _tie_forcing_correlations(draw):
    """Planted blocks plus noise, rounded to 1 or 2 decimals so that equal
    gains are common.  Half the draws scale each pair by a power of ten
    from 1e-6 to 1e6, so the aggregated levels sum weights over decades."""
    n = draw(st.integers(2, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    block = rng.integers(0, draw(st.integers(1, 6)), n)
    within = draw(st.sampled_from([0.3, 0.5, 0.8]))
    noise = rng.normal(0.0, draw(st.sampled_from([0.05, 0.2])), (n, n))
    rho = np.where(block[:, None] == block[None, :], within, 0.1) + noise
    rho = np.round(rho, draw(st.sampled_from([1, 2])))
    if draw(st.booleans()):
        rho = rho * 10.0 ** rng.integers(-6, 7, (n, n))
    upper = np.triu(rho, 1)
    return upper + upper.T + np.eye(n)


@settings(max_examples=60, deadline=None)
@given(_tie_forcing_correlations(), st.sampled_from([0.5, 1.0, 1.5]),
       st.integers(0, 2**32 - 1))
def test_louvain_matches_the_loop_oracle_bitwise(rho, resolution, seed):
    # The screen may skip only visits that cannot move a node, so every
    # level's membership and generator state, and the final partition, are
    # the literal per-node loop's.
    labels = tuple(f"A{i}" for i in range(rho.shape[0]))
    c = DetrendedCorrelationMatrix(values=rho, labels=labels)
    part = louvain(c, resolution=resolution, seed=seed)
    members, _, _ = louvain_loop(rho, resolution, seed=seed)
    assert [part.communities[lab] for lab in labels] == members
    weights = np.maximum(rho, 0.0)
    np.fill_diagonal(weights, 0.0)
    two_m = weights.sum()
    assume(two_m > 0.0)
    gen, ref_gen = np.random.default_rng(seed), np.random.default_rng(seed)
    level = ref_level = weights
    while True:
        got = _local_phase(level, two_m, resolution, gen)
        want = local_phase_loop(ref_level, two_m, resolution, ref_gen)
        assert np.array_equal(got, want)
        assert gen.bit_generator.state == ref_gen.bit_generator.state
        if np.unique(got).size in (1, level.shape[0]):
            break
        level, _ = _aggregate(level, got)
        ref_level, _ = aggregate_loop(ref_level, want)


@st.composite
def _trees(draw):
    """A Pruefer-decoded random tree, a star or a path on 2-200 nodes."""
    n = draw(st.integers(2, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["prufer", "star", "path"]))
    if shape == "prufer":
        pairs = prufer_tree_edges(rng.integers(0, n, n - 2).tolist(), n)
    elif shape == "star":
        hub = int(rng.integers(0, n))
        pairs = [(hub, v) for v in range(n) if v != hub]
    else:
        order = rng.permutation(n).tolist()
        pairs = list(zip(order, order[1:]))
    return tree_from_edges(n, pairs)


@settings(max_examples=200, deadline=None)
@given(_trees())
def test_degree_survival_is_the_mean_of_degrees_at_least_k(tree):
    degrees = tree.degrees()
    dd = degree_distribution(degrees)
    assert dd.degrees.tolist() == sorted(set(degrees.tolist()))
    want = [survival_at(degrees, k) for k in dd.degrees.tolist()]
    assert dd.survival.tobytes() == np.array(want).tobytes()
    # Node order does not enter: reversed degrees give the same bits.
    reordered = degree_distribution(degrees[::-1])
    assert reordered.degrees.tobytes() == dd.degrees.tobytes()
    assert reordered.survival.tobytes() == dd.survival.tobytes()


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 30), st.integers(0, 2**32 - 1))
def test_mean_path_length_is_mean_pairwise_hops(n, seed):
    rng = np.random.default_rng(seed)
    pairs = prufer_tree_edges(rng.integers(0, n, n - 2).tolist(), n)
    tree = tree_from_edges(n, pairs)
    hops = all_pairs_hops(n, pairs)
    assert mean_path_length(tree) == hops[np.triu_indices(n, 1)].mean()


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 30), st.integers(0, 2**32 - 1))
def test_mean_path_length_ignores_edge_order_and_orientation(n, seed):
    rng = np.random.default_rng(seed)
    pairs = prufer_tree_edges(rng.integers(0, n, n - 2).tolist(), n)
    shuffled = [pairs[k] for k in rng.permutation(len(pairs))]
    shuffled = [(j, i) if flip else (i, j) for (i, j), flip in
                zip(shuffled, rng.integers(0, 2, len(shuffled)))]

    def mean(edges):
        return mean_path_length(tree_from_edges(n, edges))

    assert np.float64(mean(shuffled)).tobytes() == np.float64(mean(pairs)).tobytes()


# Window plans for the block rule (blk = gcd(step, width)): step = width,
# step | width, and gcd(step, width) < step.
_PLANS = st.sampled_from([(60, 60), (120, 30), (120, 50), (100, 40)])


@st.composite
def _block_sweeps(draw):
    """(returns, cfg) of a sweep whose every scale is shared; each series is
    mixed, then mapped by its own x -> a x + b."""
    width, step = draw(_PLANS)
    blk = gcd(step, width)
    poly_order = draw(st.integers(0, 3))
    eligible = [s for s in range(poly_order + 2, width // 2 + 1) if blk % s == 0]
    scales = draw(st.lists(st.sampled_from(eligible), min_size=1, max_size=2, unique=True))
    q_values = draw(st.lists(_Q, min_size=1, max_size=2, unique=True))
    n = draw(st.integers(2, 5))
    t = width + step * draw(st.integers(0, 3)) + draw(st.integers(0, step - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = (rng.standard_normal((n, n)) + 2.0 * np.eye(n)) @ rng.standard_normal((n, t))
    a = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
    b = rng.uniform(-5.0, 5.0, n) * np.abs(a)
    returns = ReturnMatrix(
        tickers=tuple(f"A{i}" for i in range(n)),
        timestamps=np.arange(t, dtype=np.int64),
        values=a[:, None] * values + b[:, None],
    )
    cfg = AnalysisConfig(q=tuple(q_values), s=tuple(scales), poly_order=poly_order,
                         window=width, step=step, lags=(0,), anchors=(), threads=1)
    return returns, cfg


@settings(max_examples=60, deadline=None)
@given(_block_sweeps())
def test_block_sums_match_per_window_matrices(sweep):
    # The sweep adds shared block sums of the returns; the reference is the
    # one-block path on each window's returns, at every fit order.
    returns, cfg = sweep
    result = run_analysis(cfg, returns, families=("spectra", "periods"))
    assert result.skipped == []
    for w in result.windows:
        window = returns.values[:, w.index * cfg.step : w.index * cfg.step + cfg.window]
        n = window.shape[0]
        for s in cfg.s:
            mats = correlation_matrices(window, s, cfg.poly_order, cfg.q)
            for q in cfg.q:
                rho = mats[q].values
                eigenvalues = np.linalg.eigvalsh(rho)[::-1]
                row = w.spectral[(q, s)]
                assert abs(w.mean_rho[(q, s)] - (rho.sum() - n) / (n * (n - 1))) <= 1e-12
                assert abs(row.lambda1 - eigenvalues[0]) <= 1e-12
                assert abs(row.lambda2 - eigenvalues[1]) <= 1e-12


@st.composite
def _lagged_sweeps(draw):
    """(returns, cfg) of a lagged sweep at one scale, shared or not, with a
    lag k < s, k = s, k > s or at the overlap limit T - k = 2s; each series
    is mixed, then mapped by its own x -> a x + b."""
    width, step = draw(_PLANS)
    blk = gcd(step, width)
    poly_order = draw(st.integers(0, 3))
    scales = range(poly_order + 2, (width - 1) // 2 + 1)  # the limit lag is >= 1
    eligible = draw(st.booleans())
    scale = draw(st.sampled_from([s for s in scales if (blk % s == 0) == eligible]))
    limit = width - 2 * scale
    lags = {draw(st.integers(1, scale - 1)), scale, limit}
    if limit > scale:
        lags.add(draw(st.integers(scale + 1, limit)))
    k = draw(st.sampled_from(sorted(lag for lag in lags if lag <= limit)))
    q_values = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0, 4.0]), min_size=1, max_size=2,
                             unique=True))
    n = draw(st.integers(2, 4))
    t = width + step * draw(st.integers(0, 2)) + draw(st.integers(0, step - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = (rng.standard_normal((n, n)) + 2.0 * np.eye(n)) @ rng.standard_normal((n, t))
    a = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
    b = rng.uniform(-5.0, 5.0, n) * np.abs(a)
    returns = ReturnMatrix(
        tickers=tuple(f"A{i}" for i in range(n)),
        timestamps=np.arange(t, dtype=np.int64),
        values=a[:, None] * values + b[:, None],
    )
    cfg = AnalysisConfig(q=tuple(q_values), s=(scale,), poly_order=poly_order,
                         window=width, step=step, lags=(-k, k), anchors=("A0",),
                         threads=1)
    return returns, cfg


@settings(max_examples=80, deadline=None)
@given(_lagged_sweeps())
def test_lagged_means_match_pairwise_per_window(sweep):
    # The sweep's lagged pass (shared block pieces when s divides
    # gcd(step, width), the window as one stretch otherwise) must give each
    # window the mean pairwise lagged coefficient of its anchor.
    returns, cfg = sweep
    result = run_analysis(cfg, returns, families=("lagged",))
    assert result.skipped == []
    (s,) = cfg.s
    for w in result.windows:
        window = returns.values[:, w.index * cfg.step : w.index * cfg.step + cfg.window]
        for q in cfg.q:
            dcfg = DetrendConfig(scale=s, poly_order=cfg.poly_order, q=q)
            got = w.lagged[("A0", q, s)]
            assert sorted(got) == sorted(cfg.lags)
            for tau in cfg.lags:
                direct = np.mean([
                    rho_q_lagged(window[0], window[j], dcfg, tau)
                    for j in range(1, window.shape[0])
                ])
                assert abs(got[tau] - direct) <= 1e-12


def _emitted(cfg, values) -> dict:
    """Every file a full sweep of ``values`` writes, by name."""
    returns = ReturnMatrix(tickers=tuple(f"A{i}" for i in range(values.shape[0])),
                           timestamps=np.arange(values.shape[1], dtype=np.int64),
                           values=values)
    result = run_analysis(cfg, returns)
    with tempfile.TemporaryDirectory() as out:
        write_outputs(result, cfg, out, ALL_FAMILIES)
        return {name: open(os.path.join(out, name)).read() for name in os.listdir(out)}


@settings(max_examples=25, deadline=None)
@given(st.integers(-64, 64), st.integers(0, 2**32 - 1))
def test_power_of_two_scaling_leaves_every_output_bitwise_unchanged(k, seed):
    # Scaling by 2**k is exact, and so is every step after it at q = 1, 2, 4
    # (a square root, a pass-through and a square of exactly scaled Grams),
    # as long as nothing under- or overflows.
    rng = np.random.default_rng(seed)
    values = (rng.standard_normal((4, 4)) + 2.0 * np.eye(4)) @ rng.standard_normal((4, 240))
    cfg = AnalysisConfig(q=(1.0, 2.0, 4.0), s=(10, 20), window=120, step=60,
                         lags=(-2, 0, 1), anchors=("A0",), residual=True, threads=1)
    assert _emitted(cfg, values * 2.0**k) == _emitted(cfg, values)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 400), st.integers(1, 400), st.integers(0, 2_000))
def test_rolling_windows_closed_form(width, step, extra):
    n = width + extra
    windows = rolling_windows(n, width, step)
    assert len(windows) == (n - width) // step + 1
    assert windows == [(k * step, k * step + width) for k in range(len(windows))]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 5), st.sampled_from([-0.5, 0.0, 0.25, 0.3, 0.9])),
             max_size=30),
    st.sampled_from([0.0, 0.25, 0.5]),
)
def test_threshold_periods_match_naive_scan(steps, threshold):
    # Every maximal run [i, j] of values above the threshold, found by
    # checking each (i, j) against the definition.
    ts = np.cumsum([gap for gap, _ in steps]).tolist()
    values = [v for _, v in steps]
    above = [v > threshold for v in values]
    n = len(values)
    expected = [
        (ts[i], ts[j])
        for i in range(n)
        for j in range(i, n)
        if all(above[i : j + 1])
        and (i == 0 or not above[i - 1])
        and (j == n - 1 or not above[j + 1])
    ]
    assert threshold_periods(list(zip(ts, values)), threshold) == expected


def _window_record(w):
    """Every field of a window's result in a byte-exact, key-sorted form."""
    def by_key(d):
        return [(k, d[k]) for k in sorted(d)]
    trees = [(k, [getattr(t, name).tobytes() for name in ("i", "j", "distance", "rho")])
             for k, t in by_key(w.trees)]
    parts = [(k, p.communities) for k, p in by_key(w.partitions)]
    return pickle.dumps((w.index, w.end_ts, by_key(w.spectral), by_key(w.topology), trees,
                         parts, by_key(w.lagged), by_key(w.mean_rho)))


def _one_window_waves(cfg, returns, families):
    """The sweep at one pool thread with its wave budget cut to one window's
    |q| |s| matrices: every window is a wave of its own."""
    n = len(returns.tickers)
    with mock.patch.object(pipeline, "_WAVE_BYTES", len(cfg.q) * len(cfg.s) * 8 * n * n):
        return run_analysis(replace(cfg, threads=1), returns, families)


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.sampled_from([1, 2]))
def test_sweep_in_waves_matches_per_window_calls(seed, wave, threads):
    # The wave budget is cut to `wave` windows' matrices, so the nine windows
    # run in three or more waves, whatever the families; each wave's one
    # Prim and one Louvain must give every window the results that a wave
    # of that window alone computes.  Neither scale divides the 250-sample
    # blocks, so each window is summed as one stretch.  Lags -1, 1 alone run
    # no correlation pass.  The residual pass runs wherever spectra do.
    rng = np.random.default_rng(seed)
    n, t = 6, 3_000
    values = (rng.standard_normal((n, n)) + np.eye(n)) @ rng.standard_normal((n, t))
    returns = ReturnMatrix(tickers=tuple(f"A{i}" for i in range(n)),
                           timestamps=np.arange(t, dtype=np.int64), values=values)
    windows = rolling_windows(t, 1_000, 250)
    for families, lags in [(ALL_FAMILIES, (-1, 0, 1)), (("spectra",), (-1, 0, 1)),
                           (("lagged",), (-1, 1))]:
        cfg = AnalysisConfig(q=(1.0, 2.0), s=(12, 35), window=1_000, step=250, lags=lags,
                             anchors=("A0",), verbose=True, seed=seed % 1000, threads=threads,
                             residual=True)
        held = len(cfg.q) * len(cfg.s) * 8 * n * n
        grow = mock.Mock(wraps=pipeline._grow_graphs)
        with mock.patch.object(pipeline, "_WAVE_BYTES", wave * held), \
                mock.patch.object(pipeline, "_grow_graphs", grow):
            swept = run_analysis(cfg, returns, families)
        assert swept.skipped == [] and grow.call_count >= 3
        assert len(swept.windows) == len(windows) == 9
        alone = _one_window_waves(cfg, returns, families)
        assert [_window_record(w) for w in swept.windows] == [
            _window_record(w) for w in alone.windows]


@pytest.mark.parametrize("threads", [1, 2])
def test_sweep_skips_a_failed_spectrum_as_a_lone_window_does(threads):
    # The eigensolver fails on window 3's second matrix in (s, q) order, and
    # gap fills skip window 4; both sit in the middle wave of three.  The
    # sweep runs a wave's spectra apart from its windows, yet it must skip
    # the windows that fail in waves of one window, with their reasons in
    # window order, and give every other window the results it has there.
    # Neither scale divides the blocks, so each window is summed as one
    # stretch.
    rng = np.random.default_rng(4)
    n, t, width = 6, 4_500, 500
    values = (rng.standard_normal((n, n)) + np.eye(n)) @ rng.standard_normal((n, t))
    filled = np.zeros(t, dtype=bool)
    filled[2_000:2_100] = True
    returns = ReturnMatrix(tickers=tuple(f"A{i}" for i in range(n)),
                           timestamps=np.arange(t, dtype=np.int64), values=values,
                           filled=filled)
    cfg = AnalysisConfig(q=(1.0, 2.0), s=(12, 35), window=width, step=width, lags=(-1, 0, 1),
                         anchors=("A0",), verbose=True, residual=True, threads=threads)
    windows = rolling_windows(t, width, width)
    target = {}
    compute_window(returns, *windows[3], 3, cfg, ("periods",), {}, target, {})
    target = target[(2.0, 12)].values

    def eigh(c):
        if np.array_equal(c.values, target):
            raise EigensolverError("planted failure")
        return eigendecompose(c)

    with mock.patch.object(pipeline.spectra, "eigendecompose", eigh):
        alone = _one_window_waves(cfg, returns, ALL_FAMILIES)
        with mock.patch.object(pipeline, "_WAVE_BYTES", 3 * len(cfg.q) * len(cfg.s) * 8 * n * n):
            swept = run_analysis(cfg, returns, ALL_FAMILIES)
    assert [i for i, _ in alone.skipped] == [3, 4] and alone.skipped[0][1] == "planted failure"
    assert swept.skipped == alone.skipped
    assert [_window_record(w) for w in swept.windows] == [
        _window_record(w) for w in alone.windows]


def test_graph_and_spectra_jobs_beside_each_other_match_one_thread():
    # The graph job and the spectra jobs fill different fields of the same
    # window results on different threads.  Four pool threads, thread
    # switches every microsecond and waves of eight windows (four
    # graph-and-spectra stages) must give every window the bytes of the
    # one-thread sweep.
    rng = np.random.default_rng(11)
    n, t = 6, 3_000
    values = (rng.standard_normal((n, n)) + np.eye(n)) @ rng.standard_normal((n, t))
    returns = ReturnMatrix(tickers=tuple(f"A{i}" for i in range(n)),
                           timestamps=np.arange(t, dtype=np.int64), values=values)
    cfg = AnalysisConfig(q=(1.0, 2.0), s=(12, 35), window=600, step=80, lags=(-1, 0, 1),
                         anchors=("A0",), verbose=True, residual=True, threads=1)
    serial = run_analysis(cfg, returns, ALL_FAMILIES)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(pipeline, "_WAVE_BYTES", 8 * len(cfg.q) * len(cfg.s) * 8 * n * n):
            threaded = run_analysis(replace(cfg, threads=4), returns, ALL_FAMILIES)
    finally:
        sys.setswitchinterval(interval)
    assert threaded.skipped == serial.skipped == [] and len(serial.windows) == 31
    assert [_window_record(w) for w in threaded.windows] == [
        _window_record(w) for w in serial.windows]
