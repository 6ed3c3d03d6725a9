"""Property-based checks of the input stage, the estimator kernel, the
sweep's window arithmetic and the network layer over small random inputs."""

import os
import tempfile
import warnings
from math import gcd

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qdcca.config import AnalysisConfig
from qdcca.data import (
    QuoteSeries,
    ReturnMatrix,
    align_series,
    build_return_matrix,
    rebase_prices,
)
from qdcca.dfa import (
    DetrendConfig,
    _box_profiles,
    cross_fluctuation_matrices,
    fluctuation_matrices,
    rho_q_lagged,
)
from qdcca.emit import write_outputs
from qdcca.errors import EmptyIntersectionError, QdccaError
from qdcca.network import (
    DistanceMatrix,
    SpanningTree,
    TreeEdge,
    louvain,
    mean_path_length,
    minimum_spanning_tree,
)
from qdcca.pipeline import (
    ALL_FAMILIES,
    WindowPlan,
    rolling_windows,
    run_analysis,
    threshold_periods,
)
from qdcca.spectra import DetrendedCorrelationMatrix, correlation_matrices

from oracles import (
    align_series_pairwise,
    all_pairs_hops,
    box_index_ranges,
    brute_force_mst,
    build_return_matrix_pairwise,
    prufer_tree_edges,
    rebase_prices_pairwise,
    tree_weight,
)

_Q = st.sampled_from([0.5, 1.0, 2.0, 3.0, 4.0])


@st.composite
def _quote_grids(draw):
    """2-5 quote series whose minute grids lie in a 49-minute span placed
    anywhere from -2^40 to 2^40, in one of five layouts: independent,
    identical, each a subset of the first, touching at exactly one minute
    (the first ends where the second begins), or disjoint."""
    origin = draw(st.sampled_from([0, -1_000, -(2**40), 2**40 - 48, 2**40]))
    n = draw(st.integers(2, 5))
    layout = draw(st.sampled_from(["any", "identical", "subset", "touching", "disjoint"]))
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
    want, got = _outcome(lambda: align_series_pairwise(quotes)), _outcome(lambda: align_series(quotes))
    if isinstance(want, type):
        assert got is want
    else:
        assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])
        assert list(got[2].retention.items()) == list(want[2].retention.items())
    for alt in quotes[1:]:
        want = _outcome(lambda: rebase_prices_pairwise(alt, quotes[0]))
        got = _outcome(lambda: rebase_prices(alt, quotes[0]))
        if isinstance(want, type):
            assert got is want
        else:
            assert got.ticker == want.ticker
            assert _same_bits(got.timestamps, want.timestamps)
            assert _same_bits(got.prices, want.prices)
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
    if q == 2.0:
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
    return minimum_spanning_tree(DistanceMatrix(values=mat, labels=labels, q=1.0, scale=10))


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
        assert {(e.i, e.j) for e in tree.edges} == edges


@settings(max_examples=100, deadline=None)
@given(_distances(40), st.integers(0, 2**32 - 1))
def test_prim_tree_is_invariant_under_increasing_reweighting(mat, seed):
    # A strictly increasing map of the distinct values keeps every
    # comparison Prim makes, ties included.
    values, rank = np.unique(mat, return_inverse=True)
    steps = np.random.default_rng(seed).uniform(0.01, 5.0, values.size)
    reweighted = np.cumsum(steps)[rank.reshape(mat.shape)]
    np.fill_diagonal(reweighted, 0.0)
    before = [(e.i, e.j) for e in _mst(mat).edges]
    assert [(e.i, e.j) for e in _mst(reweighted).edges] == before


@settings(max_examples=100, deadline=None)
@given(_distances(40), st.randoms(use_true_random=False))
def test_prim_tree_follows_relabelling(mat, random):
    assume(_distinct_weights(mat))
    perm = list(range(mat.shape[0]))
    random.shuffle(perm)
    relabelled = _mst(mat[np.ix_(perm, perm)])
    mapped = {tuple(sorted((perm[e.i], perm[e.j]))) for e in relabelled.edges}
    assert mapped == {(e.i, e.j) for e in _mst(mat).edges}


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
    return DetrendedCorrelationMatrix(values=rho, labels=labels, q=2.0, scale=10)


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
    assert again.modularity == first.modularity


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 30), st.integers(0, 2**32 - 1))
def test_mean_path_length_is_mean_pairwise_hops(n, seed):
    rng = np.random.default_rng(seed)
    pairs = prufer_tree_edges(rng.integers(0, n, n - 2).tolist(), n)
    tree = SpanningTree(
        labels=tuple(f"A{i}" for i in range(n)),
        edges=tuple(TreeEdge(i=i, j=j, distance=1.0, rho=0.0) for i, j in pairs),
    )
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
        return mean_path_length(SpanningTree(
            labels=tuple(f"A{i}" for i in range(n)),
            edges=tuple(TreeEdge(i=i, j=j, distance=1.0, rho=0.0) for i, j in edges),
        ))

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
    windows = rolling_windows(n, WindowPlan(width=width, step=step))
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
