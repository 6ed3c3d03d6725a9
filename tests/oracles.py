"""Independent reference implementations used only to check the library.

Everything here is written as a direct, slow transcription of the defining
formulas (explicit per-box loops, np.polyfit, exhaustive enumeration) and
shares no code with the package under test.  The ``*_loop`` references are
the network layer's original per-node loops, kept literally: the array
forms in the package add in the same order, so they must agree bit for bit.
The one exception is ``mean_path_length_loop``: the package sums path
lengths over edge cuts, so the per-source loop agrees bit for bit on hop
counts (every partial sum is an exact integer) and only to rounding on
distances; ``mean_path_length_cut_loop`` adds the weighted terms in the
package's order.
"""

import itertools
import math

import numpy as np


def rho_q_literal(x, y, q, scale, poly_order):
    """Reference detrended cross-correlation coefficient, one pair."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    m = n // scale
    abscissa = np.arange(1, scale + 1, dtype=float)
    f2xx, f2yy, f2xy = [], [], []
    for nu in range(2 * m):
        if nu < m:
            lo = nu * scale
        else:
            lo = n - (nu - m + 1) * scale
        xb = x[lo : lo + scale]
        yb = y[lo : lo + scale]
        prof_x = np.cumsum(xb)
        prof_y = np.cumsum(yb)
        det_x = prof_x - np.polyval(np.polyfit(abscissa, prof_x, poly_order), abscissa)
        det_y = prof_y - np.polyval(np.polyfit(abscissa, prof_y, poly_order), abscissa)
        rx = det_x - det_x.mean()
        ry = det_y - det_y.mean()
        f2xx.append(float(np.dot(rx, rx)))
        f2yy.append(float(np.dot(ry, ry)))
        f2xy.append(float(np.dot(rx, ry)))
    f_xx = np.mean([v ** (q / 2.0) for v in f2xx])
    f_yy = np.mean([v ** (q / 2.0) for v in f2yy])
    f_xy = np.mean([np.sign(v) * abs(v) ** (q / 2.0) for v in f2xy])
    return f_xy / np.sqrt(f_xx * f_yy)


def box_index_ranges(n, scale):
    """1-based inclusive (first, last) sample indices of each box."""
    m = n // scale
    ranges = [(nu * scale + 1, nu * scale + scale) for nu in range(m)]
    ranges += [
        (n - (k + 1) * scale + 1, n - k * scale) for k in range(m)
    ]
    return ranges


def prufer_tree_edges(sequence, n):
    """Decode a Pruefer sequence into the edge list of a labeled tree."""
    degree = [1] * n
    for v in sequence:
        degree[v] += 1
    edges = []
    seq = list(sequence)
    for v in seq:
        for leaf in range(n):
            if degree[leaf] == 1:
                edges.append((leaf, v))
                degree[leaf] -= 1
                degree[v] -= 1
                break
    last = [v for v in range(n) if degree[v] == 1]
    edges.append((last[0], last[1]))
    return edges


_TREE_CACHE: dict = {}


def _all_labeled_trees(n):
    # (n^(n-2), n-1, 2) edge array of every labeled tree, built once.
    if n not in _TREE_CACHE:
        trees = [
            prufer_tree_edges(seq, n)
            for seq in itertools.product(range(n), repeat=n - 2)
        ]
        _TREE_CACHE[n] = np.asarray(trees, dtype=np.int64)
    return _TREE_CACHE[n]


def brute_force_mst(dist):
    """Exhaustive minimum spanning tree: (weight, edge set) over all
    labeled trees; the weight is the sorted-sum of the winner's edges."""
    n = dist.shape[0]
    trees = _all_labeled_trees(n)
    weights = dist[trees[:, :, 0], trees[:, :, 1]]
    best = int(np.argmin(weights.sum(axis=1)))
    edges = {tuple(sorted(e)) for e in trees[best].tolist()}
    return float(np.sum(np.sort(weights[best]))), edges


def set_partitions(items):
    """All set partitions (restricted-growth enumeration)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in set_partitions(rest):
        for i, block in enumerate(smaller):
            yield smaller[:i] + [[first] + block] + smaller[i + 1 :]
        yield [[first]] + smaller


def modularity_direct(weights, communities, resolution=1.0):
    """Newman modularity of a node->community map on a weighted matrix.

    ``weights`` is symmetric with zero diagonal; ``communities`` maps node
    index -> community id.
    """
    w = np.asarray(weights, dtype=float)
    two_m = w.sum()
    if two_m == 0:
        return 0.0
    strength = w.sum(axis=1)
    q = 0.0
    n = w.shape[0]
    for i in range(n):
        for j in range(n):
            if communities[i] == communities[j]:
                q += w[i, j] - resolution * strength[i] * strength[j] / two_m
    return q / two_m


def best_partition_exhaustive(weights, resolution=1.0):
    """Globally optimal modularity over every set partition of the nodes."""
    n = weights.shape[0]
    best_q, best_parts = -np.inf, None
    for parts in set_partitions(range(n)):
        comm = {}
        for cid, block in enumerate(parts):
            for node in block:
                comm[node] = cid
        q = modularity_direct(weights, comm, resolution)
        if q > best_q:
            best_q, best_parts = q, parts
    return best_q, best_parts


def all_pairs_hops(n, edges):
    """Hop-count matrix of a graph by Floyd-Warshall."""
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for i, j in edges:
        dist[i, j] = dist[j, i] = 1.0
    for k in range(n):
        dist = np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :])
    return dist


def prim_mst_loop(dist, rho):
    """Prim's algorithm, one Python comparison per candidate node: the
    (weight, min node, max node) key decides, ties included.  Returns the
    edges (i, j, distance, rho) in the order they join the tree."""
    n = dist.shape[0]
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best_weight = dist[0].copy()
    best_from = np.zeros(n, dtype=np.int64)
    edges = []
    for _ in range(n - 1):
        best_key = None
        best_node = -1
        for v in range(n):
            if in_tree[v]:
                continue
            u = int(best_from[v])
            key = (best_weight[v], min(u, v), max(u, v))
            if best_key is None or key < best_key:
                best_key = key
                best_node = v
        u = int(best_from[best_node])
        v = best_node
        i, j = (u, v) if u < v else (v, u)
        edges.append((i, j, float(dist[i, j]), float(rho[i, j])))
        in_tree[v] = True
        improved = dist[v] < best_weight
        for w in np.nonzero(dist[v] == best_weight)[0]:
            if in_tree[w]:
                continue
            old_u = int(best_from[w])
            old_key = (min(old_u, w), max(old_u, w))
            new_key = (min(v, int(w)), max(v, int(w)))
            if new_key < old_key:
                improved[w] = True
        improved &= ~in_tree
        best_weight[improved] = dist[v][improved]
        best_from[improved] = v
    return edges


def mean_path_length_loop(n, edges, weighted=False):
    """Mean tree path length by one BFS per source; ``edges`` holds
    (i, j, distance) and contributions are added source by source, level
    by level, in discovery order."""
    adj = [[] for _ in range(n)]
    for i, j, distance in edges:
        w = distance if weighted else 1.0
        adj[i].append((j, w))
        adj[j].append((i, w))
    total = 0.0
    for src in range(n):
        seen = np.zeros(n, dtype=bool)
        seen[src] = True
        frontier = [(src, 0.0)]
        while frontier:
            nxt = []
            for node, acc in frontier:
                for nbr, w in adj[node]:
                    if not seen[nbr]:
                        seen[nbr] = True
                        if nbr > src:
                            total += acc + w
                        nxt.append((nbr, acc + w))
            frontier = nxt
    return total / (n * (n - 1) / 2)


def mean_path_length_cut_loop(n, edges, weighted=False):
    """Mean tree path length as a sum over edge cuts, each found on its own:
    without edge e the search from e's first end reaches n_e nodes, with it
    c_e, and e lies on the paths of the n_e * (c_e - n_e) pairs it splits.
    ``edges`` holds (i, j, distance); terms are added in edge order."""

    def reached(start, kept):
        adj = [[] for _ in range(n)]
        for i, j, _ in kept:
            adj[i].append(j)
            adj[j].append(i)
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for node in frontier:
                for nbr in adj[node]:
                    if nbr not in seen:
                        seen.add(nbr)
                        nxt.append(nbr)
            frontier = nxt
        return len(seen)

    total = 0.0
    for k, (i, _, distance) in enumerate(edges):
        n_e = reached(i, edges[:k] + edges[k + 1:])
        c_e = reached(i, edges)
        total += (distance if weighted else 1.0) * (n_e * (c_e - n_e))
    return total / (n * (n - 1) / 2)


def _modularity_by_community(w, member, resolution):
    two_m = w.sum()
    if two_m == 0.0:
        return 0.0
    strength = w.sum(axis=1)
    q = 0.0
    for cid in np.unique(member):
        mask = member == cid
        q += w[np.ix_(mask, mask)].sum() / two_m
        q -= resolution * (strength[mask].sum() / two_m) ** 2
    return float(q)


def aggregate_loop(weights, membership):
    ids = np.unique(membership)
    remap = {c: k for k, c in enumerate(ids)}
    comm = np.array([remap[c] for c in membership])
    k = ids.size
    agg = np.zeros((k, k))
    for a in range(weights.shape[0]):
        for b in range(weights.shape[0]):
            agg[comm[a], comm[b]] += weights[a, b]
    return agg, comm


def local_phase_loop(weights, two_m, resolution, rng):
    n = weights.shape[0]
    membership = np.arange(n)
    strength = weights.sum(axis=1)
    comm_total = strength.copy()
    moved = True
    while moved:
        moved = False
        for u in range(n):
            cu = int(membership[u])
            comm_total[cu] -= strength[u]
            links = np.zeros(n)
            for v in range(n):
                if v != u and weights[u, v] != 0.0:
                    links[membership[v]] += weights[u, v]
            candidates = np.nonzero(links > 0.0)[0]
            gains = links[candidates] - resolution * strength[u] * comm_total[candidates] / two_m
            stay = links[cu] - resolution * strength[u] * comm_total[cu] / two_m
            better = gains > stay + 1e-12
            if not np.any(better):
                comm_total[cu] += strength[u]
                continue
            top = gains[better].max()
            tied = candidates[better][gains[better] >= top - 1e-12]
            target = int(tied[0]) if tied.size == 1 else int(rng.choice(np.sort(tied)))
            comm_total[target] += strength[u]
            membership[u] = target
            moved = True
    return membership


def louvain_loop(rho, resolution=1.0, seed=0):
    """Two-phase greedy modularity search on max(rho, 0), with a Python
    loop per node pair in the move and aggregation phases.  Returns the
    community id of each node (ids 0..k-1 in first-appearance order), the
    final modularity and the modularity after each level."""
    n = rho.shape[0]
    weights = np.maximum(rho, 0.0).astype(np.float64)
    np.fill_diagonal(weights, 0.0)
    two_m = weights.sum()
    if two_m == 0.0:
        return list(range(n)), 0.0, ()
    rng = np.random.default_rng(seed)
    membership = np.arange(n)
    level_weights = weights
    history = [_modularity_by_community(weights, membership, resolution)]
    while True:
        local = local_phase_loop(level_weights, two_m, resolution, rng)
        n_groups = np.unique(local).size
        no_moves = n_groups == level_weights.shape[0]
        level_weights, compact = aggregate_loop(level_weights, local)
        membership = compact[membership]
        history.append(_modularity_by_community(weights, membership, resolution))
        if no_moves or level_weights.shape[0] == 1:
            break
    ids = []
    for m in membership:
        if m not in ids:
            ids.append(int(m))
    remap = {cid: k for k, cid in enumerate(ids)}
    return (
        [remap[int(m)] for m in membership],
        _modularity_by_community(weights, membership, resolution),
        tuple(history),
    )


def tree_weight(tree):
    """Total distance of a spanning tree's edges, summed in sorted order
    (the same arithmetic as `brute_force_mst`'s weight)."""
    return float(np.sum(np.sort(tree.distance)))


def tree_pairs(tree):
    """A spanning tree's (i, j) edge endpoints, in its edge order."""
    return list(zip(tree.i.tolist(), tree.j.tolist()))


def survival_at(degrees, k):
    """Empirical P(degree >= k) over an array of node degrees."""
    return float(np.mean(np.asarray(degrees) >= k))


def shannon_entropy_literal(v):
    """-sum p ln p over the non-zero squared components of a vector,
    summed exactly."""
    squares = [x * x for x in np.asarray(v, dtype=np.float64).tolist()]
    return -math.fsum(p * math.log(p) for p in squares if p > 0.0)


def n_communities(partition):
    """Number of distinct community ids in a partition."""
    return len(set(partition.communities.values()))


# The input stage's original pairwise-intersection alignment and re-basing,
# kept literally (plus the return-matrix construction that used them): the
# package now counts minutes instead, and must agree bit for bit.  These
# build the package's own result types, so they import them.
from qdcca.data import AlignmentReport, QuoteSeries, ReturnMatrix, log_returns  # noqa: E402
from qdcca.errors import EmptyIntersectionError, ShapeMismatchError  # noqa: E402


def rebase_prices_pairwise(alt, base):
    """Re-express ``alt`` in units of ``base`` on their common timestamps."""
    common, ia, ib = np.intersect1d(
        alt.timestamps, base.timestamps, assume_unique=True, return_indices=True
    )
    if common.size == 0:
        raise EmptyIntersectionError(
            f"{alt.ticker} and {base.ticker} share no timestamps"
        )
    return QuoteSeries(
        ticker=alt.ticker,
        timestamps=common,
        prices=alt.prices[ia] / base.prices[ib],
    )


def align_series_pairwise(series):
    """Restrict every series to the intersection of all timestamp grids.

    Returns (timestamps, prices (N, T), report with per-series retention).
    """
    if len(series) < 2:
        raise ShapeMismatchError("need at least 2 series to align")
    common = series[0].timestamps
    for qs in series[1:]:
        common = np.intersect1d(common, qs.timestamps, assume_unique=True)
    if common.size == 0:
        raise EmptyIntersectionError("series share no common timestamps")
    report = AlignmentReport()
    prices = np.empty((len(series), common.size))
    for k, qs in enumerate(series):
        idx = np.searchsorted(qs.timestamps, common)
        prices[k] = qs.prices[idx]
        report.retention[qs.ticker] = common.size / len(qs)
    return common, prices, report


def build_return_matrix_pairwise(series, *, base=None, grid="uniform", stable_threshold=1e-6):
    """The full ingestion path on `align_series_pairwise` and
    `rebase_prices_pairwise`, with the returns scattered by `searchsorted`
    on the full grid.  With fewer than two common timestamps it returns an
    (N, 0) matrix (and numpy warns about the mean of an empty slice)."""
    if grid not in ("uniform", "intersection"):
        raise ShapeMismatchError(f"unknown grid policy {grid!r}")
    excluded = {}
    kept = []
    for qs in series:
        if log_returns(qs).std() < stable_threshold:
            excluded[qs.ticker] = "near-zero return variance (pegged to quote currency)"
        else:
            kept.append(qs)
    if base is not None:
        base_series = next((s for s in series if s.ticker == base), None)
        if base_series is None:
            raise ShapeMismatchError(f"base ticker {base!r} not among inputs")
        rebased = []
        for qs in kept:
            if qs.ticker == base:
                excluded[qs.ticker] = "base asset of the re-based universe"
                continue
            rebased.append(rebase_prices_pairwise(qs, base_series))
        kept = rebased
    if len(kept) < 2:
        raise ShapeMismatchError("fewer than 2 series left after exclusions")
    timestamps, prices, report = align_series_pairwise(kept)
    report.excluded = excluded
    tickers = tuple(qs.ticker for qs in kept)
    full = timestamps  # the intersection grid: every return a sample, no fills
    if grid == "uniform":
        full = np.arange(timestamps[0], timestamps[-1] + 1, dtype=np.int64)
    raw = np.diff(np.log(prices), axis=1)
    values = np.zeros((len(kept), full.size - 1))
    pos = np.searchsorted(full, timestamps[1:])
    values[:, pos - 1] = raw
    filled = np.ones(full.size - 1, dtype=bool)
    filled[pos - 1] = False
    report.filled_fraction = float(filled.mean())
    return (
        ReturnMatrix(
            tickers=tickers,
            timestamps=full[1:],
            values=values,
            filled=filled,
        ),
        report,
    )


# The estimator kernel's original per-box Gram loop, kept literally (with
# the signed power and chunk size it used): at q = 2 the package now sums
# the boxes as one product, which agrees with this loop to rounding.
_BOX_CHUNK = 512


def _signed_power(values, q):
    # sign(g) * |g|**(q/2), specialized; see the implementation notes.  The
    # result is built in one buffer: fresh Gram-sized temporaries cost more
    # than the arithmetic.
    if q == 2.0:
        return values
    out = np.abs(values)
    if q == 4.0:
        out *= values
        return out
    out **= q / 2.0
    return np.copysign(out, values, out=out)


def gram_power_box_loop(ra, rb, q_list):
    """Box sums of the signed q/2 powers of the per-box Grams ra_b @ rb_b^T.

    ``ra`` (A, B, s) and ``rb`` (N, B, s) are detrended residual stacks;
    each q maps to an (A, N) matrix.  Pass the same array twice for a stack
    against itself: both operands then share one buffer, which lets BLAS use
    its symmetric A @ A^T product.
    """
    a = np.ascontiguousarray(ra.transpose(1, 0, 2))
    b = a if rb is ra else np.ascontiguousarray(rb.transpose(1, 0, 2))
    # Sums start at +0.0, like np.zeros, so a -0.0 power never survives.
    acc = dict.fromkeys(q_list, 0.0)
    for lo in range(0, a.shape[0], _BOX_CHUNK):
        gram = a[lo : lo + _BOX_CHUNK] @ b[lo : lo + _BOX_CHUNK].transpose(0, 2, 1)
        for q in q_list:
            acc[q] += _signed_power(gram, q).sum(axis=0)
    return acc


def gram_power_one_chunk(ra, rb, q_list):
    """`gram_power_box_loop` with every box in one chunk: each box sum is
    the plain in-order sum from +0.0, with no restart every `_BOX_CHUNK`
    boxes."""
    a = np.ascontiguousarray(ra.transpose(1, 0, 2))
    b = a if rb is ra else np.ascontiguousarray(rb.transpose(1, 0, 2))
    gram = a @ b.transpose(0, 2, 1)
    return {q: 0.0 + _signed_power(gram, q).sum(axis=0) for q in q_list}


# Trees for the tests, built in the package's own result type.
from qdcca.network import SpanningTree  # noqa: E402


def tree_from_edges(n, edges, labels=None):
    """A `SpanningTree` on n nodes (labels A0, A1, ... unless given) from
    (i, j) or (i, j, distance) tuples, kept in their order and orientation.
    The distance defaults to 1.0; rho is 1 - distance**2 / 2."""
    ends = np.array([e[:2] for e in edges], dtype=np.int64).reshape(-1, 2)
    distance = np.array([e[2] if len(e) > 2 else 1.0 for e in edges], dtype=np.float64)
    labels = tuple(labels) if labels else tuple(f"A{k}" for k in range(n))
    return SpanningTree(labels, ends[:, 0].copy(), ends[:, 1].copy(), distance,
                        1.0 - distance**2 / 2.0)
