"""Network representation of a correlation matrix.

Distances follow d = sqrt(2(1 - rho)), so perfectly correlated assets sit
at distance 0 and perfectly anticorrelated ones at distance 2.  The
minimum spanning tree is built with Prim's algorithm using lexicographic
(weight, min node, max node) comparisons, which makes the edge set unique
and invariant under any strictly increasing reweighting.  The mean path
length sums over edge cuts: an edge that splits its component of c nodes
into n and c - n lies on the paths of n (c - n) pairs (Wiener, 1947), so
one walk that sizes every subtree gives all pairs at once.  Community
detection is a two-phase greedy modularity search on the complete weighted
graph with negative coefficients clamped to zero.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientSupportError, ShapeMismatchError
from .spectra import DetrendedCorrelationMatrix


@dataclass(frozen=True)
class DistanceMatrix:
    values: np.ndarray
    labels: tuple[str, ...]
    q: float
    scale: int
    clipped: bool = False  # True when rho > 1 entries were clamped to d = 0

    @property
    def dim(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class TreeEdge:
    i: int
    j: int
    distance: float
    rho: float


@dataclass(frozen=True)
class SpanningTree:
    labels: tuple[str, ...]
    edges: tuple[TreeEdge, ...]

    @property
    def n_nodes(self) -> int:
        return len(self.labels)

    def degrees(self) -> np.ndarray:
        ends = np.array([(e.i, e.j) for e in self.edges], dtype=np.int64)
        return np.bincount(ends.ravel(), minlength=self.n_nodes)


@dataclass(frozen=True)
class DegreeDistribution:
    """Empirical survival function of node degrees.

    ``degrees``/``survival`` tabulate P(X >= k) at the observed distinct
    degree values; ``counts[k]`` is the number of nodes of degree k.
    """

    degrees: np.ndarray
    survival: np.ndarray
    node_degrees: np.ndarray


@dataclass(frozen=True)
class Partition:
    communities: dict[str, int]
    modularity: float
    degenerate: bool = False          # all-zero weights: one community per node


def distance_matrix(c: DetrendedCorrelationMatrix) -> DistanceMatrix:
    """Metric distances d = sqrt(2(1 - rho)); rho > 1 clamps the radicand."""
    radicand = 2.0 * (1.0 - c.values)
    clipped = bool(np.any(radicand < 0.0))
    if clipped:
        warnings.warn(
            f"rho > 1 at q={c.q}, s={c.scale}: clamping distance radicand to 0",
            stacklevel=2,
        )
        radicand = np.maximum(radicand, 0.0)
    dist = np.sqrt(radicand)
    np.fill_diagonal(dist, 0.0)
    return DistanceMatrix(
        values=dist, labels=c.labels, q=c.q, scale=c.scale, clipped=clipped
    )


def minimum_spanning_tree(
    d: DistanceMatrix, rho: np.ndarray | None = None
) -> SpanningTree:
    """Prim's algorithm over the dense distance matrix.

    Ties are broken on (weight, min node index, max node index), so equal
    inputs always yield the same tree.  ``rho`` optionally supplies the
    companion coefficients stored on the edges.
    """
    dist = d.values
    n = d.dim
    if n < 2:
        raise ShapeMismatchError("need at least 2 nodes")
    if not np.all(np.isfinite(dist)):
        raise ShapeMismatchError("distance matrix contains non-finite entries")
    if rho is None:
        rho = 1.0 - dist**2 / 2.0
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best_weight = dist[0].copy()
    best_weight[0] = np.inf  # a node in the tree is never picked again
    best_from = np.zeros(n, dtype=np.int64)
    edges = []
    for _ in range(n - 1):
        v = int(best_weight.argmin())
        tied = np.nonzero(best_weight == best_weight[v])[0]
        if tied.size > 1:
            u = best_from[tied]
            v = int(tied[np.lexsort((np.maximum(u, tied), np.minimum(u, tied)))[0]])
        u = int(best_from[v])
        i, j = (u, v) if u < v else (v, u)
        edges.append(TreeEdge(i=i, j=j, distance=float(dist[i, j]), rho=float(rho[i, j])))
        in_tree[v] = True
        best_weight[v] = np.inf
        row = dist[v]
        improved = (row < best_weight) & ~in_tree
        # Equal weights keep the incumbent only if its (min, max) key is
        # smaller; otherwise the new attachment wins the tie.
        w = np.nonzero(row == best_weight)[0]
        if w.size:
            old_u = best_from[w]
            lo, old_lo = np.minimum(v, w), np.minimum(old_u, w)
            hi, old_hi = np.maximum(v, w), np.maximum(old_u, w)
            improved[w] = (lo < old_lo) | ((lo == old_lo) & (hi < old_hi))
        best_weight[improved] = row[improved]
        best_from[improved] = v
    return SpanningTree(labels=d.labels, edges=tuple(edges))


def degree_distribution(tree: SpanningTree) -> DegreeDistribution:
    """Survival function P(X >= k) over the tree's node degrees."""
    node_degrees = tree.degrees()
    distinct = np.unique(node_degrees)
    survival = np.array([np.mean(node_degrees >= k) for k in distinct])
    return DegreeDistribution(
        degrees=distinct.astype(np.int64),
        survival=survival,
        node_degrees=node_degrees,
    )


def powerlaw_fit(dd: DegreeDistribution) -> tuple[float, float]:
    """Least-squares slope of ln P(X >= k) on ln k over the observed degrees.

    Returns (gamma, stderr) with gamma the slope magnitude.  Raises
    InsufficientSupportError with fewer than 3 distinct degree values.
    """
    mask = (dd.degrees >= 1) & (dd.survival > 0)
    ks = dd.degrees[mask]
    ps = dd.survival[mask]
    if ks.size < 3:
        raise InsufficientSupportError(
            f"power-law fit needs >= 3 distinct degrees, got {ks.size}"
        )
    x = np.log(ks.astype(np.float64))
    y = np.log(ps)
    xc = x - x.mean()
    sxx = xc @ xc
    slope = (xc @ y) / sxx
    intercept = y.mean() - slope * x.mean()
    resid = y - slope * x - intercept
    dof = ks.size - 2
    sigma2 = (resid @ resid) / dof
    stderr = float(np.sqrt(sigma2 / sxx))
    return float(abs(slope)), stderr


def mean_path_length(tree: SpanningTree, weighted: bool = False) -> float:
    """Average path length over unordered node pairs.

    Path length is the hop count of the unique tree path; with
    ``weighted`` the edge distances are summed instead.  Raises
    ShapeMismatchError when the edges contain a cycle.
    """
    n = tree.n_nodes
    incident = [[] for _ in range(n)]
    for k, e in enumerate(tree.edges):
        incident[e.i].append((k, e.j))
        incident[e.j].append((k, e.i))
    # Walk each component from its lowest node.  A node is reached once,
    # over its parent edge; any other edge to a reached node closes a cycle.
    root, parent_edge, reached = [-1] * n, [-1] * n, []
    for start in range(n):
        if root[start] >= 0:
            continue
        root[start], stack = start, [start]
        while stack:
            u = stack.pop()
            for k, v in incident[u]:
                if k == parent_edge[u]:
                    continue
                if root[v] >= 0:
                    raise ShapeMismatchError("tree edges contain a cycle")
                root[v], parent_edge[v] = start, k
                reached.append((v, u))
                stack.append(v)
    # A node is reached after its parent, so in reverse order every subtree
    # size is final before it is added to the parent's.
    size = [1] * n
    for v, u in reversed(reached):
        size[u] += size[v]
    # Edge e lies on the paths of the n_e * (c_e - n_e) pairs it separates,
    # with n_e the size of the subtree below it and c_e its component's.
    total = 0.0
    for k, e in enumerate(tree.edges):
        below = e.j if parent_edge[e.j] == k else e.i
        n_e = size[below]
        total += (e.distance if weighted else 1.0) * (n_e * (size[root[below]] - n_e))
    return total / (n * (n - 1) / 2)


def _aggregate(weights: np.ndarray, membership: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # bincount adds in index order, the row-major (a, b) order of a loop.
    ids, comm = np.unique(membership, return_inverse=True)
    k = ids.size
    cell = (comm[:, None] * k + comm[None, :]).ravel()
    agg = np.bincount(cell, weights=weights.ravel(), minlength=k * k).reshape(k, k)
    return agg, comm


def _local_phase(weights: np.ndarray, two_m: float, resolution: float, rng) -> np.ndarray:
    # One sweep phase of greedy moves.  Gains are compared in the scaled
    # form links - resolution * k_u * total_D / two_m (the true gain times
    # two_m / 2), which preserves the argmax.  A node moves only on a
    # strictly positive improvement over staying put, so modularity rises
    # with every move and the phase terminates.
    n = weights.shape[0]
    membership = np.arange(n)
    strength = weights.sum(axis=1)  # self-loop mass included
    comm_total = strength.copy()
    pull = resolution * strength
    links_of = weights.copy()  # a node's links to others leave its self-loop out
    np.fill_diagonal(links_of, 0.0)
    moved = True
    while moved:
        moved = False
        for u in range(n):
            cu = int(membership[u])
            comm_total[cu] -= strength[u]
            # Summed in node order; zero weights add +0.0 and change nothing.
            links = np.bincount(membership, weights=links_of[u], minlength=n)
            gains = links - pull[u] * comm_total / two_m
            stay = gains[cu] + 1e-12
            # Most visits move nothing; the max alone rejects them, cheaper than the mask.
            better = (gains > stay) & (links > 0.0) if gains.max() > stay else None
            if better is None or not better.any():
                comm_total[cu] += strength[u]
                continue
            top = gains[better].max()
            tied = np.flatnonzero(better & (gains >= top - 1e-12))
            target = int(tied[0]) if tied.size == 1 else int(rng.choice(np.sort(tied)))
            comm_total[target] += strength[u]
            membership[u] = target
            moved = True
    return membership


def louvain(
    c: DetrendedCorrelationMatrix, resolution: float = 1.0, seed: int = 0
) -> Partition:
    """Two-phase greedy modularity maximization on max(rho, 0) edge weights.

    Node sweeps run in label order; equal-gain moves are settled by the
    seeded generator, so a given seed always yields the same partition.
    When every coefficient is non-positive the graph has no edges and the
    trivial one-node-per-community partition is returned, flagged.
    """
    n = c.dim
    if n < 2:
        raise ShapeMismatchError("need at least 2 nodes")
    weights = np.maximum(c.values, 0.0).astype(np.float64)
    np.fill_diagonal(weights, 0.0)
    two_m = weights.sum()
    if two_m == 0.0:
        return Partition(
            communities={lab: i for i, lab in enumerate(c.labels)},
            modularity=0.0,
            degenerate=True,
        )
    rng = np.random.default_rng(seed)
    membership = np.arange(n)
    level_weights = weights
    while True:
        local = _local_phase(level_weights, two_m, resolution, rng)
        n_groups = np.unique(local).size
        no_moves = n_groups == level_weights.shape[0]
        level_weights, compact = _aggregate(level_weights, local)
        membership = compact[membership]
        if no_moves or level_weights.shape[0] == 1:
            break
    # Community ids 0..k-1 in order of first appearance.
    _, first, inverse = np.unique(membership, return_index=True, return_inverse=True)
    final = np.argsort(np.argsort(first))[inverse]
    return Partition(
        communities=dict(zip(c.labels, final.tolist())),
        modularity=modularity(weights, membership, resolution),
    )


def modularity(weights: np.ndarray, membership, resolution: float = 1.0) -> float:
    """Newman modularity of a membership vector on a zero-diagonal matrix."""
    w = np.asarray(weights, dtype=np.float64)
    member = np.asarray(membership)
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


def cluster_track(
    partitions: list[Partition], anchor: str
) -> tuple[tuple[str, ...], np.ndarray]:
    """Co-membership raster: entry (w, j) is True when node j shares the
    anchor's community in window w."""
    if not partitions:
        raise ShapeMismatchError("no partitions given")
    labels = tuple(sorted(partitions[0].communities))
    for p in partitions:
        if tuple(sorted(p.communities)) != labels:
            raise ShapeMismatchError("partitions disagree on the node set")
    if anchor not in partitions[0].communities:
        raise ShapeMismatchError(f"unknown anchor label {anchor!r}")
    raster = np.zeros((len(partitions), len(labels)), dtype=bool)
    for w, p in enumerate(partitions):
        raster[w] = np.array([p.communities[lab] for lab in labels]) == p.communities[anchor]
    return labels, raster
