"""Network representation of a correlation matrix.

Distances follow d = sqrt(2(1 - rho)), so perfectly correlated assets sit
at distance 0 and perfectly anticorrelated ones at distance 2.  The
minimum spanning tree is built with Prim's algorithm using lexicographic
(weight, min node, max node) comparisons, which makes the edge set unique
and invariant under any strictly increasing reweighting.  Community
detection is a two-phase greedy modularity search on the complete weighted
graph with negative coefficients clamped to zero.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientSupportError, ShapeMismatchError
from .spectra import DetrendedCorrelationMatrix


@dataclass(frozen=True)
class DistanceMatrix:
    values: np.ndarray
    labels: tuple[str, ...]
    q: float
    scale: int
    window: int | None = None
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
        deg = np.zeros(self.n_nodes, dtype=np.int64)
        for e in self.edges:
            deg[e.i] += 1
            deg[e.j] += 1
        return deg

    def total_weight(self) -> float:
        return float(np.sum(np.sort([e.distance for e in self.edges])))


@dataclass(frozen=True)
class DegreeDistribution:
    """Empirical survival function of node degrees.

    ``degrees``/``survival`` tabulate P(X >= k) at the observed distinct
    degree values; ``counts[k]`` is the number of nodes of degree k.
    """

    degrees: np.ndarray
    survival: np.ndarray
    node_degrees: np.ndarray

    def survival_at(self, k: int) -> float:
        return float(np.mean(self.node_degrees >= k))


@dataclass(frozen=True)
class Partition:
    communities: dict[str, int]
    modularity: float
    degenerate: bool = False          # all-zero weights: one community per node
    phase_modularity: tuple[float, ...] = field(default_factory=tuple)

    def members(self, community: int) -> list[str]:
        return [n for n, c in self.communities.items() if c == community]

    @property
    def n_communities(self) -> int:
        return len(set(self.communities.values()))


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
        values=dist, labels=c.labels, q=c.q, scale=c.scale,
        window=c.window, clipped=clipped,
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
        edges.append(TreeEdge(i=i, j=j, distance=float(dist[i, j]), rho=float(rho[i, j])))
        in_tree[v] = True
        improved = dist[v] < best_weight
        # Equal weights keep the incumbent only if its (min, max) key is
        # smaller; otherwise the new attachment wins the tie.
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
    ``weighted`` the edge distances are summed instead.
    """
    n = tree.n_nodes
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for e in tree.edges:
        w = e.distance if weighted else 1.0
        adj[e.i].append((e.j, w))
        adj[e.j].append((e.i, w))
    total = 0.0
    for src in range(n):
        # BFS from src; a tree has a unique path to every node.
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


def _aggregate(weights: np.ndarray, membership: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    ids = np.unique(membership)
    remap = {c: k for k, c in enumerate(ids)}
    comm = np.array([remap[c] for c in membership])
    k = ids.size
    agg = np.zeros((k, k))
    for a in range(weights.shape[0]):
        for b in range(weights.shape[0]):
            agg[comm[a], comm[b]] += weights[a, b]
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
    history = [modularity(weights, membership, resolution)]
    while True:
        local = _local_phase(level_weights, two_m, resolution, rng)
        n_groups = np.unique(local).size
        no_moves = n_groups == level_weights.shape[0]
        level_weights, compact = _aggregate(level_weights, local)
        membership = compact[membership]
        history.append(modularity(weights, membership, resolution))
        if no_moves or level_weights.shape[0] == 1:
            break
    ids: list[int] = []
    for m in membership:
        if m not in ids:
            ids.append(int(m))
    remap = {cid: k for k, cid in enumerate(ids)}
    final = {lab: remap[int(membership[i])] for i, lab in enumerate(c.labels)}
    return Partition(
        communities=final,
        modularity=modularity(weights, membership, resolution),
        phase_modularity=tuple(history),
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
        home = p.communities[anchor]
        for j, lab in enumerate(labels):
            raster[w, j] = p.communities[lab] == home
    return labels, raster
