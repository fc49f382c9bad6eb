"""Communication graph and its derived block matrix operators.

A connected undirected network on vertices 1..n is stored with both directed
arcs per edge (communication is bidirectional). Arc labels are assigned
deterministically: edges sorted by (min endpoint, max endpoint), the forward
arc (low -> high) labeled before the reverse arc, labels 1..m in that order.
From the arc lists we derive the block arc source/destination matrices, the
oriented and unoriented incidence operators, the extended degree matrix and
the (doubled) graph Laplacian.

Every operator keeps its graph-level matrix as ``base`` and acts on stacked
vectors of n (or m) blocks of length p without forming the Kronecker lift
``base (x) I_p``. The four arc operators A_s, A_d, E_o and E_u form their
products by index arithmetic on the cached arc indices: ``apply`` gathers
the source and destination blocks of each arc (E_o x is x_src - x_dst, E_u x
is x_src + x_dst) and ``apply_transpose`` sums the arc blocks into their
vertices with one ``np.bincount``. The degree and Laplacian operators
multiply by their n x n base.

Convention note: with two arcs per edge the extended degree matrix
D = (E_o^T E_o + E_u^T E_u)/2 carries twice the neighbor count on its
diagonal. That doubled value is what the per-agent iterates require, so it is
the value exposed as ``degree``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    Disconnected,
    DuplicateEdge,
    EmptyGraph,
    MalformedGraph,
    SelfLoop,
)


@dataclass(frozen=True)
class Arc:
    label: int   # 1..m
    source: int  # vertex ids are 1..n
    dest: int


@dataclass(frozen=True)
class NetworkGraph:
    n: int
    p: int
    edges: tuple[tuple[int, int], ...]
    arcs: tuple[Arc, ...]
    neighbors: tuple[tuple[int, ...], ...]  # neighbors[i-1], ascending ids

    def __hash__(self) -> int:
        # the per-graph caches below key on the graph once per row of a
        # trace; hash the m arcs on the first lookup only
        if "_hash" not in self.__dict__:
            fields = (self.n, self.p, self.edges, self.arcs, self.neighbors)
            object.__setattr__(self, "_hash", hash(fields))
        return self.__dict__["_hash"]

    @property
    def m(self) -> int:
        return len(self.arcs)

    def neighbor_ids(self, i: int) -> tuple[int, ...]:
        return self.neighbors[i - 1]

    def degree(self, i: int) -> int:
        """Diagonal of the extended degree matrix: twice the neighbor count."""
        return 2 * len(self.neighbors[i - 1])


class BlockOperator:
    """A graph-level matrix lifted implicitly by an identity Kronecker factor.

    The base matrix acts on stacked vectors of `cols` blocks of length `p`;
    the lift base (x) I_p is never materialized unless `materialize` is called.
    """

    def __init__(self, base, p: int):
        base = np.array(base, dtype=float)
        base.setflags(write=False)
        self.base = base
        self.p = int(p)

    @property
    def rows(self) -> int:
        return self.base.shape[0]

    @property
    def cols(self) -> int:
        return self.base.shape[1]

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.cols * self.p,):
            raise DimensionMismatch(
                f"expected vector of length {self.cols * self.p}, got {x.shape}"
            )
        return self._product(x)

    def apply_transpose(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if y.shape != (self.rows * self.p,):
            raise DimensionMismatch(
                f"expected vector of length {self.rows * self.p}, got {y.shape}"
            )
        return self._transpose_product(y)

    def _product(self, x: np.ndarray) -> np.ndarray:
        return (self.base @ x.reshape(self.cols, self.p)).ravel()

    def _transpose_product(self, y: np.ndarray) -> np.ndarray:
        return (self.base.T @ y.reshape(self.rows, self.p)).ravel()

    def gram_base(self) -> np.ndarray:
        """base^T base at graph level."""
        return self.base.T @ self.base

    def materialize(self) -> np.ndarray:
        return np.kron(self.base, np.eye(self.p))


class ArcOperator(BlockOperator):
    """An m x n arc operator: row r holds `src_sign` in the column of arc r's
    source and `dst_sign` in that of its destination (signs in {-1, 0, 1}).

    Both products index the stacked vectors directly, through the flattened
    (endpoint, column) index of every (arc, column) entry. `apply` gathers
    the endpoint entries; with at most two entries of magnitude one per row
    this equals base @ x bit for bit. `apply_transpose` adds each arc's
    signed entries into its endpoints with one `np.bincount`.
    """

    def __init__(self, g: NetworkGraph, src_sign: int, dst_sign: int):
        src, dst = arc_indices(g)
        ends = [(index, sign) for index, sign in ((src, src_sign), (dst, dst_sign)) if sign]
        base = np.zeros((g.m, g.n))
        for index, sign in ends:
            base[np.arange(g.m), index] = sign
        super().__init__(base, g.p)
        self._ends = tuple(
            ((index[:, None] * g.p + np.arange(g.p)).ravel(), sign) for index, sign in ends
        )
        self._scatter = np.concatenate([flat for flat, _ in self._ends])

    def _product(self, x: np.ndarray) -> np.ndarray:
        (index, sign), *rest = self._ends
        out = x[index] if sign > 0 else -x[index]
        for index, sign in rest:
            out = out + x[index] if sign > 0 else out - x[index]
        return out

    def _transpose_product(self, y: np.ndarray) -> np.ndarray:
        signed = [y if sign > 0 else -y for _, sign in self._ends]
        weights = signed[0] if len(signed) == 1 else np.concatenate(signed)
        return np.bincount(self._scatter, weights, self.cols * self.p)


def build_graph(n: int, edges, p: int = 1) -> NetworkGraph:
    """Validate an edge list and return the labeled bidirectional graph.

    Vertices are 1..n. Each undirected edge contributes the arc pair
    (u,v), (v,u). Raises EmptyGraph / SelfLoop / DuplicateEdge / Disconnected.
    """
    if n < 2:
        raise EmptyGraph(f"need at least two vertices, got n={n}")
    if p < 1:
        raise ValueError(f"block dimension must be >= 1, got p={p}")
    edge_list = list(edges)
    if not edge_list:
        raise EmptyGraph("edge list is empty")

    canonical = []
    seen = set()
    for u, v in edge_list:
        u, v = int(u), int(v)
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"edge ({u},{v}) has an endpoint outside 1..{n}")
        if u == v:
            raise SelfLoop(f"self-loop at vertex {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise DuplicateEdge(f"edge {key} listed twice")
        seen.add(key)
        canonical.append(key)
    canonical.sort()

    adjacency: list[set[int]] = [set() for _ in range(n)]
    for u, v in canonical:
        adjacency[u - 1].add(v)
        adjacency[v - 1].add(u)

    # connectivity by breadth-first search from vertex 1
    visited = {1}
    frontier = [1]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adjacency[u - 1]:
                if v not in visited:
                    visited.add(v)
                    nxt.append(v)
        frontier = nxt
    if len(visited) != n:
        missing = sorted(set(range(1, n + 1)) - visited)
        raise Disconnected(f"vertices unreachable from 1: {missing}")

    arcs = []
    for u, v in canonical:
        arcs.append(Arc(label=len(arcs) + 1, source=u, dest=v))
        arcs.append(Arc(label=len(arcs) + 1, source=v, dest=u))

    neighbors = tuple(tuple(sorted(adjacency[i])) for i in range(n))
    return NetworkGraph(
        n=n, p=p, edges=tuple(canonical), arcs=tuple(arcs), neighbors=neighbors
    )


@functools.lru_cache(maxsize=None)
def arc_indices(g: NetworkGraph) -> tuple[np.ndarray, np.ndarray]:
    """0-based source and destination vertex of each arc, in label order.

    Raises MalformedGraph unless the arcs carry the labels 1..m in order.
    """
    if any(arc.label != k for k, arc in enumerate(g.arcs, start=1)):
        raise MalformedGraph("arc labels must run 1..m in arc order")
    src = np.array([arc.source - 1 for arc in g.arcs])
    dst = np.array([arc.dest - 1 for arc in g.arcs])
    src.setflags(write=False)
    dst.setflags(write=False)
    return src, dst


@functools.lru_cache(maxsize=None)
def support_mask(g: NetworkGraph) -> np.ndarray:
    """n x n boolean mask (read-only): True on the diagonal and wherever an
    arc joins i to j, the entries a graph-local matrix may fill."""
    mask = np.eye(g.n, dtype=bool)
    mask[arc_indices(g)] = True
    mask.setflags(write=False)
    return mask


@functools.lru_cache(maxsize=None)
def arc_matrices(g: NetworkGraph) -> tuple[ArcOperator, ArcOperator]:
    """Block arc source and destination operators (m x n blocks)."""
    return ArcOperator(g, 1, 0), ArcOperator(g, 0, 1)


@functools.lru_cache(maxsize=None)
def incidence_operators(
    g: NetworkGraph,
) -> tuple[ArcOperator, ArcOperator, BlockOperator, BlockOperator]:
    """Oriented/unoriented incidence, extended degree and Laplacian operators.

    Returns (E_o, E_u, D, L) with E_o = A_s - A_d, E_u = A_s + A_d,
    D = (E_o^T E_o + E_u^T E_u)/2 (diagonal, since each arc row of A_s and A_d
    holds one entry) and L = E_o^T E_o at graph level. All arithmetic is exact:
    entries are small integers.
    """
    e_o = ArcOperator(g, 1, -1)
    e_u = ArcOperator(g, 1, 1)
    lap = e_o.gram_base()
    deg = 0.5 * (lap + e_u.gram_base())
    return e_o, e_u, BlockOperator(deg, g.p), BlockOperator(lap, g.p)


def consensuality_residual(g: NetworkGraph, x) -> float:
    """Euclidean norm of E_o x; zero exactly on consensual vectors."""
    return float(np.linalg.norm(incidence_operators(g)[0].apply(x)))


def operator_csv_rows(op: BlockOperator) -> list[str]:
    """Base matrix as CSV lines (one row per line), for inspection exports."""
    return [",".join(f"{v:.17g}" for v in row) for row in op.base]
