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
``base (x) I_p``. All arc products go through one index, the stacked arc
operator S = [A_s; A_d] (`ArcStack`, the one operator with no ``base``):
S x is one gather and S^T y one ``np.bincount``. E_o x and E_u x are the
difference and the sum of the halves of S x, E_o^T a = S^T [a; -a] and
E_u^T z = S^T [z; z]; the four arc operators A_s, A_d, E_o and E_u
(`ArcOperator`) combine the halves by their signs the same way. The central
engines call the `ArcStack` products directly. The degree and Laplacian
operators multiply by their n x n base, which is built from the arc indices
in O(m).

The derived values of a graph (`arc_indices`, `support_mask`, `arc_stack`,
`arc_matrices`, `incidence_operators`) are cached in the graph instance, so
they live as long as the graph and an equal graph built separately computes
its own.

Convention note: with two arcs per edge the extended degree matrix
D = (E_o^T E_o + E_u^T E_u)/2 carries twice the neighbor count on its
diagonal. That doubled value is what the per-agent iterates require, so it is
the value exposed as ``degree``.
"""

from __future__ import annotations

import functools
import math
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

    @property
    def m(self) -> int:
        return len(self.arcs)

    def neighbor_ids(self, i: int) -> tuple[int, ...]:
        return self.neighbors[i - 1]

    def degree(self, i: int) -> int:
        """Diagonal of the extended degree matrix: twice the neighbor count."""
        return 2 * len(self.neighbors[i - 1])


def _per_graph(fn):
    """Cache fn(g) in the graph instance's __dict__, the frozen dataclass's
    own storage outside its fields, so equality and repr ignore it."""
    key = f"_{fn.__name__}"

    @functools.wraps(fn)
    def cached(g: NetworkGraph):
        try:
            return vars(g)[key]
        except KeyError:
            value = vars(g)[key] = fn(g)
            return value

    return cached


def _checked(v, length: int) -> np.ndarray:
    """v as a float vector; raises DimensionMismatch unless it has `length` entries."""
    v = np.asarray(v, dtype=float)
    if v.shape != (length,):
        raise DimensionMismatch(f"expected vector of length {length}, got {v.shape}")
    return v


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
        return self._product(_checked(x, self.cols * self.p))

    def apply_transpose(self, y: np.ndarray) -> np.ndarray:
        return self._transpose_product(_checked(y, self.rows * self.p))

    def _product(self, x: np.ndarray) -> np.ndarray:
        return (self.base @ x.reshape(self.cols, self.p)).ravel()

    def _transpose_product(self, y: np.ndarray) -> np.ndarray:
        return (self.base.T @ y.reshape(self.rows, self.p)).ravel()

    def gram_base(self) -> np.ndarray:
        """base^T base at graph level."""
        return self.base.T @ self.base

    def materialize(self) -> np.ndarray:
        return np.kron(self.base, np.eye(self.p))


class ArcStack:
    """The stacked arc operator S = [A_s; A_d] (2m x n blocks of length p).

    `index` is the (2, mp) array of the flattened (endpoint, column) index of
    every entry of S x: row 0 for the arc sources, row 1 for the arc
    destinations. So S x = x[index], one gather, and S^T y is one
    `np.bincount`; no base matrix is formed. E_o and E_u come from the same
    two passes: E_o x and E_u x are the difference and the sum of the halves
    of S x, E_o^T a = S^T [a; -a] and E_u^T z = S^T [z; z]. The products
    check no lengths: callers check their inputs once and then call them.
    """

    def __init__(self, g: NetworkGraph):
        ends = np.stack(arc_indices(g))
        index = (ends[:, :, None] * g.p + np.arange(g.p)).reshape(2, -1)
        index.setflags(write=False)
        self.index = index
        self._flat = index.ravel()
        self._size = g.n * g.p

    def apply(self, x: np.ndarray) -> np.ndarray:
        """S x as a (2, mp) array: row 0 is A_s x, row 1 is A_d x."""
        return x[self.index]

    def apply_transpose(self, y: np.ndarray) -> np.ndarray:
        """S^T y for y of 2mp entries in the layout of `apply`, flat or (2, mp)."""
        return np.bincount(self._flat, y.ravel(), self._size)

    def e_o(self, x: np.ndarray) -> np.ndarray:
        src, dst = self.apply(x)
        return src - dst

    def e_u(self, x: np.ndarray) -> np.ndarray:
        src, dst = self.apply(x)
        return src + dst

    def e_o_transpose(self, a: np.ndarray) -> np.ndarray:
        return self.apply_transpose(_E_O_SIGNS * a)

    def e_u_transpose(self, z: np.ndarray) -> np.ndarray:
        return self.apply_transpose(np.concatenate((z, z)))


# an arc vector a times this is [a; -a] in the (2, mp) layout of ArcStack
_E_O_SIGNS = np.array([[1.0], [-1.0]])


class ArcOperator(BlockOperator):
    """An m x n arc operator: row r holds `src_sign` in the column of arc r's
    source and `dst_sign` in that of its destination (signs in {-1, 0, 1}).

    Both products go through the graph's `ArcStack`: `apply` adds the halves
    of S x times the signs, and `apply_transpose` is S^T of the signed stack
    [src_sign y; dst_sign y]. A row holds at most two entries of magnitude
    one, so `apply` rounds once per entry, as base @ x does.
    """

    def __init__(self, g: NetworkGraph, src_sign: int, dst_sign: int):
        src, dst = arc_indices(g)
        base = np.zeros((g.m, g.n))
        rows = np.arange(g.m)
        base[rows, src] = src_sign
        base[rows, dst] = dst_sign
        super().__init__(base, g.p)
        self._stack = arc_stack(g)
        self._signs = np.array([[src_sign], [dst_sign]], dtype=float)

    def _product(self, x: np.ndarray) -> np.ndarray:
        src, dst = self._signs * self._stack.apply(x)
        return src + dst

    def _transpose_product(self, y: np.ndarray) -> np.ndarray:
        return self._stack.apply_transpose(self._signs * y)


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


@_per_graph
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


@_per_graph
def support_mask(g: NetworkGraph) -> np.ndarray:
    """n x n boolean mask (read-only): True on the diagonal and wherever an
    arc joins i to j, the entries a graph-local matrix may fill."""
    mask = np.eye(g.n, dtype=bool)
    mask[arc_indices(g)] = True
    mask.setflags(write=False)
    return mask


@_per_graph
def arc_stack(g: NetworkGraph) -> ArcStack:
    """The stacked arc operator S = [A_s; A_d]."""
    return ArcStack(g)


@_per_graph
def arc_matrices(g: NetworkGraph) -> tuple[ArcOperator, ArcOperator]:
    """Block arc source and destination operators (m x n blocks)."""
    return ArcOperator(g, 1, 0), ArcOperator(g, 0, 1)


@_per_graph
def incidence_operators(
    g: NetworkGraph,
) -> tuple[ArcOperator, ArcOperator, BlockOperator, BlockOperator]:
    """Oriented/unoriented incidence, extended degree and Laplacian operators.

    Returns (E_o, E_u, D, L) with E_o = A_s - A_d, E_u = A_s + A_d,
    D = (E_o^T E_o + E_u^T E_u)/2 and L = E_o^T E_o at graph level. Both are
    counted from the arcs in O(m): arc (s, d) adds 1 to D_ss and D_dd (the
    cross terms of the two Gram matrices cancel, so D is diagonal) and
    e_s e_s' + e_d e_d' - e_s e_d' - e_d e_s' to L. All arithmetic is exact:
    entries are small integers.
    """
    src, dst = arc_indices(g)
    counts = np.bincount(src, minlength=g.n) + np.bincount(dst, minlength=g.n)
    deg = np.diag(counts.astype(float))
    lap = deg.copy()
    np.subtract.at(lap, (np.concatenate((src, dst)), np.concatenate((dst, src))), 1.0)
    return (ArcOperator(g, 1, -1), ArcOperator(g, 1, 1),
            BlockOperator(deg, g.p), BlockOperator(lap, g.p))


def consensuality_residual(g: NetworkGraph, x) -> float:
    """Euclidean norm of E_o x; zero exactly on consensual vectors.

    E_o x comes from one gather, and its norm is sqrt(d @ d), which is what
    np.linalg.norm computes for a real vector.
    """
    d = arc_stack(g).e_o(_checked(x, g.n * g.p))
    return math.sqrt(d.dot(d))


def operator_csv_rows(op: BlockOperator) -> list[str]:
    """Base matrix as CSV lines (one row per line), for inspection exports."""
    return [",".join(f"{v:.17g}" for v in row) for row in op.base]
