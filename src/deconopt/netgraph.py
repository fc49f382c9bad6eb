"""Communication graph and its derived arc operator and graph matrices.

A connected undirected network on vertices 1..n is its sorted edge list:
`NetworkGraph` holds n, the block length p and the edges, each as
(min endpoint, max endpoint) in ascending order. Communication is
bidirectional, so every edge carries two directed arcs, m = 2 |edges| in all.
The arcs are derived from the edges in one step (`arc_indices`), labeled
deterministically: in edge order, the forward arc (low -> high) before the
reverse arc, labels 1..m in that order.

Two representations are derived from the arc indices, and nothing else:

* The stacked arc operator S = [A_s; A_d] (`ArcStack`), the one arc
  operator. It acts on stacked vectors of n blocks of length p without
  forming any m x n matrix or Kronecker lift: S x is one gather on the arc
  indices and S^T y one ``np.bincount``. E_o x and E_u x are the difference
  and the sum of the halves of S x, E_o^T a = S^T [a; -a] and
  E_u^T z = S^T [z; z].
* The graph-level n x n matrices, counted from the arcs in O(m): the
  (doubled) degree vector (`degrees`), the Laplacian L = E_o^T E_o
  (`laplacian`) with its eigenvalues (`laplacian_eigvals`), and
  E_u^T E_u = 2D - L (`unoriented_gram`). A lifted product (M (x) I_p) x is
  M times x reshaped to (n, p).

The derived values of a graph (`arc_indices`, `support_mask`, `arc_stack`,
`degrees`, `laplacian`, `laplacian_eigvals`) are cached read-only in the graph
instance, so they live as long as the graph and an equal graph built
separately computes its own. No eigenvector is formed, and the minimum-norm
solve of E_o^T a = c (`e_o_min_norm_solver`) needs only L.

Convention note: with two arcs per edge the extended degree matrix
D = (E_o^T E_o + E_u^T E_u)/2 carries twice the neighbor count on its
diagonal. That doubled value is what the per-agent iterates require, so it is
the value `degrees` holds.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import denselin
from .errors import (
    DimensionMismatch,
    Disconnected,
    DuplicateEdge,
    EmptyGraph,
    SelfLoop,
)
from .tolerances import DEFAULT, Tolerances

# rows per pass of every row-wise pass over a (rows, n*p) trace (residuals,
# sum values, distances, the blocks a run fills); bounds their temporaries
_ROW_BLOCK = 128


@dataclass(frozen=True)
class NetworkGraph:
    n: int
    p: int
    edges: tuple[tuple[int, int], ...]  # sorted (low, high) vertex pairs, ids 1..n

    @property
    def m(self) -> int:
        """The number of arcs, two per edge."""
        return 2 * len(self.edges)


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


class ArcStack:
    """The stacked arc operator S = [A_s; A_d] (2m x n blocks of length p).

    `index` is the (2, mp) array of the flattened (endpoint, column) index of
    every entry of S x: row 0 for the arc sources, row 1 for the arc
    destinations. So S x = x[index], one gather, and S^T y is one
    `np.bincount(bins, y, size)` with `bins` the flat index and `size` = n p;
    no base matrix is formed. E_o and E_u come from the same two passes:
    E_o x and E_u x are the difference and the sum of the halves of S x,
    E_o^T a = S^T [a; -a] and E_u^T z = S^T [z; z]. The products check no
    lengths: callers check their inputs once and then call them, or bind
    `index` and `bins` and run the passes inline.
    """

    def __init__(self, g: NetworkGraph):
        ends = np.stack(arc_indices(g))
        index = (ends[:, :, None] * g.p + np.arange(g.p)).reshape(2, -1)
        index.setflags(write=False)
        self.index = index
        self.bins = index.ravel()
        self.size = g.n * g.p

    def apply(self, x: np.ndarray) -> np.ndarray:
        """S x as a (2, mp) array: row 0 is A_s x, row 1 is A_d x."""
        return x[self.index]

    def apply_transpose(self, y: np.ndarray) -> np.ndarray:
        """S^T y for y of 2mp entries in the layout of `apply`, flat or (2, mp)."""
        return np.bincount(self.bins, y.ravel(), self.size)

    def e_o(self, x: np.ndarray) -> np.ndarray:
        src, dst = self.apply(x)
        return src - dst

    def e_u(self, x: np.ndarray) -> np.ndarray:
        src, dst = self.apply(x)
        return src + dst

    def e_o_transpose(self, a: np.ndarray) -> np.ndarray:
        return self.apply_transpose(E_O_SIGNS * a)

    def e_u_transpose(self, z: np.ndarray) -> np.ndarray:
        return self.apply_transpose(np.concatenate((z, z)))


# an arc vector a times this is [a; -a] in the (2, mp) layout of ArcStack
E_O_SIGNS = np.array([[1.0], [-1.0]])


def build_graph(n: int, edges, p: int = 1) -> NetworkGraph:
    """Validate an edge list and return the graph of its sorted edges.

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
    return NetworkGraph(n=n, p=p, edges=tuple(canonical))


@_per_graph
def arc_indices(g: NetworkGraph) -> tuple[np.ndarray, np.ndarray]:
    """0-based source and destination vertex of each arc, in label order:
    edge k gives arc 2k + 1 = (low, high) and arc 2k + 2 = (high, low)."""
    ends = np.array(g.edges) - 1
    src = ends.ravel()
    dst = ends[:, ::-1].ravel()
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
def degrees(g: NetworkGraph) -> np.ndarray:
    """Diagonal of the extended degree matrix D = (E_o^T E_o + E_u^T E_u)/2,
    as an (n,) read-only vector: arc (s, d) adds 1 to D_ss and D_dd (the
    cross terms of the two Gram matrices cancel, so D is diagonal)."""
    src, dst = arc_indices(g)
    deg = (np.bincount(src, minlength=g.n) + np.bincount(dst, minlength=g.n)).astype(float)
    deg.setflags(write=False)
    return deg


@_per_graph
def laplacian(g: NetworkGraph) -> np.ndarray:
    """The n x n Laplacian L = E_o^T E_o (read-only), counted from the arcs in
    O(m): arc (s, d) adds e_s e_s' + e_d e_d' - e_s e_d' - e_d e_s'. All
    arithmetic is exact: entries are small integers."""
    src, dst = arc_indices(g)
    lap = np.diag(degrees(g))
    np.subtract.at(lap, (np.concatenate((src, dst)), np.concatenate((dst, src))), 1.0)
    lap.setflags(write=False)
    return lap


@_per_graph
def laplacian_eigvals(g: NetworkGraph) -> np.ndarray:
    """The eigenvalues of L, ascending (read-only), computed once per graph
    for every spectral constant that needs them."""
    eigvals = denselin.sym_eigen(laplacian(g))
    eigvals.setflags(write=False)
    return eigvals


def unoriented_gram(g: NetworkGraph) -> np.ndarray:
    """E_u^T E_u = 2D - L at graph level, exactly (small integers), without
    an m x n product."""
    return 2.0 * np.diag(degrees(g)) - laplacian(g)


def e_o_min_norm_solver(g: NetworkGraph,
                        tolerances: Tolerances = DEFAULT) -> denselin.MinNormTransposeSolver:
    """The minimum-norm solver of (E_o (x) I_p)^T a = c: the Gram matrix is L,
    and E_o and E_o^T act through the graph's `ArcStack`."""
    s = arc_stack(g)
    return denselin.MinNormTransposeSolver(laplacian(g), s.e_o, s.e_o_transpose, g.p,
                                           tolerances)


def consensuality_residual(g: NetworkGraph, x):
    """Euclidean norm of E_o x; zero exactly on consensual vectors.

    A 1-D `x` gives a float, a (rows, n*p) array one value per row. Each
    norm is the square root of `np.vecdot` of an `e_o_blocks` row with
    itself: the bits of sqrt(d @ d) on that row alone.
    """
    x = np.asarray(x, dtype=float)
    width = g.n * g.p
    if x.ndim not in (1, 2) or x.shape[-1] != width:
        raise DimensionMismatch(f"expected vectors of length {width}, got {x.shape}")
    xs = x.reshape(-1, width)
    out = np.empty(len(xs))
    for start, d in e_o_blocks(g, xs):
        np.sqrt(np.vecdot(d, d), out=out[start:start + len(d)])
    return float(out[0]) if x.ndim == 1 else out


def e_o_blocks(g: NetworkGraph, xs: np.ndarray):
    """(first row, E_o x rows) per `_ROW_BLOCK` rows of a (rows, n*p) array,
    one gather into a C-contiguous buffer minus a second gather; each block
    overwrites the one before in that buffer, which a caller may change."""
    src, dst = arc_stack(g).index
    buf = np.empty((min(len(xs), _ROW_BLOCK), len(src)))
    for start in range(0, len(xs), _ROW_BLOCK):
        block = xs[start:start + _ROW_BLOCK]
        # the indices are valid; the default mode="raise" would buffer `out`
        d = np.take(block, src, axis=1, out=buf[:len(block)], mode="clip")
        d -= block[:, dst]
        yield start, d


def operator_csv_rows(matrix: np.ndarray) -> list[str]:
    """A matrix as CSV lines (one row per line), for inspection exports."""
    return [",".join(f"{v:.17g}" for v in row) for row in matrix]
