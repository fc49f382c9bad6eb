"""Synchronous simulated network: agents are rows of shared arrays.

Agent i owns row i - 1 of the (n, p) iterate `x` and of the (n, p) dual
aggregate `dual` (phi), its local component, its scalars a_i and pi_i, and
its row of a graph-local weight pair (U, V): a self weight and the weight of
each arc into i. One round (`network_round`) is

    c = dual + U x
    x_i <- argmin f_i(x) + c_i'x + (a_i/2)|x|^2 + (pi_i/2)|x - x_i|^2
    dual <- dual + V x

Each agent broadcasts its new x row once per round. That one exchange feeds
both V x (this round's dual step) and U x (the next round's c), which
`Network.mixes` forms together in one gather and one scatter-add.
Row i of c reads only the x rows of agent i and its neighbours, and row i of
the dual step only their new x rows: locality is a property of that
arithmetic. A test perturbs one agent's rows and checks that one round later
every x row two or more hops away, and every dual row three or more hops
away, is bit-identical. All local solves of a round are one stacked
`objective.local_subproblem_ex` call, row i reading rows i of c and x only.
Arc contributions add up in arc label order, so runs are reproducible.

The three factories only pick the weights:

* `dadmm_agents`: (U, V) = (-rho/2 E_u'E_u, eta rho/2 L), a_i = rho d_i.
* `general_uv_agents`: (-rho/2 U, eta rho/2 V), a_i = rho Dbar_ii.
* `pextra_agents`: (-W/xi, (W~ - W)/xi), a_i = 1/xi, pi = 0, with phi
  seeded at (W~ - W)/xi x0. For the pair of `solvers.pextra_mixing`,
  (W~ - W)/xi is eta rho/2 L, D-ADMM's V up to roundoff: Theorem 2's shared
  dual step.

A round's new x rows are a new array, and `run_rounds` copies each one
into its row of a block of the caller's (rounds, n p) rows. Every executed
round reports m messages of p scalars in its `RoundLog`; the observer's
call for the current state reports none. `RoundLog` and the observer serve
library users and tracing. Each of `solvers.DadmmEngine`,
`solvers.PextraEngine` and `solvers.GeneralUVEngine` holds a network: its
`step` loads the state into it once and makes one `run_rounds` call, with
no observer, so engine and network agree bit for bit. The CLI runs those
engines, one step per block of rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import analysis, denselin, objective
from .errors import ConditionViolation, DimensionMismatch
from .netgraph import (
    NetworkGraph,
    arc_indices,
    arc_stack,
    build_graph,
    degrees,
    laplacian,
    support_mask,
    unoriented_gram,
)

if TYPE_CHECKING:
    from .solvers import AdmmParams, PextraParams


@dataclass(frozen=True)
class RoundLog:
    messages: int
    payload_scalars: int
    subproblem_iters: tuple[int, ...]


def checked_copy(vector, shape: tuple[int, ...], name: str) -> np.ndarray:
    """A float copy of a flat vector as an array of `shape`, zeros when None;
    raises DimensionMismatch, naming the vector, unless it has the entries of
    `shape`."""
    if vector is None:
        return np.zeros(shape)
    out = np.array(vector, dtype=float)
    size = math.prod(shape)
    if out.shape != (size,):
        raise DimensionMismatch(f"{name} must have length {size}, got shape {out.shape}")
    return out.reshape(shape)


class Network:
    """Every agent's state and weights, agent i in row i - 1.

    `local` holds the components and a_i, pi_i (`objective.ProximalRows`).
    `weights` stacks the n x n graph-local U and V as (2, m + n, p): each
    one's entries (dst, src) on the arcs in label order, then its diagonal,
    repeated along the p columns (a broadcast multiply is slower).
    Assigning `x` sets `mixed` to `mixes(x)`. A round replaces `x` and `dual`
    with new arrays and never writes into the arrays they held, so arrays
    handed out and `mixed` stay valid.
    """

    def __init__(self, graph: NetworkGraph, components, u, v, a, pi, *,
                 x: np.ndarray, dual: np.ndarray):
        src, dst = arc_indices(graph)
        self.local = objective.ProximalRows(components, a, pi)
        self.weights = np.stack([np.concatenate((w[dst, src], np.diag(w)))
                                 for w in (u, v)])[:, :, None].repeat(graph.p, axis=2)
        self._gather = np.concatenate((src, np.arange(graph.n)))
        size = graph.n * graph.p
        bins = np.concatenate((arc_stack(graph).index[1], np.arange(size)))
        self._scatter = np.concatenate((bins, bins + size))
        self.x = x
        self.dual = dual

    @property
    def x(self) -> np.ndarray:
        return self._x

    @x.setter
    def x(self, x: np.ndarray) -> None:
        self._x = x
        self.mixed = self.mixes(x)

    def mixes(self, x: np.ndarray) -> np.ndarray:
        """[U x; V x] as (2, n, p) for (n, p) rows x; each bin adds its arcs
        in label order from 0.0, then its self term."""
        sent = (self.weights * x.take(self._gather, axis=0)).ravel()
        return np.bincount(self._scatter, sent, 2 * x.size).reshape(2, *x.shape)


def network_round(net: Network) -> tuple[int, ...]:
    """One synchronous round; returns each agent's subproblem iteration count."""
    c = net.dual + net.mixed[0]
    net.x, iters = objective.local_subproblem_ex(net.local, c, net.x)
    net.dual = net.dual + net.mixed[1]
    return iters


def row_count(rows, width: int) -> int:
    """len(rows), the rounds of a step that copies each round's x into a row
    of `rows`; raises DimensionMismatch unless `rows` is a 2-D float array of
    rows of `width` entries."""
    if not (isinstance(rows, np.ndarray) and rows.dtype == np.float64
            and rows.ndim == 2 and rows.shape[1] == width):
        raise DimensionMismatch(f"rows must be a float array of rows of {width} entries, "
                                f"got {getattr(rows, 'shape', None)}")
    return len(rows)


def _check_mixing_support(mat: np.ndarray, graph: NetworkGraph) -> None:
    """Reject a mixing matrix that is not n x n or couples non-neighbours."""
    if mat.shape != (graph.n, graph.n):
        raise ValueError("mixing matrices must be n x n at graph level")
    bad = np.argwhere((mat != 0.0) & ~support_mask(graph)) + 1
    if bad.size:
        raise ValueError(f"mixing entry ({bad[0, 0]},{bad[0, 1]}) nonzero without an arc")


def _uv_network(graph: NetworkGraph, components, u, v, dbar_diag,
                params: AdmmParams, x0, phi0) -> Network:
    """The D-ADMM round for the triple (U, V, Dbar) at graph level."""
    rho = params.rho
    return Network(
        graph, components, -0.5 * rho * u, 0.5 * params.eta * rho * v,
        rho * dbar_diag, params.pi_vector(graph.n),
        x=checked_copy(x0, (graph.n, graph.p), "x0"),
        dual=checked_copy(phi0, (graph.n, graph.p), "phi0"),
    )


def dadmm_agents(graph: NetworkGraph, components, params: AdmmParams,
                 x0=None, phi0=None) -> Network:
    return _uv_network(graph, components, unoriented_gram(graph), laplacian(graph),
                       degrees(graph), params, x0, phi0)


def pextra_agents(graph: NetworkGraph, components, pextra: PextraParams,
                  x0=None) -> Network:
    _check_mixing_support(pextra.w, graph)
    _check_mixing_support(pextra.w_tilde, graph)
    x = checked_copy(x0, (graph.n, graph.p), "x0")
    net = Network(
        graph, components, -pextra.w / pextra.xi, (pextra.w_tilde - pextra.w) / pextra.xi,
        np.full(graph.n, 1.0 / pextra.xi), np.zeros(graph.n), x=x, dual=np.zeros_like(x),
    )
    net.dual = net.mixed[1]   # phi starts at V x0
    return net


def general_uv_agents(graph: NetworkGraph, u, v, dbar, components,
                      params: AdmmParams, x0=None, phi0=None) -> Network:
    report = analysis.check_uv_conditions(u, v, dbar, graph)
    if not report.all_pass:
        raise ConditionViolation(f"U/V conditions failed: {report.failures()}")
    return _uv_network(graph, components, np.asarray(u, dtype=float),
                       np.asarray(v, dtype=float),
                       np.diag(np.asarray(dbar, dtype=float)), params, x0, phi0)


def run_rounds(net: Network, graph: NetworkGraph, rounds: int, observer=None,
               rows=None) -> Network:
    """Execute `rounds` synchronous rounds from the network's current state;
    returns the network.

    With `rows`, a (rounds, n*p) float array (`row_count`; DimensionMismatch
    for other rows or another count), round k's x is copied into
    rows[k - 1], so a caller fills its iterate rows block by block with
    successive calls. The observer, when given, receives (k, stacked x,
    stacked phi, RoundLog) once for the current state (k = 0, zero
    messages) and once per round k = 1..rounds of this call; each round's
    log reaches it only, and is not kept.
    """
    if rows is not None and row_count(rows, net.x.size) != rounds:
        raise DimensionMismatch(f"rows must hold {rounds} rounds, got {len(rows)}")
    if observer is not None:
        observer(0, net.x.ravel(), net.dual.ravel(),
                 RoundLog(messages=0, payload_scalars=0, subproblem_iters=()))
    for k in range(1, rounds + 1):
        iters = network_round(net)
        if rows is not None:
            rows[k - 1] = net.x.ravel()
        if observer is not None:
            observer(k, net.x.ravel(), net.dual.ravel(),
                     RoundLog(messages=graph.m, payload_scalars=graph.m * graph.p,
                              subproblem_iters=iters))
    return net


# -- scenario presets -----------------------------------------------------------

def ring_edges(n: int) -> list[tuple[int, int]]:
    edges = [(i, i + 1) for i in range(1, n)]
    if n > 2:
        edges.append((1, n))
    return edges


def path_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(1, n)]


def _add_chords(edges: set[tuple[int, int]], n: int, count: int,
                rng: np.random.Generator) -> None:
    """Add min(count, #free pairs) distinct pairs i < j not yet in `edges`,
    drawn by one `rng.choice` over the free pairs in lexicographic order (no
    draw when none is added)."""
    chords = [
        (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
        if (i, j) not in edges
    ]
    take = min(count, len(chords))
    if take > 0:
        for idx in rng.choice(len(chords), size=take, replace=False):
            edges.add(chords[int(idx)])


def random_connected_edges(n: int, rng: np.random.Generator,
                           extra_edges: int = 2) -> list[tuple[int, int]]:
    """A random tree plus a few extra edges; connected by construction."""
    edges = {(int(rng.integers(1, v)), v) for v in range(2, n + 1)}
    _add_chords(edges, n, extra_edges, rng)
    return sorted(edges)


def random_rank_one_components(n: int, p: int, rng: np.random.Generator):
    """n standard-normal rank-one rows, resampled until the summed Gram
    matrix has smallest eigenvalue >= 0.1 (strongly convex sum even though
    each component is not for p > 1)."""
    if n < p:
        raise ValueError(f"need n >= p for a full-rank instance, got n={n}, p={p}")
    for _ in range(1000):
        rows = rng.standard_normal((n, p))
        gram = rows.T @ rows
        eigvals = denselin.sym_eigen(gram)
        if eigvals[0] >= 0.1:
            break
    else:
        raise RuntimeError("failed to draw a well-conditioned instance")
    ys = rng.standard_normal(n)
    return [objective.RankOneLeastSquares(rows[i], float(ys[i])) for i in range(n)]


def scenario_least_squares(n: int, p: int, seed: int):
    """Rank-one least-squares instance on a ring-plus-chords graph.

    Deterministic under the seed; the summed Gram matrix is kept away from
    singularity so the centralized problem is strongly convex.
    """
    rng = np.random.default_rng(seed)
    edges = set(ring_edges(n))
    _add_chords(edges, n, n // 3, rng)
    graph = build_graph(n, sorted(edges), p)
    return graph, random_rank_one_components(n, p, rng)
