"""Synchronous simulated network: agents are rows of shared arrays.

Agent i owns row i - 1 of the (n, p) iterate `x` and of the (n, p) `dual`,
its local component, its scalars a_i and pi_i, and its row of a graph-local
weight pair (U, V): a self weight and the weight of each arc into i. With a
dual scale s, one round (`network_round`) is

    c = s dual + U x
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

* `dadmm_agents`: (U, V) = (-rho/2 E_u'E_u, eta rho/2 L), a_i = rho d_i,
  s = 1, and the dual is phi.
* `general_uv_agents`: (-rho/2 U, eta rho/2 V), a_i = rho Dbar_ii, s = 1.
* `pextra_agents`: (-W/xi, W - W~), s = -1/xi, a_i = 1/xi, pi = 0. The dual
  is the running sum, seeded with (W - W~) x0, and phi = s dual.

Every executed round reports m messages of p scalars in its `RoundLog`; the
observer's call for the initial state reports none. `solvers.DadmmEngine`,
`solvers.PextraEngine` and `solvers.GeneralUVEngine` load their state into
the same object and run the same round, so engine and network agree bit for
bit.
"""

from __future__ import annotations

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


def rows(stacked, graph: NetworkGraph) -> np.ndarray:
    """A copy of a stacked vector of n blocks as an (n, p) array, zeros when
    None; raises DimensionMismatch unless it has n p entries."""
    if stacked is None:
        return np.zeros((graph.n, graph.p))
    out = np.array(stacked, dtype=float)
    if out.shape != (graph.n * graph.p,):
        raise DimensionMismatch(
            f"expected stacked vector of length {graph.n * graph.p}, got {out.shape}"
        )
    return out.reshape(graph.n, graph.p)


class Network:
    """Every agent's state and weights, agent i in row i - 1.

    `local` holds the components and a_i, pi_i (`objective.ProximalRows`).
    `weights` stacks the n x n graph-local U and V as (2, m + n, p): each
    one's entries (dst, src) on the arcs in label order, then its diagonal,
    repeated along the p columns (a broadcast multiply is slower).
    Assigning `x` sets `mixed` to `mixes(x)`. A round replaces `x` and `dual`
    with new arrays and never writes into them, so arrays handed out and
    `mixed` stay valid.
    """

    def __init__(self, graph: NetworkGraph, components, u, v, a, pi, *,
                 scale: float, x: np.ndarray, dual: np.ndarray):
        src, dst = arc_indices(graph)
        self.local = objective.ProximalRows(components, a, pi)
        self.weights = np.stack([np.concatenate((w[dst, src], np.diag(w)))
                                 for w in (u, v)])[:, :, None].repeat(graph.p, axis=2)
        self.scale = float(scale)
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

    @property
    def phi(self) -> np.ndarray:
        """The D-ADMM dual aggregate, s dual."""
        return self.scale * self.dual

    def mixes(self, x: np.ndarray) -> np.ndarray:
        """[U x; V x] as (2, n, p) for (n, p) rows x; each bin adds its arcs
        in label order from 0.0, then its self term."""
        sent = (self.weights * x.take(self._gather, axis=0)).ravel()
        return np.bincount(self._scatter, sent, 2 * x.size).reshape(2, *x.shape)


def network_round(net: Network) -> tuple[int, ...]:
    """One synchronous round; returns each agent's subproblem iteration count."""
    c = net.scale * net.dual + net.mixed[0]
    net.x, iters = objective.local_subproblem_ex(net.local, c, net.x)
    net.dual = net.dual + net.mixed[1]
    return iters


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
        rho * dbar_diag, params.pi_vector(graph.n), scale=1.0, x=rows(x0, graph),
        dual=rows(phi0, graph),
    )


def dadmm_agents(graph: NetworkGraph, components, params: AdmmParams,
                 x0=None, phi0=None) -> Network:
    return _uv_network(graph, components, unoriented_gram(graph), laplacian(graph),
                       degrees(graph), params, x0, phi0)


def pextra_agents(graph: NetworkGraph, components, pextra: PextraParams,
                  x0=None) -> Network:
    _check_mixing_support(pextra.w, graph)
    _check_mixing_support(pextra.w_tilde, graph)
    x = rows(x0, graph)
    inv_xi = 1.0 / pextra.xi
    net = Network(
        graph, components, -pextra.w / pextra.xi, pextra.w - pextra.w_tilde,
        np.full(graph.n, inv_xi), np.zeros(graph.n), scale=-inv_xi, x=x,
        dual=np.zeros_like(x),
    )
    net.dual = net.mixed[1]   # the running sum starts at (W - W~) x0
    return net


def general_uv_agents(graph: NetworkGraph, u, v, dbar, components,
                      params: AdmmParams, x0=None, phi0=None) -> Network:
    report = analysis.check_uv_conditions(u, v, dbar, graph)
    if not report.all_pass:
        raise ConditionViolation(f"U/V conditions failed: {report.failures()}")
    return _uv_network(graph, components, np.asarray(u, dtype=float),
                       np.asarray(v, dtype=float),
                       np.diag(np.asarray(dbar, dtype=float)), params, x0, phi0)


def run_rounds(net: Network, graph: NetworkGraph, rounds: int, observer=None) -> Network:
    """Execute synchronous rounds; returns the network.

    The observer, when given, receives (k, stacked x, stacked phi, RoundLog)
    once for the initial state (k = 0, zero messages) and once per round;
    each round's log reaches it only, and is not kept.
    """
    if observer is not None:
        observer(0, net.x.ravel(), net.phi.ravel(),
                 RoundLog(messages=0, payload_scalars=0, subproblem_iters=()))
    for k in range(1, rounds + 1):
        iters = network_round(net)
        if observer is not None:
            observer(k, net.x.ravel(), net.phi.ravel(),
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
        eigvals, _ = denselin.sym_eigen(denselin.SymMatrix(gram))
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
