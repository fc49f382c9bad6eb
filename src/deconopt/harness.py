"""Synchronous simulated network with explicit message exchange.

Agents are structurally local: an agent object holds only its own component,
its own iterate blocks, and an inbox of the latest neighbor broadcasts. It
has no reference to other agents or to any global vector; `run_rounds` is the
transport that moves copies along arcs. Each round (`one_round`) is three
phases separated by barriers: every agent solves its local subproblem from
the previous round's state, the new iterates are broadcast along all m arcs,
then every agent performs its dual / running-sum update from the fresh inbox.

Inboxes are seeded with the neighbors' initial iterates at construction; the
round-0 observer snapshot therefore reports zero messages and every executed
round reports exactly m. Neighbor sums accumulate in ascending agent id so
runs are reproducible. `solvers.DadmmEngine`, `solvers.PextraEngine` and
`solvers.GeneralUVEngine` step these same agents, the only implementation of
the per-agent rules, so engine and network agree bit for bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import analysis, denselin, objective
from .errors import ConditionViolation, DimensionMismatch
from .netgraph import NetworkGraph, build_graph, support_mask
from .tolerances import DEFAULT

if TYPE_CHECKING:
    from .solvers import AdmmParams, PextraParams


@dataclass(frozen=True)
class RoundLog:
    k: int
    messages: int
    payload_scalars: int
    subproblem_iters: tuple[int, ...]
    wall_time: float = field(default=0.0, compare=False)


class AgentBox:
    """Common agent plumbing: identity, local component, iterate, inbox."""

    def __init__(self, aid: int, comp, x0_block: np.ndarray, neighbor_ids):
        self.aid = aid
        self.comp = comp
        self.x = np.array(x0_block, dtype=float)
        self.neighbor_ids = tuple(sorted(neighbor_ids))
        self.inbox: dict[int, np.ndarray] = {}

    def phi_view(self) -> np.ndarray:
        raise NotImplementedError

    def compute(self) -> tuple[np.ndarray, int]:
        raise NotImplementedError

    def dual_update(self) -> None:
        raise NotImplementedError


class DadmmAgent(AgentBox):
    def __init__(self, aid, comp, x0_block, phi0_block, neighbor_ids,
                 degree: float, pi: float, rho: float, eta: float, tol: float):
        super().__init__(aid, comp, x0_block, neighbor_ids)
        self.phi = np.array(phi0_block, dtype=float)
        self.a_weight = rho * degree
        self.pi = pi
        self.rho = rho
        self.eta = eta
        self.tol = tol

    def phi_view(self):
        return self.phi

    def compute(self):
        acc = np.zeros_like(self.x)
        for j in self.neighbor_ids:
            acc = acc + (self.x + self.inbox[j])
        c = self.phi - self.rho * acc
        return objective.local_subproblem_ex(
            self.comp, c, self.a_weight, self.pi, self.x, self.tol
        )

    def dual_update(self):
        acc = np.zeros_like(self.x)
        for j in self.neighbor_ids:
            acc = acc + (self.x - self.inbox[j])
        self.phi = self.phi + self.eta * self.rho * acc


class PextraAgent(AgentBox):
    def __init__(self, aid, comp, x0_block, neighbor_ids, xi: float,
                 w_self: float, w_nbr: dict[int, float],
                 wt_self: float, wt_nbr: dict[int, float], tol: float):
        super().__init__(aid, comp, x0_block, neighbor_ids)
        self.xi = xi
        self.w_self = w_self
        self.w_nbr = w_nbr
        self.diff_self = w_self - wt_self
        self.diff_nbr = {j: w_nbr[j] - wt_nbr[j] for j in self.neighbor_ids}
        self.tol = tol
        self.running_sum = np.zeros_like(self.x)

    def seed_running_sum(self):
        # running sum starts at (W - W~) x0; requires the seeded inbox
        acc = self.diff_self * self.x
        for j in self.neighbor_ids:
            acc = acc + self.diff_nbr[j] * self.inbox[j]
        self.running_sum = acc

    def phi_view(self):
        return -self.running_sum / self.xi

    def compute(self):
        target = self.w_self * self.x + self.running_sum
        for j in self.neighbor_ids:
            target = target + self.w_nbr[j] * self.inbox[j]
        return objective.local_subproblem_ex(
            self.comp, -target / self.xi, 1.0 / self.xi, 0.0, self.x, self.tol
        )

    def dual_update(self):
        acc = self.diff_self * self.x
        for j in self.neighbor_ids:
            acc = acc + self.diff_nbr[j] * self.inbox[j]
        self.running_sum = self.running_sum + acc


class GeneralUVAgent(AgentBox):
    def __init__(self, aid, comp, x0_block, phi0_block, neighbor_ids,
                 u_self: float, u_nbr: dict[int, float],
                 v_self: float, v_nbr: dict[int, float],
                 dbar: float, pi: float, rho: float, eta: float, tol: float):
        super().__init__(aid, comp, x0_block, neighbor_ids)
        self.phi = np.array(phi0_block, dtype=float)
        self.u_self = u_self
        self.u_nbr = u_nbr
        self.v_self = v_self
        self.v_nbr = v_nbr
        self.a_weight = rho * dbar
        self.pi = pi
        self.rho = rho
        self.eta = eta
        self.tol = tol

    def phi_view(self):
        return self.phi

    def compute(self):
        acc = self.u_self * self.x
        for j in self.neighbor_ids:
            acc = acc + self.u_nbr[j] * self.inbox[j]
        c = self.phi - 0.5 * self.rho * acc
        return objective.local_subproblem_ex(
            self.comp, c, self.a_weight, self.pi, self.x, self.tol
        )

    def dual_update(self):
        acc = self.v_self * self.x
        for j in self.neighbor_ids:
            acc = acc + self.v_nbr[j] * self.inbox[j]
        self.phi = self.phi + 0.5 * self.eta * self.rho * acc


def _blocks(stacked: np.ndarray, n: int, p: int) -> list[np.ndarray]:
    stacked = np.zeros(n * p) if stacked is None else np.asarray(stacked, dtype=float)
    if stacked.shape != (n * p,):
        raise DimensionMismatch(f"expected stacked vector of length {n * p}, got {stacked.shape}")
    return [stacked[i * p:(i + 1) * p] for i in range(n)]


def _broadcast(agents, graph: NetworkGraph):
    for arc in graph.arcs:
        agents[arc.dest - 1].inbox[arc.source] = agents[arc.source - 1].x.copy()


def load_blocks(agents, graph: NetworkGraph, **stacked) -> None:
    """Copy stacked `x` / `phi` / `running_sum` into the agents; reseed inboxes."""
    for name, vec in stacked.items():
        for agent, block in zip(agents, _blocks(vec, graph.n, graph.p)):
            setattr(agent, name, block.copy())
    _broadcast(agents, graph)


def _check_components(graph: NetworkGraph, components) -> None:
    if len(components) != graph.n:
        raise ValueError(f"one component per agent required, got {len(components)}")


def _check_mixing_support(mat: np.ndarray, graph: NetworkGraph) -> None:
    """Reject a mixing matrix that is not n x n or couples non-neighbours."""
    if mat.shape != (graph.n, graph.n):
        raise ValueError("mixing matrices must be n x n at graph level")
    bad = np.argwhere((mat != 0.0) & ~support_mask(graph)) + 1
    if bad.size:
        raise ValueError(f"mixing entry ({bad[0, 0]},{bad[0, 1]}) nonzero without an arc")


def dadmm_agents(graph: NetworkGraph, components, params: AdmmParams,
                 x0=None, phi0=None) -> list[DadmmAgent]:
    _check_components(graph, components)
    pi = params.pi_vector(graph.n)
    xb = _blocks(x0, graph.n, graph.p)
    pb = _blocks(phi0, graph.n, graph.p)
    agents = [
        DadmmAgent(
            i, components[i - 1], xb[i - 1], pb[i - 1], graph.neighbor_ids(i),
            float(graph.degree(i)), float(pi[i - 1]), params.rho, params.eta,
            params.subproblem_tol,
        )
        for i in range(1, graph.n + 1)
    ]
    _broadcast(agents, graph)
    return agents


def pextra_agents(graph: NetworkGraph, components, pextra: PextraParams,
                  x0=None, subproblem_tol: float = DEFAULT.subproblem) -> list[PextraAgent]:
    _check_components(graph, components)
    _check_mixing_support(pextra.w, graph)
    _check_mixing_support(pextra.w_tilde, graph)
    xb = _blocks(x0, graph.n, graph.p)
    agents = []
    for i in range(1, graph.n + 1):
        nbrs = graph.neighbor_ids(i)
        agents.append(PextraAgent(
            i, components[i - 1], xb[i - 1], nbrs, pextra.xi,
            float(pextra.w[i - 1, i - 1]),
            {j: float(pextra.w[i - 1, j - 1]) for j in nbrs},
            float(pextra.w_tilde[i - 1, i - 1]),
            {j: float(pextra.w_tilde[i - 1, j - 1]) for j in nbrs},
            subproblem_tol,
        ))
    _broadcast(agents, graph)
    for agent in agents:
        agent.seed_running_sum()
    return agents


def general_uv_agents(graph: NetworkGraph, u, v, dbar, components,
                      params: AdmmParams, x0=None, phi0=None) -> list[GeneralUVAgent]:
    _check_components(graph, components)
    report = analysis.check_uv_conditions(u, v, dbar, graph)
    if not report.all_pass:
        raise ConditionViolation(f"U/V conditions failed: {report.failures()}")
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    dbar_diag = np.diag(np.asarray(dbar, dtype=float))
    pi = params.pi_vector(graph.n)
    xb = _blocks(x0, graph.n, graph.p)
    pb = _blocks(phi0, graph.n, graph.p)
    agents = []
    for i in range(1, graph.n + 1):
        nbrs = graph.neighbor_ids(i)
        agents.append(GeneralUVAgent(
            i, components[i - 1], xb[i - 1], pb[i - 1], nbrs,
            float(u[i - 1, i - 1]), {j: float(u[i - 1, j - 1]) for j in nbrs},
            float(v[i - 1, i - 1]), {j: float(v[i - 1, j - 1]) for j in nbrs},
            float(dbar_diag[i - 1]), float(pi[i - 1]), params.rho, params.eta,
            params.subproblem_tol,
        ))
    _broadcast(agents, graph)
    return agents


def stacked_x(agents) -> np.ndarray:
    return np.concatenate([agent.x for agent in agents])


def stacked_phi(agents) -> np.ndarray:
    return np.concatenate([agent.phi_view() for agent in agents])


def one_round(agents, graph: NetworkGraph) -> tuple[int, ...]:
    """One synchronous round; returns each agent's subproblem iteration count."""
    results = [agent.compute() for agent in agents]   # phase 1 (parallel-safe)
    for agent, (x_new, _) in zip(agents, results):
        agent.x = x_new
    _broadcast(agents, graph)                         # phase 2: broadcast
    for agent in agents:                              # phase 3: dual updates
        agent.dual_update()
    return tuple(iters for _, iters in results)


def run_rounds(agents, graph: NetworkGraph, rounds: int, observer=None):
    """Execute synchronous rounds; returns (agents, [RoundLog per round]).

    The observer, when given, receives (k, stacked x, stacked phi, RoundLog)
    once for the initial state (k = 0, zero messages) and once per round.
    """
    logs = []
    if observer is not None:
        observer(0, stacked_x(agents), stacked_phi(agents),
                 RoundLog(k=0, messages=0, payload_scalars=0, subproblem_iters=()))
    for k in range(1, rounds + 1):
        start = time.perf_counter()
        iters = one_round(agents, graph)
        log = RoundLog(
            k=k, messages=graph.m, payload_scalars=graph.m * graph.p,
            subproblem_iters=iters, wall_time=time.perf_counter() - start,
        )
        logs.append(log)
        if observer is not None:
            observer(k, stacked_x(agents), stacked_phi(agents), log)
    return agents, logs


# -- scenario presets -----------------------------------------------------------

def ring_edges(n: int) -> list[tuple[int, int]]:
    edges = [(i, i + 1) for i in range(1, n)]
    if n > 2:
        edges.append((1, n))
    return edges


def path_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(1, n)]


def random_connected_edges(n: int, rng: np.random.Generator,
                           extra_edges: int = 2) -> list[tuple[int, int]]:
    """A random tree plus a few extra edges; connected by construction."""
    edges = {(int(rng.integers(1, v)), v) for v in range(2, n + 1)}
    candidates = [
        (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
        if (i, j) not in edges
    ]
    if candidates and extra_edges > 0:
        take = min(extra_edges, len(candidates))
        for idx in rng.choice(len(candidates), size=take, replace=False):
            edges.add(candidates[int(idx)])
    return sorted(edges)


def random_rank_one_components(n: int, p: int, rng: np.random.Generator,
                               min_eig: float = 0.1):
    """n standard-normal rank-one rows, resampled until the summed Gram
    matrix has smallest eigenvalue >= min_eig (strongly convex sum even
    though each component is not for p > 1)."""
    if n < p:
        raise ValueError(f"need n >= p for a full-rank instance, got n={n}, p={p}")
    for _ in range(1000):
        rows = rng.standard_normal((n, p))
        gram = rows.T @ rows
        eigvals, _ = denselin.sym_eigen(denselin.SymMatrix(gram))
        if eigvals[0] >= min_eig:
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
    chords = [
        (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
        if (i, j) not in edges
    ]
    extra = min(n // 3, len(chords))
    if extra > 0:
        for idx in rng.choice(len(chords), size=extra, replace=False):
            edges.add(chords[int(idx)])
    graph = build_graph(n, sorted(edges), p)
    return graph, random_rank_one_components(n, p, rng)
