"""Iterate engines for decentralized consensus optimization.

All engines drive the same primal-dual mathematics from different angles:

* ``DadmmEngine`` -- the decoupled per-agent generalized D-ADMM updates.
* ``DadmmMatrixEngine`` -- the same iterates computed centrally through the
  incidence operators; exists as an oracle and tracks the arc-space dual
  explicitly.
* ``FullAdmmEngine`` -- the three-block generalized ADMM with the edge
  variables and the full multiplier kept around.
* ``ExactMMEngine`` / ``ApproxMMEngine`` -- the (approximated) method of
  multipliers on the penalized reformulation; the exact variant is a
  centralized reference only.
* ``PextraEngine`` -- mixing-matrix iterates with an O(1)-memory running sum
  in place of the full history sum.
* ``GeneralUVEngine`` -- the general two-matrix form that subsumes the
  classical incidence assignment.

``DadmmEngine``, ``PextraEngine`` and ``GeneralUVEngine`` load their state
into the rows of a `harness.Network` and run `harness.network_round`, the one
implementation of those three local rules, so they match the simulated
network bit for bit; the rules differ only in the network's weights.

The central engines work at arc-index level: every incidence product is a
gather or a `np.bincount` on the arc indices (`netgraph.ArcOperator`), and
L x is formed as E_o^T (E_o x). Their constant systems go through
`_StationarySolver`: the engines whose agents decouple keep one (n, p, p)
stack of inverses of Q_i + q_i I from a single `denselin.spd_inverse` call;
only ``ExactMMEngine``, which couples agents through L (x) I_p, inverts a
dense (np) x (np) system, and it refuses instances with n p above
`EXACT_MM_MAX_ORDER`.

Every `init` raises DimensionMismatch for an initial vector of the wrong
length.

Proximal perturbations are restricted to P = diag(pi) (x) I_p with pi >= 0,
which is what decoupling and the contraction certificate cover; indefinite
perturbations are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import denselin, harness, objective
from .errors import DeconoptError, DimensionMismatch, GammaTooSmall, OmegaOutOfRange
from .netgraph import NetworkGraph, arc_matrices, incidence_operators
from .tolerances import DEFAULT

ETA_SUP = 0.5 * (1.0 + math.sqrt(5.0))

# largest n*p for which ExactMMEngine forms its dense (np) x (np) system: at
# the cap each dense copy takes 32 MB and the inversion a few seconds
EXACT_MM_MAX_ORDER = 2000


@dataclass(frozen=True)
class AdmmParams:
    """Penalty rho > 0, relaxation eta in (0, (1+sqrt 5)/2), per-agent
    proximal weights pi_i >= 0 (scalar broadcasts), subproblem tolerance."""

    rho: float
    eta: float
    pi: float | tuple[float, ...] = 0.0
    subproblem_tol: float = DEFAULT.subproblem

    def __post_init__(self):
        if self.rho <= 0:
            raise ValueError(f"rho must be positive, got {self.rho}")
        if not 0 < self.eta < ETA_SUP:
            raise ValueError(f"eta must lie in (0, {ETA_SUP:.6f}), got {self.eta}")

    def pi_vector(self, n: int) -> np.ndarray:
        if np.isscalar(self.pi):
            vec = np.full(n, float(self.pi))
        else:
            vec = np.asarray(self.pi, dtype=float)
            if vec.shape != (n,):
                raise ValueError(f"pi must be scalar or length {n}")
        if np.any(vec < 0):
            raise ValueError(
                "indefinite proximal perturbations are not supported: pi_i >= 0 required"
            )
        return vec


@dataclass
class AdmmState:
    x: np.ndarray
    phi: np.ndarray
    k: int = 0
    alpha: np.ndarray | None = None


@dataclass
class FullAdmmState:
    x: np.ndarray
    z: np.ndarray
    lam: np.ndarray  # stacked [alpha; beta], length 2 m p
    k: int = 0

    @property
    def alpha(self) -> np.ndarray:
        return self.lam[: self.lam.shape[0] // 2]

    @property
    def beta(self) -> np.ndarray:
        return self.lam[self.lam.shape[0] // 2:]


@dataclass
class MMState:
    x: np.ndarray
    nu: np.ndarray
    k: int = 0


@dataclass
class PextraState:
    x: np.ndarray
    running_sum: np.ndarray
    k: int = 0


@dataclass(frozen=True)
class PextraParams:
    """Step size xi > 0 plus the symmetric mixing pair at graph level."""

    xi: float
    w: np.ndarray = field(repr=False)
    w_tilde: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.xi <= 0:
            raise ValueError(f"xi must be positive, got {self.xi}")
        for mat in (self.w, self.w_tilde):
            if np.max(np.abs(mat - mat.T)) > 1e-12:
                raise ValueError("mixing matrices must be symmetric")


@dataclass(frozen=True)
class TraceRow:
    """Uniform per-round snapshot: iterate and its dual aggregate."""

    k: int
    x: np.ndarray
    phi: np.ndarray


def _repeat_diag(values: np.ndarray, p: int) -> np.ndarray:
    return np.repeat(np.asarray(values, dtype=float), p)


def _initial(vector, length: int, name: str) -> np.ndarray:
    """A float copy of an initial vector, zeros when None; raises
    DimensionMismatch unless it has `length` entries."""
    if vector is None:
        return np.zeros(length)
    out = np.array(vector, dtype=float)
    if out.shape != (length,):
        raise DimensionMismatch(f"{name} must have length {length}, got shape {out.shape}")
    return out


class _StationarySolver:
    """argmin f(x) + linear'x + 0.5 x'Kx for a fixed K.

    `quad` is K's diagonal as a vector when the agents decouple, or K as a
    dense matrix. When every component is quadratic the Hessian is constant
    and its inverse is computed once by `denselin.spd_inverse`: for diagonal
    K one (n, p, p) stack of inverses of Q_i + K_i, applied by one stacked
    matmul; for dense K the (np) x (np) system with the Q_i added on its
    diagonal blocks. Otherwise each solve runs damped Newton.
    """

    def __init__(self, components, quad: np.ndarray, tol: float):
        self.components = components
        self.tol = tol
        self._inverse = None
        stack = objective.quadratic_stack(components)
        if stack is None:
            # damped Newton works with the dense Hessian
            self.quad = np.diag(quad) if quad.ndim == 1 else quad
            return
        q, self._b = stack
        n, p = self._b.shape
        if quad.ndim == 1:
            system = q + quad.reshape(n, p)[:, :, None] * np.eye(p)
        else:
            system = np.array(quad)
            agents = np.arange(n)
            system.reshape(n, p, n, p)[agents, :, agents, :] += q
        self._inverse = denselin.spd_inverse(system)

    def solve(self, linear: np.ndarray, x_start: np.ndarray) -> np.ndarray:
        if self._inverse is None:
            return objective.minimize_composite(
                self.components, linear, self.quad, x_start, self.tol
            )
        rhs = -(self._b + linear.reshape(self._b.shape))
        if self._inverse.ndim == 3:
            return np.matmul(self._inverse, rhs[:, :, None]).ravel()
        return self._inverse @ rhs.ravel()


def _agent_round(net: harness.Network, graph: NetworkGraph, x, dual):
    """One network round from the stacked (x, dual); returns the new stacked
    pair. The inputs are copied in, so they stay untouched."""
    net.x, net.dual = harness.rows(x, graph), harness.rows(dual, graph)
    harness.network_round(net)
    return net.x.ravel(), net.dual.ravel()


# -- decoupled per-agent generalized D-ADMM -------------------------------------

class DadmmEngine:
    """Per-agent D-ADMM: local proximal solves plus neighbor-difference dual
    steps, run by the simulated network's round (`harness.dadmm_agents`)."""

    def __init__(self, graph: NetworkGraph, components, params: AdmmParams):
        self.graph = graph
        self.components = list(components)
        self.params = params
        self.net = harness.dadmm_agents(graph, self.components, params)

    def init(self, x0=None, alpha0_mode: str = "zero", seed=None, alpha0=None) -> AdmmState:
        return dadmm_init(self.graph, self.components, self.params,
                          x0=x0, alpha0_mode=alpha0_mode, seed=seed, alpha0=alpha0)

    def step(self, state: AdmmState) -> AdmmState:
        x, phi = _agent_round(self.net, self.graph, state.x, state.phi)
        return AdmmState(x=x, phi=phi, k=state.k + 1)

    def snapshot(self, state: AdmmState) -> TraceRow:
        return TraceRow(state.k, state.x, state.phi)


class DadmmMatrixEngine:
    """Operator-form D-ADMM oracle; tracks the arc-space dual explicitly."""

    def __init__(self, graph: NetworkGraph, components, params: AdmmParams):
        self.graph = graph
        self.components = list(components)
        self.params = params
        self.e_o, self.e_u, self.deg, _ = incidence_operators(graph)
        pi = params.pi_vector(graph.n)
        self.quad_diag = _repeat_diag(
            params.rho * np.diag(self.deg.base) + pi, graph.p
        )
        self.p_diag = _repeat_diag(pi, graph.p)
        self._solver = _StationarySolver(
            self.components, self.quad_diag, params.subproblem_tol
        )

    def init(self, x0=None, alpha0_mode: str = "zero", seed=None, alpha0=None) -> AdmmState:
        return dadmm_init(self.graph, self.components, self.params,
                          x0=x0, alpha0_mode=alpha0_mode, seed=seed, alpha0=alpha0)

    def step(self, state: AdmmState) -> AdmmState:
        rho, eta = self.params.rho, self.params.eta
        x = state.x
        linear = (
            state.phi
            - 0.5 * rho * self.e_u.apply_transpose(self.e_u.apply(x))
            - self.p_diag * x
        )
        new_x = self._solver.solve(linear, x)
        if state.alpha is None:
            lap_x = self.e_o.apply_transpose(self.e_o.apply(new_x))
            new_phi = state.phi + 0.5 * eta * rho * lap_x
            return AdmmState(x=new_x, phi=new_phi, k=state.k + 1)
        new_alpha = state.alpha + 0.5 * eta * rho * self.e_o.apply(new_x)
        new_phi = self.e_o.apply_transpose(new_alpha)
        return AdmmState(x=new_x, phi=new_phi, k=state.k + 1, alpha=new_alpha)

    def snapshot(self, state: AdmmState) -> TraceRow:
        return TraceRow(state.k, state.x, state.phi)


def dadmm_init(graph: NetworkGraph, components, params: AdmmParams,
               x0=None, alpha0_mode: str = "zero", seed=None, alpha0=None) -> AdmmState:
    """Initial state with the dual confined to the column space of E_o.

    alpha0_mode "zero" starts from the origin; "random-in-colspace" draws a
    standard-normal arc vector and projects it onto range(E_o) (seeded, hence
    reproducible). An explicit alpha0 takes precedence over the mode.
    """
    e_o = incidence_operators(graph)[0]
    x = _initial(x0, graph.n * graph.p, "x0")
    if alpha0 is not None:
        alpha = _initial(alpha0, graph.m * graph.p, "alpha0")
    elif alpha0_mode == "zero":
        alpha = np.zeros(graph.m * graph.p)
    elif alpha0_mode == "random-in-colspace":
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal(graph.m * graph.p)
        alpha = denselin.min_norm_solve(e_o.base, e_o.apply_transpose(raw), p=graph.p)
    else:
        raise ValueError(f"unknown alpha0_mode {alpha0_mode!r}")
    return AdmmState(x=x, phi=e_o.apply_transpose(alpha), k=0, alpha=alpha)


# -- full three-block generalized ADMM -------------------------------------------

class FullAdmmEngine:
    """Three-block generalized ADMM with explicit edge variables and the full
    stacked multiplier; the z-minimization is closed form."""

    def __init__(self, graph: NetworkGraph, components, params: AdmmParams):
        self.graph = graph
        self.components = list(components)
        self.params = params
        self.a_src, self.a_dst = arc_matrices(graph)
        self.e_o, self.e_u, self.deg, _ = incidence_operators(graph)
        pi = params.pi_vector(graph.n)
        self.p_diag = _repeat_diag(pi, graph.p)
        quad_diag = _repeat_diag(params.rho * np.diag(self.deg.base) + pi, graph.p)
        self._solver = _StationarySolver(self.components, quad_diag, params.subproblem_tol)

    def init(self, x0=None, alpha0=None) -> FullAdmmState:
        x = _initial(x0, self.graph.n * self.graph.p, "x0")
        alpha = _initial(alpha0, self.graph.m * self.graph.p, "alpha0")
        z = 0.5 * self.e_u.apply(x)
        return FullAdmmState(x=x, z=z, lam=np.concatenate([alpha, -alpha]), k=0)

    def step(self, state: FullAdmmState) -> FullAdmmState:
        rho, eta = self.params.rho, self.params.eta
        alpha, beta = state.alpha, state.beta
        linear = (
            self.a_src.apply_transpose(alpha)
            + self.a_dst.apply_transpose(beta)
            - rho * self.e_u.apply_transpose(state.z)
            - self.p_diag * state.x
        )
        new_x = self._solver.solve(linear, state.x)
        new_z = (alpha + beta) / (2.0 * rho) + 0.5 * self.e_u.apply(new_x)
        new_alpha = alpha + eta * rho * (self.a_src.apply(new_x) - new_z)
        new_beta = beta + eta * rho * (self.a_dst.apply(new_x) - new_z)
        return FullAdmmState(
            x=new_x, z=new_z, lam=np.concatenate([new_alpha, new_beta]), k=state.k + 1
        )

    def snapshot(self, state: FullAdmmState) -> TraceRow:
        return TraceRow(state.k, state.x, self.e_o.apply_transpose(state.alpha))


# -- method of multipliers: exact and approximated ---------------------------------

class _MultiplierEngine:
    """`init` and `snapshot` of the two method-of-multipliers engines, which
    set `graph`, `params` and `e_o`."""

    def init(self, x0=None, nu0=None) -> MMState:
        x = _initial(x0, self.graph.n * self.graph.p, "x0")
        nu = _initial(nu0, self.graph.m * self.graph.p, "nu0")
        return MMState(x=x, nu=nu, k=0)

    def snapshot(self, state: MMState) -> TraceRow:
        scaled = math.sqrt(self.params.eta) * state.nu
        return TraceRow(state.k, state.x, self.e_o.apply_transpose(scaled))


class ExactMMEngine(_MultiplierEngine):
    """Exact method of multipliers on the penalized reformulation. The primal
    minimization couples all agents through the incidence Gram matrix, so this
    engine is a centralized reference only.

    It is the one engine that forms and inverts a dense (np) x (np) system,
    (rho/2) L (x) I_p plus the blocks Q_i. Instances with n*p above
    `EXACT_MM_MAX_ORDER` are refused with a DeconoptError before anything
    dense is allocated.
    """

    def __init__(self, graph: NetworkGraph, components, params: AdmmParams,
                 solve_tol: float = DEFAULT.central_solve):
        if graph.n * graph.p > EXACT_MM_MAX_ORDER:
            raise DeconoptError(
                f"mm-exact inverts a dense system of order n*p = {graph.n * graph.p}, "
                f"above its cap of {EXACT_MM_MAX_ORDER}"
            )
        if not 0 < params.eta < 1:
            raise ValueError("exact method of multipliers requires eta in (0,1)")
        self.graph = graph
        self.components = list(components)
        self.params = params
        self.e_o, _, _, lap = incidence_operators(graph)
        quad = 0.5 * params.rho * lap.materialize()
        self._solver = _StationarySolver(self.components, quad, solve_tol)

    def step(self, state: MMState) -> MMState:
        rho, eta = self.params.rho, self.params.eta
        root_eta = math.sqrt(eta)
        linear = self.e_o.apply_transpose(root_eta * state.nu)
        new_x = self._solver.solve(linear, state.x)
        new_nu = state.nu + root_eta * 0.5 * rho * self.e_o.apply(new_x)
        return MMState(x=new_x, nu=new_nu, k=state.k + 1)


class ApproxMMEngine(_MultiplierEngine):
    """Method of multipliers with the coupling term majorized by a diagonal.

    With epsilon = 1/rho the x-iterates coincide with generalized D-ADMM. The
    majorization Gamma = 2D + 2 eps P >= E_o^T E_o is verified once at setup.
    """

    def __init__(self, graph: NetworkGraph, components, params: AdmmParams,
                 epsilon: float):
        if epsilon < 0:
            raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
        self.graph = graph
        self.components = list(components)
        self.params = params
        self.epsilon = float(epsilon)
        self.e_o, _, self.deg, lap = incidence_operators(graph)
        pi = params.pi_vector(graph.n)
        gamma_base = 2.0 * self.deg.base + 2.0 * self.epsilon * np.diag(pi)
        eigvals, _ = denselin.sym_eigen(gamma_base - lap.base)
        if eigvals[0] < -1e-9:
            raise GammaTooSmall(
                f"majorization fails: min eig(Gamma - E_o'E_o) = {eigvals[0]:.3e}"
            )
        self.majorizer_diag = _repeat_diag(
            params.rho * (np.diag(self.deg.base) + self.epsilon * pi), graph.p
        )
        self._solver = _StationarySolver(
            self.components, self.majorizer_diag, params.subproblem_tol
        )

    def step(self, state: MMState) -> MMState:
        rho, eta = self.params.rho, self.params.eta
        root_eta = math.sqrt(eta)
        x = state.x
        # E_o^T (sqrt(eta) nu) + (rho/2) L x in one transpose product
        linear = (
            self.e_o.apply_transpose(root_eta * state.nu + 0.5 * rho * self.e_o.apply(x))
            - self.majorizer_diag * x
        )
        new_x = self._solver.solve(linear, x)
        new_nu = state.nu + root_eta * 0.5 * rho * self.e_o.apply(new_x)
        return MMState(x=new_x, nu=new_nu, k=state.k + 1)


# -- P-EXTRA -----------------------------------------------------------------------

def pextra_mixing(graph: NetworkGraph, xi: float, rho: float, eta: float):
    """Mixing pair W = I - (xi rho / 2) L, W~ = I - (xi rho / 2)(1 - eta) L."""
    if xi <= 0 or rho <= 0:
        raise ValueError("xi and rho must be positive")
    lap = incidence_operators(graph)[3].base
    eye = np.eye(graph.n)
    w = eye - 0.5 * xi * rho * lap
    w_tilde = eye - 0.5 * xi * rho * (1.0 - eta) * lap
    return w, w_tilde


def pextra_overshoot_mixing(graph: NetworkGraph, xi: float, rho: float, omega: float):
    """Overshooting pair: the relaxation is pushed to omega in [0.5, 1).

    At omega = 0.5 the pair sits exactly on the spectral boundary
    (I + W)/2 = W~; beyond it the spectral condition fails by construction,
    which is the point.
    """
    if not 0.5 <= omega < 1.0:
        raise OmegaOutOfRange(f"omega must lie in [0.5, 1), got {omega}")
    return pextra_mixing(graph, xi, rho, omega)


def theorem2_pi(graph: NetworkGraph, xi: float, rho: float) -> tuple[float, ...]:
    """Proximal weights pi_i = 1/xi - rho d_i making D-ADMM match P-EXTRA.

    Requires xi * rho <= 1 / max_i d_i so every weight stays nonnegative.
    """
    if xi <= 0 or rho <= 0:
        raise ValueError("xi and rho must be positive")
    pi = tuple(1.0 / xi - rho * graph.degree(i) for i in range(1, graph.n + 1))
    if min(pi) < 0:
        dmax = max(graph.degree(i) for i in range(1, graph.n + 1))
        raise ValueError(
            f"xi*rho = {xi * rho:.6g} exceeds 1/max_i d_i = {1.0 / dmax:.6g}; "
            "proximal weights would be negative"
        )
    return pi


class PextraEngine:
    """Mixing-matrix iterates; the history sum is kept as a running sum
    (identical mathematics, O(1) memory). Run by the simulated network's
    round (`harness.pextra_agents`), whose dual is the running sum."""

    def __init__(self, graph: NetworkGraph, components, pextra: PextraParams,
                 subproblem_tol: float = DEFAULT.subproblem):
        self.graph = graph
        self.net = harness.pextra_agents(graph, components, pextra,
                                         subproblem_tol=subproblem_tol)

    def init(self, x0=None) -> PextraState:
        x = harness.rows(x0, self.graph)
        # the running sum starts at (W - W~) x0
        running_sum = self.net.mix(self.net.v, x)
        return PextraState(x=x.ravel(), running_sum=running_sum.ravel(), k=0)

    def step(self, state: PextraState) -> PextraState:
        x, running_sum = _agent_round(self.net, self.graph, state.x, state.running_sum)
        return PextraState(x=x, running_sum=running_sum, k=state.k + 1)

    def phi_view(self, state: PextraState) -> np.ndarray:
        """The D-ADMM dual aggregate implied by the running sum, s times it
        with s = -1/xi, as the network forms it."""
        return self.net.scale * state.running_sum

    def snapshot(self, state: PextraState) -> TraceRow:
        return TraceRow(state.k, state.x, self.phi_view(state))


# -- general two-matrix formulation ---------------------------------------------------

class GeneralUVEngine:
    """D-ADMM driven by a general (U, V, Dbar) triple at graph level, run by
    the simulated network's round (`harness.general_uv_agents`).

    The triple must satisfy the nullspace/complementarity/distributable
    conditions; `harness.general_uv_agents` checks them once at construction
    and raises ConditionViolation.
    """

    def __init__(self, graph: NetworkGraph, u: np.ndarray, v: np.ndarray,
                 dbar: np.ndarray, components, params: AdmmParams):
        self.graph = graph
        self.components = list(components)
        self.params = params
        self.net = harness.general_uv_agents(graph, u, v, dbar, self.components, params)

    def init(self, x0=None, phi0=None) -> AdmmState:
        npx = self.graph.n * self.graph.p
        return AdmmState(x=_initial(x0, npx, "x0"), phi=_initial(phi0, npx, "phi0"), k=0)

    def step(self, state: AdmmState) -> AdmmState:
        x, phi = _agent_round(self.net, self.graph, state.x, state.phi)
        return AdmmState(x=x, phi=phi, k=state.k + 1)

    def snapshot(self, state: AdmmState) -> TraceRow:
        return TraceRow(state.k, state.x, state.phi)
