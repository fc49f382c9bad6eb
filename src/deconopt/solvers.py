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
* ``PextraEngine`` -- mixing-matrix iterates, with the history sum of EXTRA
  carried as the D-ADMM dual aggregate phi.
* ``GeneralUVEngine`` -- the general two-matrix form that subsumes the
  classical incidence assignment.

``DadmmEngine``, ``PextraEngine`` and ``GeneralUVEngine`` share one `step`
and one `phi` on the state (x, phi) (`_NetworkEngine`): a step loads the
state into the rows of the engine's `harness.Network` once and runs
`harness.run_rounds`, the one implementation of those three local rules, so
they match the simulated network bit for bit; the rules differ only in the
network's weights, and each engine keeps only its constructor and `init`.

The central engines work at arc-index level through the stacked arc
operator S = [A_s; A_d] (`netgraph.ArcStack`): each operator pass of a step
is one gather S x, whose halves give A_s x and A_d x (E_o x is their
difference, E_u x their sum), or one `np.bincount` S^T y on a stacked arc
vector (E_o^T a = S^T [a; -a], E_u^T z = S^T [z; z]). L x is formed as
E_o^T (E_o x). Set-up binds what a step reads: the gather index, the
bincount bins and the step's scalar products (rho/2, eta rho/2, 2 rho,
eta rho, sqrt(eta), sqrt(eta) rho/2, each formed in the order the formulas
write it), so a step is its numpy arithmetic, with the passes inline. The
three engines whose agents decouple solve their local subproblems with the
simulated network's solver: each holds an `objective.ProximalRows` and makes
one `ProximalRows.solve` call per round on rows it has checked, so the
paper's equivalences show in the code as a choice of c and of the weights
(a_i, pi_i). ``DadmmMatrixEngine`` and ``FullAdmmEngine`` use D-ADMM's
(rho d_i, pi_i); ``ApproxMMEngine`` uses (0, rho (d_i + eps pi_i)), its
majorizer. A method-of-multipliers state carries E_o x of its x, which `init`
and `step` set, so an ``ApproxMMEngine`` round gathers once. Only
``ExactMMEngine``, which couples agents through L (x) I_p, forms a dense
(np) x (np) system, and it refuses instances with n p above
`EXACT_MM_MAX_ORDER`.

Every `init` copies its initial vectors through `harness.checked_copy`,
which raises DimensionMismatch for one of the wrong length, and every
central `step` raises it for a state vector of the wrong length, found by
one shape test on entry. Every engine's `step(state)` runs one round;
`step(state, rows)` runs one round per row of a (k, n p) float array and
copies round j's x, a new array, into rows[j - 1] (`harness.row_count`
checks the rows), with the bits of k one-round steps, so a caller fills
its iterate rows a block per call. No step writes to the state it is
given, and the state it returns shares no memory with `rows`.
Every engine's `phi(state)` is the D-ADMM dual aggregate phi of a state,
the one dual a run reads.

Proximal perturbations are restricted to P = diag(pi) (x) I_p with pi >= 0,
which is what decoupling and the contraction certificate cover; indefinite
perturbations are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import denselin, harness, objective
from .errors import DeconoptError, DimensionMismatch
from .netgraph import (
    E_O_SIGNS,
    NetworkGraph,
    arc_stack,
    degrees,
    laplacian,
)

ETA_SUP = 0.5 * (1.0 + math.sqrt(5.0))

# largest n*p for which ExactMMEngine forms its dense (np) x (np) system: at
# the cap each dense copy takes 32 MB and the inversion a few seconds
EXACT_MM_MAX_ORDER = 2000


@dataclass(frozen=True)
class AdmmParams:
    """Penalty rho > 0, relaxation eta in (0, (1+sqrt 5)/2) and per-agent
    proximal weights pi_i >= 0 (scalar broadcasts), all finite."""

    rho: float
    eta: float
    pi: float | tuple[float, ...] = 0.0

    def __post_init__(self):
        _check_rho(self.rho)
        if not 0 < self.eta < ETA_SUP:
            raise ValueError(f"eta must lie in (0, {ETA_SUP:.6f}), got {self.eta}")

    def pi_vector(self, n: int) -> np.ndarray:
        if np.isscalar(self.pi):
            vec = np.full(n, float(self.pi))
        else:
            vec = np.asarray(self.pi, dtype=float)
            if vec.shape != (n,):
                raise ValueError(f"pi must be scalar or length {n}")
        if not np.all((vec >= 0) & (vec < math.inf)):
            raise ValueError("indefinite proximal perturbations are not supported: "
                             f"finite pi_i >= 0 required, got pi = {self.pi!r}")
        return vec


@dataclass
class AdmmState:
    x: np.ndarray
    phi: np.ndarray
    alpha: np.ndarray | None = None


@dataclass
class FullAdmmState:
    x: np.ndarray
    z: np.ndarray
    lam: np.ndarray  # stacked [alpha; beta], length 2 m p

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
    e_o_x: np.ndarray  # E_o x, carried to the next step


@dataclass(frozen=True)
class PextraParams:
    """Step size xi > 0 plus the symmetric mixing pair at graph level."""

    xi: float
    w: np.ndarray = field(repr=False)
    w_tilde: np.ndarray = field(repr=False)

    def __post_init__(self):
        _check_xi(self.xi)
        for mat in (self.w, self.w_tilde):
            if not np.all(np.isfinite(mat)):
                raise ValueError(f"mixing matrices must be finite (xi = {self.xi!r})")
            if not np.max(np.abs(mat - mat.T)) <= denselin.SYMMETRY_TOL:
                raise ValueError("mixing matrices must be symmetric")


def _check_rho(rho: float) -> None:
    """Raise a ValueError naming rho unless it is positive and finite."""
    if not 0 < rho < math.inf:
        raise ValueError(f"rho must be positive and finite, got rho = {rho!r}")


def _check_xi(xi: float) -> None:
    """Raise a ValueError naming xi unless xi and 1/xi are positive and finite."""
    if not (0 < xi < math.inf and 1.0 / float(xi) < math.inf):
        raise ValueError(f"xi must be positive with a finite 1/xi, got xi = {xi!r}")


class _CentralEngine:
    """The set-up of the central engines. It binds the graph's stacked arc
    operator (`stack`) and, for the inline operator passes of a step, its
    gather index, bincount bins and size, the (n, p) shape of the local
    subproblem rows, and the state's vector lengths (`lengths`, in the
    order `_operands` returns them). Each engine's `step(state, rows=None)`
    runs one round, or one round per row of `rows`."""

    def __init__(self, graph: NetworkGraph, lengths: dict[str, int]):
        self.graph = graph
        self.stack = arc_stack(graph)
        self._index, self._bins, self._size = self.stack.index, self.stack.bins, self.stack.size
        self._rows = (graph.n, graph.p)
        self._lengths = lengths
        self._shapes = tuple((length,) for length in lengths.values())

    def _operands(self, state) -> tuple:
        """The state's vectors named in `lengths`, in order; DimensionMismatch
        unless each is a numpy vector of its length, as `init` makes them,
        found by one shape test."""
        values = tuple(getattr(state, name) for name in self._lengths)
        if tuple(getattr(value, "shape", None) for value in values) != self._shapes:
            for (name, length), value in zip(self._lengths.items(), values):
                shape = getattr(value, "shape", None)
                if shape != (length,):
                    raise DimensionMismatch(
                        f"{name} must be a vector of length {length}, got shape {shape}")
        return values

    def _targets(self, rows) -> np.ndarray:
        """The rows a step copies its rounds' x into, one round per row:
        `rows`, checked by `harness.row_count`, or one scratch row for the
        one round of a step without them."""
        width = self._lengths["x"]
        if rows is None:
            return np.empty((1, width))
        harness.row_count(rows, width)
        return rows


class _NetworkEngine:
    """The `step` and `phi` of the engines run by a simulated network
    (`net`, a `harness.Network`, on `graph`), whose dual is phi."""

    def step(self, state: AdmmState, rows=None) -> AdmmState:
        """Load the state's (x, phi) into the network once, copying them, so
        they stay untouched, and run one round, or one round per row of
        `rows`, by one `harness.run_rounds` call."""
        net = self.net
        net.x = harness.checked_copy(state.x, net.x.shape, "x")
        net.dual = harness.checked_copy(state.phi, net.dual.shape, "phi")
        harness.run_rounds(net, self.graph, 1 if rows is None else len(rows), rows=rows)
        return AdmmState(x=net.x.ravel(), phi=net.dual.ravel())

    def phi(self, state: AdmmState) -> np.ndarray:
        """The state's dual aggregate phi."""
        return state.phi


# -- decoupled per-agent generalized D-ADMM -------------------------------------

class DadmmEngine(_NetworkEngine):
    """Per-agent D-ADMM: local proximal solves plus neighbor-difference dual
    steps, run by the simulated network's round (`harness.dadmm_agents`)."""

    def __init__(self, graph: NetworkGraph, components, params: AdmmParams):
        self.graph = graph
        self.net = harness.dadmm_agents(graph, components, params)

    def init(self, x0=None, alpha0=None) -> AdmmState:
        return dadmm_init(self.graph, x0=x0, alpha0=alpha0)


class DadmmMatrixEngine(_CentralEngine):
    """Operator-form D-ADMM oracle; tracks the arc-space dual explicitly."""

    def __init__(self, graph: NetworkGraph, components, params: AdmmParams):
        npx = graph.n * graph.p
        super().__init__(graph, {"x": npx, "phi": npx, "alpha": graph.m * graph.p})
        self.local = _dadmm_rows(graph, components, params)
        self._half_rho = 0.5 * params.rho
        self._half_eta_rho = 0.5 * params.eta * params.rho

    def init(self, x0=None, alpha0=None) -> AdmmState:
        return dadmm_init(self.graph, x0=x0, alpha0=alpha0)

    def step(self, state: AdmmState, rows=None) -> AdmmState:
        x, phi, alpha = self._operands(state)
        bins, size, shape = self._bins, self._size, self._rows
        for row in self._targets(rows):
            ends = x[self._index]
            e_u_x = ends[0] + ends[1]
            c = phi - self._half_rho * np.bincount(bins, np.concatenate((e_u_x, e_u_x)), size)
            x = self.local.solve(c.reshape(shape), x.reshape(shape))[0].ravel()
            row[...] = x
            ends = x[self._index]
            alpha = alpha + self._half_eta_rho * (ends[0] - ends[1])
            phi = np.bincount(bins, (E_O_SIGNS * alpha).ravel(), size)
        return AdmmState(x=x, phi=phi, alpha=alpha)

    def phi(self, state: AdmmState) -> np.ndarray:
        """The state's dual aggregate phi = E_o^T alpha."""
        return state.phi


def _dadmm_rows(graph: NetworkGraph, components, params: AdmmParams):
    """D-ADMM's local subproblems: a_i = rho d_i and the proximal pi_i."""
    return objective.ProximalRows(components, params.rho * degrees(graph),
                                  params.pi_vector(graph.n))


def dadmm_init(graph: NetworkGraph, x0=None, alpha0=None) -> AdmmState:
    """Initial state from x0 and the arc dual alpha0, each zero by default,
    with phi = E_o^T alpha0."""
    x = harness.checked_copy(x0, (graph.n * graph.p,), "x0")
    alpha = harness.checked_copy(alpha0, (graph.m * graph.p,), "alpha0")
    return AdmmState(x=x, phi=arc_stack(graph).e_o_transpose(alpha), alpha=alpha)


# -- full three-block generalized ADMM -------------------------------------------

class FullAdmmEngine(_CentralEngine):
    """Three-block generalized ADMM with explicit edge variables and the full
    stacked multiplier; the z-minimization is closed form."""

    def __init__(self, graph: NetworkGraph, components, params: AdmmParams):
        mp = graph.m * graph.p
        super().__init__(graph, {"x": graph.n * graph.p, "z": mp, "lam": 2 * mp})
        self.local = _dadmm_rows(graph, components, params)
        self._rho = params.rho
        self._two_rho = 2.0 * params.rho
        self._eta_rho = params.eta * params.rho

    def init(self, x0=None, alpha0=None) -> FullAdmmState:
        x = harness.checked_copy(x0, (self.graph.n * self.graph.p,), "x0")
        alpha = harness.checked_copy(alpha0, (self.graph.m * self.graph.p,), "alpha0")
        z = 0.5 * self.stack.e_u(x)
        return FullAdmmState(x=x, z=z, lam=np.concatenate([alpha, -alpha]))

    def step(self, state: FullAdmmState, rows=None) -> FullAdmmState:
        x, z, lam = self._operands(state)
        rho, shape = self._rho, self._rows
        lam = lam.reshape(2, -1)
        for row in self._targets(rows):
            # lam = [alpha; beta] pairs with S = [A_s; A_d]: A_s^T alpha +
            # A_d^T beta - rho E_u^T z is S^T (lam - rho [z; z]), one scatter
            c = np.bincount(self._bins, (lam - rho * z).ravel(), self._size)
            x = self.local.solve(c.reshape(shape), x.reshape(shape))[0].ravel()
            row[...] = x
            ends = x[self._index]  # A_s x, A_d x
            # z = (alpha + beta) / (2 rho) + (A_s x + A_d x) / 2
            halves = lam + rho * ends
            z = (halves[0] + halves[1]) / self._two_rho
            lam = lam + self._eta_rho * (ends - z)
        return FullAdmmState(x=x, z=z, lam=lam.ravel())

    def phi(self, state: FullAdmmState) -> np.ndarray:
        """The dual aggregate E_o^T alpha of the state's multiplier."""
        return self.stack.e_o_transpose(state.alpha)


# -- method of multipliers: exact and approximated ---------------------------------

class _MultiplierEngine(_CentralEngine):
    """The set-up, `init`, `phi` and dual update of the two
    method-of-multipliers engines. Their states carry E_o x, which `init`
    and `step` set."""

    def __init__(self, graph: NetworkGraph, params: AdmmParams):
        mp = graph.m * graph.p
        super().__init__(graph, {"x": graph.n * graph.p, "nu": mp, "e_o_x": mp})
        self._root_eta = math.sqrt(params.eta)
        self._root_eta_half_rho = self._root_eta * 0.5 * params.rho

    def init(self, x0=None, nu0=None) -> MMState:
        x = harness.checked_copy(x0, (self.graph.n * self.graph.p,), "x0")
        nu = harness.checked_copy(nu0, (self.graph.m * self.graph.p,), "nu0")
        return MMState(x=x, nu=nu, e_o_x=self.stack.e_o(x))

    def phi(self, state: MMState) -> np.ndarray:
        """The dual aggregate E_o^T (sqrt(eta) nu) of the state's multiplier."""
        return self.stack.e_o_transpose(self._root_eta * state.nu)

    def _dual(self, new_x: np.ndarray, nu: np.ndarray):
        """(nu + sqrt(eta) (rho/2) E_o new_x, E_o new_x) after a round to
        new_x."""
        ends = new_x[self._index]
        e_o_x = ends[0] - ends[1]
        return nu + self._root_eta_half_rho * e_o_x, e_o_x


class ExactMMEngine(_MultiplierEngine):
    """Exact method of multipliers on the penalized reformulation. The primal
    minimization couples all agents through the incidence Gram matrix, so this
    engine is a centralized reference only.

    It is the one engine that forms a dense (np) x (np) system, H =
    (rho/2) L (x) I_p plus the blocks Q_i. When every component is quadratic
    the minimizer is affine in the linear term: x = x_b - H^-1 linear with
    x_b = -H^-1 b, both formed once at set-up, so a round is one matmul and one
    add. Otherwise each round runs damped Newton (`objective.minimize_composite`).
    Instances with n*p above `EXACT_MM_MAX_ORDER` are refused with a
    DeconoptError before anything dense is allocated.
    """

    def __init__(self, graph: NetworkGraph, components, params: AdmmParams):
        if graph.n * graph.p > EXACT_MM_MAX_ORDER:
            raise DeconoptError(
                f"mm-exact inverts a dense system of order n*p = {graph.n * graph.p}, "
                f"above its cap of {EXACT_MM_MAX_ORDER}"
            )
        if not 0 < params.eta < 1:
            raise ValueError("exact method of multipliers requires eta in (0,1)")
        super().__init__(graph, params)
        self.agents = objective.stacked(components)
        n, p = graph.n, graph.p
        system = 0.5 * params.rho * np.kron(laplacian(graph), np.eye(p))
        stack = objective.quadratic_stack(self.agents)
        if stack is None:
            # damped Newton on the stacked objective
            self._system, self._neg_inverse = system, None
            return
        q, b = stack
        agents = np.arange(n)
        system.reshape(n, p, n, p)[agents, :, agents, :] += q
        self._neg_inverse = -denselin.spd_inverse(system)
        self._x_b = self._neg_inverse @ b.ravel()

    def step(self, state: MMState, rows=None) -> MMState:
        x, nu, e_o_x = self._operands(state)
        for row in self._targets(rows):
            linear = self.stack.e_o_transpose(self._root_eta * nu)
            if self._neg_inverse is None:
                x = objective.minimize_composite(self.agents, linear, self._system, x)
            else:
                x = self._neg_inverse @ linear + self._x_b
            row[...] = x
            nu, e_o_x = self._dual(x, nu)
        return MMState(x=x, nu=nu, e_o_x=e_o_x)


class ApproxMMEngine(_MultiplierEngine):
    """Method of multipliers with the coupling term majorized by a diagonal.

    With epsilon = 1/rho the x-iterates coincide with generalized D-ADMM. The
    majorizer Gamma = 2D + 2 eps P dominates E_o^T E_o = L with no check:
    with D = diag(L), Gamma - E_o^T E_o = 2D + 2 eps P - L = E_u^T E_u + 2 eps P,
    positive semidefinite for eps >= 0 and pi >= 0, both enforced.
    The majorizer (rho/2) Gamma is a proximal term around the current iterate,
    so the local subproblems have a_i = 0 and pi_i = rho (d_i + eps pi_i).
    """

    def __init__(self, graph: NetworkGraph, components, params: AdmmParams,
                 epsilon: float):
        if not 0 <= epsilon < math.inf:
            raise ValueError(f"epsilon must be nonnegative and finite, got epsilon = {epsilon!r}")
        super().__init__(graph, params)
        self._half_rho = 0.5 * params.rho
        self.epsilon = float(epsilon)
        self.local = objective.ProximalRows(
            components, np.zeros(graph.n),
            params.rho * (degrees(graph) + self.epsilon * params.pi_vector(graph.n)))

    def step(self, state: MMState, rows=None) -> MMState:
        x, nu, e_o_x = self._operands(state)
        shape = self._rows
        for row in self._targets(rows):
            # E_o^T (sqrt(eta) nu) + (rho/2) L x in one transpose product
            arcs = self._root_eta * nu + self._half_rho * e_o_x
            c = np.bincount(self._bins, (E_O_SIGNS * arcs).ravel(), self._size)
            x = self.local.solve(c.reshape(shape), x.reshape(shape))[0].ravel()
            row[...] = x
            nu, e_o_x = self._dual(x, nu)
        return MMState(x=x, nu=nu, e_o_x=e_o_x)


# -- P-EXTRA -----------------------------------------------------------------------

def pextra_mixing(graph: NetworkGraph, xi: float, rho: float, eta: float):
    """Mixing pair W = I - (xi rho / 2) L, W~ = I - (xi rho / 2)(1 - eta) L.

    Passing an overshoot omega in [0.5, 1) for eta gives the overshooting
    pair: at omega = 0.5 it sits exactly on the spectral boundary
    (I + W)/2 = W~, and beyond it the spectral condition fails by
    construction, which is the point. Unless every entry (xi rho / 2) L_ij
    is finite, a ValueError naming xi and rho is raised before the pair is
    formed, as is one for a xi without a finite 1/xi (`_check_xi`) and one
    for a non-finite eta.
    """
    _check_xi(xi)
    _check_rho(rho)
    if not math.isfinite(eta):
        raise ValueError(f"eta must be finite, got eta = {eta!r}")
    if not math.isfinite(0.5 * xi * rho * float(degrees(graph).max())):
        raise ValueError(f"xi = {xi!r} and rho = {rho!r}: the mixing weights "
                         "(xi rho / 2) L leave the float range")
    lap = laplacian(graph)
    eye = np.eye(graph.n)
    w = eye - 0.5 * xi * rho * lap
    w_tilde = eye - 0.5 * xi * rho * (1.0 - eta) * lap
    return w, w_tilde


def theorem2_pi(graph: NetworkGraph, xi: float, rho: float) -> tuple[float, ...]:
    """Proximal weights pi_i = 1/xi - rho d_i making D-ADMM match P-EXTRA.

    Requires xi * rho <= 1 / max_i d_i so every weight stays nonnegative,
    and a finite 1/xi (`_check_xi`).
    """
    _check_xi(xi)
    _check_rho(rho)
    deg = degrees(graph)
    pi = tuple((1.0 / xi - rho * deg).tolist())
    if min(pi) < 0:
        raise ValueError(
            f"xi*rho = {xi * rho:.6g} exceeds 1/max_i d_i = {1.0 / deg.max():.6g}; "
            "proximal weights would be negative"
        )
    return pi


class PextraEngine(_NetworkEngine):
    """Mixing-matrix iterates, run by the simulated network's round
    (`harness.pextra_agents`). EXTRA's history sum sum_j (W - W~) x_j enters
    as phi = -1/xi times it, a running sum with V = (W~ - W)/xi (O(1)
    memory), so the state is D-ADMM's (x, phi)."""

    def __init__(self, graph: NetworkGraph, components, pextra: PextraParams):
        self.graph = graph
        self.net = harness.pextra_agents(graph, components, pextra)

    def init(self, x0=None) -> AdmmState:
        x = harness.checked_copy(x0, (self.graph.n, self.graph.p), "x0")
        # phi starts at V x0
        return AdmmState(x=x.ravel(), phi=self.net.mixes(x)[1].ravel())


# -- general two-matrix formulation ---------------------------------------------------

class GeneralUVEngine(_NetworkEngine):
    """D-ADMM driven by a general (U, V, Dbar) triple at graph level, run by
    the simulated network's round (`harness.general_uv_agents`).

    The triple must satisfy the nullspace/complementarity/distributable
    conditions; `harness.general_uv_agents` checks them once at construction
    and raises ConditionViolation.
    """

    def __init__(self, graph: NetworkGraph, u: np.ndarray, v: np.ndarray,
                 dbar: np.ndarray, components, params: AdmmParams):
        self.graph = graph
        self.net = harness.general_uv_agents(graph, u, v, dbar, components, params)

    def init(self, x0=None, phi0=None) -> AdmmState:
        npx = (self.graph.n * self.graph.p,)
        return AdmmState(x=harness.checked_copy(x0, npx, "x0"),
                         phi=harness.checked_copy(phi0, npx, "phi0"))
