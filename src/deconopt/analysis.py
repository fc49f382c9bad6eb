"""Reference solutions, contraction-rate certificates and condition checkers.

The certificate machinery computes the restricted strong convexity constant
of the penalized objective, the Lipschitz modulus of its gradient, and the
strictly positive contraction parameter bounding the per-round decrease of
the primal-dual distance in the associated (semi-)norm. The two constants are
max-min problems over one scalar each (gamma, tau), whose maximum sits where
a falling and a rising branch cross; the crossings are closed-form roots (a
cubic for gamma, a quadratic for tau), with no search. Verification replays
an iterate trace against that bound with an explicit slack budget, since the
iterates themselves are only solved to the subproblem tolerance. The
verification reads the arc multipliers off the primal trace, alpha_k =
alpha_0 + (rho eta / 2) sum_{j<=k} E_o x_j, and checks the run's final dual
aggregate against E_o^T alpha_K: no dual trace is kept and no L^+ is formed.
The x-term of the norm is node weights plus the same gather's |E_o x_j|^2,
so no row meets an n x n matrix. The verification reads the run's two
`Tolerances`; the mixing and U/V condition checks use the one constant
`MIXING_TOL`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import denselin, objective
from .errors import (
    AllZero,
    CertificateUnavailable,
    DimensionMismatch,
    EtaOutOfRange,
    GammaOutOfRange,
    Inconsistent,
    IndefiniteInput,
    NonFinite,
)
from .netgraph import (
    NetworkGraph,
    arc_stack,
    degrees,
    e_o_min_norm_solver,
    laplacian,
    laplacian_eigvals,
    support_mask,
    unoriented_gram,
)
from .tolerances import DEFAULT, Tolerances

_ROW_BLOCK = objective._ROW_BLOCK  # trace rows per pass of `distances_sq`
# entry and eigenvalue tolerance of the mixing-matrix and U/V condition checks
MIXING_TOL = 1e-9


# -- reference solution -----------------------------------------------------------

@dataclass(frozen=True)
class ReferenceSolution:
    """Consensual optimum, the unique column-space multiplier, its scaled
    method-of-multipliers counterpart, and the sum's curvature profile, which
    the strong-convexity check formed (None when a component is a callback,
    whose mu_sum the caller supplies)."""

    xbar: np.ndarray
    x_star: np.ndarray
    alpha_star: np.ndarray
    nu_star: np.ndarray
    objective_value: float
    profile: objective.SumProfile | None = None


def reference_solution(graph: NetworkGraph, components, eta: float,
                       tolerances: Tolerances = DEFAULT) -> ReferenceSolution:
    """Solve the instance centrally and price the consensus coupling.

    The multiplier solves E_o^T alpha = -grad f(x*) at minimum norm, hence
    lies in the column space of E_o and is the unique such multiplier. Every
    pass over the components reads one stacked view of them.
    """
    if eta <= 0:
        raise EtaOutOfRange(f"eta must be positive, got {eta}")
    stack = objective._stacked(components)
    profile = None
    if not stack.callbacks:
        profile = objective.sum_profile(stack, graph)  # raises NotStronglyConvex early
    xbar = objective.minimize_sum(stack)
    x_star = np.tile(xbar, graph.n)
    alpha_star = e_o_min_norm_solver(graph, tolerances)(
        -objective.sum_gradient(stack, x_star)
    )
    return ReferenceSolution(
        xbar=xbar,
        x_star=x_star,
        alpha_star=alpha_star,
        nu_star=alpha_star / math.sqrt(eta),
        objective_value=objective.sum_value(stack, x_star),
        profile=profile,
    )


# -- restricted strong convexity constant ----------------------------------------

def mu_g(profile: objective.SumProfile, graph: NetworkGraph, rho: float,
         eta: float, gamma="optimize") -> tuple[float, float]:
    """Lower bound on the restricted strong convexity constant of the
    penalized objective, and the auxiliary scalar realizing it.

    The bound is the smaller of two branches: the centralized curvature
    a = mu_sum/n eroded by 2 L gamma, and the consensus penalty curvature
    K / (1 + 1/gamma^2) with K = lam_min_nonzero * rho (1-eta) / 2. The first
    falls and the second rises on the admissible interval (0, a/2L), so
    "optimize" takes gamma at their crossing, the only positive root of
    -2L gamma^3 + (a-K) gamma^2 - 2L gamma + a = 0.
    """
    if not 0 < eta < 1:
        raise EtaOutOfRange(f"eta must lie in (0,1), got {eta}")
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    lam_min = _laplacian_spectrum(graph)[0]
    return _mu_g(profile, lam_min, rho, eta, gamma)


def _laplacian_spectrum(graph: NetworkGraph) -> tuple[float, float]:
    """lam_min_nonzero and lam_max of L, from its per-graph eigenvalues."""
    eigvals = laplacian_eigvals(graph)
    return denselin.smallest_nonzero(eigvals), float(eigvals[-1])


def _mu_g(profile: objective.SumProfile, lam_min: float, rho: float, eta: float,
          gamma) -> tuple[float, float]:
    """`mu_g` for a given lam_min_nonzero of L."""
    a, lip = profile.mu_sum / profile.n, profile.lipschitz
    k = 0.5 * lam_min * rho * (1.0 - eta)
    if gamma == "optimize":
        # the cubic is (1 + g^2) times the branch difference, which falls
        # strictly from a to below zero on (0, a/2L) and stays negative
        # beyond: its one positive root is the crossing (LAPACK returns a
        # real root with an exactly zero imaginary part)
        roots = np.roots([-2.0 * lip, a - k, -2.0 * lip, a])
        gamma = float(roots.real[(roots.imag == 0) & (roots.real > 0)].min())
    else:
        gamma = float(gamma)
        if not 0 < gamma < a / (2.0 * lip):
            raise GammaOutOfRange(
                f"gamma must lie in (0, {a / (2.0 * lip):.6g}), got {gamma}"
            )
    # any admissible gamma gives a valid bound, so the min is reported at
    # the computed root whatever its roundoff
    return min(a - 2.0 * lip * gamma, k / (1.0 + 1.0 / (gamma * gamma))), gamma


# -- rate certificates ---------------------------------------------------------------

@dataclass(frozen=True)
class RateCertificate:
    """Contraction certificate: constants, optimizing scalars, and the norm
    dual_weight |alpha - alpha*|^2 + (x - x*)^T (X (x) I_p) (x - x*) the
    statement is made in: 2/(rho eta) and X = M = rho D + P - (rho/2) L for
    `delta`, or 1/(rho eta) and X = (rho/4) E_u^T E_u = (rho/4)(2D - L)
    (rho |z - z*|^2 for z = E_u x / 2) for the P = 0 corollary's
    `delta_admm`. It carries one of the two. Both X are a diagonal minus a
    multiple of L, diag(x_weights) - x_coupling L, and x* is consensual, so
    the x-term is sum_i x_weights_i |x_i - x*_i|^2 - x_coupling |E_o x|^2:
    no n x n matrix is kept."""

    rho: float
    eta: float
    mu_g: float
    lipschitz_g: float
    lam_min_nonzero: float
    tau_star: float
    gamma_star: float
    dual_weight: float
    # equality skips the array, which has no boolean `==`; what it is built
    # from (rho, the graph, lam_max_m or lam_max_eu) takes part
    x_weights: np.ndarray = field(repr=False, compare=False)
    x_coupling: float
    graph: NetworkGraph = field(repr=False)
    delta: float | None = None
    delta_admm: float | None = None
    lam_max_m: float | None = None
    lam_max_eu: float | None = None

    def contraction_factor(self) -> float:
        d = self.delta if self.delta is not None else self.delta_admm
        return 1.0 / (1.0 + d)

    def distances_sq(self, xs, phi_last, ref: ReferenceSolution, alpha0=None,
                     tolerances: Tolerances = DEFAULT) -> np.ndarray:
        """Squared distance of every row (xs[k], alpha_k), in row blocks.

        A certified run's dual step gives alpha_k = alpha_0 + (rho eta / 2)
        sum_{j=1..k} E_o x_j, read off the trace from `alpha0` (zero by
        default). Inconsistent unless the run's final dual aggregate
        `phi_last` is E_o^T alpha_K within `minnorm_consistency` |phi_last|
        plus the range floor; NonFinite for a row with no finite distance."""
        g = self.graph
        n, p = g.n, g.p
        xs = np.asarray(xs, dtype=float)
        phi_last = np.asarray(phi_last, dtype=float)
        alpha = np.zeros(g.m * p) if alpha0 is None else np.asarray(alpha0, dtype=float)
        if (xs.shape[1:] != (n * p,) or not len(xs)
                or phi_last.shape != (n * p,) or alpha.shape != (g.m * p,)):
            raise DimensionMismatch(f"expected xs (rows, {n * p}), phi_last ({n * p},) and "
                                    f"alpha0 ({g.m * p},), got {xs.shape}, "
                                    f"{phi_last.shape} and {alpha.shape}")
        out = np.empty(len(xs))
        weights = np.repeat(self.x_weights, p)
        for start, e_o_sq, alphas in self._alpha_blocks(xs, alpha):
            rows = slice(start, start + len(alphas))
            alpha = alphas[-1].copy()
            alphas -= ref.alpha_star
            dx = xs[rows] - ref.x_star
            x_sq = np.vecdot(dx, weights * dx) - self.x_coupling * e_o_sq
            out[rows] = np.maximum(self.dual_weight * np.vecdot(alphas, alphas) + x_sq, 0.0)
            bad = np.flatnonzero(~np.isfinite(out[rows]))
            if bad.size:
                raise NonFinite(f"trace row {start + bad[0]} has a non-finite distance")
        resid = float(np.linalg.norm(phi_last - arc_stack(g).e_o_transpose(alpha)))
        allowed = (tolerances.minnorm_consistency * float(np.linalg.norm(phi_last))
                   + denselin.range_floor(float(degrees(g).sum()), p))
        if not resid <= allowed:
            raise Inconsistent(f"final dual is not E_o^T alpha of the trace "
                               f"(residual {resid:.3e}, allowed {allowed:.3e})")
        return out

    def _alpha_blocks(self, xs: np.ndarray, alpha0: np.ndarray):
        """(first row, |E_o x_k|^2, alpha rows) per `_ROW_BLOCK` trace rows:
        the alpha rows are c E_o x_k with c = rho eta / 2, alpha0 for row 0's,
        in one cumsum carried across blocks, in place in one buffer that each
        block overwrites (arc rows are wide)."""
        src, dst = arc_stack(self.graph).index
        c = 0.5 * self.eta * self.rho
        buf = np.empty((min(len(xs), _ROW_BLOCK), len(src)))
        carry = alpha0
        for start in range(0, len(xs), _ROW_BLOCK):
            block = xs[start:start + _ROW_BLOCK]
            # the indices are valid; the default mode="raise" would buffer `out`
            steps = np.take(block, src, axis=1, out=buf[:len(block)], mode="clip")
            steps -= block[:, dst]
            e_o_sq = np.vecdot(steps, steps)
            steps *= c
            steps[0] = steps[0] + carry if start else carry
            carry = np.cumsum(steps, axis=0, out=steps)[-1].copy()
            yield start, e_o_sq, steps


def _max_min_tau(a: float, b: float, c: float, d: float) -> tuple[float, float]:
    """Max over tau > 0 of min(a / (1 + 1/tau), b / ((1 + tau) c + d)), and
    the tau realizing it.

    The first branch rises and the second falls, so the max sits at their
    crossing: the one positive root of a c tau^2 + (a c + a d - b) tau - b = 0,
    taken in the form that does not cancel. Any tau gives a valid bound, so
    the min is reported at the computed root whatever its roundoff.
    """
    lin = a * c + a * d - b
    root = math.sqrt(lin * lin + 4.0 * a * c * b)
    tau = 2.0 * b / (lin + root) if lin > 0 else (root - lin) / (2.0 * a * c)
    return min(a / (1.0 + 1.0 / tau), b / ((1.0 + tau) * c + d)), tau


def delta_bound(rho: float, eta: float, mu: float, lip_g: float,
                lam_min: float, lam_max_m: float) -> tuple[float, float]:
    """Contraction parameter delta and the coupling scalar tau realizing it:
    the max over tau > 0 of the smaller of the rising branch
    rho eta lam_min / (2 (1 + 1/tau) lam_max(M)) and the falling branch
    rho eta mu lam_min / ((1 + tau) L_g^2 + rho eta lam_max(M) lam_min).
    """
    return _max_min_tau(rho * eta * lam_min / (2.0 * lam_max_m), rho * eta * mu * lam_min,
                        lip_g ** 2, rho * eta * lam_max_m * lam_min)


def delta_bound_admm(rho: float, eta: float, mu: float, lip_g: float,
                     lam_min: float, lam_max_eu: float) -> tuple[float, float]:
    """Contraction bound for the P = 0 corollary, in the edge-variable norm:
    the max over tau > 0 of the smaller of eta lam_min / ((1 + 1/tau)
    lam_max(E_u^T E_u)) and 2 rho eta mu lam_min / ((1 + tau) L_g^2
    + rho^2 eta lam_max(E_u^T E_u) lam_min)."""
    return _max_min_tau(eta * lam_min / lam_max_eu, 2.0 * rho * eta * mu * lam_min,
                        lip_g ** 2, rho * rho * eta * lam_max_eu * lam_min)


def _certificate_prelude(graph: NetworkGraph, profile: objective.SumProfile, rho: float,
                         eta: float) -> tuple[float, float, float, float]:
    """lam_min_nonzero of L, the Lipschitz modulus L_g of the penalized
    gradient, mu_g and its gamma: what both certificates share. An unusable
    Laplacian spectrum or mu_g <= 0 is CertificateUnavailable."""
    if not 0 < eta < 1:
        raise EtaOutOfRange(f"certificate requires eta in (0,1), got {eta}")
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    try:
        lam_min, lam_max_lap = _laplacian_spectrum(graph)
    except (IndefiniteInput, AllZero) as exc:
        raise CertificateUnavailable(f"Laplacian spectrum unusable: {exc}") from exc
    mu, gamma_star = _mu_g(profile, lam_min, rho, eta, "optimize")
    if mu <= 0:
        raise CertificateUnavailable(f"restricted strong convexity bound {mu:.3e} <= 0")
    lip_g = profile.lipschitz + (1.0 - eta) * 0.5 * rho * lam_max_lap
    return lam_min, lip_g, mu, gamma_star


def rate_certificate(graph: NetworkGraph, profile: objective.SumProfile,
                     params) -> RateCertificate:
    """Assemble the contraction certificate for generalized D-ADMM.

    `params` carries rho, eta and the proximal weights. Requires eta in (0,1);
    the spectral quantities are computed at graph level (the identity lift
    preserves them). M is formed for its lam_max only; the certificate keeps
    it as node weights rho d + pi and the coupling rho/2 of L.
    """
    rho, eta = params.rho, params.eta
    lam_min, lip_g, mu, gamma_star = _certificate_prelude(graph, profile, rho, eta)
    pi = params.pi_vector(graph.n)
    m_base = 0.5 * rho * (2.0 * np.diag(degrees(graph)) + (2.0 / rho) * np.diag(pi)
                          - laplacian(graph))
    eigvals_m, _ = denselin.sym_eigen(denselin.SymMatrix(m_base))
    lam_max_m = float(eigvals_m[-1])
    delta, tau_star = delta_bound(rho, eta, mu, lip_g, lam_min, lam_max_m)
    return RateCertificate(
        rho=rho, eta=eta, mu_g=mu, lipschitz_g=lip_g,
        lam_min_nonzero=lam_min, tau_star=tau_star, gamma_star=gamma_star,
        dual_weight=2.0 / (rho * eta), x_weights=rho * degrees(graph) + pi,
        x_coupling=0.5 * rho, graph=graph,
        delta=delta, lam_max_m=lam_max_m,
    )


def rate_certificate_admm(graph: NetworkGraph, profile: objective.SumProfile,
                          rho: float, eta: float) -> RateCertificate:
    """Certificate for the P = 0 case, stated on (alpha, edge variable)."""
    lam_min, lip_g, mu, gamma_star = _certificate_prelude(graph, profile, rho, eta)
    gram_u = unoriented_gram(graph)
    eig_eu, _ = denselin.sym_eigen(denselin.SymMatrix(gram_u))
    lam_max_eu = float(eig_eu[-1])
    delta, tau_star = delta_bound_admm(rho, eta, mu, lip_g, lam_min, lam_max_eu)
    return RateCertificate(
        rho=rho, eta=eta, mu_g=mu, lipschitz_g=lip_g,
        lam_min_nonzero=lam_min, tau_star=tau_star, gamma_star=gamma_star,
        dual_weight=1.0 / (rho * eta), x_weights=0.5 * rho * degrees(graph),
        x_coupling=0.25 * rho, graph=graph,
        delta_admm=delta, lam_max_eu=lam_max_eu,
    )


# -- contraction verification -----------------------------------------------------

@dataclass(frozen=True)
class ContractionReport:
    distances: np.ndarray
    bound: float
    slack: float
    violations: tuple[tuple[int, float, float], ...]
    worst_ratio: float | None

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_contraction(xs, phi_last, ref: ReferenceSolution, cert: RateCertificate,
                       alpha0=None, tolerances: Tolerances = DEFAULT) -> ContractionReport:
    """Check the per-round contraction of a primal trace.

    Row k of xs is the iterate after round k; `RateCertificate.distances_sq`
    reads the duals off it and checks them against `phi_last`, the run's final
    dual aggregate. The norm is the certificate's. Round k violates the bound when
    d_k > bound d_{k-1} + slack, with the slack `contraction_slack` (1 + d_0)
    budgeting the subproblem tolerance. `worst_ratio` is the largest
    d_k / d_{k-1} over rows with d_{k-1} > 0.
    """
    distances = cert.distances_sq(xs, phi_last, ref, alpha0, tolerances)
    bound = cert.contraction_factor()
    slack = tolerances.contraction_slack * (1.0 + distances[0])
    prev, nxt = distances[:-1], distances[1:]
    allowed = bound * prev + slack
    late = np.flatnonzero(nxt > allowed)
    live = prev > 0
    return ContractionReport(
        distances=distances, bound=bound, slack=float(slack),
        violations=tuple((int(k) + 1, float(nxt[k]), float(allowed[k])) for k in late),
        worst_ratio=float(np.max(nxt[live] / prev[live])) if live.any() else None,
    )


# -- mixing-matrix and U/V condition checks ------------------------------------------

@dataclass(frozen=True)
class MixingReport:
    decentralized: bool
    symmetric: bool
    nullspace: bool
    wt_positive_definite: bool
    upper_ok: bool          # (I + W)/2 dominates W~
    lower_ok: bool          # W~ dominates W
    lam_min_wt: float
    lam_overshoot: float    # max eig of W~ - (I + W)/2; positive when overshooting

    @property
    def spectral(self) -> bool:
        return self.wt_positive_definite and self.upper_ok and self.lower_ok

    @property
    def all_pass(self) -> bool:
        return self.decentralized and self.symmetric and self.nullspace and self.spectral

    def failures(self) -> list[str]:
        out = []
        if not self.decentralized:
            out.append("decentralized")
        if not self.symmetric:
            out.append("symmetric")
        if not self.nullspace:
            out.append("nullspace")
        if not self.wt_positive_definite:
            out.append("wt_positive_definite")
        if not self.upper_ok:
            out.append("upper_spectral")
        if not self.lower_ok:
            out.append("lower_spectral")
        return out


def _respects_graph(mat: np.ndarray, graph: NetworkGraph) -> bool:
    return not np.any((np.abs(mat) > MIXING_TOL) & ~support_mask(graph))


def _nullspace_is_consensus(mat: np.ndarray) -> bool:
    """null(mat) equals the span of the all-ones vector (mat symmetrized)."""
    sym = denselin.SymMatrix(0.5 * (mat + mat.T))
    eigvals, eigvecs = denselin.sym_eigen(sym)
    scale = max(float(np.max(np.abs(eigvals))), 1.0)
    null_idx = [i for i, lam in enumerate(eigvals) if abs(lam) <= MIXING_TOL * scale]
    if len(null_idx) != 1:
        return False
    v = eigvecs[:, null_idx[0]]
    n = v.shape[0]
    return abs(abs(float(np.sum(v))) / math.sqrt(n) - 1.0) <= 1e-8


def _graph_matrices(graph: NetworkGraph, **mats) -> list[np.ndarray]:
    """The named matrices as float arrays; DimensionMismatch unless n x n."""
    out = []
    for name, mat in mats.items():
        mat = np.asarray(mat, dtype=float)
        if mat.shape != (graph.n, graph.n):
            raise DimensionMismatch(
                f"{name} must be {graph.n} x {graph.n} at graph level, got shape {mat.shape}"
            )
        out.append(mat)
    return out


def check_mixing(w: np.ndarray, w_tilde: np.ndarray, graph: NetworkGraph) -> MixingReport:
    """Evaluate the decentralization, symmetry, nullspace and spectral
    requirements on a mixing pair; failures are reported, never raised.
    Matrices that are not n x n raise DimensionMismatch."""
    w, wt = _graph_matrices(graph, W=w, W_tilde=w_tilde)
    n = graph.n
    decentralized = _respects_graph(w, graph) and _respects_graph(wt, graph)
    symmetric = (float(np.max(np.abs(w - w.T))) <= MIXING_TOL
                 and float(np.max(np.abs(wt - wt.T))) <= MIXING_TOL)

    diff = w - wt
    ones = np.ones(n)
    nullspace = (_nullspace_is_consensus(diff)
                 and float(np.linalg.norm((np.eye(n) - wt) @ ones))
                 <= MIXING_TOL * math.sqrt(n))

    eig_wt, _ = denselin.sym_eigen(denselin.SymMatrix(0.5 * (wt + wt.T)))
    lam_min_wt = float(eig_wt[0])
    upper_gap = 0.5 * (np.eye(n) + w) - wt
    eig_up, _ = denselin.sym_eigen(denselin.SymMatrix(0.5 * (upper_gap + upper_gap.T)))
    lower_gap = wt - w
    eig_lo, _ = denselin.sym_eigen(denselin.SymMatrix(0.5 * (lower_gap + lower_gap.T)))
    return MixingReport(
        decentralized=decentralized,
        symmetric=symmetric,
        nullspace=nullspace,
        wt_positive_definite=lam_min_wt > MIXING_TOL,
        upper_ok=float(eig_up[0]) >= -MIXING_TOL,
        lower_ok=float(eig_lo[0]) >= -MIXING_TOL,
        lam_min_wt=lam_min_wt,
        lam_overshoot=-float(eig_up[0]),
    )


@dataclass(frozen=True)
class UVReport:
    nullspace: bool       # null(V) = span(ones)
    complementarity: bool  # V + U = 2 Dbar with Dbar diagonal positive definite
    distributable: bool   # sparsity of U, V within the graph
    max_complementarity_gap: float

    @property
    def all_pass(self) -> bool:
        return self.nullspace and self.complementarity and self.distributable

    def failures(self) -> list[str]:
        out = []
        if not self.nullspace:
            out.append("nullspace")
        if not self.complementarity:
            out.append("complementarity")
        if not self.distributable:
            out.append("distributable")
        return out


def check_uv_conditions(u: np.ndarray, v: np.ndarray, dbar: np.ndarray,
                        graph: NetworkGraph) -> UVReport:
    """Evaluate the U/V conditions; failures are reported, never raised.
    Matrices that are not n x n raise DimensionMismatch."""
    u, v, dbar = _graph_matrices(graph, U=u, V=v, Dbar=dbar)
    nullspace = _nullspace_is_consensus(v)
    off = dbar - np.diag(np.diag(dbar))
    gap = float(np.max(np.abs(v + u - 2.0 * dbar)))
    complementarity = (
        gap <= MIXING_TOL
        and float(np.max(np.abs(off))) <= MIXING_TOL
        and bool(np.all(np.diag(dbar) > MIXING_TOL))
    )
    distributable = _respects_graph(u, graph) and _respects_graph(v, graph)
    return UVReport(
        nullspace=nullspace,
        complementarity=complementarity,
        distributable=distributable,
        max_complementarity_gap=gap,
    )


# -- report serialization --------------------------------------------------------------

def certificate_lines(cert: RateCertificate) -> list[str]:
    """Line-oriented text form of a certificate (name = value per line)."""
    items = [
        ("rho", cert.rho), ("eta", cert.eta), ("mu_g", cert.mu_g),
        ("lipschitz_g", cert.lipschitz_g),
        ("lam_min_nonzero", cert.lam_min_nonzero),
        ("tau_star", cert.tau_star), ("gamma_star", cert.gamma_star),
    ]
    if cert.delta is not None:
        items += [("delta", cert.delta), ("lam_max_m", cert.lam_max_m),
                  ("contraction_factor", cert.contraction_factor())]
    if cert.delta_admm is not None:
        items += [("delta_admm", cert.delta_admm), ("lam_max_eu", cert.lam_max_eu)]
    return [f"{name} = {value:.17g}" for name, value in items]


def certificate_csv_rows(cert: RateCertificate) -> list[str]:
    return ["name,value"] + [
        line.replace(" = ", ",") for line in certificate_lines(cert)
    ]
