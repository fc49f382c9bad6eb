"""Reference solutions, contraction-rate certificates and condition checkers.

The certificate machinery computes the restricted strong convexity constant
of the penalized objective, the Lipschitz modulus of its gradient, and the
strictly positive contraction parameter bounding the per-round decrease of
the primal-dual distance in the associated (semi-)norm. Verification replays
an iterate trace against that bound with an explicit slack budget, since the
iterates themselves are only solved to the subproblem tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import denselin, objective
from .errors import (
    AllZero,
    CertificateUnavailable,
    ContractionViolated,
    DimensionMismatch,
    EtaOutOfRange,
    GammaOutOfRange,
    IndefiniteInput,
)
from .netgraph import NetworkGraph, incidence_operators, support_mask
from .tolerances import DEFAULT, Tolerances

_INV_PHI = 0.5 * (math.sqrt(5.0) - 1.0)


# -- scalar searches -------------------------------------------------------------

def _golden_max(fn, lo: float, hi: float, tol: float):
    """Golden-section maximization of a unimodal function on [lo, hi]."""
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(400):
        if b - a <= tol:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = fn(d)
    mid = 0.5 * (a + b)
    return mid, fn(mid)


def _maximize_unimodal(fn, lo: float, hi: float, tol: float):
    """Golden section with a coarse-grid bracketing fallback."""
    best_x, best_f = _golden_max(fn, lo, hi, tol)
    grid = np.linspace(lo, hi, 513)
    vals = [fn(t) for t in grid]
    j = int(np.argmax(vals))
    if vals[j] > best_f:
        a = grid[max(j - 1, 0)]
        b = grid[min(j + 1, len(grid) - 1)]
        best_x, best_f = _golden_max(fn, a, b, tol)
    return best_x, best_f


# -- reference solution -----------------------------------------------------------

@dataclass(frozen=True)
class ReferenceSolution:
    """Consensual optimum, the unique column-space multiplier, and its scaled
    method-of-multipliers counterpart."""

    xbar: np.ndarray
    x_star: np.ndarray
    alpha_star: np.ndarray
    nu_star: np.ndarray
    objective_value: float


def reference_solution(graph: NetworkGraph, components, eta: float,
                       tolerances: Tolerances = DEFAULT) -> ReferenceSolution:
    """Solve the instance centrally and price the consensus coupling.

    The multiplier solves E_o^T alpha = -grad f(x*) at minimum norm, hence
    lies in the column space of E_o and is the unique such multiplier.
    """
    if eta <= 0:
        raise EtaOutOfRange(f"eta must be positive, got {eta}")
    if all(comp.quadratic_terms() is not None for comp in components):
        objective.sum_profile(components, graph)  # raises NotStronglyConvex early
    xbar = objective.minimize_sum(components, tolerances.central_solve)
    x_star = np.tile(xbar, graph.n)
    e_o = incidence_operators(graph)[0]
    alpha_star = denselin.min_norm_solve(
        e_o.base, -objective.sum_gradient(components, x_star), tolerances, graph.p
    )
    return ReferenceSolution(
        xbar=xbar,
        x_star=x_star,
        alpha_star=alpha_star,
        nu_star=alpha_star / math.sqrt(eta),
        objective_value=objective.sum_value(components, x_star),
    )


# -- restricted strong convexity constant ----------------------------------------

def mu_g(profile: objective.SumProfile, graph: NetworkGraph, rho: float,
         eta: float, gamma="optimize",
         tolerances: Tolerances = DEFAULT) -> tuple[float, float]:
    """Lower bound on the restricted strong convexity constant of the
    penalized objective, and the auxiliary scalar realizing it.

    The bound is the smaller of two branches: the centralized curvature
    mu_sum/n eroded by 2 L gamma, and the consensus penalty curvature
    lam_min_nonzero * rho (1-eta) / (2 (1 + 1/gamma^2)). "optimize" maximizes
    the min over the admissible gamma interval by golden section.
    """
    if not 0 < eta < 1:
        raise EtaOutOfRange(f"eta must lie in (0,1), got {eta}")
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    lam_min = _laplacian_spectrum(graph, tolerances)[0]
    return _mu_g(profile, lam_min, rho, eta, gamma, tolerances)


def _laplacian_spectrum(graph: NetworkGraph, tolerances: Tolerances) -> tuple[float, float]:
    """lam_min_nonzero and lam_max of L, from one eigendecomposition."""
    lap = incidence_operators(graph)[3]
    eigvals, _ = denselin.sym_eigen(denselin.SymMatrix(lap.base), tolerances)
    return denselin.smallest_nonzero(eigvals, tolerances=tolerances), float(eigvals[-1])


def _mu_g(profile: objective.SumProfile, lam_min: float, rho: float, eta: float,
          gamma, tolerances: Tolerances) -> tuple[float, float]:
    """`mu_g` for a given lam_min_nonzero of L."""
    hi = (profile.mu_sum / profile.n) / (2.0 * profile.lipschitz)

    def branches(g: float) -> float:
        b1 = profile.mu_sum / profile.n - 2.0 * profile.lipschitz * g
        b2 = lam_min * rho * (1.0 - eta) / (2.0 * (1.0 + 1.0 / (g * g)))
        return min(b1, b2)

    if gamma == "optimize":
        lo = hi * 1e-12
        g_star, value = _maximize_unimodal(branches, lo, hi * (1.0 - 1e-12),
                                           tolerances.search)
        return value, g_star
    gamma = float(gamma)
    if not 0 < gamma < hi:
        raise GammaOutOfRange(
            f"gamma must lie in (0, {hi:.6g}), got {gamma}"
        )
    return branches(gamma), gamma


# -- rate certificates ---------------------------------------------------------------

@dataclass(frozen=True)
class RateCertificate:
    """Contraction certificate: constants, optimizing scalars, and the n x n
    base of M = m_base (x) I_p, the (semi-)norm the statement is made in."""

    rho: float
    eta: float
    mu_g: float
    lipschitz_g: float
    lam_min_nonzero: float
    tau_star: float
    gamma_star: float
    delta: float | None = None
    delta_admm: float | None = None
    lam_max_m: float | None = None
    lam_max_eu: float | None = None
    m_base: np.ndarray | None = field(default=None, repr=False)
    graph: NetworkGraph | None = field(default=None, repr=False)

    def contraction_factor(self) -> float:
        d = self.delta if self.delta is not None else self.delta_admm
        return 1.0 / (1.0 + d)

    def u_distance_sq(self, alpha: np.ndarray, x: np.ndarray,
                      ref: ReferenceSolution) -> float:
        """Squared primal-dual distance in the block norm carried by delta."""
        if self.m_base is None:
            raise CertificateUnavailable("certificate carries no M matrix")
        da = alpha - ref.alpha_star
        dx = (x - ref.x_star).reshape(self.m_base.shape[0], -1)
        val = ((2.0 / (self.rho * self.eta)) * float(da @ da)
               + float(np.sum(dx * (self.m_base @ dx))))
        return max(val, 0.0)

    def v_distance_sq(self, alpha: np.ndarray, x: np.ndarray,
                      ref: ReferenceSolution) -> float:
        """Squared distance of (alpha, edge variable) in the P=0 norm."""
        if self.graph is None:
            raise CertificateUnavailable("certificate carries no graph")
        e_u = incidence_operators(self.graph)[1]
        da = alpha - ref.alpha_star
        dz = 0.5 * e_u.apply(x - ref.x_star)
        return (1.0 / (self.rho * self.eta)) * float(da @ da) + self.rho * float(dz @ dz)


def delta_bound(rho: float, eta: float, mu: float, lip_g: float,
                lam_min: float, lam_max_m: float,
                search_tol: float = DEFAULT.search) -> tuple[float, float]:
    """Maximize the two-branch contraction bound over the coupling scalar tau.

    The first branch increases in tau and the second decreases, so the max of
    their min is unimodal; the search runs on log10 tau in [-12, 12].
    """

    def value(log_tau: float) -> float:
        tau = 10.0 ** log_tau
        b1 = rho * eta * lam_min / (2.0 * (1.0 + 1.0 / tau) * lam_max_m)
        b2 = (rho * eta * mu * lam_min
              / ((1.0 + tau) * lip_g ** 2 + rho * eta * lam_max_m * lam_min))
        return min(b1, b2)

    log_tau, delta = _maximize_unimodal(value, -12.0, 12.0, search_tol)
    return delta, 10.0 ** log_tau


def delta_bound_admm(rho: float, eta: float, mu: float, lip_g: float,
                     lam_min: float, lam_max_eu: float,
                     search_tol: float = DEFAULT.search) -> tuple[float, float]:
    """Contraction bound for the P = 0 corollary, in the edge-variable norm."""

    def value(log_tau: float) -> float:
        tau = 10.0 ** log_tau
        b1 = eta * lam_min / ((1.0 + 1.0 / tau) * lam_max_eu)
        b2 = (2.0 * rho * eta * mu * lam_min
              / (rho * rho * eta * lam_max_eu * lam_min + (1.0 + tau) * lip_g ** 2))
        return min(b1, b2)

    log_tau, delta = _maximize_unimodal(value, -12.0, 12.0, search_tol)
    return delta, 10.0 ** log_tau


def rate_certificate(graph: NetworkGraph, profile: objective.SumProfile,
                     params, tolerances: Tolerances = DEFAULT) -> RateCertificate:
    """Assemble the contraction certificate for generalized D-ADMM.

    `params` carries rho, eta and the proximal weights. Requires eta in (0,1);
    the spectral quantities are computed at graph level (the identity lift
    preserves them) and the certificate keeps M at graph level too.
    """
    rho, eta = params.rho, params.eta
    if not 0 < eta < 1:
        raise EtaOutOfRange(f"certificate requires eta in (0,1), got {eta}")
    pi = params.pi_vector(graph.n)
    _, _, deg, lap = incidence_operators(graph)

    try:
        lam_min, lam_max_lap = _laplacian_spectrum(graph, tolerances)
    except (IndefiniteInput, AllZero) as exc:
        raise CertificateUnavailable(f"Laplacian spectrum unusable: {exc}") from exc
    mu, gamma_star = _mu_g(profile, lam_min, rho, eta, "optimize", tolerances)
    m_base = 0.5 * rho * (2.0 * deg.base + (2.0 / rho) * np.diag(pi) - lap.base)
    eigvals_m, _ = denselin.sym_eigen(denselin.SymMatrix(m_base), tolerances)
    lam_max_m = float(eigvals_m[-1])
    lip_g = profile.lipschitz + (1.0 - eta) * 0.5 * rho * lam_max_lap
    if mu <= 0:
        raise CertificateUnavailable(f"restricted strong convexity bound {mu:.3e} <= 0")

    delta, tau_star = delta_bound(rho, eta, mu, lip_g, lam_min, lam_max_m,
                                  tolerances.search)
    return RateCertificate(
        rho=rho, eta=eta, mu_g=mu, lipschitz_g=lip_g,
        lam_min_nonzero=lam_min, tau_star=tau_star, gamma_star=gamma_star,
        delta=delta, lam_max_m=lam_max_m,
        m_base=m_base, graph=graph,
    )


def rate_certificate_admm(graph: NetworkGraph, profile: objective.SumProfile,
                          rho: float, eta: float,
                          tolerances: Tolerances = DEFAULT) -> RateCertificate:
    """Certificate for the P = 0 case, stated on (alpha, edge variable)."""
    if not 0 < eta < 1:
        raise EtaOutOfRange(f"certificate requires eta in (0,1), got {eta}")
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    e_u = incidence_operators(graph)[1]
    lam_min, lam_max_lap = _laplacian_spectrum(graph, tolerances)
    eig_eu, _ = denselin.sym_eigen(denselin.SymMatrix(e_u.gram_base()), tolerances)
    lam_max_eu = float(eig_eu[-1])
    lip_g = profile.lipschitz + (1.0 - eta) * 0.5 * rho * lam_max_lap
    mu, gamma_star = _mu_g(profile, lam_min, rho, eta, "optimize", tolerances)
    if mu <= 0:
        raise CertificateUnavailable(f"restricted strong convexity bound {mu:.3e} <= 0")
    delta, tau_star = delta_bound_admm(rho, eta, mu, lip_g, lam_min, lam_max_eu,
                                       tolerances.search)
    return RateCertificate(
        rho=rho, eta=eta, mu_g=mu, lipschitz_g=lip_g,
        lam_min_nonzero=lam_min, tau_star=tau_star, gamma_star=gamma_star,
        delta_admm=delta, lam_max_eu=lam_max_eu, graph=graph,
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


def verify_contraction(trace, ref: ReferenceSolution, cert: RateCertificate,
                       dual: str = "alpha", graph: NetworkGraph | None = None,
                       slack: float | None = None, slack_scale: float | None = None,
                       norm: str = "u",
                       raise_on_violation: bool = False) -> ContractionReport:
    """Check the per-round contraction of a primal-dual trace.

    `trace` is a sequence of (x_k, dual_k) pairs ordered by round. With
    dual="phi" the arc-space multiplier is reconstructed by the minimum-norm
    transpose solve (unique because the iterates stay in the column space of
    E_o); dual="alpha" uses the pairs directly. norm="u" checks the proximal
    certificate distance, norm="v" the P=0 edge-variable distance. The slack
    defaults to slack_scale * (1 + initial distance), budgeting the
    subproblem tolerance.
    """
    if norm == "u":
        dist = lambda a, x: cert.u_distance_sq(a, x, ref)
        if cert.delta is None:
            raise CertificateUnavailable("certificate carries no delta for the u-norm")
    elif norm == "v":
        dist = lambda a, x: cert.v_distance_sq(a, x, ref)
        if cert.delta_admm is None:
            raise CertificateUnavailable("certificate carries no delta for the v-norm")
    else:
        raise ValueError(f"unknown norm {norm!r}")

    if dual == "phi":
        src = graph or cert.graph
        if src is None:
            raise ValueError("dual='phi' needs the graph to reconstruct alpha")
        e_o = incidence_operators(src)[0]
        solver = denselin.MinNormTransposeSolver(e_o.base, p=src.p)
        pairs = [(x, solver(phi)) for x, phi in trace]
    else:
        pairs = [(x, a) for x, a in trace]

    distances = np.array([dist(a, x) for x, a in pairs])
    bound = cert.contraction_factor()
    if slack is None:
        if slack_scale is None:
            slack_scale = DEFAULT.contraction_slack
        slack = slack_scale * (1.0 + distances[0])

    violations = []
    worst = None
    for k in range(len(distances) - 1):
        allowed = bound * distances[k] + slack
        if distances[k + 1] > allowed:
            violations.append((k + 1, float(distances[k + 1]), float(allowed)))
        if distances[k] > 0:
            ratio = distances[k + 1] / distances[k]
            worst = ratio if worst is None else max(worst, ratio)
    report = ContractionReport(
        distances=distances, bound=bound, slack=float(slack),
        violations=tuple(violations), worst_ratio=worst,
    )
    if raise_on_violation and violations:
        k, lhs, allowed = violations[0]
        raise ContractionViolated(k, lhs / max(distances[k - 1], 1e-300), bound)
    return report


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


def _respects_graph(mat: np.ndarray, graph: NetworkGraph, tol: float) -> bool:
    return not np.any((np.abs(mat) > tol) & ~support_mask(graph))


def _nullspace_is_consensus(mat: np.ndarray, tol: float) -> bool:
    """null(mat) equals the span of the all-ones vector (mat symmetrized)."""
    sym = denselin.SymMatrix(0.5 * (mat + mat.T), DEFAULT.replace(symmetry=np.inf))
    eigvals, eigvecs = denselin.sym_eigen(sym)
    scale = max(float(np.max(np.abs(eigvals))), 1.0)
    null_idx = [i for i, lam in enumerate(eigvals) if abs(lam) <= tol * scale]
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


def check_mixing(w: np.ndarray, w_tilde: np.ndarray, graph: NetworkGraph,
                 tol: float = DEFAULT.mixing_eigen) -> MixingReport:
    """Evaluate the decentralization, symmetry, nullspace and spectral
    requirements on a mixing pair; failures are reported, never raised.
    Matrices that are not n x n raise DimensionMismatch."""
    w, wt = _graph_matrices(graph, W=w, W_tilde=w_tilde)
    n = graph.n
    decentralized = _respects_graph(w, graph, tol) and _respects_graph(wt, graph, tol)
    symmetric = (float(np.max(np.abs(w - w.T))) <= tol
                 and float(np.max(np.abs(wt - wt.T))) <= tol)

    diff = w - wt
    ones = np.ones(n)
    nullspace = (_nullspace_is_consensus(diff, tol)
                 and float(np.linalg.norm((np.eye(n) - wt) @ ones)) <= tol * math.sqrt(n))

    loose = DEFAULT.replace(symmetry=np.inf)
    eig_wt, _ = denselin.sym_eigen(denselin.SymMatrix(0.5 * (wt + wt.T), loose))
    lam_min_wt = float(eig_wt[0])
    upper_gap = 0.5 * (np.eye(n) + w) - wt
    eig_up, _ = denselin.sym_eigen(
        denselin.SymMatrix(0.5 * (upper_gap + upper_gap.T), loose)
    )
    lower_gap = wt - w
    eig_lo, _ = denselin.sym_eigen(
        denselin.SymMatrix(0.5 * (lower_gap + lower_gap.T), loose)
    )
    return MixingReport(
        decentralized=decentralized,
        symmetric=symmetric,
        nullspace=nullspace,
        wt_positive_definite=lam_min_wt > tol,
        upper_ok=float(eig_up[0]) >= -tol,
        lower_ok=float(eig_lo[0]) >= -tol,
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
                        graph: NetworkGraph,
                        tol: float = DEFAULT.mixing_eigen) -> UVReport:
    """Evaluate the U/V conditions; failures are reported, never raised.
    Matrices that are not n x n raise DimensionMismatch."""
    u, v, dbar = _graph_matrices(graph, U=u, V=v, Dbar=dbar)
    nullspace = _nullspace_is_consensus(v, tol)
    off = dbar - np.diag(np.diag(dbar))
    gap = float(np.max(np.abs(v + u - 2.0 * dbar)))
    complementarity = (
        gap <= tol
        and float(np.max(np.abs(off))) <= tol
        and bool(np.all(np.diag(dbar) > tol))
    )
    distributable = _respects_graph(u, graph, tol) and _respects_graph(v, graph, tol)
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
