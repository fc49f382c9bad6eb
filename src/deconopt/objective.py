"""Per-agent convex components and their proximal subproblems.

Three component kinds are supported: affine-quadratic (0.5 x'Qx + b'x),
rank-one least squares (0.5 (h'x - y)^2), and a smooth convex callback with a
user-supplied gradient Lipschitz modulus. The local subproblem

    argmin_x  f_i(x) + c'x + (a/2)||x||^2 + (pi/2)||x - x_prev||^2

is solved in closed form for the quadratic kinds and by damped Newton with
Armijo backtracking for callbacks. A quadratic component keeps the inverse of
Q + sI (`denselin.spd_inverse`) for each shift s = a + pi it has been solved
with, so an agent whose weights stay fixed inverts its system once and each
local solve is one matmul. `quadratic_stack` gives the central engines every
agent's (Q, b) as one (n, p, p) stack, and `minimize_composite` is their
Newton path for the other kinds.

`sum_value` evaluates the separable sum at one stacked point or at every row
of a (rows, n*p) array in one pass; each component's `values` gives the same
bits as its `value`, row by row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import denselin
from .errors import (
    DimensionMismatch,
    NewtonStall,
    NonFinite,
    NotPositiveDefinite,
    NotStronglyConvex,
    NoUniqueMinimizer,
)
from .netgraph import NetworkGraph, arc_stack, laplacian
from .tolerances import DEFAULT, Tolerances


class ObjectiveComponent:
    """Base class: a convex, L-smooth function on R^p."""

    p: int
    lipschitz: float

    def value(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def values(self, xs: np.ndarray) -> np.ndarray:
        """`value` of each row of a (rows, p) array, as a (rows,) array."""
        return np.array([self.value(x) for x in xs], dtype=float)

    def grad(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def hess(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def quadratic_terms(self):
        """(Q, b) when the component is exactly 0.5 x'Qx + b'x + const, else None."""
        return None

    def shifted_inverse(self, shift: float) -> np.ndarray:
        """Inverse of Q + shift*I for a component with quadratic_terms.

        Computed by `denselin.spd_inverse` on the first request for each
        shift and kept with the component; a failed factorization is not
        kept, so it raises NotPositiveDefinite on every request.
        """
        inverses = vars(self).setdefault("_inverses", {})
        if shift not in inverses:
            inv = denselin.spd_inverse(self.quadratic_terms()[0] + shift * np.eye(self.p))
            inv.setflags(write=False)
            inverses[shift] = inv
        return inverses[shift]

    def _check_point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.p,):
            raise DimensionMismatch(f"expected point in R^{self.p}, got shape {x.shape}")
        if not np.all(np.isfinite(x)):
            raise NonFinite("evaluation point contains non-finite entries")
        return x

    def _check_rows(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.p:
            raise DimensionMismatch(f"expected rows of points in R^{self.p}, got shape {xs.shape}")
        if not np.all(np.isfinite(xs)):
            raise NonFinite("evaluation point contains non-finite entries")
        return xs


class AffineQuadratic(ObjectiveComponent):
    """f(x) = 0.5 x'Qx + b'x with symmetric PSD Q."""

    def __init__(self, q, b):
        q = denselin.SymMatrix(q).entries
        b = np.asarray(b, dtype=float)
        if b.shape != (q.shape[0],):
            raise DimensionMismatch("Q and b dimensions disagree")
        self.q = q
        self.b = b
        self.p = q.shape[0]
        eigvals, _ = denselin.sym_eigen(q)
        self.lipschitz = float(max(eigvals[-1], 0.0))

    def value(self, x):
        x = self._check_point(x)
        return float(0.5 * x @ (self.q @ x) + self.b @ x)

    def values(self, xs):
        # stacked matmul and vecdot accumulate like the BLAS products in value
        xs = self._check_rows(xs)
        qx = np.matmul(self.q, xs[:, :, None])[:, :, 0]
        return np.vecdot(0.5 * xs, qx) + np.vecdot(xs, self.b)

    def grad(self, x):
        x = self._check_point(x)
        return self.q @ x + self.b

    def hess(self, x):
        return self.q

    def quadratic_terms(self):
        return self.q, self.b


def zero_component(p: int) -> AffineQuadratic:
    """The identically-zero component (useful as a pure-proximal probe)."""
    return AffineQuadratic(np.zeros((p, p)), np.zeros(p))


class RankOneLeastSquares(ObjectiveComponent):
    """f(x) = 0.5 (h'x - y)^2; not strongly convex for p > 1."""

    def __init__(self, h, y: float):
        h = np.asarray(h, dtype=float)
        if h.ndim != 1:
            raise DimensionMismatch("h must be a vector")
        self.h = h
        self.y = float(y)
        self.p = h.shape[0]
        self.lipschitz = float(h @ h)
        self._terms = (np.outer(h, h), -self.y * h)

    def value(self, x):
        x = self._check_point(x)
        r = self.h @ x - self.y
        return float(0.5 * r * r)

    def values(self, xs):
        r = np.vecdot(self._check_rows(xs), self.h) - self.y
        return 0.5 * r * r

    def grad(self, x):
        x = self._check_point(x)
        return (self.h @ x - self.y) * self.h

    def hess(self, x):
        return np.outer(self.h, self.h)

    def quadratic_terms(self):
        return self._terms


class SmoothCallback(ObjectiveComponent):
    """Arbitrary smooth convex component; lipschitz must be user supplied."""

    def __init__(self, p: int, value_fn, grad_fn, hess_fn, lipschitz: float):
        self.p = int(p)
        self._value = value_fn
        self._grad = grad_fn
        self._hess = hess_fn
        self.lipschitz = float(lipschitz)

    def value(self, x):
        return float(self._value(self._check_point(x)))

    def grad(self, x):
        return np.asarray(self._grad(self._check_point(x)), dtype=float)

    def hess(self, x):
        return np.asarray(self._hess(self._check_point(x)), dtype=float)


@dataclass(frozen=True)
class SumProfile:
    """Curvature summary of the separable sum: strong convexity of the
    centralized objective and the worst per-component gradient Lipschitz
    modulus."""

    mu_sum: float
    lipschitz: float
    n: int
    p: int


def _newton_minimize(value_fn, grad_fn, hess_fn, x0, tol,
                     tolerances: Tolerances = DEFAULT) -> tuple[np.ndarray, int]:
    """Damped Newton with Armijo backtracking; returns (minimizer, iterations)."""
    x = np.array(x0, dtype=float)
    fx = value_fn(x)
    for it in range(tolerances.newton_max_iter):
        g = grad_fn(x)
        gnorm = np.linalg.norm(g)
        if gnorm <= tol:
            return x, it
        try:
            step = denselin.solve_spd(hess_fn(x), -g)
        except NotPositiveDefinite as exc:
            raise NoUniqueMinimizer("subproblem Hessian is not positive definite") from exc
        slope = float(g @ step)
        # the absolute term keeps the test meaningful once decreases fall
        # below floating-point resolution near the minimizer
        floor = 1e-15 * (1.0 + abs(fx))
        t = 1.0
        for _ in range(60):
            trial = x + t * step
            f_trial = value_fn(trial)
            if f_trial <= fx + tolerances.newton_armijo * t * slope + floor:
                break
            t *= 0.5
        else:
            raise NewtonStall(f"no sufficient decrease (gradient norm {gnorm:.3e})")
        x = x + t * step
        fx = f_trial
    g = grad_fn(x)
    if np.linalg.norm(g) <= tol:
        return x, tolerances.newton_max_iter
    raise NewtonStall(
        f"stationarity {np.linalg.norm(g):.3e} above tolerance {tol:.3e} "
        f"after {tolerances.newton_max_iter} iterations"
    )


def local_subproblem_ex(comp: ObjectiveComponent, c, a: float, pi: float,
                        x_prev, tol: float = DEFAULT.subproblem) -> tuple[np.ndarray, int]:
    """Solve the local proximal subproblem; also reports iteration count.

    Minimizes f_i(x) + c'x + (a/2)||x||^2 + (pi/2)||x - x_prev||^2. Closed
    form (the cached inverse of Q + (a+pi)I times the rhs) for quadratic
    kinds, damped Newton otherwise.
    """
    c = np.asarray(c, dtype=float)
    x_prev = np.asarray(x_prev, dtype=float)
    if c.shape != (comp.p,) or x_prev.shape != (comp.p,):
        raise DimensionMismatch("c and x_prev must live in R^p")
    if a < 0 or pi < 0:
        raise ValueError("quadratic weights a and pi must be nonnegative")

    terms = comp.quadratic_terms()
    if terms is not None:
        rhs = pi * x_prev - terms[1] - c
        try:
            return comp.shifted_inverse(a + pi) @ rhs, 1
        except NotPositiveDefinite as exc:
            raise NoUniqueMinimizer(
                "subproblem is not strongly convex (a + pi = 0 and singular Q)"
            ) from exc

    def value_fn(x):
        d = x - x_prev
        return comp.value(x) + c @ x + 0.5 * a * (x @ x) + 0.5 * pi * (d @ d)

    def grad_fn(x):
        return comp.grad(x) + c + a * x + pi * (x - x_prev)

    def hess_fn(x):
        return comp.hess(x) + (a + pi) * np.eye(comp.p)

    return _newton_minimize(value_fn, grad_fn, hess_fn, x_prev, tol)


# -- stacked helpers -----------------------------------------------------------

def _check_stacked(components, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    p = components[0].p
    if x.shape != (len(components) * p,):
        raise DimensionMismatch(
            f"expected stacked vector of length {len(components) * p}, got {x.shape}"
        )
    return x


def sum_value(components, x):
    """sum_i f_i(x_i) at a stacked point, or at each row of a (rows, n*p) array.

    A 1-D `x` gives a float, a 2-D one a (rows,) array. Agents are added in
    order, as the builtin sum adds them (np.sum would pair them up), so every
    row carries the bits of the per-point evaluation.
    """
    x = np.asarray(x, dtype=float)
    width = len(components) * components[0].p
    if x.ndim not in (1, 2) or x.shape[-1] != width:
        raise DimensionMismatch(
            f"expected stacked vectors of length {width}, got shape {x.shape}"
        )
    xs = x.reshape(-1, width)
    p = components[0].p
    total = np.zeros(len(xs))
    for i, comp in enumerate(components):
        total += comp.values(xs[:, i * p:(i + 1) * p])
    return float(total[0]) if x.ndim == 1 else total


def sum_gradient(components, x) -> np.ndarray:
    x = _check_stacked(components, x)
    p = components[0].p
    out = np.empty_like(x)
    for i, comp in enumerate(components):
        out[i * p:(i + 1) * p] = comp.grad(x[i * p:(i + 1) * p])
    return out


def quadratic_stack(components):
    """(Q, b) of every component stacked as (n, p, p) and (n, p) arrays when
    every component is quadratic, else None."""
    terms = [comp.quadratic_terms() for comp in components]
    if any(t is None for t in terms):
        return None
    return np.array([t[0] for t in terms]), np.array([t[1] for t in terms])


def minimize_composite(components, linear, quad, x0, tol: float = DEFAULT.central_solve):
    """argmin over stacked x of sum_i f_i(x_i) + linear'x + 0.5 x'(quad)x.

    `quad` is a dense PSD matrix on the stacked space. Solved by damped
    Newton from x0; the central engines invert the constant system of an
    all-quadratic instance themselves.
    """
    linear = np.asarray(linear, dtype=float)
    quad = np.asarray(quad, dtype=float)

    def value_fn(x):
        return sum_value(components, x) + linear @ x + 0.5 * x @ (quad @ x)

    def grad_fn(x):
        return sum_gradient(components, x) + linear + quad @ x

    p = components[0].p

    def hess_fn(x):
        h = np.array(quad)
        for i, comp in enumerate(components):
            sl = slice(i * p, (i + 1) * p)
            h[sl, sl] += comp.hess(x[sl])
        return h

    return _newton_minimize(value_fn, grad_fn, hess_fn, np.asarray(x0, dtype=float), tol)[0]


def minimize_sum(components, tol: float = DEFAULT.central_solve) -> np.ndarray:
    """Centralized minimizer of f_bar(v) = sum_i f_i(v) on R^p."""
    p = components[0].p
    qs = [comp.quadratic_terms() for comp in components]
    if all(t is not None for t in qs):
        q_sum = sum(t[0] for t in qs)
        b_sum = sum(t[1] for t in qs)
        return denselin.solve_spd(denselin.SymMatrix(q_sum), -b_sum)

    def value_fn(v):
        return float(sum(comp.value(v) for comp in components))

    def grad_fn(v):
        return sum(comp.grad(v) for comp in components)

    def hess_fn(v):
        return sum(comp.hess(v) for comp in components)

    return _newton_minimize(value_fn, grad_fn, hess_fn, np.zeros(p), tol)[0]


# -- the regularized objective g ------------------------------------------------

def _check_on_graph(components, graph: NetworkGraph, x) -> np.ndarray:
    """`_check_stacked`, and DimensionMismatch unless there is one component
    per agent of the graph."""
    if len(components) != graph.n:
        raise DimensionMismatch(
            f"{len(components)} components for a graph with {graph.n} agents"
        )
    return _check_stacked(components, x)


def eval_g(components, graph: NetworkGraph, rho: float, eta: float, x) -> float:
    """f(x) plus the consensus penalty rho(1-eta)/4 ||E_o x||^2."""
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    if not 0 < eta < 1:
        raise ValueError(f"eta must lie in (0,1), got {eta}")
    x = _check_on_graph(components, graph, x)
    penalty = float(np.linalg.norm(arc_stack(graph).e_o(x)) ** 2)
    return sum_value(components, x) + 0.25 * rho * (1.0 - eta) * penalty


def grad_g(components, graph: NetworkGraph, rho: float, eta: float, x) -> np.ndarray:
    x = _check_on_graph(components, graph, x)
    lap_x = (laplacian(graph) @ x.reshape(graph.n, -1)).ravel()
    return sum_gradient(components, x) + 0.5 * rho * (1.0 - eta) * lap_x


def sum_profile(components, graph: NetworkGraph,
                mu_sum: float | None = None) -> SumProfile:
    """Strong convexity of the sum and the max component Lipschitz modulus.

    mu_sum is computed exactly (smallest eigenvalue of the summed Hessian) for
    quadratic kinds and must be supplied for callback components. Raises
    NotStronglyConvex when the sum fails Assumption-level strong convexity.
    """
    p = components[0].p
    if len(components) != graph.n:
        raise DimensionMismatch(
            f"{len(components)} components for a graph with {graph.n} agents"
        )
    if any(comp.p != p for comp in components):
        raise DimensionMismatch("components disagree on block dimension")
    if mu_sum is None:
        terms = [comp.quadratic_terms() for comp in components]
        if any(t is None for t in terms):
            raise ValueError("mu_sum must be supplied for callback components")
        q_sum = sum(t[0] for t in terms)
        eigvals, _ = denselin.sym_eigen(q_sum)
        mu_sum = float(eigvals[0])
    if mu_sum <= 1e-12:
        raise NotStronglyConvex(
            f"summed objective is not strongly convex (mu = {mu_sum:.3e})"
        )
    lipschitz = max(comp.lipschitz for comp in components)
    return SumProfile(mu_sum=mu_sum, lipschitz=lipschitz, n=graph.n, p=p)
