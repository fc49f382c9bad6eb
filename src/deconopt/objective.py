"""Per-agent convex components and their proximal subproblems.

Three component kinds are supported: affine-quadratic (0.5 x'Qx + b'x),
rank-one least squares (0.5 (h'x - y)^2), and a smooth convex callback with a
user-supplied gradient Lipschitz modulus. Every agent's local subproblem

    argmin_x  f_i(x) + c_i'x + (a_i/2)||x||^2 + (pi_i/2)||x - x_prev_i||^2

is solved for all agents of a round by one `ProximalRows.solve` call on
(n, p) rows. A `ProximalRows` fixes the weights and inverts the quadratic
rows' systems Q_i + (a_i + pi_i) I once into one stack over all rows, zero
for callbacks, so a round is one stacked matmul (`apply_rows`); damped Newton
with Armijo backtracking then overwrites the callback rows. That one solve
serves the simulated network, through its checked wrapper
`local_subproblem_ex`, and the three central engines whose agents decouple
(`dadmm-matrix`, `full-admm`, `mm-approx`), which call it directly on rows
they have checked. Only the exact method of multipliers couples the agents:
it takes every (Q, b) from `quadratic_stack` into one dense system, and
`minimize_composite` is its Newton path for the other kinds.

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

    def _check(self, x, ndim: int = 1) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != ndim or x.shape[-1] != self.p:
            raise DimensionMismatch(f"expected points in R^{self.p}, got shape {x.shape}")
        if not np.all(np.isfinite(x)):
            raise NonFinite("evaluation point contains non-finite entries")
        return x


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
        x = self._check(x)
        return float(0.5 * x @ (self.q @ x) + self.b @ x)

    def values(self, xs):
        # stacked matmul and vecdot accumulate like the BLAS products in value
        xs = self._check(xs, 2)
        qx = np.matmul(self.q, xs[:, :, None])[:, :, 0]
        return np.vecdot(0.5 * xs, qx) + np.vecdot(xs, self.b)

    def grad(self, x):
        x = self._check(x)
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
        x = self._check(x)
        r = self.h @ x - self.y
        return float(0.5 * r * r)

    def values(self, xs):
        r = np.vecdot(self._check(xs, 2), self.h) - self.y
        return 0.5 * r * r

    def grad(self, x):
        x = self._check(x)
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
        return float(self._value(self._check(x)))

    def grad(self, x):
        return np.asarray(self._grad(self._check(x)), dtype=float)

    def hess(self, x):
        return np.asarray(self._hess(self._check(x)), dtype=float)


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


def proximal_inverse(q: np.ndarray, shift) -> np.ndarray:
    """Inverses of Q_i + diag(shift_i), shift broadcast to (n, p), for an
    (n, p, p) stack of Q_i: one `denselin.spd_inverse` call, so one singular
    system raises NotPositiveDefinite. For p = 1 the (n, 1) column of them."""
    n, p = q.shape[:2]
    inverse = denselin.spd_inverse(q + np.broadcast_to(shift, (n, p))[:, :, None] * np.eye(p))
    return inverse[:, :, 0] if p == 1 else inverse


def apply_rows(inverse: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """inverse_i @ rows_i for each of (n, p) rows; for p = 1 a product (same bits)."""
    if inverse.ndim == 2:
        return inverse * rows
    return np.matmul(inverse, rows[:, :, None])[:, :, 0]


class ProximalRows:
    """n agents' local subproblems with fixed weights a_i, pi_i >= 0 (else
    ValueError) and Newton tolerance, agent i in row i - 1. `inverse` stacks
    every row: the quadratic rows' (Q_i + (a_i + pi_i) I)^-1 from one
    `proximal_inverse` call (a singular one raises NoUniqueMinimizer), zero
    blocks and zero `b` rows for the callbacks. `pi_rows` repeats pi along
    the p columns (a broadcast multiply is slower), `shape` is the (n, p) of
    the rows and `closed_iters` the iteration counts of a round with no
    callback."""

    def __init__(self, components, a, pi, tol: float = DEFAULT.subproblem):
        self.components = list(components)
        self.a, self.pi = np.asarray(a, dtype=float), np.asarray(pi, dtype=float)
        self.tol = tol
        if self.a.shape != (len(self.components),) or self.pi.shape != self.a.shape:
            raise ValueError(f"one component per agent required, got {len(self.components)}")
        if np.any(self.a < 0) or np.any(self.pi < 0):
            raise ValueError("quadratic weights a and pi must be nonnegative")
        n, p = len(self.components), self.components[0].p
        self.shape = (n, p)
        self.closed_iters = (1,) * n
        terms = [comp.quadratic_terms() for comp in self.components]
        quadratic = [i for i, t in enumerate(terms) if t is not None]
        self.callbacks = [i for i, t in enumerate(terms) if t is None]
        self.pi_rows = self.pi[:, None].repeat(p, axis=1)
        self.b = np.zeros((n, p))
        self.inverse = np.zeros((n, 1) if p == 1 else (n, p, p))
        if quadratic:
            self.b[quadratic] = [terms[i][1] for i in quadratic]
            shift = (self.a + self.pi)[quadratic][:, None]
            try:
                self.inverse[quadratic] = proximal_inverse(
                    np.array([terms[i][0] for i in quadratic]), shift)
            except NotPositiveDefinite as exc:
                raise NoUniqueMinimizer(
                    "subproblem is not strongly convex: some Q_i + (a_i + pi_i) I "
                    "is not positive definite"
                ) from exc

    def solve(self, c: np.ndarray, x_prev: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
        """Every agent's local subproblem of one round, and each row's
        iteration count. Row i of the (n, p) result minimizes f_i(x) + c_i'x
        + (a_i/2)||x||^2 + (pi_i/2)||x - x_prev_i||^2: every row in one pass
        of the kept inverse stack on pi_i x_prev_i - b_i - c_i, then the
        callback rows overwritten by Newton. c and x_prev are (n, p) float
        arrays, unchecked."""
        out = apply_rows(self.inverse, self.pi_rows * x_prev - self.b - c)
        if not self.callbacks:
            return out, self.closed_iters
        iters = list(self.closed_iters)
        for i in self.callbacks:
            comp, c_i, x_i, a, pi = self.components[i], c[i], x_prev[i], self.a[i], self.pi[i]

            def value_fn(x):
                d = x - x_i
                return comp.value(x) + c_i @ x + 0.5 * a * (x @ x) + 0.5 * pi * (d @ d)

            def grad_fn(x):
                return comp.grad(x) + c_i + a * x + pi * (x - x_i)

            def hess_fn(x):
                return comp.hess(x) + (a + pi) * np.eye(comp.p)

            out[i], iters[i] = _newton_minimize(value_fn, grad_fn, hess_fn, x_i, self.tol)
        return out, tuple(iters)


def local_subproblem_ex(rows: ProximalRows, c, x_prev) -> tuple[np.ndarray, tuple[int, ...]]:
    """`rows.solve` on c and x_prev as float arrays; raises DimensionMismatch
    unless both are (n, p) rows. The simulated network's round calls it."""
    c, x_prev = np.asarray(c, dtype=float), np.asarray(x_prev, dtype=float)
    if c.shape != rows.shape or x_prev.shape != rows.shape:
        raise DimensionMismatch(f"c and x_prev must be {rows.shape} rows")
    return rows.solve(c, x_prev)


# -- stacked helpers -----------------------------------------------------------

def _check_stacked(components, x, ndims=(1,)) -> np.ndarray:
    """x as floats, of a dimension in `ndims`, with rows of n p entries."""
    x = np.asarray(x, dtype=float)
    width = len(components) * components[0].p
    if x.ndim not in ndims or x.shape[-1] != width:
        raise DimensionMismatch(
            f"expected stacked vectors of length {width}, got shape {x.shape}"
        )
    return x


def sum_value(components, x):
    """sum_i f_i(x_i) at a stacked point, or at each row of a (rows, n*p) array.

    A 1-D `x` gives a float, a 2-D one a (rows,) array. Agents are added in
    order, as the builtin sum adds them (np.sum would pair them up), so every
    row carries the bits of the per-point evaluation.
    """
    x = _check_stacked(components, x, (1, 2))
    p = components[0].p
    xs = x.reshape(-1, len(components) * p)
    total = np.zeros(len(xs))
    for i, comp in enumerate(components):
        total += comp.values(xs[:, i * p:(i + 1) * p])
    return float(total[0]) if x.ndim == 1 else total


def sum_gradient(components, x) -> np.ndarray:
    blocks = _check_stacked(components, x).reshape(len(components), -1)
    return np.concatenate([comp.grad(x_i) for comp, x_i in zip(components, blocks)])


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
    Newton from x0; `solvers.ExactMMEngine` inverts the constant system of an
    all-quadratic instance itself.
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

def _check_on_graph(components, graph: NetworkGraph, x=None):
    """DimensionMismatch unless there is one component per agent of the
    graph; then `_check_stacked` on x, when given."""
    if len(components) != graph.n:
        raise DimensionMismatch(
            f"{len(components)} components for a graph with {graph.n} agents"
        )
    return None if x is None else _check_stacked(components, x)


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
    _check_on_graph(components, graph)
    p = components[0].p
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
