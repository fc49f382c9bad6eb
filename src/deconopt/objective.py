"""Per-agent convex components and their proximal subproblems.

Three component kinds are supported: affine-quadratic (0.5 x'Qx + b'x),
rank-one least squares (0.5 (h'x - y)^2), and a smooth convex callback with a
user-supplied gradient Lipschitz modulus. Every agent's local subproblem

    argmin_x  f_i(x) + c_i'x + (a_i/2)||x||^2 + (pi_i/2)||x - x_prev_i||^2

is solved for all agents of a round by one `ProximalRows.solve` call on
(n, p) rows. A `ProximalRows` fixes the weights and inverts the quadratic
rows' systems Q_i + (a_i + pi_i) I once into one stack over all rows, zero
for callbacks, so a round is one stacked matmul into a new array
(`apply_rows`); damped Newton with Armijo backtracking then overwrites the
callback rows of that array. That one solve
serves the simulated network, through its checked wrapper
`local_subproblem_ex`, and the three central engines whose agents decouple
(`dadmm-matrix`, `full-admm`, `mm-approx`), which call it directly on rows
they have checked. Only the exact method of multipliers couples the agents:
it takes every (Q, b) from `quadratic_stack` into one dense system, and
`minimize_composite` is its Newton path for the other kinds.

Every pass over the sum reads one stacked view of the component list
(`stacked`), built in one pass over it: the rank-one agents as rows h (k, p)
and y (k,), the affine-quadratic agents as Q (k, p, p) and b (k, p), and the
callback agents as a list of indices, whose own methods evaluate them one
agent at a time. Agents are classed by type: a component is rank-one or
affine-quadratic when it is an instance of that class, and a callback
otherwise. `sum_value`, `sum_gradient`, `minimize_sum`, `sum_profile`,
`quadratic_stack` and the `ProximalRows` set-up each make a few numpy passes
over the view, with each kind's arithmetic of its per-agent methods, where
they would otherwise make one call per agent. Sums over the agents add them
in index order, as the builtin sum adds them (`_in_order`; numpy's sum
along a contiguous axis pairs them up), so `sum_value` at every row of a
(rows, n*p) array, taken `_ROW_BLOCK` rows at a time, carries the bits of
the per-agent evaluation of each row. Each of them, and `ProximalRows`,
takes a component list or its view and reuses a view, so a run builds one.

Newton's thresholds are constants: `SUBPROBLEM_TOL`, the stationarity of a
local subproblem, `CENTRAL_SOLVE_TOL`, that of the central solves, the
Armijo constant `NEWTON_ARMIJO` and the iteration cap `NEWTON_MAX_ITER`.
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
from .netgraph import _ROW_BLOCK, NetworkGraph

# per-agent subproblem stationarity norm; contraction verification needs
# iterates accurate well below the per-step contraction margin
SUBPROBLEM_TOL = 1e-11
# stationarity of the central solves (reference solution, exact method of
# multipliers)
CENTRAL_SOLVE_TOL = 1e-12
NEWTON_ARMIJO = 1e-4
NEWTON_MAX_ITER = 200


class ObjectiveComponent:
    """Base class: a convex, L-smooth function on R^p."""

    p: int
    lipschitz: float

    def value(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def grad(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def hess(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _check(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.p,):
            raise DimensionMismatch(f"expected points in R^{self.p}, got shape {x.shape}")
        _check_finite(x)
        return x


class AffineQuadratic(ObjectiveComponent):
    """f(x) = 0.5 x'Qx + b'x with symmetric PSD Q."""

    def __init__(self, q, b):
        q = denselin.symmetric(q)
        b = np.asarray(b, dtype=float)
        if b.shape != (q.shape[0],):
            raise DimensionMismatch("Q and b dimensions disagree")
        self.q = q
        self.b = b
        self.p = q.shape[0]
        self.lipschitz = float(max(denselin.sym_eigen(q)[-1], 0.0))

    def value(self, x):
        x = self._check(x)
        return float(0.5 * x @ (self.q @ x) + self.b @ x)

    def grad(self, x):
        x = self._check(x)
        return self.q @ x + self.b

    def hess(self, x):
        return self.q


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

    def value(self, x):
        x = self._check(x)
        r = self.h @ x - self.y
        return float(0.5 * r * r)

    def grad(self, x):
        x = self._check(x)
        return (self.h @ x - self.y) * self.h

    def hess(self, x):
        return np.outer(self.h, self.h)


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


def _agent_index(agents, n: int):
    """Index of the listed agents' rows: a slice when they are all n agents,
    so that indexing makes a view, not a copy."""
    return slice(None) if len(agents) == n else np.array(agents, dtype=np.intp)


class _Stacked:
    """A component list's agents by kind, from one pass over it: the rank-one
    agents' `h` (k, p) and `y` (k,) at rows `rank_one`, the affine-quadratic
    agents' `q` (k, p, p) and `b` (k, p) at rows `quadratic`, both kinds'
    rows as `closed`, the callback agents' indices and the largest Lipschitz
    modulus. Agents are classed by type; DimensionMismatch unless every
    component has the first one's p. Callback agents are evaluated by their
    own methods, one call per agent."""

    def __init__(self, components):
        self.components = components
        self.n, self.p = n, p = len(components), components[0].p
        rank_one, h, y, quadratic, q, b, lipschitz = [], [], [], [], [], [], []
        self.callbacks = []
        for i, comp in enumerate(components):
            if comp.p != p:
                raise DimensionMismatch("components disagree on block dimension")
            lipschitz.append(comp.lipschitz)
            if isinstance(comp, RankOneLeastSquares):
                rank_one.append(i)
                h.append(comp.h)
                y.append(comp.y)
            elif isinstance(comp, AffineQuadratic):
                quadratic.append(i)
                q.append(comp.q)
                b.append(comp.b)
            else:
                self.callbacks.append(i)
        self.h, self.y = np.array(h).reshape(-1, p), np.array(y)
        self.q, self.b = np.array(q).reshape(-1, p, p), np.array(b).reshape(-1, p)
        self.rank_one, self.quadratic = _agent_index(rank_one, n), _agent_index(quadratic, n)
        self.closed = _agent_index(sorted(rank_one + quadratic), n)
        self.lipschitz = max(lipschitz)

    def values(self, xs: np.ndarray) -> np.ndarray:
        """Every agent's value at each row of a (rows, n p) array, as (n, rows):
        per kind, the arithmetic of its `value` (stacked matmul and vecdot
        accumulate like its BLAS products)."""
        _check_finite(xs)
        x = xs.reshape(len(xs), self.n, self.p)
        out = np.empty((self.n, len(xs)))
        if len(self.h):
            r = np.vecdot(x[:, self.rank_one], self.h)
            r -= self.y
            half = 0.5 * r
            half *= r
            out[self.rank_one] = half.T
        if len(self.q):
            xq = x[:, self.quadratic]
            qx = np.matmul(self.q, xq[..., None])[..., 0]
            out[self.quadratic] = (np.vecdot(0.5 * xq, qx) + np.vecdot(xq, self.b)).T
        for i in self.callbacks:
            out[i] = [self.components[i].value(row) for row in x[:, i]]
        return out

    def grads(self, x: np.ndarray) -> np.ndarray:
        """Every agent's gradient at its row of an (n, p) array, as (n, p):
        per kind, the arithmetic of its `grad`."""
        _check_finite(x)
        out = np.empty((self.n, self.p))
        if len(self.h):
            r = np.vecdot(x[self.rank_one], self.h) - self.y
            out[self.rank_one] = r[:, None] * self.h
        if len(self.q):
            out[self.quadratic] = (np.matmul(self.q, x[self.quadratic][..., None])[..., 0]
                                   + self.b)
        for i in self.callbacks:
            out[i] = self.components[i].grad(x[i])
        return out

    def terms(self) -> tuple[np.ndarray, np.ndarray]:
        """Every agent's (Q, b) with f_i(x) = 0.5 x'Qx + b'x + const, stacked
        as (n, p, p) and (n, p): (h h', -y h) for the rank-one agents, zero
        rows for the callback agents."""
        q, b = np.zeros((self.n, self.p, self.p)), np.zeros((self.n, self.p))
        q[self.rank_one] = self.h[:, :, None] * self.h[:, None, :]
        b[self.rank_one] = -self.y[:, None] * self.h
        q[self.quadratic], b[self.quadratic] = self.q, self.b
        return q, b


def _in_order(rows: np.ndarray) -> np.ndarray:
    """rows[0] + rows[1] + ... added in agent order, as the builtin sum adds
    them. np.add.reduce over the first axis of a C-ordered array adds row
    after row, but numpy folds rows of one element into a single axis and
    sums that pairwise, so those are accumulated. The final + 0.0 turns a
    -0.0 total into the 0.0 that the builtin sum's start of 0 gives."""
    rows = np.ascontiguousarray(rows)
    if rows[0].size == 1:
        return np.add.accumulate(rows)[-1] + 0.0
    return np.add.reduce(rows) + 0.0


def _check_finite(x: np.ndarray) -> None:
    if not np.all(np.isfinite(x)):
        raise NonFinite("evaluation point contains non-finite entries")


@dataclass(frozen=True)
class SumProfile:
    """Curvature summary of the separable sum of n components: strong
    convexity of the centralized objective and the worst per-component
    gradient Lipschitz modulus."""

    mu_sum: float
    lipschitz: float
    n: int


def _newton_minimize(value_fn, grad_fn, hess_fn, x0, tol) -> tuple[np.ndarray, int]:
    """Damped Newton with Armijo backtracking; returns (minimizer, iterations)."""
    x = np.array(x0, dtype=float)
    fx = value_fn(x)
    for it in range(NEWTON_MAX_ITER):
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
            if f_trial <= fx + NEWTON_ARMIJO * t * slope + floor:
                break
            t *= 0.5
        else:
            raise NewtonStall(f"no sufficient decrease (gradient norm {gnorm:.3e})")
        x = x + t * step
        fx = f_trial
    g = grad_fn(x)
    if np.linalg.norm(g) <= tol:
        return x, NEWTON_MAX_ITER
    raise NewtonStall(
        f"stationarity {np.linalg.norm(g):.3e} above tolerance {tol:.3e} "
        f"after {NEWTON_MAX_ITER} iterations"
    )


def proximal_inverse(q: np.ndarray, shift) -> np.ndarray:
    """Inverses of Q_i + diag(shift_i), shift broadcast to (n, p), for an
    (n, p, p) stack of Q_i: one `denselin.spd_inverse` call, so one singular
    system raises NotPositiveDefinite. For p = 1 the (n, 1) column of them."""
    n, p = q.shape[:2]
    inverse = denselin.spd_inverse(q + np.broadcast_to(shift, (n, p))[:, :, None] * np.eye(p))
    return inverse[:, :, 0] if p == 1 else inverse


def apply_rows(inverse: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """inverse_i @ rows_i for each of (n, p) rows, as a new array; for p = 1
    a product (same bits)."""
    if inverse.ndim == 2:
        return inverse * rows
    return np.matmul(inverse, rows[:, :, None])[:, :, 0]


class ProximalRows:
    """n agents' local subproblems with fixed finite weights a_i, pi_i >= 0
    (else ValueError), agent i in row i - 1 of the components' view. `inverse`
    stacks every row: the quadratic rows' (Q_i + (a_i + pi_i) I)^-1 from one
    `proximal_inverse` call (a singular one raises NoUniqueMinimizer), zero
    blocks and zero `b` rows for the callbacks, whose rows Newton solves to
    stationarity `SUBPROBLEM_TOL`. `pi_rows` repeats pi along the p columns
    (a broadcast multiply is slower), `shape` is the (n, p) of the rows and
    `closed_iters` the iteration counts of a round with no callback."""

    def __init__(self, components, a, pi):
        stack = stacked(components)
        n, p = stack.n, stack.p
        self.components = stack.components
        self.a, self.pi = np.asarray(a, dtype=float), np.asarray(pi, dtype=float)
        if self.a.shape != (n,) or self.pi.shape != self.a.shape:
            raise ValueError(f"one component per agent required, got {n}")
        weights = np.concatenate((self.a, self.pi))
        if not np.all((weights >= 0) & (weights < np.inf)):
            raise ValueError("quadratic weights a and pi must be finite and nonnegative")
        self.shape = (n, p)
        self.closed_iters = (1,) * n
        self.callbacks = stack.callbacks
        self.pi_rows = self.pi[:, None].repeat(p, axis=1)
        q, self.b = stack.terms()
        self.inverse = np.zeros((n, 1) if p == 1 else (n, p, p))
        if len(self.callbacks) < n:
            closed = stack.closed
            try:
                self.inverse[closed] = proximal_inverse(
                    q[closed], (self.a + self.pi)[closed][:, None])
            except NotPositiveDefinite as exc:
                raise NoUniqueMinimizer(
                    "subproblem is not strongly convex: some Q_i + (a_i + pi_i) I "
                    "is not positive definite"
                ) from exc

    def solve(self, c: np.ndarray, x_prev: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
        """Every agent's local subproblem of one round, and each row's
        iteration count. Row i of the (n, p) result, a new array, minimizes
        f_i(x) + c_i'x + (a_i/2)||x||^2 + (pi_i/2)||x - x_prev_i||^2: every
        row in one pass of the kept inverse stack on pi_i x_prev_i - b_i -
        c_i, then the callback rows overwritten by Newton. c and x_prev are
        (n, p) float arrays, unchecked."""
        x_new = apply_rows(self.inverse, self.pi_rows * x_prev - self.b - c)
        if not self.callbacks:
            return x_new, self.closed_iters
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

            x_new[i], iters[i] = _newton_minimize(value_fn, grad_fn, hess_fn, x_i, SUBPROBLEM_TOL)
        return x_new, tuple(iters)


def local_subproblem_ex(rows: ProximalRows, c, x_prev) -> tuple[np.ndarray, tuple[int, ...]]:
    """`rows.solve` on c and x_prev as float arrays; raises DimensionMismatch
    unless each is (n, p) rows. The simulated network's round calls it."""
    c, x_prev = np.asarray(c, dtype=float), np.asarray(x_prev, dtype=float)
    if c.shape != rows.shape or x_prev.shape != rows.shape:
        raise DimensionMismatch(f"c and x_prev must be {rows.shape} rows")
    return rows.solve(c, x_prev)


# -- stacked helpers -----------------------------------------------------------

def stacked(components) -> _Stacked:
    """The stacked view of a component list; a view passes through, so a
    caller making several passes over one list builds it once."""
    return components if isinstance(components, _Stacked) else _Stacked(components)


def _check_stacked(stack: _Stacked, x, ndims=(1,)) -> np.ndarray:
    """x as floats, of a dimension in `ndims`, with rows of n p entries."""
    x = np.asarray(x, dtype=float)
    width = stack.n * stack.p
    if x.ndim not in ndims or x.shape[-1] != width:
        raise DimensionMismatch(
            f"expected stacked vectors of length {width}, got shape {x.shape}"
        )
    return x


def sum_value(components, x):
    """sum_i f_i(x_i) at a stacked point, or at each row of a (rows, n*p) array.

    A 1-D `x` gives a float, a 2-D one a (rows,) array. Rows are evaluated
    `_ROW_BLOCK` at a time, each kind of agent in one pass, and agents are
    added in order, as the builtin sum adds them, so every row carries the
    bits of the per-point evaluation.
    """
    stack = stacked(components)
    x = _check_stacked(stack, x, (1, 2))
    xs = x.reshape(-1, x.shape[-1])
    total = np.empty(len(xs))
    for start in range(0, len(xs), _ROW_BLOCK):
        block = slice(start, start + _ROW_BLOCK)
        total[block] = _in_order(stack.values(xs[block]))
    return float(total[0]) if x.ndim == 1 else total


def sum_gradient(components, x) -> np.ndarray:
    """The stacked gradient (grad f_i(x_i))_i, each kind of agent in one pass."""
    stack = stacked(components)
    x = _check_stacked(stack, x)
    return stack.grads(x.reshape(stack.n, stack.p)).ravel()


def quadratic_stack(components):
    """(Q, b) of every component stacked as (n, p, p) and (n, p) arrays when
    every component is quadratic, else None."""
    stack = stacked(components)
    return None if stack.callbacks else stack.terms()


def minimize_composite(components, linear, quad, x0):
    """argmin over stacked x of sum_i f_i(x_i) + linear'x + 0.5 x'(quad)x.

    `quad` is a dense PSD matrix on the stacked space. Solved by damped
    Newton from x0; `solvers.ExactMMEngine` inverts the constant system of an
    all-quadratic instance itself.
    """
    stack = stacked(components)
    linear = np.asarray(linear, dtype=float)
    quad = np.asarray(quad, dtype=float)
    n, p = stack.n, stack.p
    blocks = stack.terms()[0]
    agents = np.arange(n)

    def value_fn(x):
        return sum_value(stack, x) + linear @ x + 0.5 * x @ (quad @ x)

    def grad_fn(x):
        return sum_gradient(stack, x) + linear + quad @ x

    def hess_fn(x):
        for i in stack.callbacks:
            blocks[i] = stack.components[i].hess(x[i * p:(i + 1) * p])
        h = np.array(quad)
        h.reshape(n, p, n, p)[agents, :, agents, :] += blocks
        return h

    return _newton_minimize(value_fn, grad_fn, hess_fn, np.asarray(x0, dtype=float),
                            CENTRAL_SOLVE_TOL)[0]


def minimize_sum(components) -> np.ndarray:
    """Centralized minimizer of f_bar(v) = sum_i f_i(v) on R^p."""
    stack = stacked(components)
    q, b = stack.terms()
    if not stack.callbacks:
        return denselin.solve_spd(denselin.symmetric(_in_order(q)), -_in_order(b))
    n = stack.n

    def value_fn(v):
        return float(_in_order(stack.values(np.tile(v, (1, n)))[:, 0]))

    def grad_fn(v):
        return _in_order(stack.grads(np.tile(v, (n, 1))))

    def hess_fn(v):
        hess = q.copy()
        for i in stack.callbacks:
            hess[i] = stack.components[i].hess(v)
        return _in_order(hess)

    return _newton_minimize(value_fn, grad_fn, hess_fn, np.zeros(stack.p),
                            CENTRAL_SOLVE_TOL)[0]


# -- curvature profile of the sum ------------------------------------------------

def sum_profile(components, graph: NetworkGraph,
                mu_sum: float | None = None) -> SumProfile:
    """Strong convexity of the sum and the max component Lipschitz modulus.

    mu_sum is computed exactly (smallest eigenvalue of the summed Hessian) for
    quadratic kinds and must be supplied for callback components. Raises
    NotStronglyConvex when the sum fails Assumption-level strong convexity.
    """
    stack = stacked(components)
    if stack.n != graph.n:
        raise DimensionMismatch(
            f"{stack.n} components for a graph with {graph.n} agents"
        )
    if mu_sum is None:
        if stack.callbacks:
            raise ValueError("mu_sum must be supplied for callback components")
        q, _ = stack.terms()
        eigvals = denselin.sym_eigen(_in_order(q))
        mu_sum = float(eigvals[0])
    if mu_sum <= 1e-12:
        raise NotStronglyConvex(
            f"summed objective is not strongly convex (mu = {mu_sum:.3e})"
        )
    return SumProfile(mu_sum=mu_sum, lipschitz=stack.lipschitz, n=graph.n)
