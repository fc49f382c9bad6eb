import numpy as np
import pytest
from numpy.testing import assert_allclose

import dense_ref
from deconopt import denselin, netgraph, objective
from deconopt.errors import (
    DimensionMismatch,
    NonFinite,
    NotStronglyConvex,
    NoUniqueMinimizer,
)
from deconopt.objective import (
    AffineQuadratic,
    ObjectiveComponent,
    ProximalRows,
    RankOneLeastSquares,
    SmoothCallback,
    local_subproblem_ex,
    zero_component,
)


def logcosh_component(a, b):
    """f(x) = log cosh(a'x - b); smooth convex with L = ||a||^2."""
    a = np.asarray(a, dtype=float)
    return SmoothCallback(
        p=a.shape[0],
        value_fn=lambda x: float(np.logaddexp(a @ x - b, -(a @ x - b)) - np.log(2.0)),
        grad_fn=lambda x: np.tanh(a @ x - b) * a,
        hess_fn=lambda x: (1.0 - np.tanh(a @ x - b) ** 2) * np.outer(a, a),
        lipschitz=float(a @ a),
    )


def _subproblem_residual(comp, x, c, a, pi, x_prev):
    return np.linalg.norm(comp.grad(x) + c + a * x + pi * (x - x_prev))


def solve_one(comp, c, a, pi, x_prev):
    """One agent's subproblem as a one-row stack: (minimizer, iterations)."""
    x, iters = local_subproblem_ex(ProximalRows([comp], [a], [pi]),
                                   np.asarray(c)[None], np.asarray(x_prev)[None])
    return x[0], iters[0]


class TestGrad:
    def test_rank_one(self):
        comp = RankOneLeastSquares([1.0, 0.0], 0.0)
        assert_allclose(comp.grad([2.0, 3.0]), [2.0, 0.0])

    def test_zero_at_minimizer(self):
        comp = RankOneLeastSquares([2.0, -1.0], 3.0)
        # any x with h'x = y is a minimizer
        x = np.array([1.5, 0.0])
        assert_allclose(comp.grad(x), 0.0, atol=1e-10)
        quad = AffineQuadratic([[2.0, 0.0], [0.0, 1.0]], [-2.0, 1.0])
        xstar = np.array([1.0, -1.0])
        assert_allclose(quad.grad(xstar), 0.0, atol=1e-10)

    def test_identity_quadratic(self):
        comp = AffineQuadratic(np.eye(2), np.zeros(2))
        x = np.array([0.3, -0.7])
        assert_allclose(comp.grad(x), x)

    def test_nonfinite_rejected(self):
        from deconopt.errors import NonFinite
        comp = RankOneLeastSquares([1.0], 0.0)
        with pytest.raises(NonFinite):
            comp.grad([np.inf])

    def test_finite_difference_all_kinds(self):
        rng = np.random.default_rng(17)
        comps = [
            RankOneLeastSquares(rng.standard_normal(3), 0.7),
            AffineQuadratic(_random_psd(rng, 3), rng.standard_normal(3)),
            logcosh_component(rng.standard_normal(3), 0.2),
        ]
        h = 1e-6
        for comp in comps:
            for _ in range(10):
                x = rng.standard_normal(3)
                g = comp.grad(x)
                fd = np.zeros(3)
                for d in range(3):
                    e = np.zeros(3)
                    e[d] = h
                    fd[d] = (comp.value(x + e) - comp.value(x - e)) / (2 * h)
                assert_allclose(fd, g, rtol=1e-5, atol=1e-5)

    def test_lipschitz_and_convexity_invariants(self):
        rng = np.random.default_rng(23)
        comps = [
            RankOneLeastSquares(rng.standard_normal(4), -0.3),
            AffineQuadratic(_random_psd(rng, 4), rng.standard_normal(4)),
            logcosh_component(rng.standard_normal(4), 1.1),
        ]
        for comp in comps:
            for _ in range(50):
                a = rng.standard_normal(4)
                b = rng.standard_normal(4)
                dg = comp.grad(a) - comp.grad(b)
                assert np.linalg.norm(dg) <= comp.lipschitz * np.linalg.norm(a - b) * (1 + 1e-8)
                assert dg @ (a - b) >= -1e-10


class TestLocalSubproblem:
    def test_rank_one_scalar(self):
        comp = RankOneLeastSquares([1.0], 2.0)
        x = solve_one(comp, np.zeros(1), 1.0, 0.0, np.zeros(1))[0]
        assert_allclose(x, [1.0])  # (h^2 + a) x = h y

    def test_pure_proximal_identity(self):
        comp = zero_component(3)
        v = np.array([0.2, -0.4, 1.0])
        x = solve_one(comp, np.zeros(3), 0.0, 1.0, v)[0]
        assert_allclose(x, v)

    def test_quadratic_stationarity(self):
        comp = zero_component(2)
        w = np.array([1.5, -2.5])
        x = solve_one(comp, -w, 1.0, 0.0, np.zeros(2))[0]
        assert_allclose(x, w)

    def test_no_unique_minimizer(self):
        with pytest.raises(NoUniqueMinimizer):
            solve_one(zero_component(2), np.zeros(2), 0.0, 0.0, np.zeros(2))

    def test_stationarity_for_every_call(self):
        rng = np.random.default_rng(5)
        comps = [
            RankOneLeastSquares(rng.standard_normal(2), 0.4),
            AffineQuadratic(_random_psd(rng, 2), rng.standard_normal(2)),
            logcosh_component(rng.standard_normal(2), -0.6),
        ]
        tol = objective.SUBPROBLEM_TOL
        for comp in comps:
            for _ in range(25):
                c = rng.standard_normal(2)
                a = float(rng.uniform(0.1, 3.0))
                pi = float(rng.uniform(0.0, 2.0))
                x_prev = rng.standard_normal(2)
                x = solve_one(comp, c, a, pi, x_prev)[0]
                assert _subproblem_residual(comp, x, c, a, pi, x_prev) <= tol * 10

    def test_newton_matches_closed_form(self):
        # a quadratic wrapped as a callback must agree with the closed form
        rng = np.random.default_rng(8)
        q = _random_psd(rng, 3)
        b = rng.standard_normal(3)
        exact = AffineQuadratic(q, b)
        wrapped = SmoothCallback(
            p=3,
            value_fn=lambda x: 0.5 * x @ (q @ x) + b @ x,
            grad_fn=lambda x: q @ x + b,
            hess_fn=lambda x: q,
            lipschitz=exact.lipschitz,
        )
        c = rng.standard_normal(3)
        x_prev = rng.standard_normal(3)
        xe = solve_one(exact, c, 0.7, 0.3, x_prev)[0]
        xn = solve_one(wrapped, c, 0.7, 0.3, x_prev)[0]
        assert_allclose(xn, xe, atol=1e-9)

    def test_mixed_rows(self):
        # quadratic rows are the per-row closed form bit for bit, one
        # iteration each; callback rows run Newton to the tolerance
        rng = np.random.default_rng(9)
        comps = [
            RankOneLeastSquares(rng.standard_normal(2), 0.4),
            logcosh_component(rng.standard_normal(2), 0.3),
            AffineQuadratic(_random_psd(rng, 2), rng.standard_normal(2)),
            logcosh_component(rng.standard_normal(2), -0.5),
        ]
        a = rng.uniform(0.1, 3.0, 4)
        pi = rng.uniform(0.0, 2.0, 4)
        tol = objective.SUBPROBLEM_TOL
        rows = ProximalRows(comps, a, pi)
        for _ in range(10):
            c = rng.standard_normal((4, 2))
            x_prev = rng.standard_normal((4, 2))
            x, iters = local_subproblem_ex(rows, c, x_prev)
            for i, comp in enumerate(comps):
                terms = dense_ref.terms(comp)
                if terms is None:
                    assert _subproblem_residual(comp, x[i], c[i], a[i], pi[i],
                                                x_prev[i]) <= tol
                    continue
                inv = denselin.spd_inverse(terms[0] + (a[i] + pi[i]) * np.eye(2))
                assert np.array_equal(x[i], inv @ (pi[i] * x_prev[i] - terms[1] - c[i]))
                assert iters[i] == 1
            assert all(isinstance(it, int) for it in iters)

    def test_row_shapes_checked(self):
        rows = ProximalRows([zero_component(2)] * 3, np.ones(3), np.zeros(3))
        for c, x_prev in ((np.zeros((3, 3)), np.zeros((3, 2))),
                          (np.zeros((3, 2)), np.zeros(6)),
                          (np.zeros((2, 2)), np.zeros((2, 2)))):
            with pytest.raises(DimensionMismatch):
                local_subproblem_ex(rows, c, x_prev)
        with pytest.raises(ValueError, match="one component per agent"):
            ProximalRows([zero_component(2)] * 3, np.ones(2), np.zeros(2))

    @pytest.mark.parametrize("bad", [-1.0, np.inf, np.nan])
    def test_weights_must_be_finite_and_nonnegative(self, bad):
        comps = [RankOneLeastSquares(np.ones(2), 0.5)] * 3
        for a, pi in (([1.0, bad, 1.0], np.zeros(3)), (np.ones(3), [0.0, 0.0, bad])):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                ProximalRows(comps, a, pi)


class TestEvalG:
    def setup_method(self):
        self.graph = netgraph.build_graph(3, [(1, 2), (2, 3)], 1)
        self.zero = [zero_component(1) for _ in range(3)]

    def test_consensual_penalty_vanishes(self):
        comps = [RankOneLeastSquares([1.0], float(y)) for y in (0, 1, 2)]
        x = np.array([0.4, 0.4, 0.4])
        g = dense_ref.eval_g(comps, self.graph, rho=3.0, eta=0.25, x=x)
        assert g == pytest.approx(objective.sum_value(comps, x))

    def test_path3_value(self):
        g = dense_ref.eval_g(self.zero, self.graph, rho=2.0, eta=0.5,
                             x=np.array([1.0, 0.0, 0.0]))
        assert g == pytest.approx(0.5)  # (2 * 0.5 / 4) * ||E_o x||^2 = 0.25 * 2

    def test_dominates_f(self):
        rng = np.random.default_rng(19)
        comps = [RankOneLeastSquares(rng.standard_normal(1), 0.0) for _ in range(3)]
        for _ in range(50):
            x = rng.standard_normal(3)
            assert dense_ref.eval_g(comps, self.graph, 1.0, 0.5, x) >= \
                objective.sum_value(comps, x) - 1e-15


class TestSumProfile:
    def test_two_scalar_rows(self):
        g = netgraph.build_graph(2, [(1, 2)], 1)
        comps = [RankOneLeastSquares([1.0], 0.3), RankOneLeastSquares([1.0], -2.0)]
        prof = objective.sum_profile(comps, g)
        assert prof.mu_sum == pytest.approx(2.0)
        assert prof.lipschitz == pytest.approx(1.0)

    def test_nonstrong_components_strong_sum(self):
        g = netgraph.build_graph(2, [(1, 2)], 2)
        comps = [RankOneLeastSquares([1.0, 0.0], 0.0),
                 RankOneLeastSquares([0.0, 1.0], 0.0)]
        for comp in comps:
            hess = comp.hess(np.zeros(2))
            eigs = np.linalg.eigvalsh(hess)
            assert eigs[0] == pytest.approx(0.0, abs=1e-14)
        prof = objective.sum_profile(comps, g)
        assert prof.mu_sum == pytest.approx(1.0)

    def test_rank_deficient_sum_rejected(self):
        g = netgraph.build_graph(2, [(1, 2)], 2)
        comps = [RankOneLeastSquares([1.0, 0.0], 0.0),
                 RankOneLeastSquares([1.0, 0.0], 1.0)]
        with pytest.raises(NotStronglyConvex):
            objective.sum_profile(comps, g)

    def test_callback_requires_mu(self):
        g = netgraph.build_graph(2, [(1, 2)], 1)
        comps = [logcosh_component([1.0], 0.0), logcosh_component([1.0], 1.0)]
        with pytest.raises(ValueError):
            objective.sum_profile(comps, g)
        prof = objective.sum_profile(comps, g, mu_sum=0.5)
        assert prof.mu_sum == 0.5


class UserQuadratic(ObjectiveComponent):
    """0.5 x'Qx + b'x written as a user subclass: quadratic, yet none of
    the package's three kinds."""

    def __init__(self, q, b):
        self.q, self.b = np.asarray(q, dtype=float), np.asarray(b, dtype=float)
        self.p = self.b.shape[0]
        self.lipschitz = float(np.linalg.eigvalsh(self.q)[-1])

    def value(self, x):
        return float(0.5 * x @ (self.q @ x) + self.b @ x)

    def grad(self, x):
        return self.q @ x + self.b

    def hess(self, x):
        return self.q


class TestClassificationByType:
    """Agents are classed by type: only instances of `RankOneLeastSquares`
    and `AffineQuadratic` are closed-form rows, so any other subclass is a
    callback, whatever its arithmetic."""

    def test_user_subclass_is_a_callback(self):
        rng = np.random.default_rng(90)
        user = UserQuadratic(_random_psd(rng, 2) + np.eye(2), rng.standard_normal(2))
        comps = [RankOneLeastSquares(rng.standard_normal(2), 0.2), user,
                 AffineQuadratic(_random_psd(rng, 2), rng.standard_normal(2))]
        a, pi = rng.uniform(0.5, 2.0, 3), rng.uniform(0.0, 1.0, 3)
        rows = ProximalRows(comps, a, pi)
        assert rows.callbacks == [1]
        for _ in range(5):
            c, x_prev = rng.standard_normal((3, 2)), rng.standard_normal((3, 2))
            x = local_subproblem_ex(rows, c, x_prev)[0]
            assert _subproblem_residual(user, x[1], c[1], a[1], pi[1],
                                        x_prev[1]) <= objective.SUBPROBLEM_TOL
        g = netgraph.build_graph(3, [(1, 2), (2, 3)], 2)
        with pytest.raises(ValueError, match="mu_sum must be supplied"):
            objective.sum_profile(comps, g)


def test_minimize_sum_least_squares():
    # centralized minimizer equals the normal-equation solution
    rng = np.random.default_rng(33)
    rows = rng.standard_normal((6, 3))
    ys = rng.standard_normal(6)
    comps = [RankOneLeastSquares(rows[i], float(ys[i])) for i in range(6)]
    xbar = objective.minimize_sum(comps)
    assert_allclose(rows.T @ rows @ xbar, rows.T @ ys, atol=1e-10)


def test_minimize_composite_newton_path():
    rng = np.random.default_rng(41)
    comps = [logcosh_component(rng.standard_normal(2), 0.1) for _ in range(3)]
    quad = np.eye(6)
    lin = rng.standard_normal(6)
    x = objective.minimize_composite(comps, lin, quad, np.zeros(6))
    grad = objective.sum_gradient(comps, x) + lin + quad @ x
    assert np.linalg.norm(grad) <= 1e-11


def _random_psd(rng, order):
    a = rng.standard_normal((order, order))
    return a @ a.T / order


def _builtin_sum_value(components, x):
    """The per-point form of sum_value: the builtin sum over agents."""
    p = components[0].p
    return sum(comp.value(x[i * p:(i + 1) * p]) for i, comp in enumerate(components))


def _mixed_components(rng, n, p):
    comps = []
    for i in range(n):
        if i % 3 == 0:
            comps.append(RankOneLeastSquares(rng.standard_normal(p), rng.standard_normal()))
        elif i % 3 == 1:
            comps.append(AffineQuadratic(_random_psd(rng, p), rng.standard_normal(p)))
        else:
            comps.append(logcosh_component(rng.standard_normal(p), rng.standard_normal()))
    return comps


class TestBatchedValues:
    @pytest.mark.parametrize("p", [1, 3])
    def test_sum_value_rows_match_builtin_sum(self, p):
        rng = np.random.default_rng(50 + p)
        comps = _mixed_components(rng, 7, p)
        xs = rng.standard_normal((25, 7 * p))
        got = objective.sum_value(comps, xs)
        assert got.shape == (25,)
        assert np.array_equal(got, [_builtin_sum_value(comps, x) for x in xs])
        one = objective.sum_value(comps, xs[3])
        assert isinstance(one, float)
        assert one == got[3]

    @pytest.mark.parametrize("p", [1, 3])
    def test_stacked_sums_match_per_agent_calls(self, p):
        # ten agents, so numpy's eight-element pairwise blocks would show in
        # the sums; trace rows past one row block
        rng = np.random.default_rng(70 + p)
        comps = _mixed_components(rng, 10, p)
        xs = rng.standard_normal((objective._ROW_BLOCK + 5, 10 * p))
        got = objective.sum_value(comps, xs)
        assert np.array_equal(got, [_builtin_sum_value(comps, x) for x in xs])
        # one point at a time: a 1-D point and a single (1, n p) row
        assert [objective.sum_value(comps, x) for x in xs[:30]] == got[:30].tolist()
        assert np.array_equal([objective.sum_value(comps, xs[k:k + 1])[0] for k in range(30)],
                              got[:30])
        grad = np.concatenate([comp.grad(xs[7, i * p:(i + 1) * p])
                               for i, comp in enumerate(comps)])
        assert np.array_equal(objective.sum_gradient(comps, xs[7]), grad)

    def test_stacked_terms_match_per_agent_terms(self):
        rng = np.random.default_rng(75)
        comps = _mixed_components(rng, 10, 3)[:2] * 5
        terms = [dense_ref.terms(comp) for comp in comps]
        q, b = objective.quadratic_stack(comps)
        assert np.array_equal(q, [t[0] for t in terms])
        assert np.array_equal(b, [t[1] for t in terms])
        q_sum, b_sum = sum(t[0] for t in terms), sum(t[1] for t in terms)
        assert np.array_equal(objective.minimize_sum(comps),
                              denselin.solve_spd(q_sum, -b_sum))
        assert objective.quadratic_stack(_mixed_components(rng, 3, 3)) is None

    def test_sum_value_errors(self):
        comps = [RankOneLeastSquares([1.0, 2.0], 0.5) for _ in range(3)]
        for shape in ((5,), (4, 5), (2, 2, 6)):
            with pytest.raises(DimensionMismatch):
                objective.sum_value(comps, np.zeros(shape))
        callbacks = [logcosh_component([1.0, 2.0], 0.0)] * 3
        for bad in (np.nan, np.inf):
            xs = np.zeros((4, 6))
            xs[2, 4] = bad
            for kinds in (comps, callbacks):
                with pytest.raises(NonFinite):
                    objective.sum_value(kinds, xs)

    def test_minimize_sum_rejects_non_finite_rows(self):
        # the closed form checks the summed system before it solves it
        comps = [RankOneLeastSquares([np.nan, 1.0], 0.0), RankOneLeastSquares([1.0, 0.0], 1.0)]
        with pytest.raises(NonFinite):
            objective.minimize_sum(comps)


class TestProximalRows:
    """Set-up inverts every quadratic row's system in one stacked call; the
    solves then apply the kept stack."""

    def count_inverses(self, monkeypatch):
        calls = []
        real = denselin.spd_inverse
        monkeypatch.setattr(denselin, "spd_inverse", lambda a: calls.append(1) or real(a))
        return calls

    @pytest.mark.parametrize("p", [1, 3])
    def test_one_inverse_matches_fresh_per_row(self, monkeypatch, p):
        fresh = denselin.spd_inverse
        calls = self.count_inverses(monkeypatch)
        rng = np.random.default_rng(61)
        comps = [RankOneLeastSquares(rng.standard_normal(p), 0.3),
                 AffineQuadratic(_random_psd(rng, p), rng.standard_normal(p))] * 3
        weights = [
            # rows share shifts, and each still gets its own block of the stack
            (np.array([2.0, 1.0, 2.0, 1.0, 2.5, 0.5]),
             np.array([0.5, 0.0, 0.5, 0.0, 0.0, 0.5])),
            # the central engines' weightings: D-ADMM's (rho d_i, pi_i), and
            # the approximated method of multipliers' (0, rho (d_i + eps pi_i))
            (rng.uniform(1.0, 3.0, 6), np.full(6, 0.1)),
            (np.zeros(6), rng.uniform(1.0, 3.0, 6)),
        ]
        for a, pi in weights:
            calls.clear()
            rows = ProximalRows(comps, a, pi)
            assert len(calls) == 1
            for _ in range(5):
                c = rng.standard_normal((6, p))
                x_prev = rng.standard_normal((6, p))
                got, iters = local_subproblem_ex(rows, c, x_prev)
                assert iters == (1,) * 6
                for i, comp in enumerate(comps):
                    q, b = dense_ref.terms(comp)
                    inv = fresh(q + (a[i] + pi[i]) * np.eye(p))
                    assert np.array_equal(got[i], inv @ (pi[i] * x_prev[i] - b - c[i]))
            assert len(calls) == 1

    @pytest.mark.parametrize("p", [1, 3])
    def test_stack_matches_per_agent_terms(self, p):
        # rank-one, affine-quadratic and callback rows: the closed rows'
        # terms inverted in one call, in agent order, zero callback rows
        rng = np.random.default_rng(64 + p)
        comps = _mixed_components(rng, 10, p)
        a, pi = rng.uniform(0.5, 2.0, 10), rng.uniform(0.0, 1.0, 10)
        rows = ProximalRows(comps, a, pi)
        terms = [dense_ref.terms(comp) for comp in comps]
        closed = [i for i, t in enumerate(terms) if t is not None]
        want_b = np.zeros((10, p))
        want_b[closed] = [terms[i][1] for i in closed]
        want_inverse = np.zeros_like(rows.inverse)
        want_inverse[closed] = objective.proximal_inverse(
            np.array([terms[i][0] for i in closed]), (a + pi)[closed][:, None])
        assert rows.callbacks == [i for i, t in enumerate(terms) if t is None]
        assert np.array_equal(rows.b, want_b)
        assert np.array_equal(rows.inverse, want_inverse)

    def test_singular_shift_raises_every_time(self, monkeypatch):
        comp = RankOneLeastSquares([1.0, 0.0], 0.0)
        before = dict(vars(comp))
        calls = self.count_inverses(monkeypatch)
        for _ in range(2):
            with pytest.raises(NoUniqueMinimizer):
                ProximalRows([zero_component(2), comp], [1.0, 0.0], [0.0, 0.0])
        assert len(calls) == 2
        assert vars(comp) == before

    def test_negative_weights_rejected(self):
        comps = [zero_component(2), logcosh_component([1.0, 2.0], 0.0)]
        for a, pi in (([1.0, -0.1], [0.0, 0.0]), ([1.0, 1.0], [-1e-3, 0.0])):
            with pytest.raises(ValueError, match="nonnegative"):
                ProximalRows(comps, a, pi)

    def test_callback_rows_only(self, monkeypatch):
        calls = self.count_inverses(monkeypatch)
        comp = logcosh_component([1.0, -2.0], 0.1)
        rows = ProximalRows([comp, comp], [1.0, 0.5], [0.1, 0.0])
        # nothing is inverted: the stack is all zero blocks, for Newton to overwrite
        assert not calls and not rows.inverse.any()
        x, iters = local_subproblem_ex(rows, np.ones((2, 2)), np.zeros((2, 2)))
        for i in range(2):
            assert _subproblem_residual(comp, x[i], np.ones(2), rows.a[i], rows.pi[i],
                                        np.zeros(2)) <= 1e-11
            assert iters[i] >= 1

    def test_p1_product_matches_stacked_matmul(self):
        rng = np.random.default_rng(63)
        q = rng.uniform(0.0, 2.0, (50, 1, 1))
        shift = rng.uniform(0.1, 1.0, (50, 1))
        inverse = objective.proximal_inverse(q, shift)
        assert inverse.shape == (50, 1)
        rows = rng.standard_normal((50, 1))
        stacked = np.matmul(denselin.spd_inverse(q + shift[:, :, None]), rows[:, :, None])
        assert np.array_equal(objective.apply_rows(inverse, rows), stacked[:, :, 0])

