import numpy as np
import pytest
from numpy.testing import assert_allclose

from deconopt import netgraph, objective
from deconopt.errors import DimensionMismatch, NotStronglyConvex, NoUniqueMinimizer
from deconopt.objective import (
    AffineQuadratic,
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
        x = local_subproblem_ex(comp, np.zeros(1), 1.0, 0.0, np.zeros(1))[0]
        assert_allclose(x, [1.0])  # (h^2 + a) x = h y

    def test_pure_proximal_identity(self):
        comp = zero_component(3)
        v = np.array([0.2, -0.4, 1.0])
        x = local_subproblem_ex(comp, np.zeros(3), 0.0, 1.0, v)[0]
        assert_allclose(x, v)

    def test_quadratic_stationarity(self):
        comp = zero_component(2)
        w = np.array([1.5, -2.5])
        x = local_subproblem_ex(comp, -w, 1.0, 0.0, np.zeros(2))[0]
        assert_allclose(x, w)

    def test_no_unique_minimizer(self):
        with pytest.raises(NoUniqueMinimizer):
            local_subproblem_ex(zero_component(2), np.zeros(2), 0.0, 0.0, np.zeros(2))

    def test_stationarity_for_every_call(self):
        rng = np.random.default_rng(5)
        comps = [
            RankOneLeastSquares(rng.standard_normal(2), 0.4),
            AffineQuadratic(_random_psd(rng, 2), rng.standard_normal(2)),
            logcosh_component(rng.standard_normal(2), -0.6),
        ]
        tol = 1e-11
        for comp in comps:
            for _ in range(25):
                c = rng.standard_normal(2)
                a = float(rng.uniform(0.1, 3.0))
                pi = float(rng.uniform(0.0, 2.0))
                x_prev = rng.standard_normal(2)
                x = local_subproblem_ex(comp, c, a, pi, x_prev, tol)[0]
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
        xe = local_subproblem_ex(exact, c, 0.7, 0.3, x_prev)[0]
        xn = local_subproblem_ex(wrapped, c, 0.7, 0.3, x_prev, tol=1e-12)[0]
        assert_allclose(xn, xe, atol=1e-9)


class TestEvalG:
    def setup_method(self):
        self.graph = netgraph.build_graph(3, [(1, 2), (2, 3)], 1)
        self.zero = [zero_component(1) for _ in range(3)]

    def test_consensual_penalty_vanishes(self):
        comps = [RankOneLeastSquares([1.0], float(y)) for y in (0, 1, 2)]
        x = np.array([0.4, 0.4, 0.4])
        g = objective.eval_g(comps, self.graph, rho=3.0, eta=0.25, x=x)
        assert g == pytest.approx(objective.sum_value(comps, x))

    def test_path3_value(self):
        g = objective.eval_g(self.zero, self.graph, rho=2.0, eta=0.5,
                             x=np.array([1.0, 0.0, 0.0]))
        assert g == pytest.approx(0.5)  # (2 * 0.5 / 4) * ||E_o x||^2 = 0.25 * 2

    def test_dominates_f(self):
        rng = np.random.default_rng(19)
        comps = [RankOneLeastSquares(rng.standard_normal(1), 0.0) for _ in range(3)]
        for _ in range(50):
            x = rng.standard_normal(3)
            assert objective.eval_g(comps, self.graph, 1.0, 0.5, x) >= \
                objective.sum_value(comps, x) - 1e-15

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            objective.eval_g(self.zero, self.graph, 1.0, 0.5, np.zeros(4))


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
    x = objective.minimize_composite(comps, lin, quad, np.zeros(6), tol=1e-12)
    grad = objective.sum_gradient(comps, x) + lin + quad @ x
    assert np.linalg.norm(grad) <= 1e-11


def _random_psd(rng, order):
    a = rng.standard_normal((order, order))
    return a @ a.T / order
