import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import dense_ref
from deconopt import denselin, harness, netgraph
from deconopt.errors import (
    AllZero,
    DeconoptError,
    DimensionMismatch,
    Inconsistent,
    IndefiniteInput,
    NonFinite,
    NotPositiveDefinite,
)

PATH3_L = np.array([[2, -2, 0], [-2, 4, -2], [0, -2, 2]], dtype=float)


def jacobi_eigenvalues(a, sweep_tol=1e-14, max_sweeps=100):
    """Reference eigenvalues (ascending) by cyclic Jacobi rotations.

    Sweeps until the off-diagonal Frobenius norm drops below
    sweep_tol * ||A||_F; every rotation zeroes one off-diagonal pair exactly.
    """
    work = np.array(a, dtype=float)
    n = work.shape[0]
    target = sweep_tol * math.sqrt(float(np.sum(work * work)))

    def offdiag_norm(m):
        off = m - np.diag(np.diag(m))
        return math.sqrt(float(np.sum(off * off)))

    for _ in range(max_sweeps):
        if offdiag_norm(work) <= target:
            return np.sort(np.diag(work))
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = work[p, q]
                if apq == 0.0:
                    continue
                app, aqq = work[p, p], work[q, q]
                theta = (aqq - app) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(1.0 + theta * theta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                col_p, col_q = work[:, p].copy(), work[:, q].copy()
                work[:, p] = c * col_p - s * col_q
                work[:, q] = s * col_p + c * col_q
                row_p, row_q = work[p, :].copy(), work[q, :].copy()
                work[p, :] = c * row_p - s * row_q
                work[q, :] = s * row_p + c * row_q
                work[p, p] = app - t * apq
                work[q, q] = aqq + t * apq
                work[p, q] = work[q, p] = 0.0
    raise RuntimeError("reference Jacobi did not converge")


def ring_chord_bases(n, seed):
    """Laplacian and M base (rho = 1, pi = 0.1) of a ring-plus-chords graph."""
    graph, _ = harness.scenario_least_squares(n, 1, seed)
    lap = netgraph.laplacian(graph)
    m_base = 0.5 * (2.0 * np.diag(netgraph.degrees(graph)) + 2.0 * 0.1 * np.eye(n) - lap)
    return lap, m_base


def _cubic_roots_by_bisection(coeffs, lo=-100.0, hi=100.0):
    """Roots of a cubic with three real roots, via sign-change bisection."""
    poly = np.poly1d(coeffs)
    xs = np.linspace(lo, hi, 400001)
    vals = poly(xs)
    roots = []
    for i in range(len(xs) - 1):
        a, b = vals[i], vals[i + 1]
        if a == 0.0:
            roots.append(xs[i])
        elif a * b < 0:
            left, right = xs[i], xs[i + 1]
            for _ in range(200):
                mid = 0.5 * (left + right)
                if poly(left) * poly(mid) <= 0:
                    right = mid
                else:
                    left = mid
            roots.append(0.5 * (left + right))
    return sorted(roots)


class TestSymEigen:
    def test_diagonal(self):
        w = denselin.sym_eigen(np.diag([3.0, 1.0, 2.0]))
        assert_allclose(w, [1.0, 2.0, 3.0])

    def test_path3_laplacian_spectrum(self):
        # independent oracle: characteristic polynomial of the 3x3 Laplacian
        # det(L - t I) expanded by hand gives -t^3 + 8t^2 - 12t
        roots = _cubic_roots_by_bisection([-1.0, 8.0, -12.0, 0.0])
        assert_allclose(roots, [0.0, 2.0, 6.0], atol=1e-8)
        w = denselin.sym_eigen(PATH3_L)
        assert_allclose(w, [0.0, 2.0, 6.0], atol=1e-10)

    def test_identity(self):
        w = denselin.sym_eigen(np.eye(4))
        assert_allclose(w, np.ones(4))

    def test_reconstruction_random(self):
        # known-spectrum oracle: A = Q diag(lam) Q' with Q orthogonal from the
        # QR of a Gaussian matrix has the eigenvalues lam
        rng = np.random.default_rng(42)
        for _ in range(200):
            order = int(rng.integers(1, 31))
            q, _ = np.linalg.qr(rng.standard_normal((order, order)))
            lam = rng.standard_normal(order)
            a = (q * lam) @ q.T
            w = denselin.sym_eigen(a)
            scale = max(np.linalg.norm(a), 1e-12)
            assert np.max(np.abs(w - np.sort(lam))) <= 1e-9 * scale
            assert np.all(np.diff(w) >= -1e-12)

    @pytest.mark.parametrize("n,seed", [(5, 1), (12, 2), (30, 3)])
    def test_graph_matrices_match_jacobi_reference(self, n, seed):
        for base in ring_chord_bases(n, seed):
            w = denselin.sym_eigen(base)
            tol = 1e-12 * np.linalg.norm(base)
            assert np.max(np.abs(w - jacobi_eigenvalues(base))) <= tol

    def test_random_matrices_match_jacobi_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            order = int(rng.integers(1, 13))
            a = rng.standard_normal((order, order))
            a = 0.5 * (a + a.T)
            w = denselin.sym_eigen(a)
            ref = jacobi_eigenvalues(a)
            assert np.max(np.abs(w - ref)) <= 1e-12 * np.linalg.norm(a)

    def test_lapack_failure_maps_to_package_error(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(DeconoptError) as info:
            denselin.sym_eigen(np.eye(2))
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFinite):
            denselin.symmetric([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(NonFinite):
            denselin.sym_eigen([[np.inf, 0.0], [0.0, 1.0]])

    def test_asymmetry_rejected(self):
        with pytest.raises(DimensionMismatch):
            denselin.symmetric([[1.0, 2.0], [0.0, 1.0]])


def smallest_nonzero_of(a):
    return denselin.smallest_nonzero(denselin.sym_eigen(a))


class TestSmallestNonzero:
    def test_path3(self):
        assert_allclose(smallest_nonzero_of(PATH3_L), 2.0)

    def test_identity(self):
        assert smallest_nonzero_of(np.eye(3)) == pytest.approx(1.0)

    def test_zero_matrix(self):
        with pytest.raises(AllZero):
            smallest_nonzero_of(np.zeros((2, 2)))

    def test_indefinite(self):
        with pytest.raises(IndefiniteInput):
            smallest_nonzero_of(np.diag([-1.0, 2.0]))


class TestSolveSpd:
    def test_identity(self):
        b = np.array([1.0, -2.0, 0.5])
        assert_allclose(denselin.solve_spd(np.eye(3), b), b)

    def test_diagonal(self):
        assert_allclose(
            denselin.solve_spd(np.diag([2.0, 4.0]), [2.0, 4.0]),
            [1.0, 1.0],
        )

    def test_random_spd_roundtrip(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((5, 5))
        a = a @ a.T + 5 * np.eye(5)
        x = rng.standard_normal(5)
        sol = denselin.solve_spd(a, a @ x)
        assert_allclose(sol, x, atol=1e-9)

    def test_residual_contract(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            order = int(rng.integers(2, 12))
            a = rng.standard_normal((order, order))
            a = a @ a.T + order * np.eye(order)
            b = rng.standard_normal(order)
            x = denselin.solve_spd(a, b)
            bound = 1e-10 * (np.linalg.norm(a) * np.linalg.norm(x) + np.linalg.norm(b))
            assert np.linalg.norm(a @ x - b) <= bound

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            denselin.solve_spd(np.diag([1.0, 0.0]), [1.0, 1.0])
        with pytest.raises(NotPositiveDefinite):
            denselin.solve_spd(np.diag([1.0, -3.0]), [1.0, 1.0])

    def test_indefinite_factor_and_inverse(self):
        indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
        for fn in (denselin.spd_factor, denselin.spd_inverse):
            with pytest.raises(NotPositiveDefinite) as info:
                fn(indefinite)
            assert isinstance(info.value.__cause__, np.linalg.LinAlgError)

    def test_spd_inverse(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((6, 6))
        a = a @ a.T + 6 * np.eye(6)
        inv = denselin.spd_inverse(a)
        assert_allclose(inv @ a, np.eye(6), atol=1e-10)

    @pytest.mark.parametrize("order", [1, 3, 10])
    def test_spd_inverse_stack_matches_each_block(self, order):
        rng = np.random.default_rng(14 + order)
        a = rng.standard_normal((20, order, order))
        stack = a @ a.mT + 0.5 * np.eye(order)
        inv = denselin.spd_inverse(stack)
        assert inv.shape == stack.shape
        for block, block_inv in zip(stack, inv):
            assert np.array_equal(block_inv, denselin.spd_inverse(block))

    def test_spd_inverse_stack_with_singular_block(self):
        stack = np.array([np.eye(2), np.diag([1.0, 0.0]), 2.0 * np.eye(2)])
        with pytest.raises(NotPositiveDefinite):
            denselin.spd_inverse(stack)


class TestMinNormSolve:
    # oriented incidence of the single-edge two-agent graph
    E_O = np.array([[1.0, -1.0], [-1.0, 1.0]])

    def solve(self, c):
        return dense_ref.min_norm_solver(self.E_O)(c)

    def test_zero_rhs(self):
        assert_allclose(self.solve(np.zeros(2)), np.zeros(2))

    def test_single_edge_min_norm(self):
        # minimize ||a|| s.t. a1 - a2 = 1: the answer is (1/2, -1/2)
        alpha = self.solve(np.array([1.0, -1.0]))
        assert_allclose(alpha, [0.5, -0.5], atol=1e-12)

    def test_consensual_rhs_inconsistent(self):
        with pytest.raises(Inconsistent):
            self.solve(np.ones(2))
        # the graph-level solver of the same graph refuses it too
        graph = netgraph.build_graph(2, [(1, 2)], 3)
        with pytest.raises(Inconsistent):
            netgraph.e_o_min_norm_solver(graph)(np.ones(6))

    def test_orthogonal_to_transpose_nullspace(self):
        # null(B^T) for B = E_O is spanned by (1, 1)
        rng = np.random.default_rng(3)
        for _ in range(20):
            w = rng.standard_normal(2)
            c = self.E_O.T @ w
            alpha = self.solve(c)
            assert abs(alpha @ np.ones(2)) <= 1e-10

    def test_reusable_solver(self):
        solver = dense_ref.min_norm_solver(self.E_O)
        a1 = solver(np.array([1.0, -1.0]))
        a2 = solver(np.array([-2.0, 2.0]))
        assert_allclose(a1, [0.5, -0.5], atol=1e-12)
        assert_allclose(a2, [-1.0, 1.0], atol=1e-12)

    def test_nonfinite_rhs_inconsistent(self):
        # the range test reads "not resid <= tol": a NaN rhs makes both NaN,
        # which `resid > tol` would let through as a NaN multiplier
        ring4 = netgraph.build_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)], 1)
        with pytest.raises(Inconsistent, match="residual nan"):
            netgraph.e_o_min_norm_solver(ring4)(np.array([1.0, -1.0, np.nan, 0.0]))

    def test_nonfinite_matrix_rejected(self):
        with pytest.raises(NonFinite):
            dense_ref.min_norm_solver([[1.0, np.nan], [-1.0, 1.0]])
        # a non-finite Gram matrix is refused before it is factored
        gram = np.array([[1.0, np.inf], [np.inf, 1.0]])
        with pytest.raises(NonFinite):
            denselin.MinNormTransposeSolver(gram, lambda y: y, lambda a: a)

    @pytest.mark.parametrize("n,seed", [(6, 4), (15, 5)])
    def test_graph_level_solve_equals_kronecker_lift(self, n, seed):
        graph, _ = harness.scenario_least_squares(n, 1, seed)
        graph = netgraph.build_graph(n, graph.edges, 3)
        base = dense_ref.incidence_bases(graph)[0]
        lift = dense_ref.lift(base, 3)
        graph_level = netgraph.e_o_min_norm_solver(graph)
        lifted = dense_ref.min_norm_solver(base, 3)
        pinv = np.linalg.pinv(lift)
        inverse = denselin.spd_inverse(netgraph.laplacian(graph) + 1.0 / n)
        rng = np.random.default_rng(seed)
        for _ in range(5):
            c = lift.T @ rng.standard_normal(graph.m * 3)
            alpha = graph_level(c)
            assert np.max(np.abs(alpha - lifted(c))) <= 1e-12
            assert np.max(np.abs(alpha - pinv.T @ c)) <= 1e-12
            # the gather forms E_o y with the rounding of the dense product
            want = (base @ (inverse @ c.reshape(n, 3))).ravel()
            assert np.array_equal(alpha, want)
        # a consensual rhs is orthogonal to range(E_o^T)
        for solver in (graph_level, lifted):
            with pytest.raises(Inconsistent):
                solver(np.ones(n * 3))
        with pytest.raises(DimensionMismatch):
            graph_level(np.ones(n))
