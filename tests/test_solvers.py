import numpy as np
import pytest
from numpy.testing import assert_allclose

import dense_ref
from deconopt import analysis, denselin, harness, netgraph, objective, solvers
from deconopt.errors import (
    ConditionViolation,
    DeconoptError,
    DimensionMismatch,
    NoUniqueMinimizer,
)
from deconopt.objective import AffineQuadratic, RankOneLeastSquares, zero_component
from deconopt.solvers import AdmmParams, PextraParams


def single_edge_instance():
    """Two agents, one edge, f1 = x^2/2, f2 = (x-2)^2/2; optimum at 1."""
    g = netgraph.build_graph(2, [(1, 2)], 1)
    comps = [AffineQuadratic([[1.0]], [0.0]), AffineQuadratic([[1.0]], [-2.0])]
    return g, comps


def random_instance(seed, n=None, p=None):
    rng = np.random.default_rng(seed)
    n = n or int(rng.integers(3, 8))
    p = p or int(rng.integers(1, 4))
    n = max(n, p)
    return harness.scenario_least_squares(n, p, int(rng.integers(0, 2**31)))


def max_theorem2_xi(graph, rho):
    dmax = float(netgraph.degrees(graph).max())
    return 1.0 / (rho * dmax)


class TestAdmmParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdmmParams(rho=0.0, eta=0.5)
        with pytest.raises(ValueError):
            AdmmParams(rho=1.0, eta=1.62)
        with pytest.raises(ValueError):
            AdmmParams(rho=1.0, eta=0.0)
        AdmmParams(rho=1.0, eta=1.618)  # inside the admissible range

    def test_indefinite_pi_rejected(self):
        params = AdmmParams(rho=1.0, eta=0.5, pi=-0.1)
        with pytest.raises(ValueError):
            params.pi_vector(3)


class TestDadmmInit:
    def test_zero_mode(self):
        g, _ = single_edge_instance()
        st = solvers.dadmm_init(g)
        assert_allclose(st.phi, 0.0)
        assert_allclose(st.alpha, 0.0)

    def test_explicit_alpha0(self):
        graph, _ = random_instance(1)
        alpha0 = np.random.default_rng(3).standard_normal(graph.m * graph.p)
        st = solvers.dadmm_init(graph, alpha0=alpha0)
        assert np.array_equal(st.alpha, alpha0) and st.alpha is not alpha0
        e_o = dense_ref.lifted_incidence(graph)[0]
        assert_allclose(st.phi, e_o.T @ alpha0, rtol=0, atol=1e-12)



class TestDadmmStep:
    def test_hand_computed_first_step(self):
        g, comps = single_edge_instance()
        engine = solvers.DadmmEngine(g, comps, AdmmParams(rho=1.0, eta=0.5))
        st = engine.step(engine.init())
        # stationarity per agent: x + 2x = 0 and (x - 2) + 2x = 0
        assert_allclose(st.x, [0.0, 2.0 / 3.0])
        assert_allclose(st.phi, [-1.0 / 3.0, 1.0 / 3.0])

    def test_optimum_is_fixed_point(self):
        graph, comps = random_instance(4)
        params = AdmmParams(rho=1.3, eta=0.6, pi=0.2)
        ref = analysis.reference_solution(graph, comps, params.eta)
        engine = solvers.DadmmEngine(graph, comps, params)
        st = engine.init(x0=ref.x_star, alpha0=ref.alpha_star)
        nxt = engine.step(st)
        assert np.max(np.abs(nxt.x - st.x)) <= 1e-9
        assert np.max(np.abs(nxt.phi - st.phi)) <= 1e-9

    def test_step_is_pure(self):
        # the engine reloads its agents from the given state on every step:
        # stepping one state twice repeats the result, and the input survives
        graph, comps = random_instance(5)
        engine = solvers.DadmmEngine(graph, comps, AdmmParams(rho=0.7, eta=0.9, pi=0.1))
        st = engine.step(engine.step(engine.init()))
        x_in, phi_in = st.x.copy(), st.phi.copy()
        a, b = engine.step(st), engine.step(st)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.phi, b.phi)
        assert np.array_equal(st.x, x_in) and np.array_equal(st.phi, phi_in)
        assert not np.array_equal(a.x, st.x)

    def test_dual_blocks_sum_to_zero(self):
        graph, comps = random_instance(6)
        engine = solvers.DadmmEngine(graph, comps, AdmmParams(1.0, 0.5))
        st = engine.init()
        p = graph.p
        for _ in range(30):
            st = engine.step(st)
            block_sum = sum(st.phi[i * p:(i + 1) * p] for i in range(graph.n))
            assert np.max(np.abs(block_sum)) <= 1e-9


class TestDadmmMatrixStep:
    def test_agreement_with_per_agent(self):
        for seed in range(50):
            graph, comps = random_instance(100 + seed)
            rng = np.random.default_rng(seed)
            params = AdmmParams(
                rho=float(rng.uniform(0.3, 3.0)),
                eta=float(rng.uniform(0.2, 1.1)),
                pi=float(rng.uniform(0.0, 0.5)),
            )
            pa = solvers.DadmmEngine(graph, comps, params)
            mx = solvers.DadmmMatrixEngine(graph, comps, params)
            sa, sm = pa.init(), mx.init()
            for _ in range(100):
                sa, sm = pa.step(sa), mx.step(sm)
                assert np.max(np.abs(sa.x - sm.x)) <= 1e-10
                assert np.max(np.abs(sa.phi - sm.phi)) <= 1e-10

    def test_classic_admm_specialization(self):
        # eta = 1, P = 0 runs and still matches the per-agent engine
        graph, comps = random_instance(7)
        params = AdmmParams(rho=1.0, eta=1.0, pi=0.0)
        pa = solvers.DadmmEngine(graph, comps, params)
        mx = solvers.DadmmMatrixEngine(graph, comps, params)
        sa, sm = pa.init(), mx.init()
        for _ in range(50):
            sa, sm = pa.step(sa), mx.step(sm)
        assert np.max(np.abs(sa.x - sm.x)) <= 1e-10

    def test_phi_equals_lifted_alpha(self):
        graph, comps = random_instance(8)
        engine = solvers.DadmmMatrixEngine(graph, comps, AdmmParams(1.0, 0.5))
        e_o = dense_ref.lifted_incidence(graph)[0]
        st = engine.init()
        for _ in range(25):
            st = engine.step(st)
            assert_allclose(st.phi, e_o.T @ st.alpha, atol=1e-12)

    def test_dual_confinement_min_norm_projection(self):
        graph, comps = random_instance(9)
        engine = solvers.DadmmMatrixEngine(graph, comps, AdmmParams(1.0, 0.5))
        e_o = dense_ref.lifted_incidence(graph)[0]
        solver = dense_ref.min_norm_solver(dense_ref.incidence_bases(graph)[0], graph.p)
        st = engine.init()
        for _ in range(30):
            st = engine.step(st)
            projected = solver(e_o.T @ st.alpha)
            assert np.linalg.norm(projected - st.alpha) <= 1e-9


class TestFullAdmm:
    def test_x_sequence_matches_dadmm(self):
        graph, comps = random_instance(7)
        params = AdmmParams(rho=1.0, eta=0.5, pi=0.1)
        da = solvers.DadmmEngine(graph, comps, params)
        fa = solvers.FullAdmmEngine(graph, comps, params)
        sd, sf = da.init(), fa.init()
        for _ in range(100):
            sd, sf = da.step(sd), fa.step(sf)
            assert np.max(np.abs(sd.x - sf.x)) <= 1e-9

    def test_edge_variable_identity(self):
        graph, comps = random_instance(10)
        fa = solvers.FullAdmmEngine(graph, comps, AdmmParams(1.0, 0.9))
        e_u = dense_ref.lifted_incidence(graph)[1]
        st = fa.init(x0=np.arange(graph.n * graph.p, dtype=float))
        for _ in range(40):
            st = fa.step(st)
            assert np.max(np.abs(st.z - 0.5 * e_u @ st.x)) <= 1e-10

    def test_multiplier_antisymmetry(self):
        graph, comps = random_instance(11)
        fa = solvers.FullAdmmEngine(graph, comps, AdmmParams(2.0, 0.4))
        st = fa.init()
        for _ in range(40):
            st = fa.step(st)
            assert np.max(np.abs(st.alpha + st.beta)) <= 1e-12

    def test_tracked_dual_confined_to_column_space(self):
        graph, comps = random_instance(30)
        fa = solvers.FullAdmmEngine(graph, comps, AdmmParams(1.0, 0.5))
        e_o = dense_ref.lifted_incidence(graph)[0]
        solver = dense_ref.min_norm_solver(dense_ref.incidence_bases(graph)[0], graph.p)
        st = fa.init()
        for _ in range(40):
            st = fa.step(st)
            projected = solver(e_o.T @ st.alpha)
            assert np.linalg.norm(projected - st.alpha) <= 1e-9


class TestExactMM:
    def test_fixed_point(self):
        graph, comps = random_instance(12)
        params = AdmmParams(rho=1.0, eta=0.5)
        ref = analysis.reference_solution(graph, comps, params.eta)
        mm = solvers.ExactMMEngine(graph, comps, params)
        st = mm.init(x0=ref.x_star, nu0=ref.nu_star)
        nxt = mm.step(st)
        assert np.max(np.abs(nxt.x - st.x)) <= 1e-9
        assert np.max(np.abs(nxt.nu - st.nu)) <= 1e-9

    def test_eta_range_enforced(self):
        graph, comps = random_instance(13)
        with pytest.raises(ValueError):
            solvers.ExactMMEngine(graph, comps, AdmmParams(1.0, 1.0))

    def test_consensuality_converges(self):
        graph, comps = harness.scenario_least_squares(5, 2, seed=0)
        mm = solvers.ExactMMEngine(graph, comps, AdmmParams(1.0, 0.5))
        st = mm.init()
        for _ in range(200):
            st = mm.step(st)
        assert netgraph.consensuality_residual(graph, st.x) < 1e-6

    def test_dual_stays_in_column_space(self):
        graph, comps = random_instance(14)
        mm = solvers.ExactMMEngine(graph, comps, AdmmParams(1.0, 0.5))
        e_o = dense_ref.lifted_incidence(graph)[0]
        solver = dense_ref.min_norm_solver(dense_ref.incidence_bases(graph)[0], graph.p)
        st = mm.init()
        for _ in range(20):
            st = mm.step(st)
            scaled = np.sqrt(0.5) * st.nu
            assert np.linalg.norm(solver(e_o.T @ scaled) - scaled) <= 1e-9


class TestApproxMM:
    def test_reproduces_dadmm_at_matched_weight(self):
        graph, comps = random_instance(15)
        params = AdmmParams(rho=2.0, eta=0.5, pi=0.3)
        da = solvers.DadmmEngine(graph, comps, params)
        am = solvers.ApproxMMEngine(graph, comps, params, epsilon=1.0 / params.rho)
        sd, sa = da.init(), am.init()
        for _ in range(100):
            sd, sa = da.step(sd), am.step(sa)
            assert np.max(np.abs(sd.x - sa.x)) <= 1e-10

    def test_majorization_property(self):
        graph, comps = random_instance(16)
        params = AdmmParams(rho=1.0, eta=0.5, pi=0.2)
        eps = 1.0 / params.rho
        e_o = dense_ref.lifted_incidence(graph)[0]
        pi = params.pi_vector(graph.n)
        gamma_diag = np.repeat(2.0 * netgraph.degrees(graph) + 2.0 * eps * pi, graph.p)
        rng = np.random.default_rng(16)
        for _ in range(1000):
            d = rng.standard_normal(graph.n * graph.p)
            lhs = float(np.linalg.norm(e_o @ d) ** 2)
            rhs = float(d @ (gamma_diag * d))
            assert lhs <= rhs * (1 + 1e-12) + 1e-12

    @pytest.mark.parametrize("seed", [16, 17, 18, 19])
    def test_majorizer_gap_is_the_unoriented_gram(self, seed):
        # Gamma - E_o^T E_o = 2D + 2 eps P - L = E_u^T E_u + 2 eps P, so the
        # majorization needs no check at set-up; dyadic eps and pi keep every
        # sum exact, so the identity holds entry for entry
        graph, _ = random_instance(seed)
        rng = np.random.default_rng(seed)
        eps = 0.5
        pi = np.diag(rng.integers(0, 8, graph.n) / 4.0)
        lhs = (2.0 * np.diag(netgraph.degrees(graph)) + 2.0 * eps * pi
               - netgraph.laplacian(graph))
        assert np.array_equal(lhs, netgraph.unoriented_gram(graph) + 2.0 * eps * pi)

    def test_plain_majorizer_still_converges(self):
        graph, comps = harness.scenario_least_squares(5, 2, seed=1)
        params = AdmmParams(rho=1.0, eta=0.5)
        am = solvers.ApproxMMEngine(graph, comps, params, epsilon=0.0)
        ref = analysis.reference_solution(graph, comps, params.eta)
        st = am.init()
        for _ in range(500):
            st = am.step(st)
        assert np.linalg.norm(st.x - ref.x_star) < 1e-6

    def test_negative_epsilon_rejected(self):
        graph, comps = random_instance(17)
        with pytest.raises(ValueError):
            solvers.ApproxMMEngine(graph, comps, AdmmParams(1.0, 0.5), epsilon=-0.5)


class TestPextraMixing:
    def test_path3_values(self):
        g = netgraph.build_graph(3, [(1, 2), (2, 3)], 1)
        lap = netgraph.laplacian(g)
        w, wt = solvers.pextra_mixing(g, xi=0.25, rho=1.0, eta=0.5)
        assert_allclose(w, np.eye(3) - lap / 8.0)
        assert_allclose(wt, np.eye(3) - lap / 16.0)

    def test_eta_one_makes_wt_identity(self):
        g = netgraph.build_graph(3, [(1, 2), (2, 3)], 1)
        _, wt = solvers.pextra_mixing(g, xi=0.1, rho=1.0, eta=1.0)
        assert_allclose(wt, np.eye(3))

    def test_difference_identity(self):
        graph, _ = random_instance(18)
        lap = netgraph.laplacian(graph)
        xi, rho, eta = 0.05, 1.4, 0.7
        w, wt = solvers.pextra_mixing(graph, xi, rho, eta)
        assert_allclose(w - wt, -0.5 * xi * rho * eta * lap, atol=1e-14)


class TestPextraOvershoot:
    def test_boundary_equality(self):
        graph, _ = random_instance(19)
        w, wt = solvers.pextra_mixing(graph, 0.05, 1.0, 0.5)
        assert_allclose(wt, 0.5 * (np.eye(graph.n) + w), atol=1e-15)

    def test_spectral_condition_violated(self):
        g = netgraph.build_graph(3, [(1, 2), (2, 3)], 1)
        w, wt = solvers.pextra_mixing(g, 0.05, 1.0, 0.75)
        gap = wt - 0.5 * (np.eye(3) + w)
        eigvals, _ = denselin.sym_eigen(denselin.SymMatrix(gap))
        assert eigvals[-1] > 0

    def test_overshoot_matches_dadmm(self):
        graph, comps = random_instance(21)
        rho, omega = 1.0, 0.75
        xi = 0.9 * max_theorem2_xi(graph, rho)
        w, wt = solvers.pextra_mixing(graph, xi, rho, omega)
        pe = solvers.PextraEngine(graph, comps, PextraParams(xi=xi, w=w, w_tilde=wt))
        da = solvers.DadmmEngine(
            graph, comps,
            AdmmParams(rho, omega, solvers.theorem2_pi(graph, xi, rho)),
        )
        sp, sd = pe.init(), da.init()
        for _ in range(100):
            sp, sd = pe.step(sp), da.step(sd)
            assert np.max(np.abs(sp.x - sd.x)) <= 1e-9


class TestTheorem2Pi:
    def test_weights_are_inverse_step_minus_rho_degree(self):
        rng = np.random.default_rng(24)
        n = 15
        edges = harness.random_connected_edges(n, rng, extra_edges=6)
        graph = netgraph.build_graph(n, edges, 2)
        # d_i of the extended degree matrix: twice vertex i's edge count
        d = [2 * sum(i in edge for edge in edges) for i in range(1, n + 1)]
        rho = 0.7
        xi = 0.9 / (rho * max(d))
        pi = solvers.theorem2_pi(graph, xi, rho)
        assert type(pi) is tuple and all(type(v) is float for v in pi)
        assert pi == tuple(1.0 / xi - rho * d_i for d_i in d)

    def test_too_large_step_names_the_bound(self):
        graph = netgraph.build_graph(5, harness.ring_edges(5), 1)  # every d_i = 4
        assert solvers.theorem2_pi(graph, 0.25, 1.0) == (0.0,) * 5
        with pytest.raises(ValueError, match=r"exceeds 1/max_i d_i = 0\.25;"):
            solvers.theorem2_pi(graph, 0.3, 1.0)


class TestPextraStep:
    def test_theorem2_equivalence(self):
        graph, comps = random_instance(22)
        rho, eta = 1.0, 0.5
        xi = 0.8 * max_theorem2_xi(graph, rho)
        w, wt = solvers.pextra_mixing(graph, xi, rho, eta)
        pe = solvers.PextraEngine(graph, comps, PextraParams(xi=xi, w=w, w_tilde=wt))
        da = solvers.DadmmEngine(
            graph, comps, AdmmParams(rho, eta, solvers.theorem2_pi(graph, xi, rho))
        )
        sp, sd = pe.init(), da.init()
        for _ in range(100):
            sp, sd = pe.step(sp), da.step(sd)
            assert np.max(np.abs(sp.x - sd.x)) <= 1e-9

    def test_zero_objective_consensual_fixed_point(self):
        graph = netgraph.build_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)], 2)
        comps = [zero_component(2) for _ in range(4)]
        w, wt = solvers.pextra_mixing(graph, 0.05, 1.0, 0.5)
        pe = solvers.PextraEngine(graph, comps, PextraParams(xi=0.05, w=w, w_tilde=wt))
        x0 = np.tile([1.5, -2.0], 4)
        st = pe.init(x0=x0)
        for _ in range(20):
            st = pe.step(st)
            assert np.max(np.abs(st.x - x0)) <= 1e-12

    def test_running_sum_matches_history(self):
        graph, comps = random_instance(23)
        rho, eta = 1.0, 0.4
        xi = 0.8 * max_theorem2_xi(graph, rho)
        w, wt = solvers.pextra_mixing(graph, xi, rho, eta)
        pe = solvers.PextraEngine(graph, comps, PextraParams(xi=xi, w=w, w_tilde=wt))
        st = pe.init(x0=np.ones(graph.n * graph.p))
        history = [st.x.copy()]
        diff = np.kron(w - wt, np.eye(graph.p))
        for _ in range(20):
            st = pe.step(st)
            history.append(st.x.copy())
            explicit = sum(diff @ xt for xt in history)
            assert np.max(np.abs(st.running_sum - explicit)) <= 1e-12

    def test_step_is_pure(self):
        graph, comps = random_instance(24)
        xi = 0.8 * max_theorem2_xi(graph, 1.0)
        w, wt = solvers.pextra_mixing(graph, xi, 1.0, 0.5)
        pe = solvers.PextraEngine(graph, comps, PextraParams(xi=xi, w=w, w_tilde=wt))
        st = pe.step(pe.step(pe.init(x0=np.ones(graph.n * graph.p))))
        x_in, sum_in = st.x.copy(), st.running_sum.copy()
        a, b = pe.step(st), pe.step(st)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.running_sum, b.running_sum)
        assert np.array_equal(st.x, x_in) and np.array_equal(st.running_sum, sum_in)
        assert not np.array_equal(a.x, st.x)


class TestGeneralUV:
    def classical(self, graph):
        return dense_ref.incidence_uv(graph)

    def test_classical_assignment_matches_matrix_engine(self):
        graph, comps = random_instance(24)
        params = AdmmParams(rho=1.2, eta=0.6, pi=0.1)
        u, v, dbar = self.classical(graph)
        ge = solvers.GeneralUVEngine(graph, u, v, dbar, comps, params)
        mx = solvers.DadmmMatrixEngine(graph, comps, params)
        sg, sm = ge.init(), mx.init()
        for _ in range(100):
            sg, sm = ge.step(sg), mx.step(sm)
            assert np.max(np.abs(sg.x - sm.x)) <= 1e-10

    def test_constraint_null_space(self):
        # V x = 0 exactly on consensual vectors, nonzero otherwise
        graph, _ = random_instance(25)
        _, v, _ = self.classical(graph)
        rng = np.random.default_rng(25)
        p = graph.p
        consensual = np.tile(rng.standard_normal(p), graph.n)
        lifted = np.kron(v, np.eye(p))
        assert np.max(np.abs(lifted @ consensual)) <= 1e-12
        x = rng.standard_normal(graph.n * p)
        assert np.linalg.norm(lifted @ x) > 1e-6

    def test_step_is_pure(self):
        graph, comps = random_instance(24)
        ge = solvers.GeneralUVEngine(graph, *self.classical(graph), comps,
                                     AdmmParams(rho=0.7, eta=0.9, pi=0.1))
        st = ge.step(ge.step(ge.init(x0=np.ones(graph.n * graph.p))))
        x_in, phi_in = st.x.copy(), st.phi.copy()
        a, b = ge.step(st), ge.step(st)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.phi, b.phi)
        assert np.array_equal(st.x, x_in) and np.array_equal(st.phi, phi_in)
        assert not np.array_equal(a.x, st.x)

    def test_complementarity_enforced(self):
        graph, comps = random_instance(26)
        u, v, dbar = self.classical(graph)
        with pytest.raises(ConditionViolation):
            solvers.GeneralUVEngine(graph, u, v, 2.0 * dbar, comps,
                                    AdmmParams(1.0, 0.5))


class TestStackedLengthChecked:
    def test_agent_engines_reject_long_vectors(self):
        graph, comps = random_instance(27)
        long = np.ones(graph.n * graph.p + 3)
        params = AdmmParams(1.0, 0.5, 0.1)
        dadmm = solvers.DadmmEngine(graph, comps, params)
        with pytest.raises(DimensionMismatch):
            dadmm.step(dadmm.init(x0=long))
        xi = 0.8 * max_theorem2_xi(graph, 1.0)
        w, wt = solvers.pextra_mixing(graph, xi, 1.0, 0.5)
        pextra = solvers.PextraEngine(graph, comps, PextraParams(xi=xi, w=w, w_tilde=wt))
        with pytest.raises(DimensionMismatch):
            pextra.init(x0=long)
        uv = solvers.GeneralUVEngine(graph, *dense_ref.incidence_uv(graph), comps, params)
        for kwargs in ({"x0": long}, {"phi0": long}):
            with pytest.raises(DimensionMismatch):
                uv.init(**kwargs)

    @pytest.mark.parametrize("extra", [-1, 3])
    def test_inits_reject_wrong_lengths(self, extra):
        graph, comps = random_instance(28)
        params = AdmmParams(1.0, 0.5, 0.1)
        bad_x = np.ones(graph.n * graph.p + extra)
        bad_arc = np.ones(graph.m * graph.p + extra)
        full = solvers.FullAdmmEngine(graph, comps, params)
        exact = solvers.ExactMMEngine(graph, comps, params)
        approx = solvers.ApproxMMEngine(graph, comps, params, 1.0)
        uv = solvers.GeneralUVEngine(graph, *dense_ref.incidence_uv(graph), comps, params)
        calls = [
            lambda: solvers.dadmm_init(graph, x0=bad_x),
            lambda: solvers.dadmm_init(graph, alpha0=bad_arc),
            lambda: full.init(x0=bad_x),
            lambda: full.init(alpha0=bad_arc),
            lambda: exact.init(x0=bad_x),
            lambda: exact.init(nu0=bad_arc),
            lambda: approx.init(x0=bad_x),
            lambda: approx.init(nu0=bad_arc),
            lambda: uv.init(x0=bad_x),
            lambda: uv.init(phi0=bad_x),
        ]
        for call in calls:
            with pytest.raises(DimensionMismatch):
                call()


class TestBlockDiagonalSolves:
    @staticmethod
    def decoupled_engines(graph, comps, params):
        return [
            lambda: solvers.DadmmMatrixEngine(graph, comps, params),
            lambda: solvers.FullAdmmEngine(graph, comps, params),
            lambda: solvers.ApproxMMEngine(graph, comps, params, 1.0 / params.rho),
        ]

    def test_no_inverse_larger_than_the_agent_stack(self, monkeypatch):
        graph, comps = random_instance(61, n=7, p=3)
        params = AdmmParams(1.0, 0.5, 0.1)
        seen = []
        real = denselin.spd_inverse

        def spy(a):
            seen.append(np.shape(a.entries if isinstance(a, denselin.SymMatrix) else a))
            return real(a)

        monkeypatch.setattr(denselin, "spd_inverse", spy)
        for make in self.decoupled_engines(graph, comps, params):
            engine = make()
            state = engine.init()
            for _ in range(3):
                state = engine.step(state)
        assert seen.count((graph.n, graph.p, graph.p)) == 3
        assert all(np.prod(shape) <= graph.n * graph.p ** 2 for shape in seen)

    def test_indefinite_block_raises_no_unique_minimizer(self):
        # the central engines share the network's local solve, so they
        # refuse the block with the same error as the per-agent engine
        graph, comps = random_instance(62, n=5, p=2)
        comps = list(comps)
        comps[2] = AffineQuadratic(-100.0 * np.eye(2), np.zeros(2))
        params = AdmmParams(1.0, 0.5, 0.1)
        makers = self.decoupled_engines(graph, comps, params) + [
            lambda: solvers.DadmmEngine(graph, comps, params)]
        for make in makers:
            with pytest.raises(NoUniqueMinimizer):
                make()

    def test_exact_mm_size_cap(self):
        p = solvers.EXACT_MM_MAX_ORDER // 2 + 1
        graph = netgraph.build_graph(2, [(1, 2)], p)
        comps = [RankOneLeastSquares(np.ones(p), 0.0), RankOneLeastSquares(np.ones(p), 1.0)]
        with pytest.raises(DeconoptError, match="cap"):
            solvers.ExactMMEngine(graph, comps, AdmmParams(1.0, 0.5))


class TestAffineSolve:
    """The exact method of multipliers' all-quadratic solve x = x_b - H^-1
    linear, with x_b and -H^-1 formed at set-up, against the inverse applied
    to -(b + linear); and the decoupled engines' refusal of an indefinite
    block, which they share with the per-agent engine."""

    @pytest.mark.parametrize("p", [1, 3])
    def test_matches_inverse_times_rhs(self, p):
        # the decoupled engines' stationary solve: rows with a = 0 and a
        # per-agent shift pi, solved around x = 0 by one ProximalRows.solve
        graph, comps = random_instance(81, n=6, p=p)
        n = graph.n
        rng = np.random.default_rng(82)
        shift = rng.uniform(1.0, 3.0, n)
        rows = objective.ProximalRows(comps, np.zeros(n), shift)
        for _ in range(5):
            linear = rng.standard_normal(n * p)
            got = rows.solve(linear.reshape(n, p), np.zeros((n, p)))[0].ravel()
            for i, comp in enumerate(comps):
                q, b = dense_ref.terms(comp)
                want = denselin.spd_inverse(q + shift[i] * np.eye(p)) @ -(
                    b + linear[i * p:(i + 1) * p])
                block = got[i * p:(i + 1) * p]
                assert np.linalg.norm(block - want) <= 1e-13 * np.linalg.norm(want)

    def test_dense_system_matches_inverse_times_rhs(self):
        graph, comps = random_instance(83, n=5, p=2)
        n, p = graph.n, graph.p
        params = AdmmParams(1.0, 0.5)
        engine = solvers.ExactMMEngine(graph, comps, params)
        system = 0.5 * params.rho * dense_ref.lift(netgraph.laplacian(graph), p)
        for i, comp in enumerate(comps):
            system[i * p:(i + 1) * p, i * p:(i + 1) * p] += dense_ref.terms(comp)[0]
        b = np.concatenate([dense_ref.terms(comp)[1] for comp in comps])
        rng = np.random.default_rng(84)
        state = engine.init(x0=rng.standard_normal(n * p),
                            nu0=rng.standard_normal(graph.m * p))
        linear = dense_ref.lifted_incidence(graph)[0].T @ (np.sqrt(params.eta) * state.nu)
        want = denselin.spd_inverse(system) @ -(b + linear)
        got = engine.step(state).x
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    def test_indefinite_block_raises(self):
        graph, comps = random_instance(85, n=4, p=1)
        comps = [AffineQuadratic([[-1e3]], [0.0])] + list(comps[1:])
        params = AdmmParams(1.0, 0.5, 0.1)
        makers = TestBlockDiagonalSolves.decoupled_engines(graph, comps, params) + [
            lambda: solvers.DadmmEngine(graph, comps, params)]
        for make in makers:
            with pytest.raises(NoUniqueMinimizer):
                make()


class TestStepContract:
    """Every central step checks its state's lengths on entry and writes
    nothing into the state it is given."""

    @staticmethod
    def engines(graph, comps):
        params = AdmmParams(1.0, 0.5, 0.1)
        return [
            solvers.DadmmMatrixEngine(graph, comps, params),
            solvers.FullAdmmEngine(graph, comps, params),
            solvers.ApproxMMEngine(graph, comps, params, 1.0),
            solvers.ExactMMEngine(graph, comps, params),
        ]

    @staticmethod
    def vectors(state):
        return {name: value for name, value in vars(state).items()
                if isinstance(value, np.ndarray)}

    def test_wrong_length_raises(self):
        graph, comps = random_instance(91, n=5, p=2)
        seen = set()
        for engine in self.engines(graph, comps):
            state = engine.step(engine.init())
            for name, value in self.vectors(state).items():
                seen.add(name)
                for bad in (value[:-1], np.append(value, 0.0), value.reshape(-1, 1), None):
                    broken = type(state)(**{**vars(state), name: bad})
                    with pytest.raises(DimensionMismatch):
                        engine.step(broken)
        assert seen == {"x", "z", "lam", "nu", "phi", "alpha", "e_o_x"}

    @staticmethod
    def multiplier_engines(graph, comps):
        return [engine for engine in TestStepContract.engines(graph, comps)
                if isinstance(engine, (solvers.ApproxMMEngine, solvers.ExactMMEngine))]

    def test_carried_product_is_e_o_x(self):
        # init and step set E_o x of their x, which the next step reads
        graph, comps = random_instance(94, n=6, p=2)
        rng = np.random.default_rng(94)
        for engine in self.multiplier_engines(graph, comps):
            state = engine.init(x0=rng.standard_normal(graph.n * graph.p))
            for _ in range(3):
                assert np.array_equal(state.e_o_x, engine.stack.e_o(state.x))
                state = engine.step(state)

    def test_untracked_alpha_raises(self):
        # the operator-form D-ADMM step always updates the tracked arc dual
        graph, comps = random_instance(92, n=5, p=2)
        engine = solvers.DadmmMatrixEngine(graph, comps, AdmmParams(1.0, 0.5, 0.1))
        state = engine.init()
        with pytest.raises(DimensionMismatch):
            engine.step(solvers.AdmmState(x=state.x, phi=state.phi))

    def test_steps_are_pure(self):
        graph, comps = random_instance(93, n=6, p=2)
        for engine in self.engines(graph, comps):
            state = engine.step(engine.init(x0=np.arange(graph.n * graph.p, dtype=float)))
            before = {name: value.copy() for name, value in self.vectors(state).items()}
            first, second = engine.step(state), engine.step(state)
            for name, value in self.vectors(state).items():
                assert np.array_equal(value, before[name]), (type(engine).__name__, name)
                assert np.array_equal(getattr(first, name), getattr(second, name))
            assert first.k == second.k == state.k + 1


class TestSnapshots:
    def test_every_engine_exposes_consistent_rows(self):
        graph, comps = random_instance(50)
        params = AdmmParams(rho=1.0, eta=0.5, pi=0.1)
        dmax = float(netgraph.degrees(graph).max())
        xi = 0.8 / (params.rho * dmax)
        w, wt = solvers.pextra_mixing(graph, xi, params.rho, params.eta)
        engines = [
            solvers.DadmmEngine(graph, comps, params),
            solvers.DadmmMatrixEngine(graph, comps, params),
            solvers.FullAdmmEngine(graph, comps, params),
            solvers.ExactMMEngine(graph, comps, params),
            solvers.ApproxMMEngine(graph, comps, params, 1.0),
            solvers.PextraEngine(graph, comps, solvers.PextraParams(xi=xi, w=w, w_tilde=wt)),
            solvers.GeneralUVEngine(graph, *dense_ref.incidence_uv(graph), comps, params),
        ]
        for engine in engines:
            state = engine.step(engine.init())
            phi = engine.phi(state)
            assert state.k == 1
            assert state.x.shape == (graph.n * graph.p,)
            assert phi.shape == (graph.n * graph.p,)
            # the dual aggregate lies in the range of the transposed incidence
            p = graph.p
            block_sum = sum(phi[i * p:(i + 1) * p] for i in range(graph.n))
            assert np.max(np.abs(block_sum)) <= 1e-9

    def test_mixing_must_respect_graph(self):
        graph, comps = random_instance(51)
        w = np.eye(graph.n)
        w_bad = w.copy()
        # pick a non-adjacent pair and couple it
        mask = netgraph.support_mask(graph)
        for i in range(1, graph.n + 1):
            missing = [j for j in range(1, graph.n + 1) if not mask[i - 1, j - 1]]
            if missing:
                w_bad[i - 1, missing[0] - 1] = w_bad[missing[0] - 1, i - 1] = 0.1
                break
        else:
            pytest.skip("complete graph drawn")
        with pytest.raises(ValueError):
            solvers.PextraEngine(graph, comps,
                                 solvers.PextraParams(xi=0.1, w=w_bad, w_tilde=w))


def mixed_callback_instance(seed):
    """Two quadratic and two log-cosh agents; the quadratic pair keeps the
    sum strongly convex, so lam_min of its summed Hessian is a valid mu."""
    from deconopt.objective import SmoothCallback

    rng = np.random.default_rng(seed)
    graph = netgraph.build_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)], 2)
    quads = []
    for _ in range(2):
        a = rng.standard_normal((2, 2))
        quads.append(AffineQuadratic(a @ a.T + 0.5 * np.eye(2), rng.standard_normal(2)))

    def logcosh(a, b):
        a = np.asarray(a, dtype=float)
        return SmoothCallback(
            p=2,
            value_fn=lambda x: float(np.logaddexp(a @ x - b, -(a @ x - b)) - np.log(2.0)),
            grad_fn=lambda x: np.tanh(a @ x - b) * a,
            hess_fn=lambda x: (1.0 - np.tanh(a @ x - b) ** 2) * np.outer(a, a),
            lipschitz=float(a @ a),
        )

    comps = quads + [logcosh(rng.standard_normal(2), 0.3),
                     logcosh(rng.standard_normal(2), -0.5)]
    q_sum = quads[0].q + quads[1].q
    mu = float(denselin.sym_eigen(denselin.SymMatrix(q_sum))[0][0])
    return graph, comps, mu


# algorithm -> (engine and its reference rows, reference step, initial state)
CENTRAL_REFERENCES = {
    "dadmm-matrix": (
        lambda g, c, prm: (solvers.DadmmMatrixEngine(g, c, prm), dense_ref.dadmm_rows(g, c, prm)),
        dense_ref.dadmm_matrix_step,
        lambda engine, x0, dual0: engine.init(x0=x0, alpha0=dual0),
    ),
    "full-admm": (
        lambda g, c, prm: (solvers.FullAdmmEngine(g, c, prm), dense_ref.dadmm_rows(g, c, prm)),
        dense_ref.full_admm_step,
        lambda engine, x0, dual0: engine.init(x0=x0, alpha0=dual0),
    ),
    "mm-approx": (
        lambda g, c, prm: (solvers.ApproxMMEngine(g, c, prm, 0.7),
                           dense_ref.approx_mm_rows(g, c, prm, 0.7)),
        dense_ref.approx_mm_step,
        lambda engine, x0, dual0: engine.init(x0=x0, nu0=dual0),
    ),
}


class TestCentralStepBits:
    """Each central engine's step against its written-out reference in
    `dense_ref`: 50 steps from a random start, every state field bit for bit
    at every step, on p in {1, 3} and pi in {0, 0.1} and on an instance with
    callback agents."""

    @pytest.mark.parametrize("cell", [(1, 0.0), (1, 0.1), (3, 0.0), (3, 0.1), "callback"],
                             ids=["p1-pi0", "p1-pi0.1", "p3-pi0", "p3-pi0.1", "callback"])
    @pytest.mark.parametrize("name", sorted(CENTRAL_REFERENCES))
    def test_fifty_steps_bit_identical(self, name, cell):
        if cell == "callback":
            graph, comps, _ = mixed_callback_instance(70)
            pi = 0.1
        else:
            p, pi = cell
            graph, comps = harness.scenario_least_squares(7, p, seed=71)
        params = AdmmParams(rho=1.3, eta=0.6, pi=pi)
        make, reference_step, init = CENTRAL_REFERENCES[name]
        engine, rows = make(graph, comps, params)
        rng = np.random.default_rng(72)
        state = init(engine, rng.standard_normal(graph.n * graph.p),
                     rng.standard_normal(graph.m * graph.p))
        ref = TestStepContract.vectors(state)
        for k in range(1, 51):
            state = engine.step(state)
            ref = reference_step(graph, rows, params, ref)
            fields = TestStepContract.vectors(state)
            assert "x" in fields and state.k == k
            for key, value in fields.items():
                assert np.array_equal(value, ref[key]), (k, key)


class TestCallbackComponents:
    def test_engines_agree_on_newton_path(self):
        graph, comps, _ = mixed_callback_instance(60)
        params = AdmmParams(rho=1.0, eta=0.5, pi=0.1)
        pa = solvers.DadmmEngine(graph, comps, params)
        mx = solvers.DadmmMatrixEngine(graph, comps, params)
        am = solvers.ApproxMMEngine(graph, comps, params, 1.0)
        sp, sm, sa = pa.init(), mx.init(), am.init()
        for _ in range(60):
            sp, sm, sa = pa.step(sp), mx.step(sm), am.step(sa)
            assert np.max(np.abs(sp.x - sm.x)) <= 1e-9
            assert np.max(np.abs(sp.x - sa.x)) <= 1e-9

    def test_decoupled_engines_form_no_system_above_p(self, monkeypatch):
        # callback rows run Newton on their own p x p Hessians, as on the
        # network; no stacked (np) x (np) system is inverted or solved
        graph, comps, _ = mixed_callback_instance(64)
        params = AdmmParams(rho=1.0, eta=0.5, pi=0.1)
        seen = {"spd_inverse": [], "solve_spd": []}
        for name, shapes in seen.items():
            def spy(a, *args, real=getattr(denselin, name), shapes=shapes):
                shapes.append(np.shape(a.entries if isinstance(a, denselin.SymMatrix) else a))
                return real(a, *args)

            monkeypatch.setattr(denselin, name, spy)
        for make in TestBlockDiagonalSolves.decoupled_engines(graph, comps, params):
            engine = make()
            state = engine.init()
            for _ in range(5):
                state = engine.step(state)
        p = graph.p
        # one stack of the two quadratic rows per engine; Newton's solves
        # invert single p x p Hessians
        assert seen["spd_inverse"].count((2, p, p)) == 3
        assert seen["solve_spd"]
        assert all(shape[-2:] == (p, p) for shapes in seen.values() for shape in shapes)

    def test_reference_solution_via_central_newton(self):
        graph, comps, _ = mixed_callback_instance(61)
        from deconopt import analysis, objective
        ref = analysis.reference_solution(graph, comps, eta=0.5)
        grad = sum(comp.grad(ref.xbar) for comp in comps)
        assert np.linalg.norm(grad) <= 1e-11
        e_o = dense_ref.lifted_incidence(graph)[0]
        resid = e_o.T @ ref.alpha_star + objective.sum_gradient(comps, ref.x_star)
        assert np.linalg.norm(resid) <= 1e-8

    def test_contraction_holds_with_supplied_mu(self):
        from deconopt import analysis, objective
        graph, comps, mu = mixed_callback_instance(62)
        params = AdmmParams(rho=1.0, eta=0.5, pi=0.1)
        profile = objective.sum_profile(comps, graph, mu_sum=mu)
        cert = analysis.rate_certificate(graph, profile, params)
        assert cert.delta > 0
        ref = analysis.reference_solution(graph, comps, params.eta)
        engine = solvers.DadmmMatrixEngine(graph, comps, params)
        st = engine.init()
        xs = [st.x]
        for _ in range(200):
            st = engine.step(st)
            xs.append(st.x)
        report = analysis.verify_contraction(np.array(xs), st.phi, ref, cert)
        assert report.ok, report.violations[:3]

    def test_exact_mm_newton_path_converges(self):
        from deconopt import analysis
        graph, comps, _ = mixed_callback_instance(63)
        params = AdmmParams(rho=1.0, eta=0.5)
        ref = analysis.reference_solution(graph, comps, params.eta)
        mm = solvers.ExactMMEngine(graph, comps, params)
        st = mm.init()
        for _ in range(300):
            st = mm.step(st)
        assert np.linalg.norm(st.x - ref.x_star) < 1e-6


class TestConvergenceRange:
    @pytest.mark.parametrize("eta", [0.3, 1.0, 1.618])
    def test_converges_across_relaxation_range(self, eta):
        graph, comps = harness.scenario_least_squares(5, 2, seed=11)
        ref = analysis.reference_solution(graph, comps, min(eta, 0.99))
        engine = solvers.DadmmMatrixEngine(graph, comps, AdmmParams(1.0, eta))
        st = engine.init()
        for k in range(2000):
            st = engine.step(st)
            if np.linalg.norm(st.x - ref.x_star) < 1e-6:
                break
        assert np.linalg.norm(st.x - ref.x_star) < 1e-6
