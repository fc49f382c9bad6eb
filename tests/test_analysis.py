import numpy as np
import pytest
from numpy.testing import assert_allclose

from deconopt import analysis, denselin, harness, netgraph, objective, solvers
from deconopt.errors import (
    AllZero,
    CertificateUnavailable,
    DimensionMismatch,
    EtaOutOfRange,
    GammaOutOfRange,
    IndefiniteInput,
    NotStronglyConvex,
)
from deconopt.objective import AffineQuadratic, RankOneLeastSquares
from deconopt.solvers import AdmmParams


def ls_preset(seed=0, n=5, p=2):
    return harness.scenario_least_squares(n, p, seed)


def run_matrix_trace(graph, comps, params, rounds):
    engine = solvers.DadmmMatrixEngine(graph, comps, params)
    st = engine.init()
    trace = [(st.x, st.alpha)]
    for _ in range(rounds):
        st = engine.step(st)
        trace.append((st.x, st.alpha))
    return trace


class TestReferenceSolution:
    def test_least_squares_normal_equations(self):
        graph, comps = ls_preset(seed=3)
        ref = analysis.reference_solution(graph, comps, eta=0.5)
        rows = np.array([c.h for c in comps])
        ys = np.array([c.y for c in comps])
        assert_allclose(rows.T @ rows @ ref.xbar, rows.T @ ys, atol=1e-10)

    def test_singular_quadratic_sum_raises_without_stacking(self, monkeypatch):
        # the early strong-convexity check reads each component's terms and
        # forms no stacked system of all agents
        def stacked(_):
            raise AssertionError("quadratic_stack called")

        monkeypatch.setattr(objective, "quadratic_stack", stacked)
        g = netgraph.build_graph(2, [(1, 2)], 2)
        comps = [RankOneLeastSquares([1.0, 0.0], 0.0),
                 RankOneLeastSquares([1.0, 0.0], 1.0)]
        with pytest.raises(NotStronglyConvex):
            analysis.reference_solution(g, comps, eta=0.5)

    def test_two_agent_hand_value(self):
        g = netgraph.build_graph(2, [(1, 2)], 1)
        comps = [AffineQuadratic([[1.0]], [0.0]), AffineQuadratic([[1.0]], [-2.0])]
        ref = analysis.reference_solution(g, comps, eta=0.25)
        assert_allclose(ref.xbar, [1.0])
        assert_allclose(ref.nu_star, ref.alpha_star / 0.5)

    def test_separable_optimum_needs_no_price(self):
        g = netgraph.build_graph(2, [(1, 2)], 1)
        comps = [AffineQuadratic([[1.0]], [-1.0]), AffineQuadratic([[2.0]], [-2.0])]
        # both agents individually minimized at 1
        ref = analysis.reference_solution(g, comps, eta=0.5)
        assert_allclose(ref.alpha_star, 0.0, atol=1e-12)

    def test_invariants(self):
        graph, comps = ls_preset(seed=9)
        ref = analysis.reference_solution(graph, comps, eta=0.7)
        e_o = netgraph.incidence_operators(graph)[0]
        assert netgraph.consensuality_residual(graph, ref.x_star) <= 1e-9
        resid = e_o.apply_transpose(ref.alpha_star) + objective.sum_gradient(comps, ref.x_star)
        assert np.linalg.norm(resid) <= 1e-8
        # minimum norm: orthogonal to null(E_o^T)
        solver = denselin.MinNormTransposeSolver(e_o.materialize())
        assert np.linalg.norm(solver(e_o.apply_transpose(ref.alpha_star)) - ref.alpha_star) <= 1e-10


    def test_multiplier_matches_lifted_min_norm_solve(self):
        # oracle: the minimum-norm solve on the materialized lift E_o (x) I_p
        for p in (1, 3):
            graph, comps = ls_preset(seed=6, n=7, p=p)
            ref = analysis.reference_solution(graph, comps, eta=0.5)
            e_o = netgraph.incidence_operators(graph)[0]
            lifted = denselin.min_norm_solve(
                e_o.materialize(), -objective.sum_gradient(comps, ref.x_star)
            )
            assert np.max(np.abs(ref.alpha_star - lifted)) <= 1e-12


class TestMuG:
    def two_agent_profile(self):
        g = netgraph.build_graph(2, [(1, 2)], 1)
        comps = [RankOneLeastSquares([1.0], 0.0), RankOneLeastSquares([1.0], 1.0)]
        return objective.sum_profile(comps, g), g

    def test_hand_substitution(self):
        # direct substitution: mu_sum=2, L=1, n=2 with a graph whose smallest
        # nonzero Laplacian eigenvalue is 2 (the three-agent path) gives
        # branches (1 - 0.5, 2*10*0.5 / (2*(1+16))) = (0.5, 10/34)
        profile = objective.SumProfile(mu_sum=2.0, lipschitz=1.0, n=2, p=1)
        g = netgraph.build_graph(3, [(1, 2), (2, 3)], 1)
        value, gamma = analysis.mu_g(profile, g, rho=10.0, eta=0.5, gamma=0.25)
        assert gamma == 0.25
        assert value == pytest.approx(10.0 / 34.0, rel=1e-12)

    def test_branches_nonnegative_for_valid_gamma(self):
        profile, g = self.two_agent_profile()
        for gamma in np.linspace(1e-6, 0.5 - 1e-6, 25):
            value, _ = analysis.mu_g(profile, g, 1.0, 0.5, float(gamma))
            assert value >= 0.0

    def test_penalty_limit_approaches_centralized_curvature(self):
        # selecting rho(1-eta) = 2(g^2+1)(mu/n - 2Lg) / (g^2 lam_min) makes the
        # two branches meet, so the bound comes within 2Lg of mu_sum / n
        profile, g = self.two_agent_profile()
        lap = netgraph.incidence_operators(g)[3].base
        lam_min = denselin.smallest_nonzero(denselin.sym_eigen(denselin.SymMatrix(lap))[0])
        gamma = 1e-6
        target = profile.mu_sum / profile.n - 2 * profile.lipschitz * gamma
        eta = 0.5
        rho = 2 * (gamma**2 + 1) * target / (gamma**2 * lam_min) / (1 - eta)
        value, _ = analysis.mu_g(profile, g, rho, eta, gamma)
        assert value == pytest.approx(target, rel=1e-9)
        assert value >= 0.999 * profile.mu_sum / profile.n

    def test_range_errors(self):
        profile, g = self.two_agent_profile()
        with pytest.raises(EtaOutOfRange):
            analysis.mu_g(profile, g, 1.0, 1.2, 0.1)
        with pytest.raises(GammaOutOfRange):
            analysis.mu_g(profile, g, 1.0, 0.5, 0.6)
        with pytest.raises(GammaOutOfRange):
            analysis.mu_g(profile, g, 1.0, 0.5, 0.0)

    def test_optimize_beats_fixed_choices(self):
        profile, g = self.two_agent_profile()
        best, gamma_star = analysis.mu_g(profile, g, 2.0, 0.4, "optimize")
        for gamma in (0.01, 0.1, 0.25, 0.4):
            value, _ = analysis.mu_g(profile, g, 2.0, 0.4, gamma)
            assert best >= value - 1e-12
        assert 0.0 < gamma_star < 0.5


class TestRateCertificate:
    def test_positive_delta_and_internals(self):
        graph, comps = ls_preset(seed=5)
        profile = objective.sum_profile(comps, graph)
        cert = analysis.rate_certificate(graph, profile, AdmmParams(1.0, 0.5, 0.1))
        assert cert.delta > 0
        assert cert.mu_g > 0
        assert cert.lipschitz_g >= profile.lipschitz
        # M is PSD by construction
        m_lifted = np.kron(cert.m_base, np.eye(graph.p))
        eigvals, _ = denselin.sym_eigen(denselin.SymMatrix(m_lifted))
        assert eigvals[0] >= -1e-9

    @pytest.mark.parametrize("error", [IndefiniteInput, AllZero])
    def test_unusable_spectrum_is_chained(self, monkeypatch, error):
        graph, comps = ls_preset(seed=5)
        profile = objective.sum_profile(comps, graph)

        def fail(*args, **kwargs):
            raise error("spectrum")

        monkeypatch.setattr(denselin, "smallest_nonzero", fail)
        with pytest.raises(CertificateUnavailable) as info:
            analysis.rate_certificate(graph, profile, AdmmParams(1.0, 0.5, 0.1))
        assert isinstance(info.value.__cause__, error)

    def test_tau_search_matches_grid(self):
        graph, comps = ls_preset(seed=6)
        profile = objective.sum_profile(comps, graph)
        cert = analysis.rate_certificate(graph, profile, AdmmParams(2.0, 0.7, 0.0))

        def bound(tau):
            b1 = cert.rho * cert.eta * cert.lam_min_nonzero / (
                2.0 * (1.0 + 1.0 / tau) * cert.lam_max_m)
            b2 = cert.rho * cert.eta * cert.mu_g * cert.lam_min_nonzero / (
                (1.0 + tau) * cert.lipschitz_g ** 2
                + cert.rho * cert.eta * cert.lam_max_m * cert.lam_min_nonzero)
            return min(b1, b2)

        taus = np.logspace(-8, 8, 200001)
        grid_best = max(bound(t) for t in taus)
        assert cert.delta == pytest.approx(grid_best, rel=1e-6)

    def test_extra_proximal_weight_never_helps(self):
        graph, comps = ls_preset(seed=7)
        profile = objective.sum_profile(comps, graph)
        base = analysis.rate_certificate(graph, profile, AdmmParams(1.0, 0.5, 0.0))
        for c in (0.5, 2.0, 10.0):
            heavier = analysis.rate_certificate(graph, profile, AdmmParams(1.0, 0.5, c))
            assert heavier.lam_max_m > base.lam_max_m
            assert heavier.delta <= base.delta + 1e-12

    def test_eta_out_of_range(self):
        graph, comps = ls_preset(seed=8)
        profile = objective.sum_profile(comps, graph)
        with pytest.raises(EtaOutOfRange):
            analysis.rate_certificate(graph, profile, AdmmParams(1.0, 1.0))

    def test_one_laplacian_decomposition_per_certificate(self, monkeypatch):
        # each certificate decomposes L once (lam_min_nonzero and lam_max(L)
        # come from the same spectrum) plus its norm matrix, M or E_u'E_u;
        # the constants equal those of separate decompositions
        graph, comps = ls_preset(seed=8)
        profile = objective.sum_profile(comps, graph)
        params = AdmmParams(1.0, 0.5, 0.1)
        lap = netgraph.incidence_operators(graph)[3].base
        lam_min = denselin.smallest_nonzero(denselin.sym_eigen(denselin.SymMatrix(lap))[0])
        lam_max = float(denselin.sym_eigen(denselin.SymMatrix(lap))[0][-1])
        orders = []
        real = denselin.sym_eigen

        def counted(a, *args, **kwargs):
            orders.append(np.shape(getattr(a, "entries", a))[0])
            return real(a, *args, **kwargs)

        monkeypatch.setattr(denselin, "sym_eigen", counted)
        cert = analysis.rate_certificate(graph, profile, params)
        assert orders == [graph.n, graph.n]
        orders.clear()
        cert_admm = analysis.rate_certificate_admm(graph, profile, 1.0, 0.5)
        assert orders == [graph.n, graph.n]
        for c in (cert, cert_admm):
            assert c.lam_min_nonzero == lam_min
            assert c.lipschitz_g == profile.lipschitz + 0.25 * lam_max

    def test_delta_invariant_under_block_lift(self):
        # spectra computed at graph level equal those of the lifted operators
        for p in (1, 2, 3):
            graph, comps = ls_preset(seed=10, n=4, p=p)
            profile = objective.sum_profile(comps, graph)
            params = AdmmParams(1.0, 0.5, 0.2)
            cert = analysis.rate_certificate(graph, profile, params)
            e_o = netgraph.incidence_operators(graph)[0]
            lifted_gram = denselin.SymMatrix(e_o.materialize().T @ e_o.materialize())
            lam_min_lif = denselin.smallest_nonzero(denselin.sym_eigen(lifted_gram)[0])
            eig_m, _ = denselin.sym_eigen(
                denselin.SymMatrix(np.kron(cert.m_base, np.eye(p))))
            delta_lifted, _ = analysis.delta_bound(
                params.rho, params.eta, cert.mu_g, cert.lipschitz_g,
                lam_min_lif, float(eig_m[-1]),
            )
            assert delta_lifted == pytest.approx(cert.delta, rel=1e-9)


class TestRateCertificateAdmm:
    def test_path3_unoriented_gram_spectrum(self):
        g = netgraph.build_graph(3, [(1, 2), (2, 3)], 1)
        e_u = netgraph.incidence_operators(g)[1]
        eigvals, _ = denselin.sym_eigen(denselin.SymMatrix(e_u.gram_base()))
        assert_allclose(eigvals, [0.0, 2.0, 6.0], atol=1e-10)

    def test_positive_delta(self):
        graph, comps = ls_preset(seed=12)
        profile = objective.sum_profile(comps, graph)
        cert = analysis.rate_certificate_admm(graph, profile, rho=1.0, eta=0.9)
        assert cert.delta_admm > 0
        assert cert.lam_max_eu > 0

    def test_first_branch_limit(self):
        graph, comps = ls_preset(seed=13)
        profile = objective.sum_profile(comps, graph)
        cert = analysis.rate_certificate_admm(graph, profile, rho=1.0, eta=0.8)
        limit = cert.eta * cert.lam_min_nonzero / cert.lam_max_eu
        for tau in (1e6, 1e9):
            b1 = cert.eta * cert.lam_min_nonzero / ((1.0 + 1.0 / tau) * cert.lam_max_eu)
            assert b1 == pytest.approx(limit, rel=1e-5)
        assert cert.delta_admm <= limit + 1e-12


class TestVerifyContraction:
    def test_least_squares_run_contracts(self):
        graph, comps = ls_preset(seed=1)
        params = AdmmParams(1.0, 0.5, 0.1)
        profile = objective.sum_profile(comps, graph)
        cert = analysis.rate_certificate(graph, profile, params)
        ref = analysis.reference_solution(graph, comps, params.eta)
        trace = run_matrix_trace(graph, comps, params, 300)
        report = analysis.verify_contraction(trace, ref, cert)
        assert report.ok
        assert report.worst_ratio < report.bound

    def test_fixed_point_stays_within_slack(self):
        graph, comps = ls_preset(seed=2)
        params = AdmmParams(1.0, 0.5, 0.0)
        profile = objective.sum_profile(comps, graph)
        cert = analysis.rate_certificate(graph, profile, params)
        ref = analysis.reference_solution(graph, comps, params.eta)
        engine = solvers.DadmmMatrixEngine(graph, comps, params)
        st = engine.init(x0=ref.x_star, alpha0=ref.alpha_star)
        trace = [(st.x, st.alpha)]
        for _ in range(20):
            st = engine.step(st)
            trace.append((st.x, st.alpha))
        report = analysis.verify_contraction(trace, ref, cert)
        assert report.ok
        assert np.all(report.distances <= report.slack)

    def test_phi_reconstruction_path(self):
        graph, comps = ls_preset(seed=4)
        params = AdmmParams(1.0, 0.5, 0.0)
        profile = objective.sum_profile(comps, graph)
        cert = analysis.rate_certificate(graph, profile, params)
        ref = analysis.reference_solution(graph, comps, params.eta)
        engine = solvers.DadmmEngine(graph, comps, params)
        st = engine.init()
        trace = [(st.x, st.phi)]
        for _ in range(100):
            st = engine.step(st)
            trace.append((st.x, st.phi))
        report = analysis.verify_contraction(trace, ref, cert, dual="phi", graph=graph)
        assert report.ok

    def test_violation_detected_on_fake_trace(self):
        graph, comps = ls_preset(seed=5)
        params = AdmmParams(1.0, 0.5, 0.0)
        profile = objective.sum_profile(comps, graph)
        cert = analysis.rate_certificate(graph, profile, params)
        ref = analysis.reference_solution(graph, comps, params.eta)
        far = ref.x_star + 10.0
        trace = [(ref.x_star.copy(), ref.alpha_star.copy()), (far, ref.alpha_star.copy())]
        report = analysis.verify_contraction(trace, ref, cert)
        assert not report.ok
        from deconopt.errors import ContractionViolated
        with pytest.raises(ContractionViolated):
            analysis.verify_contraction(trace, ref, cert, raise_on_violation=True)

    def test_corollary_norm_contracts_for_zero_proximal(self):
        graph, comps = ls_preset(seed=6)
        params = AdmmParams(1.0, 0.5, 0.0)
        profile = objective.sum_profile(comps, graph)
        cert = analysis.rate_certificate_admm(graph, profile, params.rho, params.eta)
        ref = analysis.reference_solution(graph, comps, params.eta)
        trace = run_matrix_trace(graph, comps, params, 300)
        report = analysis.verify_contraction(trace, ref, cert, norm="v")
        assert report.ok


class TestRestrictedStrongConvexity:
    def test_certified_constant_holds_empirically(self):
        graph, comps = ls_preset(seed=20)
        rho, eta = 1.0, 0.5
        profile = objective.sum_profile(comps, graph)
        mu, _ = analysis.mu_g(profile, graph, rho, eta, "optimize")
        ref = analysis.reference_solution(graph, comps, eta)
        g_star = objective.grad_g(comps, graph, rho, eta, ref.x_star)
        rng = np.random.default_rng(20)
        for _ in range(1000):
            x = ref.x_star + rng.standard_normal(ref.x_star.shape) * rng.uniform(0.01, 10)
            dx = x - ref.x_star
            lhs = (objective.grad_g(comps, graph, rho, eta, x) - g_star) @ dx
            assert lhs >= mu * (dx @ dx) - 1e-9 * (dx @ dx)

    def test_lipschitz_bound_holds(self):
        graph, comps = ls_preset(seed=21)
        rho, eta = 1.5, 0.3
        profile = objective.sum_profile(comps, graph)
        cert = analysis.rate_certificate(graph, profile, AdmmParams(rho, eta))
        rng = np.random.default_rng(21)
        for _ in range(200):
            a = rng.standard_normal(graph.n * graph.p) * rng.uniform(0.1, 5)
            b = rng.standard_normal(graph.n * graph.p) * rng.uniform(0.1, 5)
            dg = objective.grad_g(comps, graph, rho, eta, a) - \
                objective.grad_g(comps, graph, rho, eta, b)
            assert np.linalg.norm(dg) <= cert.lipschitz_g * np.linalg.norm(a - b) * (1 + 1e-8)


class TestCheckMixing:
    def setup_method(self):
        self.graph, _ = ls_preset(seed=30, n=6, p=1)
        self.lap = netgraph.incidence_operators(self.graph)[3].base
        self.dmax = max(self.graph.degree(i) for i in range(1, self.graph.n + 1))

    def test_safe_parameters_pass(self):
        eta = 0.4
        xi_rho_max = 1.0 / ((1.0 - eta) * self.dmax)
        w, wt = solvers.pextra_mixing(self.graph, 0.9 * xi_rho_max, 1.0, eta)
        report = analysis.check_mixing(w, wt, self.graph)
        assert report.all_pass

    def test_half_relaxation_is_equality_case(self):
        xi = 0.9 / self.dmax
        w, wt = solvers.pextra_mixing(self.graph, xi, 1.0, 0.5)
        gap = 0.5 * (np.eye(self.graph.n) + w) - wt
        assert np.max(np.abs(gap)) <= 1e-12
        assert analysis.check_mixing(w, wt, self.graph).all_pass

    def test_overshoot_fails_only_upper_spectral(self):
        xi = 0.9 / self.dmax
        w, wt = solvers.pextra_overshoot_mixing(self.graph, xi, 1.0, 0.75)
        report = analysis.check_mixing(w, wt, self.graph)
        assert report.decentralized and report.symmetric and report.nullspace
        assert report.wt_positive_definite and report.lower_ok
        assert not report.upper_ok
        assert report.lam_overshoot > 0

    def test_dense_matrix_fails_decentralized(self):
        w = np.full((self.graph.n, self.graph.n), 1.0 / self.graph.n)
        report = analysis.check_mixing(w, w, self.graph)
        assert not report.decentralized

    def test_matrices_must_be_n_by_n(self):
        ring4 = netgraph.build_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)], 1)
        w, wt = solvers.pextra_mixing(ring4, 0.1, 1.0, 0.5)
        for pair in ((np.eye(3), wt), (w, np.eye(3)), (np.eye(5), np.eye(5))):
            with pytest.raises(DimensionMismatch):
                analysis.check_mixing(*pair, ring4)


class TestCheckUV:
    def test_classical_assignment_passes(self):
        graph, _ = ls_preset(seed=31)
        _, e_u, deg, lap = netgraph.incidence_operators(graph)
        report = analysis.check_uv_conditions(e_u.gram_base(), lap.base, deg.base, graph)
        assert report.all_pass

    def test_zero_v_fails_nullspace(self):
        graph, _ = ls_preset(seed=32)
        _, _, deg, _ = netgraph.incidence_operators(graph)
        report = analysis.check_uv_conditions(
            2.0 * deg.base, np.zeros((graph.n, graph.n)), deg.base, graph
        )
        assert not report.nullspace

    def test_zero_diagonal_dbar_fails_complementarity(self):
        graph, _ = ls_preset(seed=33)
        _, e_u, deg, lap = netgraph.incidence_operators(graph)
        dbar = np.array(deg.base)
        dbar[0, 0] = 0.0
        u = 2.0 * dbar - lap.base
        report = analysis.check_uv_conditions(u, lap.base, dbar, graph)
        assert not report.complementarity

    def test_matrices_must_be_n_by_n(self):
        ring4 = netgraph.build_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)], 1)
        _, e_u, deg, lap = netgraph.incidence_operators(ring4)
        good = [e_u.gram_base(), lap.base, deg.base]
        for k in range(3):
            mats = list(good)
            mats[k] = np.eye(5)
            with pytest.raises(DimensionMismatch):
                analysis.check_uv_conditions(*mats, ring4)


def test_certificate_serialization_roundtrip_values():
    graph, comps = ls_preset(seed=40)
    profile = objective.sum_profile(comps, graph)
    cert = analysis.rate_certificate(graph, profile, AdmmParams(1.0, 0.5, 0.0))
    lines = analysis.certificate_lines(cert)
    values = dict(line.split(" = ") for line in lines)
    assert float(values["delta"]) == cert.delta
    rows = analysis.certificate_csv_rows(cert)
    assert rows[0] == "name,value"
    assert len(rows) == len(lines) + 1
