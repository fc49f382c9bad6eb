import numpy as np
import pytest
from numpy.testing import assert_allclose

import dense_ref
from deconopt import analysis, denselin, harness, netgraph, objective, solvers
from deconopt.errors import (
    AllZero,
    CertificateUnavailable,
    DimensionMismatch,
    EtaOutOfRange,
    GammaOutOfRange,
    Inconsistent,
    IndefiniteInput,
    NonFinite,
    NotStronglyConvex,
)
from deconopt.objective import AffineQuadratic, RankOneLeastSquares
from deconopt.solvers import AdmmParams
from deconopt.tolerances import DEFAULT, Tolerances


def ls_preset(seed=0, n=5, p=2):
    return harness.scenario_least_squares(n, p, seed)


def run_matrix_trace(graph, comps, params, rounds, **init):
    """(xs, alphas, phis): row k of each is the iterate after round k."""
    engine = solvers.DadmmMatrixEngine(graph, comps, params)
    st = engine.init(**init)
    rows = [(st.x, st.alpha, st.phi)]
    for _ in range(rounds):
        st = engine.step(st)
        rows.append((st.x, st.alpha, st.phi))
    return tuple(np.array(col) for col in zip(*rows))


class TestReferenceSolution:
    def test_least_squares_normal_equations(self):
        graph, comps = ls_preset(seed=3)
        ref = analysis.reference_solution(graph, comps)
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
            analysis.reference_solution(g, comps)

    def test_two_agent_hand_value(self):
        g = netgraph.build_graph(2, [(1, 2)], 1)
        comps = [AffineQuadratic([[1.0]], [0.0]), AffineQuadratic([[1.0]], [-2.0])]
        ref = analysis.reference_solution(g, comps)
        assert_allclose(ref.xbar, [1.0])

    def test_separable_optimum_needs_no_price(self):
        g = netgraph.build_graph(2, [(1, 2)], 1)
        comps = [AffineQuadratic([[1.0]], [-1.0]), AffineQuadratic([[2.0]], [-2.0])]
        # both agents individually minimized at 1
        ref = analysis.reference_solution(g, comps)
        assert_allclose(ref.alpha_star, 0.0, atol=1e-12)

    def test_invariants(self):
        graph, comps = ls_preset(seed=9)
        ref = analysis.reference_solution(graph, comps)
        e_o = dense_ref.lifted_incidence(graph)[0]
        assert netgraph.consensuality_residual(graph, ref.x_star) <= 1e-9
        resid = e_o.T @ ref.alpha_star + objective.sum_gradient(comps, ref.x_star)
        assert np.linalg.norm(resid) <= 1e-8
        # minimum norm: orthogonal to null(E_o^T)
        solver = dense_ref.min_norm_solver(dense_ref.incidence_bases(graph)[0], graph.p)
        assert np.linalg.norm(solver(e_o.T @ ref.alpha_star) - ref.alpha_star) <= 1e-10


    def test_multiplier_matches_lifted_min_norm_solve(self):
        # oracle: numpy's least-squares solve (minimum norm) on the dense
        # lift E_o (x) I_p, independent of the package's solver
        for p in (1, 3):
            graph, comps = ls_preset(seed=6, n=7, p=p)
            ref = analysis.reference_solution(graph, comps)
            e_o = dense_ref.lifted_incidence(graph)[0]
            rhs = -objective.sum_gradient(comps, ref.x_star)
            lifted = np.linalg.lstsq(e_o.T, rhs, rcond=None)[0]
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
        profile = objective.SumProfile(mu_sum=2.0, lipschitz=1.0, n=2)
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
        lap = netgraph.laplacian(g)
        lam_min = denselin.smallest_nonzero(denselin.sym_eigen(lap))
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
        # with a proximal weight the paper's delta is the one candidate
        assert [c.names for c in cert.candidates] == [("delta", "tau_star", "lam_max_m")]
        assert cert.checked.delta > 0
        assert cert.mu_g > 0
        assert cert.lipschitz_g >= profile.lipschitz
        # M is PSD by construction
        m_lifted = np.kron(dense_ref.x_block(cert), np.eye(graph.p))
        eigvals = denselin.sym_eigen(m_lifted)
        assert eigvals[0] >= -1e-9

    def test_certificates_hold_no_matrix(self):
        # the norm's x-block is kept as n node weights and a scalar coupling
        graph, comps = ls_preset(seed=5)
        profile = objective.sum_profile(comps, graph)
        for pi in (0.1, 0.0):
            cert = analysis.rate_certificate(graph, profile, AdmmParams(1.0, 0.5, pi))
            arrays = [v for v in vars(cert).values() if isinstance(v, np.ndarray)]
            assert [arr.shape for arr in arrays] == [(graph.n,)]

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
        paper = cert.candidates[0]

        def bound(tau):
            b1 = cert.rho * cert.eta * cert.lam_min_nonzero / (
                2.0 * (1.0 + 1.0 / tau) * paper.lam_max)
            b2 = cert.rho * cert.eta * cert.mu_g * cert.lam_min_nonzero / (
                (1.0 + tau) * cert.lipschitz_g ** 2
                + cert.rho * cert.eta * paper.lam_max * cert.lam_min_nonzero)
            return min(b1, b2)

        taus = np.logspace(-8, 8, 200001)
        grid_best = max(bound(t) for t in taus)
        assert paper.delta == pytest.approx(grid_best, rel=1e-6)

    def test_extra_proximal_weight_never_helps(self):
        graph, comps = ls_preset(seed=7)
        profile = objective.sum_profile(comps, graph)
        base = analysis.rate_certificate(graph, profile, AdmmParams(1.0, 0.5, 0.0))
        for c in (0.5, 2.0, 10.0):
            heavier = analysis.rate_certificate(graph, profile, AdmmParams(1.0, 0.5, c))
            assert heavier.candidates[0].lam_max > base.candidates[0].lam_max
            assert heavier.candidates[0].delta <= base.candidates[0].delta + 1e-12
            # nor against the P = 0 corollary's candidate, which base checks
            assert heavier.checked.delta <= base.checked.delta + 1e-12

    def test_eta_out_of_range(self):
        graph, comps = ls_preset(seed=8)
        profile = objective.sum_profile(comps, graph)
        with pytest.raises(EtaOutOfRange):
            analysis.rate_certificate(graph, profile, AdmmParams(1.0, 1.0))

    def test_one_laplacian_decomposition_per_certificate(self, monkeypatch):
        # L is decomposed once per graph (lam_min_nonzero and lam_max(L)
        # come from that one spectrum): the first certificate decomposes L
        # and its norm matrix M, the second (at P = 0) only its M, whose
        # lam_max gives the corollary's lam_max(E_u'E_u) = 2 lam_max(M) / rho;
        # the constants equal those of separate decompositions
        graph, comps = ls_preset(seed=8)
        profile = objective.sum_profile(comps, graph)
        params = AdmmParams(1.0, 0.5, 0.1)
        lap = netgraph.laplacian(graph)
        lam_min = denselin.smallest_nonzero(denselin.sym_eigen(lap))
        lam_max = float(denselin.sym_eigen(lap)[-1])
        orders = []
        real = denselin.sym_eigen

        def counted(a, *args, **kwargs):
            orders.append(np.shape(getattr(a, "entries", a))[0])
            return real(a, *args, **kwargs)

        monkeypatch.setattr(denselin, "sym_eigen", counted)
        cert = analysis.rate_certificate(graph, profile, params)
        assert orders == [graph.n, graph.n]
        orders.clear()
        cert_admm = analysis.rate_certificate(graph, profile, AdmmParams(1.0, 0.5, 0.0))
        assert orders == [graph.n]
        lam_max_eu = float(real(netgraph.unoriented_gram(graph))[-1])
        assert cert_admm.candidates[1].lam_max == pytest.approx(lam_max_eu, rel=1e-12)
        for c in (cert, cert_admm):
            assert c.lam_min_nonzero == lam_min
            assert c.lipschitz_g == profile.lipschitz + 0.25 * lam_max

    def test_delta_invariant_under_block_lift(self):
        # spectra computed at graph level equal those of the lifted operators
        # (the P = 0 corollary's candidate too)
        for p in (1, 2, 3):
            graph, comps = ls_preset(seed=10, n=4, p=p)
            profile = objective.sum_profile(comps, graph)
            for pi in (0.2, 0.0):
                params = AdmmParams(1.0, 0.5, pi)
                cert = analysis.rate_certificate(graph, profile, params)
                e_o = dense_ref.lifted_incidence(graph)[0]
                lifted_gram = e_o.T @ e_o
                lam_min_lif = denselin.smallest_nonzero(denselin.sym_eigen(lifted_gram))
                eig_m = denselin.sym_eigen(
                    np.kron(dense_ref.x_block(cert), np.eye(p)))
                for cand, corollary in zip(cert.candidates, (False, True)):
                    delta_lifted, _ = analysis.delta_bound(
                        params.rho, params.eta, cert.mu_g, cert.lipschitz_g,
                        lam_min_lif, float(eig_m[-1]), corollary,
                    )
                    assert delta_lifted == pytest.approx(cand.delta, rel=1e-9)


class TestRateCertificateAdmm:
    """The P = 0 corollary's candidate bound, in the edge-variable norm
    (1/(rho eta) on the dual, (rho/4) E_u'E_u on x), half of the certificate's."""

    def test_path3_unoriented_gram_spectrum(self):
        g = netgraph.build_graph(3, [(1, 2), (2, 3)], 1)
        e_u = dense_ref.incidence_bases(g)[1]
        assert np.array_equal(netgraph.unoriented_gram(g), e_u.T @ e_u)
        eigvals = denselin.sym_eigen(netgraph.unoriented_gram(g))
        assert_allclose(eigvals, [0.0, 2.0, 6.0], atol=1e-10)
        # the candidate reads the same lam_max off M = (rho/2) E_u'E_u
        comps = [RankOneLeastSquares([1.0], float(y)) for y in range(3)]
        cert = analysis.rate_certificate(g, objective.sum_profile(comps, g),
                                         AdmmParams(0.7, 0.5, 0.0))
        assert cert.candidates[1].lam_max == pytest.approx(6.0, rel=1e-14)

    def test_positive_delta(self):
        graph, comps = ls_preset(seed=12)
        profile = objective.sum_profile(comps, graph)
        cert = analysis.rate_certificate(graph, profile, AdmmParams(1.0, 0.9, 0.0))
        paper, corollary = cert.candidates
        assert corollary.names == ("delta_admm", "tau_admm", "lam_max_eu")
        assert corollary.delta > 0
        assert corollary.lam_max > 0
        # the sharper of the two is the one the verify checks
        assert corollary.delta > paper.delta
        assert cert.checked is corollary
        assert cert.contraction_factor() == 1.0 / (1.0 + corollary.delta)

    def test_first_branch_limit(self):
        graph, comps = ls_preset(seed=13)
        profile = objective.sum_profile(comps, graph)
        cert = analysis.rate_certificate(graph, profile, AdmmParams(1.0, 0.8, 0.0))
        lam_eu, delta = cert.candidates[1].lam_max, cert.candidates[1].delta
        limit = cert.eta * cert.lam_min_nonzero / lam_eu
        for tau in (1e6, 1e9):
            b1 = cert.eta * cert.lam_min_nonzero / ((1.0 + 1.0 / tau) * lam_eu)
            assert b1 == pytest.approx(limit, rel=1e-5)
        assert delta <= limit + 1e-12


    def test_unusable_spectrum_is_certificate_unavailable(self, monkeypatch):
        graph, comps = ls_preset(seed=12)
        profile = objective.sum_profile(comps, graph)

        def fail(*args, **kwargs):
            raise IndefiniteInput("spectrum")

        monkeypatch.setattr(denselin, "smallest_nonzero", fail)
        with pytest.raises(CertificateUnavailable) as info:
            analysis.rate_certificate(graph, profile, AdmmParams(1.0, 0.5, 0.0))
        assert isinstance(info.value.__cause__, IndefiniteInput)


class TestClosedFormCrossings:
    """gamma_star and every candidate's tau are where each max-min problem's
    falling and rising branches cross, so the branches agree there to
    roundoff."""

    @pytest.mark.parametrize("seed,n,p", [(1, 5, 2), (2, 12, 3), (3, 30, 1)])
    def test_branches_meet_at_the_returned_scalars(self, seed, n, p):
        graph, comps = ls_preset(seed=seed, n=n, p=p)
        profile = objective.sum_profile(comps, graph)
        a, lip = profile.mu_sum / profile.n, profile.lipschitz
        eps = np.finfo(float).eps
        for rho in (0.01, 1.0, 300.0):
            for eta in (0.05, 0.5, 0.95):
                for pi in (0.0, 0.1, 5.0):
                    cert = analysis.rate_certificate(graph, profile, AdmmParams(rho, eta, pi))
                    # the P = 0 corollary is a candidate exactly when pi = 0
                    assert [c.names[0] for c in cert.candidates] == (
                        ["delta", "delta_admm"] if pi == 0.0 else ["delta"])
                    lam, g = cert.lam_min_nonzero, cert.gamma_star
                    # mu_g's falling branch is a difference of terms near a,
                    # so its roundoff is on a's scale
                    falling = a - 2.0 * lip * g
                    rising = lam * rho * (1.0 - eta) / (2.0 * (1.0 + 1.0 / g**2))
                    assert abs(falling - rising) <= 32 * eps * a
                    assert cert.mu_g == pytest.approx(min(falling, rising), abs=32 * eps * a)
                    lip_sq = cert.lipschitz_g ** 2
                    for cand in cert.candidates:
                        tau = cand.tau
                        if cand.names[0] == "delta":
                            lam_m = cand.lam_max
                            rising = rho * eta * lam / (2.0 * (1.0 + 1.0 / tau) * lam_m)
                            falling = rho * eta * cert.mu_g * lam / (
                                (1.0 + tau) * lip_sq + rho * eta * lam_m * lam)
                        else:
                            lam_eu = cand.lam_max
                            rising = eta * lam / ((1.0 + 1.0 / tau) * lam_eu)
                            falling = 2.0 * rho * eta * cert.mu_g * lam / (
                                rho * rho * eta * lam_eu * lam + (1.0 + tau) * lip_sq)
                        assert rising == pytest.approx(falling, rel=16 * eps)
                        assert cand.delta == pytest.approx(min(rising, falling), rel=16 * eps)

class TestVerifyContraction:
    def test_least_squares_run_contracts(self):
        graph, comps = ls_preset(seed=1)
        params = AdmmParams(1.0, 0.5, 0.1)
        profile = objective.sum_profile(comps, graph)
        cert = analysis.rate_certificate(graph, profile, params)
        ref = analysis.reference_solution(graph, comps)
        xs, _, phis = run_matrix_trace(graph, comps, params, 300)
        report = analysis.verify_contraction(xs, phis[-1], ref, cert)
        assert report.ok
        assert report.worst_ratio < report.bound

    def test_fixed_point_stays_within_slack(self):
        graph, comps = ls_preset(seed=2)
        params = AdmmParams(1.0, 0.5, 0.0)
        profile = objective.sum_profile(comps, graph)
        cert = analysis.rate_certificate(graph, profile, params)
        ref = analysis.reference_solution(graph, comps)
        xs, _, phis = run_matrix_trace(graph, comps, params, 20,
                                       x0=ref.x_star, alpha0=ref.alpha_star)
        report = analysis.verify_contraction(xs, phis[-1], ref, cert,
                                             alpha0=ref.alpha_star)
        assert report.ok
        assert np.all(report.distances <= report.slack)

    def test_phi_space_path(self):
        graph, comps = ls_preset(seed=4)
        params = AdmmParams(1.0, 0.5, 0.0)
        profile = objective.sum_profile(comps, graph)
        cert = analysis.rate_certificate(graph, profile, params)
        ref = analysis.reference_solution(graph, comps)
        engine = solvers.DadmmEngine(graph, comps, params)
        st = engine.init()
        xs = [st.x]
        for _ in range(100):
            st = engine.step(st)
            xs.append(st.x)
        report = analysis.verify_contraction(np.array(xs), st.phi, ref, cert)
        assert report.ok

    def test_certificates_compare_by_value(self):
        graph, comps = ls_preset(seed=5)
        profile = objective.sum_profile(comps, graph)
        params = AdmmParams(1.0, 0.5, 0.1)
        assert (analysis.rate_certificate(graph, profile, params)
                == analysis.rate_certificate(graph, profile, params))
        zero = AdmmParams(1.0, 0.5, 0.0)
        assert (analysis.rate_certificate(graph, profile, zero)
                == analysis.rate_certificate(graph, profile, zero))
        assert (analysis.rate_certificate(graph, profile, params)
                != analysis.rate_certificate(graph, profile, AdmmParams(1.0, 0.5, 0.2)))
        assert (analysis.rate_certificate(graph, profile, params)
                != analysis.rate_certificate(graph, profile, zero))

    def test_violation_detected_on_fake_trace(self):
        # a consensual shift leaves E_o x = 0, so the dual stays at alpha*
        graph, comps = ls_preset(seed=5)
        params = AdmmParams(1.0, 0.5, 0.0)
        profile = objective.sum_profile(comps, graph)
        cert = analysis.rate_certificate(graph, profile, params)
        ref = analysis.reference_solution(graph, comps)
        far = ref.x_star + 10.0
        xs = np.array([ref.x_star, far])
        phi_star = netgraph.arc_stack(graph).e_o_transpose(ref.alpha_star)
        report = analysis.verify_contraction(xs, phi_star, ref, cert, alpha0=ref.alpha_star)
        assert not report.ok

    def test_violations_and_worst_ratio_are_exact(self):
        # distances 0, d, d/2, 3d/2: round 1 violates (from zero, beyond the
        # slack), round 2 contracts, round 3 violates; the ratio skips row 0.
        # The shifts are consensual, so E_o x = 0 exactly and alpha stays alpha*
        graph, comps = ls_preset(seed=5)
        params = AdmmParams(1.0, 0.5, 0.0)
        profile = objective.sum_profile(comps, graph)
        cert = analysis.rate_certificate(graph, profile, params)
        ref = analysis.reference_solution(graph, comps)
        unit = np.zeros(graph.p)
        unit[0] = 1.0
        consensual = np.tile(unit, graph.n)
        scales = np.sqrt([0.0, 4.0, 2.0, 6.0])
        xs = ref.x_star + scales[:, None] * consensual
        phi_star = netgraph.arc_stack(graph).e_o_transpose(ref.alpha_star)
        report = analysis.verify_contraction(xs, phi_star, ref, cert, alpha0=ref.alpha_star)
        d = report.distances
        assert d[0] == 0.0
        # consensual' (M (x) I_p) consensual = 1'M1 = rho sum_i d_i at pi = 0 (L 1 = 0)
        m_sum = params.rho * float(netgraph.degrees(graph).sum())
        assert_allclose(d[1:], m_sum * np.array([4.0, 2.0, 6.0]), rtol=1e-14)
        bound, slack = report.bound, report.slack
        assert slack == DEFAULT.contraction_slack
        assert report.violations == (
            (1, float(d[1]), bound * 0.0 + slack),
            (3, float(d[3]), float(bound * d[2] + slack)),
        )
        assert report.worst_ratio == max(d[2] / d[1], d[3] / d[2])

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_row_raises(self):
        # NaN compares false, so unchecked it would pass every bound
        graph, comps = ls_preset(seed=5)
        params = AdmmParams(1.0, 0.5, 0.0)
        profile = objective.sum_profile(comps, graph)
        cert = analysis.rate_certificate(graph, profile, params)
        ref = analysis.reference_solution(graph, comps)
        phi_star = netgraph.arc_stack(graph).e_o_transpose(ref.alpha_star)
        for bad in (np.nan, np.inf):
            xs = ref.x_star + np.array([[1.0], [bad], [1e6]])
            with pytest.raises(NonFinite, match="row 1"):
                analysis.verify_contraction(xs, phi_star, ref, cert, alpha0=ref.alpha_star)

    def test_corollary_norm_contracts_for_zero_proximal(self):
        graph, comps = ls_preset(seed=6)
        params = AdmmParams(1.0, 0.5, 0.0)
        profile = objective.sum_profile(comps, graph)
        cert = analysis.rate_certificate(graph, profile, params)
        ref = analysis.reference_solution(graph, comps)
        xs, _, phis = run_matrix_trace(graph, comps, params, 300)
        report = analysis.verify_contraction(xs, phis[-1], ref, cert)
        assert report.bound == 1.0 / (1.0 + cert.candidates[1].delta)
        assert report.ok

    @pytest.mark.parametrize("norm", ["u", "v"])
    def test_distances_match_per_row_dense_formulas(self, norm):
        # u: 2/(rho eta)|da|^2 + dx'M dx with M = (rho/2) E_u'E_u + pi I (the
        # lifted 0.5 rho (2D + (2/rho) P - L)); v, at pi = 0: twice the
        # corollary's 1/(rho eta)|da|^2 + rho|E_u dx / 2|^2, on the engine's
        # tracked alpha
        graph, comps = ls_preset(seed=8, n=7, p=3)
        pi = 0.1 if norm == "u" else 0.0
        params = AdmmParams(0.7, 0.4, pi)
        profile = objective.sum_profile(comps, graph)
        ref = analysis.reference_solution(graph, comps)
        xs, alphas, phis = run_matrix_trace(graph, comps, params, 150)
        rho, eta = params.rho, params.eta
        e_u = dense_ref.lifted_incidence(graph)[1]
        cert = analysis.rate_certificate(graph, profile, params)
        if norm == "u":
            weight, m_lift = 2.0 / (rho * eta), 0.5 * rho * e_u.T @ e_u + pi * np.eye(len(xs[0]))
        else:
            weight, m_lift = 2.0 * (1.0 / (rho * eta)), 2.0 * (0.25 * rho * e_u.T @ e_u)
        want = [weight * float((a - ref.alpha_star) @ (a - ref.alpha_star))
                + float((x - ref.x_star) @ m_lift @ (x - ref.x_star))
                for x, a in zip(xs, alphas)]
        assert_allclose(cert.distances_sq(xs, phis[-1], ref), want, rtol=1e-12, atol=1e-300)

    X_NORM_GRAPHS = {
        "bipartite": (6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)]),
        "odd-cycle": (5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (1, 3)]),
    }

    @pytest.mark.parametrize("shape", sorted(X_NORM_GRAPHS))
    @pytest.mark.parametrize("pi", [0.0, 0.2])
    @pytest.mark.parametrize("p", [1, 3])
    @pytest.mark.parametrize("kind", ["delta", "delta_admm"])
    def test_node_weight_x_term_equals_dense_form(self, kind, p, pi, shape):
        # distances with the x-term dx'(X (x) I_p)dx, X from the dense
        # incidence; rows x* + d, x* - d bring alpha back to alpha* (up to
        # roundoff), so every other row is its x-term alone. "delta_admm":
        # the one norm is twice the P = 0 corollary's edge-variable norm
        # (1/(rho eta) on the dual) plus the proximal term, so exactly twice
        # it at pi = 0: the identity that makes the corollary a candidate
        n, edges = self.X_NORM_GRAPHS[shape]
        graph = netgraph.build_graph(n, edges, p)
        comps = ls_preset(seed=12, n=n, p=p)[1]
        params = AdmmParams(0.8, 0.4, pi)
        rho, eta = params.rho, params.eta
        profile = objective.sum_profile(comps, graph)
        ref = analysis.reference_solution(graph, comps)
        m_lift, eu_lift = dense_ref.x_norm_blocks(graph, rho, params.pi_vector(n))
        cert = analysis.rate_certificate(graph, profile, params)
        if kind == "delta":
            weight, x_lift = 2.0 / (rho * eta), m_lift
        else:
            weight, x_lift = 2.0 * (1.0 / (rho * eta)), 2.0 * eu_lift + pi * np.eye(n * p)
        assert_allclose(dense_ref.lift(dense_ref.x_block(cert), p), x_lift, rtol=0, atol=1e-15)
        rng = np.random.default_rng(n + 10 * p)
        ds = rng.standard_normal((3, n * p))
        xs = ref.x_star + np.array([ds[0], ds[1], -ds[1], ds[2], -ds[2]])
        e_o = dense_ref.lifted_incidence(graph)[0]
        steps = 0.5 * rho * eta * (xs @ e_o.T)
        steps[0] = ref.alpha_star
        alphas = np.cumsum(steps, axis=0)
        dx, da = xs - ref.x_star, alphas - ref.alpha_star
        want = (weight * np.einsum("ki,ki->k", da, da)
                + np.einsum("ki,ij,kj->k", dx, x_lift, dx))
        got = cert.distances_sq(xs, e_o.T @ alphas[-1], ref, alpha0=ref.alpha_star)
        assert_allclose(got, want, rtol=1e-12)

    @pytest.mark.parametrize("n", [12, 40])
    def test_phi_space_matches_alpha_space(self, n):
        # the alpha read off the trace lies in range(E_o), so |alpha - alpha*|
        # is fixed by phi = E_o^T alpha: both norms agree with the dense
        # phi-space distance of the engine's phi rows above the roundoff floor
        graph, comps = ls_preset(seed=7, n=n, p=2)
        params = AdmmParams(1.0, 0.5, 0.1)
        profile = objective.sum_profile(comps, graph)
        ref = analysis.reference_solution(graph, comps)
        xs, _, phis = run_matrix_trace(graph, comps, params, 300)
        for pi in (0.1, 0.0):
            cert = analysis.rate_certificate(graph, profile, AdmmParams(1.0, 0.5, pi))
            via_alpha = cert.distances_sq(xs, phis[-1], ref)
            via_phi = dense_ref.phi_space_distances_sq(cert, ref, xs, phis)
            above = via_alpha > 1e-10 * via_alpha[0]
            assert above.sum() > 50
            assert_allclose(via_phi[above], via_alpha[above], rtol=1e-9)

    @pytest.mark.parametrize("start", ["zero", "optimal"])
    def test_implied_alpha_is_the_tracked_alpha(self, start):
        # the verify's alpha path, across row blocks, is the engine's alpha bit for bit
        graph, comps = ls_preset(seed=7, n=12, p=2)
        params = AdmmParams(1.0, 0.5, 0.1)
        cert = analysis.rate_certificate(graph, objective.sum_profile(comps, graph), params)
        ref = analysis.reference_solution(graph, comps)
        init = {} if start == "zero" else {"x0": ref.x_star, "alpha0": ref.alpha_star}
        xs, alphas, _ = run_matrix_trace(graph, comps, params, 300, **init)
        assert len(xs) > 2 * objective._ROW_BLOCK
        blocks = [(start, e_o_sq, rows.copy())
                  for start, e_o_sq, rows in cert._alpha_blocks(xs, alphas[0])]
        assert [start for start, _, _ in blocks] == list(range(0, len(xs), objective._ROW_BLOCK))
        assert np.array_equal(np.concatenate([rows for _, _, rows in blocks]), alphas)
        # each block's |E_o x_k|^2 comes from the same gather
        e_o_x = xs @ dense_ref.lifted_incidence(graph)[0].T
        assert_allclose(np.concatenate([sq for _, sq, _ in blocks]),
                        np.einsum("ki,ki->k", e_o_x, e_o_x), rtol=1e-14)

    def test_phi_row_off_range_is_inconsistent(self):
        # a final phi with a consensus component is not E_o^T of any alpha
        graph, comps = ls_preset(seed=4)
        params = AdmmParams(1.0, 0.5, 0.0)
        profile = objective.sum_profile(comps, graph)
        cert = analysis.rate_certificate(graph, profile, params)
        ref = analysis.reference_solution(graph, comps)
        phi_star = netgraph.arc_stack(graph).e_o_transpose(ref.alpha_star)
        xs = np.tile(ref.x_star, (3, 1))
        analysis.verify_contraction(xs, phi_star, ref, cert, alpha0=ref.alpha_star)
        with pytest.raises(Inconsistent, match="final dual"):
            analysis.verify_contraction(xs, phi_star + 1e-3, ref, cert,
                                        alpha0=ref.alpha_star)

    def test_phi_range_check_uses_the_given_tolerances(self):
        # a final phi off E_o^T alpha_K by more than the absolute floor but
        # less than minnorm_consistency |phi| passes at DEFAULT only
        graph, comps = ls_preset(seed=4)
        params = AdmmParams(1.0, 0.5, 0.0)
        profile = objective.sum_profile(comps, graph)
        cert = analysis.rate_certificate(graph, profile, params)
        ref = analysis.reference_solution(graph, comps)
        phi = netgraph.arc_stack(graph).e_o_transpose(ref.alpha_star)
        scale = float(np.linalg.norm(phi))
        floor = denselin.range_floor(float(np.trace(netgraph.laplacian(graph))), graph.p)
        # the same shift on every entry: a residual of 1e-9 |phi| sqrt(n)
        phi_last = phi + 1e-9 * scale / np.sqrt(graph.p)
        assert floor < 1e-9 * scale * np.sqrt(graph.n) < 1e-8 * scale
        xs = np.tile(ref.x_star, (2, 1))
        analysis.verify_contraction(xs, phi_last, ref, cert, alpha0=ref.alpha_star)
        tight = Tolerances(minnorm_consistency=1e-11)
        with pytest.raises(Inconsistent):
            analysis.verify_contraction(xs, phi_last, ref, cert, alpha0=ref.alpha_star,
                                        tolerances=tight)

    def test_shape_and_dual_checked(self):
        graph, comps = ls_preset(seed=4)
        params = AdmmParams(1.0, 0.5, 0.0)
        profile = objective.sum_profile(comps, graph)
        cert = analysis.rate_certificate(graph, profile, params)
        ref = analysis.reference_solution(graph, comps)
        xs = ref.x_star[None, :]
        phi = netgraph.arc_stack(graph).e_o_transpose(ref.alpha_star)
        analysis.verify_contraction(xs, phi, ref, cert, alpha0=ref.alpha_star)
        with pytest.raises(DimensionMismatch):
            analysis.verify_contraction(xs, xs, ref, cert)
        with pytest.raises(DimensionMismatch):
            analysis.verify_contraction(xs[:0], phi, ref, cert)
        with pytest.raises(DimensionMismatch):
            analysis.verify_contraction(xs, phi[1:], ref, cert)
        with pytest.raises(DimensionMismatch):
            analysis.verify_contraction(xs, phi, ref, cert, alpha0=ref.alpha_star[1:])


class TestRestrictedStrongConvexity:
    def test_certified_constant_holds_empirically(self):
        graph, comps = ls_preset(seed=20)
        rho, eta = 1.0, 0.5
        profile = objective.sum_profile(comps, graph)
        mu, _ = analysis.mu_g(profile, graph, rho, eta, "optimize")
        ref = analysis.reference_solution(graph, comps)
        g_star = dense_ref.grad_g(comps, graph, rho, eta, ref.x_star)
        rng = np.random.default_rng(20)
        for _ in range(1000):
            x = ref.x_star + rng.standard_normal(ref.x_star.shape) * rng.uniform(0.01, 10)
            dx = x - ref.x_star
            lhs = (dense_ref.grad_g(comps, graph, rho, eta, x) - g_star) @ dx
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
            dg = dense_ref.grad_g(comps, graph, rho, eta, a) - \
                dense_ref.grad_g(comps, graph, rho, eta, b)
            assert np.linalg.norm(dg) <= cert.lipschitz_g * np.linalg.norm(a - b) * (1 + 1e-8)


class TestCheckMixing:
    def setup_method(self):
        self.graph, _ = ls_preset(seed=30, n=6, p=1)
        self.lap = netgraph.laplacian(self.graph)
        self.dmax = float(netgraph.degrees(self.graph).max())

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
        w, wt = solvers.pextra_mixing(self.graph, xi, 1.0, 0.75)
        report = analysis.check_mixing(w, wt, self.graph)
        assert report.decentralized and report.symmetric and report.nullspace
        assert report.wt_positive_definite and report.lower_ok
        assert not report.upper_ok
        assert report.lam_overshoot > 0

    def test_nan_off_the_graph_fails_decentralized(self):
        # the support test reads "not |w| <= tol", so a NaN where no arc
        # joins the pair fails it
        i, j = np.argwhere(~netgraph.support_mask(self.graph))[0]
        w = np.eye(self.graph.n)
        w[i, j] = w[j, i] = np.nan
        assert not analysis._respects_graph(w, self.graph)
        assert analysis._respects_graph(np.eye(self.graph.n), self.graph)

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
        report = analysis.check_uv_conditions(*dense_ref.incidence_uv(graph), graph)
        assert report.all_pass

    def test_zero_v_fails_nullspace(self):
        graph, _ = ls_preset(seed=32)
        deg = np.diag(netgraph.degrees(graph))
        report = analysis.check_uv_conditions(
            2.0 * deg, np.zeros((graph.n, graph.n)), deg, graph
        )
        assert not report.nullspace

    def test_zero_diagonal_dbar_fails_complementarity(self):
        graph, _ = ls_preset(seed=33)
        lap = netgraph.laplacian(graph)
        dbar = np.diag(netgraph.degrees(graph))
        dbar[0, 0] = 0.0
        u = 2.0 * dbar - lap
        report = analysis.check_uv_conditions(u, lap, dbar, graph)
        assert not report.complementarity

    def test_matrices_must_be_n_by_n(self):
        ring4 = netgraph.build_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)], 1)
        good = list(dense_ref.incidence_uv(ring4))
        for k in range(3):
            mats = list(good)
            mats[k] = np.eye(5)
            with pytest.raises(DimensionMismatch):
                analysis.check_uv_conditions(*mats, ring4)


def eigenvector_nullspace_oracle(mat):
    """null(S) = span(1) for S = (mat + mat')/2, read off a dense
    eigendecomposition: one eigenvalue within MIXING_TOL of the spectral
    scale, and its unit eigenvector is +-1/sqrt(n)."""
    eigvals, eigvecs = np.linalg.eigh(0.5 * (mat + mat.T))
    scale = max(float(np.max(np.abs(eigvals))), 1.0)
    null = np.flatnonzero(np.abs(eigvals) <= analysis.MIXING_TOL * scale)
    n = mat.shape[0]
    return bool(len(null) == 1
                and abs(abs(np.sum(eigvecs[:, null[0]])) / np.sqrt(n) - 1.0) <= 1e-8)


class TestNullspaceIsConsensus:
    """The null-space check reads eigenvalues and S 1 only: one zero
    eigenvalue, and S annihilates the ones vector."""

    def setup_method(self):
        self.graph = netgraph.build_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)], 1)
        n = self.graph.n
        lap = netgraph.laplacian(self.graph)
        # null space span(e_1): one zero eigenvalue, but S 1 != 0
        e1_null = np.diag([0.0, 2.0, 2.0, 2.0])
        # null space span(1, u) with u orthogonal to 1: S 1 = 0, but two zero
        # eigenvalues
        u = np.array([1.0, -1.0, 1.0, -1.0]) / 2.0
        two_null = 2.0 * (np.eye(n) - np.ones((n, n)) / n - np.outer(u, u))
        self.cases = [(lap, True), (e1_null, False), (two_null, False)]

    def test_uv_conditions(self):
        dbar = np.diag(netgraph.degrees(self.graph))
        for v, want in self.cases:
            report = analysis.check_uv_conditions(2.0 * dbar - v, v, dbar, self.graph)
            assert report.nullspace is want

    def test_mixing(self):
        # W~ = I, so (I - W~) 1 = 0 and the verdict is that of W - W~
        wt = np.eye(self.graph.n)
        for diff, want in self.cases:
            assert analysis.check_mixing(wt + 0.1 * diff, wt, self.graph).nullspace is want

    def test_agrees_with_eigenvector_oracle(self):
        # symmetric parts with known null spaces: span(1), span(e_k), a
        # random line, span(1, u) and none; nonzero eigenvalues of either
        # sign, any scale, and a skew part that the check symmetrizes away
        rng = np.random.default_rng(34)
        verdicts = []
        for trial in range(200):
            n = int(rng.integers(2, 9))
            kind = trial % 5
            null = [np.ones((n, 1)), np.eye(n)[:, [int(rng.integers(n))]],
                    rng.standard_normal((n, 1)),
                    np.column_stack((np.ones(n), rng.standard_normal(n))),
                    np.empty((n, 0))][kind]
            dim = null.shape[1]
            q, _ = np.linalg.qr(np.column_stack((null, rng.standard_normal((n, n - dim)))))
            lam = rng.uniform(0.5, 3.0, n) * rng.choice([-1.0, 1.0], n)
            lam[:dim] = 0.0
            sym = 10.0 ** rng.uniform(-2, 3) * (q * lam) @ q.T
            skew = rng.standard_normal((n, n))
            mat = sym + (skew - skew.T)
            want = kind == 0
            assert eigenvector_nullspace_oracle(mat) is want
            assert analysis._nullspace_is_consensus(mat) is want
            verdicts.append(want)
        assert 0 < sum(verdicts) < len(verdicts)


def test_certificate_serialization_roundtrip_values():
    graph, comps = ls_preset(seed=40)
    profile = objective.sum_profile(comps, graph)
    cert = analysis.rate_certificate(graph, profile, AdmmParams(1.0, 0.5, 0.0))
    lines = analysis.certificate_lines(cert)
    values = dict(line.split(" = ") for line in lines)
    assert len(values) == len(lines)
    for cand in cert.candidates:
        for name, value in zip(cand.names, (cand.delta, cand.tau, cand.lam_max)):
            assert float(values[name]) == value
    assert float(values["contraction_factor"]) == cert.contraction_factor()
    assert cert.contraction_factor() == 1.0 / (1.0 + cert.candidates[1].delta)
    rows = analysis.certificate_csv_rows(cert)
    assert rows[0] == "name,value"
    assert len(rows) == len(lines) + 1
