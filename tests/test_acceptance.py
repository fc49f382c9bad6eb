"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line. Criteria cover the Q-linear contraction matrix, the
corollary norm, the algorithm-equivalence web, the structural iterate
identities, overshooting, the extended relaxation range, the certificate
internals, the condition checkers, and determinism/locality of the simulated
network."""

import functools
import zlib

import numpy as np
import pytest

import dense_ref
from deconopt import analysis, cli, denselin, harness, netgraph, objective, solvers
from deconopt.solvers import AdmmParams, PextraParams

GRAPH_KINDS = ("ring", "path", "random")
SIZES = (3, 5, 10)
BLOCKS = (1, 2, 3)
ETAS = (0.3, 0.5, 0.9)
RHOS = (0.5, 1.0, 5.0)
PIS = (0.0, 0.1)
ROUNDS = 300
SLACK_SCALE = 1e-7


def criterion(num, name):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {num} ({name}): FAIL")
                raise
            print(f"\nACCEPTANCE {num} ({name}): PASS")
        return run
    return wrap


def build_instance(kind, n, p, seed):
    rng = np.random.default_rng(seed)
    if kind == "ring":
        edges = harness.ring_edges(n)
    elif kind == "path":
        edges = harness.path_edges(n)
    else:
        edges = harness.random_connected_edges(n, rng)
    graph = netgraph.build_graph(n, edges, p)
    components = harness.random_rank_one_components(n, p, rng)
    return graph, components


@functools.lru_cache(maxsize=None)
def cached_instance(kind, n, p):
    seed = zlib.crc32(f"{kind}-{n}-{p}".encode())  # process-independent
    graph, components = build_instance(kind, n, p, seed)
    profile = objective.sum_profile(components, graph)
    ref = analysis.reference_solution(graph, components, eta=0.5)
    return graph, components, profile, ref


def matrix_trace(graph, components, params, rounds):
    """(xs, phi_last): row k of xs is the iterate after round k, phi_last the
    final dual aggregate."""
    engine = solvers.DadmmMatrixEngine(graph, components, params)
    st = engine.init()
    xs = [st.x]
    for _ in range(rounds):
        st = engine.step(st)
        xs.append(st.x)
    return np.array(xs), st.phi


@criterion(1, "Q-linear contraction over the full instance matrix")
def test_criterion_1_q_linear_contraction():
    checked = 0
    for kind in GRAPH_KINDS:
        for n in SIZES:
            for p in BLOCKS:
                graph, components, profile, ref = cached_instance(kind, n, p)
                for eta in ETAS:
                    for rho in RHOS:
                        for pi in PIS:
                            params = AdmmParams(rho, eta, pi)
                            cert = analysis.rate_certificate(graph, profile, params)
                            assert cert.delta > 0, (kind, n, p, eta, rho, pi)
                            xs, phi_last = matrix_trace(graph, components, params, ROUNDS)
                            report = analysis.verify_contraction(xs, phi_last, ref, cert)
                            assert report.slack == SLACK_SCALE * (1 + report.distances[0])
                            assert report.ok, (kind, n, p, eta, rho, pi,
                                               report.violations[:3])
                            checked += 1
    assert checked == 486

    # the same bound also holds on the distributed execution: replay a
    # diagonal of cells through the simulated network, whose final broadcast
    # aggregate phi must be E_o^T of the arc dual read off its trace
    for kind, n, p, eta, rho, pi in (
        ("ring", 5, 2, 0.5, 1.0, 0.1),
        ("path", 10, 1, 0.9, 0.5, 0.0),
        ("random", 3, 3, 0.3, 5.0, 0.1),
    ):
        graph, components, profile, ref = cached_instance(kind, n, p)
        params = AdmmParams(rho, eta, pi)
        cert = analysis.rate_certificate(graph, profile, params)
        agents = harness.dadmm_agents(graph, components, params)
        snaps = []
        harness.run_rounds(agents, graph, ROUNDS,
                           observer=lambda k, x, phi, log: snaps.append(x))
        report = analysis.verify_contraction(np.array(snaps), agents.phi.ravel(), ref, cert)
        assert report.ok, (kind, n, p, report.violations[:3])


@criterion(2, "corollary contraction in the edge-variable norm at P = 0")
def test_criterion_2_corollary_norm():
    checked = 0
    for kind in GRAPH_KINDS:
        for n in SIZES:
            for p in BLOCKS:
                graph, components, profile, ref = cached_instance(kind, n, p)
                for eta in ETAS:
                    for rho in RHOS:
                        params = AdmmParams(rho, eta, 0.0)
                        cert = analysis.rate_certificate_admm(graph, profile, rho, eta)
                        assert cert.delta_admm > 0
                        xs, phi_last = matrix_trace(graph, components, params, ROUNDS)
                        report = analysis.verify_contraction(xs, phi_last, ref, cert)
                        assert report.slack == SLACK_SCALE * (1 + report.distances[0])
                        assert report.ok, (kind, n, p, eta, rho,
                                           report.violations[:3])
                        checked += 1
    assert checked == 243


@criterion(3, "equivalence web across all iterate engines")
def test_criterion_3_equivalence_web():
    gaps = {"matrix": 0.0, "full": 0.0, "approx": 0.0, "pextra": 0.0, "uv": 0.0}
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(3, 9))
        p = int(rng.integers(1, 4))
        n = max(n, p)
        graph, components = build_instance("random", n, p, 2000 + seed)
        rho = float(rng.uniform(0.4, 3.0))
        eta = float(rng.uniform(0.2, 0.95))
        params = AdmmParams(rho, eta, float(rng.uniform(0.0, 0.4)))

        dmax = float(netgraph.degrees(graph).max())
        xi = float(rng.uniform(0.5, 0.95)) / (rho * dmax)
        params_t2 = AdmmParams(rho, eta, solvers.theorem2_pi(graph, xi, rho))
        w, wt = solvers.pextra_mixing(graph, xi, rho, eta)

        engines = {
            "dadmm": solvers.DadmmEngine(graph, components, params),
            "matrix": solvers.DadmmMatrixEngine(graph, components, params),
            "full": solvers.FullAdmmEngine(graph, components, params),
            "approx": solvers.ApproxMMEngine(graph, components, params, 1.0 / rho),
            "dadmm_t2": solvers.DadmmEngine(graph, components, params_t2),
            "pextra": solvers.PextraEngine(
                graph, components, PextraParams(xi=xi, w=w, w_tilde=wt)),
            "uv": solvers.GeneralUVEngine(
                graph, *dense_ref.incidence_uv(graph), components, params),
        }
        states = {name: eng.init() for name, eng in engines.items()}
        for _ in range(100):
            states = {name: eng.step(states[name]) for name, eng in engines.items()}
            x = states["dadmm"].x
            gaps["matrix"] = max(gaps["matrix"], np.max(np.abs(x - states["matrix"].x)))
            gaps["full"] = max(gaps["full"], np.max(np.abs(x - states["full"].x)))
            gaps["approx"] = max(gaps["approx"], np.max(np.abs(x - states["approx"].x)))
            gaps["pextra"] = max(gaps["pextra"], np.max(np.abs(
                states["dadmm_t2"].x - states["pextra"].x)))
            gaps["uv"] = max(gaps["uv"], np.max(np.abs(
                states["matrix"].x - states["uv"].x)))
    assert all(g <= 1e-9 for g in gaps.values()), gaps


@criterion(4, "edge variable tracks the unoriented average of the iterates")
def test_criterion_4_edge_variable_identity():
    for seed in range(5):
        graph, components = build_instance("random", 5 + seed % 3, 2, 3000 + seed)
        e_u = dense_ref.lifted_incidence(graph)[1]
        rng = np.random.default_rng(seed)
        engine = solvers.FullAdmmEngine(
            graph, components,
            AdmmParams(float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.3, 1.2)), 0.1),
        )
        st = engine.init(x0=rng.standard_normal(graph.n * graph.p))
        for _ in range(100):
            st = engine.step(st)
            assert np.linalg.norm(st.z - 0.5 * e_u @ st.x) <= 1e-10


@criterion(5, "optimum is a fixed point everywhere; exact MM converges to it")
def test_criterion_5_fixed_points_and_mm():
    graph, components = harness.scenario_least_squares(5, 2, seed=77)
    rho, eta = 1.0, 0.5
    params = AdmmParams(rho, eta, 0.1)
    ref = analysis.reference_solution(graph, components, eta)
    phi_star = dense_ref.lifted_incidence(graph)[0].T @ ref.alpha_star

    dmax = float(netgraph.degrees(graph).max())
    xi = 0.8 / (rho * dmax)
    w, wt = solvers.pextra_mixing(graph, xi, rho, eta)

    fixed_points = []
    eng = solvers.DadmmEngine(graph, components, params)
    st = eng.init(x0=ref.x_star, alpha0=ref.alpha_star)
    fixed_points.append(("dadmm", eng, st, lambda s: (s.x, s.phi)))
    eng = solvers.DadmmMatrixEngine(graph, components, params)
    st = eng.init(x0=ref.x_star, alpha0=ref.alpha_star)
    fixed_points.append(("matrix", eng, st, lambda s: (s.x, s.phi)))
    eng = solvers.FullAdmmEngine(graph, components, params)
    st = eng.init(x0=ref.x_star, alpha0=ref.alpha_star)
    fixed_points.append(("full", eng, st, lambda s: (s.x, s.lam)))
    eng = solvers.ExactMMEngine(graph, components, params)
    st = eng.init(x0=ref.x_star, nu0=ref.nu_star)
    fixed_points.append(("mm-exact", eng, st, lambda s: (s.x, s.nu)))
    eng = solvers.ApproxMMEngine(graph, components, params, 1.0 / rho)
    st = eng.init(x0=ref.x_star, nu0=ref.nu_star)
    fixed_points.append(("mm-approx", eng, st, lambda s: (s.x, s.nu)))
    eng = solvers.GeneralUVEngine(
        graph, *dense_ref.incidence_uv(graph), components, params)
    st = eng.init(x0=ref.x_star, phi0=phi_star)
    fixed_points.append(("uv", eng, st, lambda s: (s.x, s.phi)))
    # P-EXTRA holds the optimum once the running sum carries the dual price:
    # s = -xi * phi_star reproduces the stationarity of the optimum
    peng = solvers.PextraEngine(graph, components,
                                PextraParams(xi=xi, w=w, w_tilde=wt))
    pst = solvers.PextraState(x=ref.x_star.copy(),
                              running_sum=-xi * phi_star, k=0)
    fixed_points.append(("pextra", peng, pst, lambda s: (s.x, s.running_sum)))

    for name, engine, state, view in fixed_points:
        nxt = engine.step(state)
        before, after = view(state), view(nxt)
        assert np.max(np.abs(after[0] - before[0])) <= 1e-9, name
        assert np.max(np.abs(after[1] - before[1])) <= 1e-9, name

    mm = solvers.ExactMMEngine(graph, components, AdmmParams(rho, eta, 0.0))
    st = mm.init()
    hit = None
    for k in range(1, 501):
        st = mm.step(st)
        if np.linalg.norm(st.x - ref.x_star) < 1e-6:
            hit = k
            break
    assert hit is not None
    assert np.max(np.abs(st.nu - ref.nu_star)) < 1e-3  # converging to alpha*/sqrt(eta)


@criterion(6, "overshooting beyond the spectral condition still contracts")
def test_criterion_6_overshooting():
    graph, components = build_instance("ring", 5, 2, seed=4242)
    profile = objective.sum_profile(components, graph)
    ref = analysis.reference_solution(graph, components, eta=0.5)
    rho = 1.0
    dmax = float(netgraph.degrees(graph).max())
    xi = 0.9 / (rho * dmax)

    for omega in (0.6, 0.75, 0.9):
        w, wt = solvers.pextra_mixing(graph, xi, rho, omega)
        mixing_report = analysis.check_mixing(w, wt, graph)
        assert not mixing_report.upper_ok, omega      # spectral condition violated
        assert mixing_report.lam_overshoot > 0
        assert mixing_report.decentralized and mixing_report.symmetric
        assert mixing_report.nullspace and mixing_report.wt_positive_definite

        params = AdmmParams(rho, omega, solvers.theorem2_pi(graph, xi, rho))
        cert = analysis.rate_certificate(graph, profile, params)
        assert cert.delta > 0

        engine = solvers.PextraEngine(graph, components,
                                      PextraParams(xi=xi, w=w, w_tilde=wt))
        st = engine.init()
        xs = [st.x]
        for _ in range(ROUNDS):
            st = engine.step(st)
            xs.append(st.x)
        # the arc dual is read off the trace at eta = omega; the final
        # aggregate must be E_o^T of it
        report = analysis.verify_contraction(np.array(xs), engine.phi(st), ref, cert)
        assert report.ok, (omega, report.violations[:3])


@criterion(7, "relaxation beyond the certified range still converges")
def test_criterion_7_extended_relaxation():
    graph, components = harness.scenario_least_squares(5, 2, seed=5)
    ref = analysis.reference_solution(graph, components, eta=0.5)
    engine = solvers.DadmmMatrixEngine(graph, components, AdmmParams(1.0, 1.618, 0.0))
    st = engine.init()
    for k in range(1, 2001):
        st = engine.step(st)
        if np.linalg.norm(st.x - ref.x_star) < 1e-6:
            break
    assert np.linalg.norm(st.x - ref.x_star) < 1e-6


@criterion(8, "certificate internals: searches match dense grids, curvature limit")
def test_criterion_8_certificate_internals():
    graph, components = build_instance("ring", 5, 2, seed=99)
    profile = objective.sum_profile(components, graph)

    # tau search vs a dense grid
    for rho, eta, pi in ((0.5, 0.3, 0.0), (1.0, 0.5, 0.1), (5.0, 0.9, 0.1)):
        cert = analysis.rate_certificate(graph, profile, AdmmParams(rho, eta, pi))
        taus = np.logspace(-10, 10, 1_000_001)
        b1 = rho * eta * cert.lam_min_nonzero / (2.0 * (1.0 + 1.0 / taus) * cert.lam_max_m)
        b2 = (rho * eta * cert.mu_g * cert.lam_min_nonzero
              / ((1.0 + taus) * cert.lipschitz_g ** 2
                 + rho * eta * cert.lam_max_m * cert.lam_min_nonzero))
        grid_best = float(np.max(np.minimum(b1, b2)))
        assert cert.delta == pytest.approx(grid_best, rel=1e-6)

    # gamma search vs a dense grid (refined once around the coarse argmax so
    # the oracle resolves the kink beyond the comparison tolerance)
    rho, eta = 1.0, 0.5
    mu_opt, _ = analysis.mu_g(profile, graph, rho, eta, "optimize")
    lap = netgraph.laplacian(graph)
    lam_min = denselin.smallest_nonzero(denselin.sym_eigen(denselin.SymMatrix(lap))[0])
    hi = (profile.mu_sum / profile.n) / (2.0 * profile.lipschitz)

    def branch_min(gammas):
        g1 = profile.mu_sum / profile.n - 2.0 * profile.lipschitz * gammas
        g2 = lam_min * rho * (1.0 - eta) / (2.0 * (1.0 + 1.0 / gammas**2))
        return np.minimum(g1, g2)

    gammas = np.linspace(hi * 1e-9, hi * (1 - 1e-9), 1_000_001)
    vals = branch_min(gammas)
    j = int(np.argmax(vals))
    fine = np.linspace(gammas[max(j - 1, 0)], gammas[min(j + 1, len(gammas) - 1)],
                       1_000_001)
    grid_best = float(np.max(branch_min(fine)))
    assert mu_opt == pytest.approx(grid_best, rel=1e-6)

    # curvature limit: the stated penalty choice drives mu_g to mu_sum / n
    gamma = 1e-4
    target = profile.mu_sum / profile.n - 2.0 * profile.lipschitz * gamma
    penalty = 2.0 * (gamma**2 + 1.0) * target / (gamma**2 * lam_min)
    value, _ = analysis.mu_g(profile, graph, penalty / (1.0 - eta), eta, gamma)
    assert value >= 0.99 * profile.mu_sum / profile.n


@criterion(9, "mixing-matrix and two-matrix condition checkers")
def test_criterion_9_condition_checkers():
    graph, _ = build_instance("ring", 6, 1, seed=8)
    dmax = float(netgraph.degrees(graph).max())

    # safe parameter ranges pass all four conditions
    for eta in (0.1, 0.3, 0.5):
        xi_rho = 0.95 / ((1.0 - eta) * dmax)
        w, wt = solvers.pextra_mixing(graph, xi_rho, 1.0, eta)
        assert analysis.check_mixing(w, wt, graph).all_pass, eta

    # eta = 1/2 is the spectral equality case
    w, wt = solvers.pextra_mixing(graph, 0.9 / dmax, 1.0, 0.5)
    assert np.max(np.abs(0.5 * (np.eye(graph.n) + w) - wt)) <= 1e-12

    # classical two-matrix assignment passes
    assert analysis.check_uv_conditions(*dense_ref.incidence_uv(graph), graph).all_pass


@criterion(10, "byte-identical traces and information locality")
def test_criterion_10_determinism_and_locality(tmp_path):
    ini = """
[scenario]
preset = ls-ring
n = 5
p = 2
seed = 3

[algorithm]
name = dadmm
rho = 1.0
eta = 0.5
pi = 0.1
rounds = 50

[output]
dir = {out}
"""
    path_a = tmp_path / "a.ini"
    path_a.write_text(ini.format(out=tmp_path / "A"))
    path_b = tmp_path / "b.ini"
    path_b.write_text(ini.format(out=tmp_path / "B"))
    assert cli.main(["run", str(path_a), "--verify"]) == 0
    assert cli.main(["run", str(path_b), "--verify"]) == 0
    assert (tmp_path / "A" / "trace.csv").read_bytes() == \
        (tmp_path / "B" / "trace.csv").read_bytes()

    # information locality: perturb the rows of one agent between rounds. A
    # round's local solve reads the x rows of an agent and its neighbours and
    # its dual step the neighbours' new x rows, so after the next round every
    # x row at graph distance >= 2 and every dual row at distance >= 3 is
    # bit-identical. A perturbed dual row alone is read only by its owner's
    # solve, so then every row at distance >= 2 is bit-identical. Either way
    # the perturbed agent's update differs
    graph, components = harness.scenario_least_squares(7, 2, seed=5)
    params = AdmmParams(1.0, 0.5, 0.1)

    def fresh():
        net = harness.dadmm_agents(graph, components, params)
        harness.run_rounds(net, graph, 3)
        return net

    target = 1
    near = set(dense_ref.neighbor_ids(graph, target)) | {target}
    far = [i for i in range(1, graph.n + 1) if i not in near]
    farther = [i for i in far if not near & set(dense_ref.neighbor_ids(graph, i))]
    assert farther

    clean = fresh()
    harness.run_rounds(clean, graph, 1)
    for perturb_x, dual_far in ((True, farther), (False, far)):
        corrupted = fresh()
        x, dual = corrupted.x.copy(), corrupted.dual.copy()
        if perturb_x:
            x[target - 1] += 100.0
        dual[target - 1] -= 50.0
        corrupted.x, corrupted.dual = x, dual
        harness.run_rounds(corrupted, graph, 1)
        for i in far:
            assert np.array_equal(clean.x[i - 1], corrupted.x[i - 1])
        for i in dual_far:
            assert np.array_equal(clean.dual[i - 1], corrupted.dual[i - 1])
        assert not np.array_equal(clean.x[target - 1], corrupted.x[target - 1])
        assert not np.array_equal(clean.dual[target - 1], corrupted.dual[target - 1])
