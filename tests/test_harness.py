import numpy as np
import pytest
from numpy.testing import assert_allclose

from deconopt import denselin, harness, netgraph, objective, solvers
from deconopt.errors import ConditionViolation, DimensionMismatch
from deconopt.solvers import AdmmParams, PextraParams


def collect(agents, graph, rounds):
    snaps = []
    harness.run_rounds(agents, graph, rounds,
                       observer=lambda k, x, phi, log: snaps.append((k, x, phi, log)))
    return snaps


def hops_from(graph, source):
    """Graph distance from agent `source` to agents 1..n, breadth first."""
    hops = {source: 0}
    frontier = [source]
    while frontier:
        reached = []
        for i in frontier:
            for j in graph.neighbor_ids(i):
                if j not in hops:
                    hops[j] = hops[i] + 1
                    reached.append(j)
        frontier = reached
    return [hops[i] for i in range(1, graph.n + 1)]


class TestRunRounds:
    def test_dadmm_trajectory_bit_exact_vs_engine(self):
        graph, comps = harness.scenario_least_squares(6, 2, seed=3)
        params = AdmmParams(rho=1.0, eta=0.5, pi=0.1)
        engine = solvers.DadmmEngine(graph, comps, params)
        agents = harness.dadmm_agents(graph, comps, params)
        state = engine.init()
        for k, x, phi, _ in collect(agents, graph, 60):
            if k > 0:
                state = engine.step(state)
            assert np.array_equal(x, state.x)
            assert np.array_equal(phi, state.phi)

    def test_message_count_per_round(self):
        graph = netgraph.build_graph(3, [(1, 2), (2, 3)], 1)
        comps = [objective.RankOneLeastSquares([1.0], float(i)) for i in range(3)]
        agents = harness.dadmm_agents(graph, comps, AdmmParams(1.0, 0.5))
        _, logs = harness.run_rounds(agents, graph, 5)
        assert graph.m == 4
        assert all(log.messages == 4 for log in logs)
        assert all(log.payload_scalars == 4 for log in logs)

    def test_zero_rounds_returns_initial_state(self):
        graph, comps = harness.scenario_least_squares(4, 2, seed=1)
        x0 = np.arange(8, dtype=float)
        net = harness.dadmm_agents(graph, comps, AdmmParams(1.0, 0.5), x0=x0)
        net, logs = harness.run_rounds(net, graph, 0)
        assert logs == []
        assert_allclose(net.x.ravel(), x0)

    def test_pextra_agents_match_engine(self):
        graph, comps = harness.scenario_least_squares(5, 2, seed=8)
        rho, eta = 1.0, 0.5
        dmax = max(graph.degree(i) for i in range(1, graph.n + 1))
        xi = 0.9 / (rho * dmax)
        w, wt = solvers.pextra_mixing(graph, xi, rho, eta)
        pp = PextraParams(xi=xi, w=w, w_tilde=wt)
        engine = solvers.PextraEngine(graph, comps, pp)
        agents = harness.pextra_agents(graph, comps, pp)
        state = engine.init()
        for k, x, phi, _ in collect(agents, graph, 40):
            if k > 0:
                state = engine.step(state)
            assert np.array_equal(x, state.x)
            assert np.array_equal(phi, engine.phi_view(state))

    def test_general_uv_agents_match_engine(self):
        graph, comps = harness.scenario_least_squares(5, 2, seed=9)
        params = AdmmParams(rho=1.0, eta=0.5, pi=0.1)
        _, e_u, deg, lap = netgraph.incidence_operators(graph)
        u, v, dbar = e_u.gram_base(), lap.base, deg.base
        engine = solvers.GeneralUVEngine(graph, u, v, dbar, comps, params)
        agents = harness.general_uv_agents(graph, u, v, dbar, comps, params)
        state = engine.init()
        for k, x, phi, _ in collect(agents, graph, 40):
            if k > 0:
                state = engine.step(state)
            assert np.array_equal(x, state.x)
            assert np.array_equal(phi, state.phi)

    def test_dadmm_and_general_uv_agents_share_one_kernel(self):
        # D-ADMM is the U/V round at (E_u'E_u, L, D); one kernel serves both,
        # so the trajectories agree bit for bit
        graph, comps = harness.scenario_least_squares(6, 2, seed=12)
        params = AdmmParams(rho=1.3, eta=0.6, pi=0.2)
        _, e_u, deg, lap = netgraph.incidence_operators(graph)
        x0 = np.random.default_rng(4).standard_normal(graph.n * graph.p)
        dadmm = collect(harness.dadmm_agents(graph, comps, params, x0=x0), graph, 50)
        uv = collect(harness.general_uv_agents(graph, e_u.gram_base(), lap.base, deg.base,
                                               comps, params, x0=x0), graph, 50)
        assert len(dadmm) == len(uv) == 51
        for (_, x1, phi1, _), (_, x2, phi2, _) in zip(dadmm, uv):
            assert np.array_equal(x1, x2)
            assert np.array_equal(phi1, phi2)


class TestLocalFactorCache:
    def test_each_agent_factors_once(self, monkeypatch):
        graph, comps = harness.scenario_least_squares(5, 2, seed=8)
        params = AdmmParams(rho=1.0, eta=0.5, pi=0.1)
        calls = []
        real = denselin.spd_factor
        monkeypatch.setattr(denselin, "spd_factor", lambda a: calls.append(1) or real(a))
        snaps = collect(harness.dadmm_agents(graph, comps, params), graph, 50)
        assert len(calls) == graph.n

        # reference: every round solves with freshly built, uncached components
        fresh = harness.dadmm_agents(graph, comps, params)
        for k, x, phi, _ in snaps:
            if k > 0:
                fresh.components = [objective.RankOneLeastSquares(comp.h, comp.y)
                                    for comp in fresh.components]
                harness.network_round(fresh)
            assert np.array_equal(x, fresh.x.ravel())
            assert np.array_equal(phi, fresh.phi.ravel())
        assert len(calls) == graph.n * 51


class TestAgentFactories:
    """The factories validate their inputs; the engines that drive these
    agents rely on it."""

    @staticmethod
    def ring5():
        graph, comps = harness.scenario_least_squares(5, 2, seed=8)
        return netgraph.build_graph(5, harness.ring_edges(5), 2), comps

    @pytest.mark.parametrize("which", ["w", "w_tilde"])
    def test_pextra_rejects_mixing_between_non_neighbours(self, which):
        graph, comps = self.ring5()
        assert 3 not in graph.neighbor_ids(1)
        w, wt = solvers.pextra_mixing(graph, 0.1, 1.0, 0.5)
        mats = {"w": w, "w_tilde": wt}
        mats[which][0, 2] = mats[which][2, 0] = 0.1
        pp = PextraParams(xi=0.1, **mats)
        with pytest.raises(ValueError, match=r"\(1,3\)"):
            harness.pextra_agents(graph, comps, pp)

    def test_general_uv_checks_conditions(self):
        graph, comps = self.ring5()
        _, e_u, deg, _ = netgraph.incidence_operators(graph)
        with pytest.raises(ConditionViolation):
            harness.general_uv_agents(graph, e_u.gram_base(), np.zeros((5, 5)),
                                      deg.base, comps, AdmmParams(1.0, 0.5))

    def test_component_count_checked(self):
        graph, comps = self.ring5()
        params = AdmmParams(1.0, 0.5)
        _, e_u, deg, lap = netgraph.incidence_operators(graph)
        w, wt = solvers.pextra_mixing(graph, 0.1, 1.0, 0.5)
        short = comps[:-1]
        with pytest.raises(ValueError, match="one component per agent"):
            harness.dadmm_agents(graph, short, params)
        with pytest.raises(ValueError, match="one component per agent"):
            harness.pextra_agents(graph, short, PextraParams(xi=0.1, w=w, w_tilde=wt))
        with pytest.raises(ValueError, match="one component per agent"):
            harness.general_uv_agents(graph, e_u.gram_base(), lap.base, deg.base,
                                      short, params)


    @pytest.mark.parametrize("shape", [(13,), (9,), (5, 2)])
    def test_stacked_length_checked(self, shape):
        graph, comps = self.ring5()
        assert graph.n * graph.p == 10
        bad = np.ones(shape)
        params = AdmmParams(1.0, 0.5)
        _, e_u, deg, lap = netgraph.incidence_operators(graph)
        w, wt = solvers.pextra_mixing(graph, 0.1, 1.0, 0.5)
        pp = PextraParams(xi=0.1, w=w, w_tilde=wt)
        uv = (e_u.gram_base(), lap.base, deg.base)
        calls = [
            lambda: harness.dadmm_agents(graph, comps, params, x0=bad),
            lambda: harness.dadmm_agents(graph, comps, params, phi0=bad),
            lambda: harness.pextra_agents(graph, comps, pp, x0=bad),
            lambda: harness.general_uv_agents(graph, *uv, comps, params, x0=bad),
            lambda: harness.general_uv_agents(graph, *uv, comps, params, phi0=bad),
            # an engine loads its state into the network's rows every step
            lambda: solvers.DadmmEngine(graph, comps, params).step(
                solvers.AdmmState(x=bad, phi=np.zeros(10))),
            lambda: solvers.PextraEngine(graph, comps, pp).step(
                solvers.PextraState(x=np.zeros(10), running_sum=bad)),
        ]
        for call in calls:
            with pytest.raises(DimensionMismatch):
                call()


class TestInformationLocality:
    def test_agents_hold_no_global_references(self):
        # the network keeps rows per agent and weights per arc; no n x n
        # mixing matrix, which could couple non-neighbours, survives the factory
        graph, comps = harness.scenario_least_squares(4, 2, seed=2)
        net = harness.dadmm_agents(graph, comps, AdmmParams(1.0, 0.5))
        assert net.x.shape == net.dual.shape == (graph.n, graph.p)
        for w_self, w_arc in (net.u, net.v):
            assert w_self.shape == (graph.n,)
            assert w_arc.shape == (graph.m,)
        arrays = [value for value in vars(net).values() if isinstance(value, np.ndarray)]
        arrays += [w for pair in (net.u, net.v) for w in pair]
        assert all(arr.shape != (graph.n, graph.n) for arr in arrays)
        assert not hasattr(net, "graph")

    def test_corrupting_non_neighbor_leaves_update_unchanged(self):
        # perturb the rows of agent `target` between rounds. A round's local
        # solve reads the x rows of an agent and its neighbours, and its dual
        # step reads the neighbours' new x rows, so after one round every x
        # row at graph distance >= 2 and every dual row at distance >= 3 is
        # bit-identical. A perturbed dual row alone is read only by its owner's
        # solve, so then every row at distance >= 2 is bit-identical. Checked
        # under each of the three rules.
        graph, comps = harness.scenario_least_squares(7, 2, seed=5)
        params = AdmmParams(rho=1.0, eta=0.5, pi=0.1)
        _, e_u, deg, lap = netgraph.incidence_operators(graph)
        dmax = max(graph.degree(i) for i in range(1, graph.n + 1))
        xi = 0.9 / dmax
        w, wt = solvers.pextra_mixing(graph, xi, 1.0, 0.5)
        factories = [
            lambda: harness.dadmm_agents(graph, comps, params),
            lambda: harness.pextra_agents(graph, comps, PextraParams(xi=xi, w=w, w_tilde=wt)),
            lambda: harness.general_uv_agents(graph, e_u.gram_base(), lap.base, deg.base,
                                              comps, params),
        ]

        target = 1
        hops = hops_from(graph, target)
        assert max(hops) >= 3, "test graph too dense to contain a distance-3 pair"

        for factory in factories:
            def fresh():
                net = factory()
                harness.run_rounds(net, graph, 3)
                return net

            clean = fresh()
            harness.run_rounds(clean, graph, 1)

            for perturb_x, x_reach, dual_reach in ((True, 1, 2), (False, 1, 1)):
                corrupted = fresh()
                x, dual = corrupted.x.copy(), corrupted.dual.copy()
                if perturb_x:
                    x[target - 1] += 100.0
                dual[target - 1] -= 50.0
                corrupted.x, corrupted.dual = x, dual
                harness.run_rounds(corrupted, graph, 1)

                for i, hop in enumerate(hops):
                    if hop > x_reach:
                        assert np.array_equal(clean.x[i], corrupted.x[i])
                    if hop > dual_reach:
                        assert np.array_equal(clean.dual[i], corrupted.dual[i])
                # the perturbed agent itself must differ (sanity of the mutation)
                assert not np.array_equal(clean.x[target - 1], corrupted.x[target - 1])
                assert not np.array_equal(clean.dual[target - 1],
                                          corrupted.dual[target - 1])


class TestDeterminism:
    def test_identical_round_logs_and_traces(self):
        graph, comps = harness.scenario_least_squares(5, 3, seed=13)
        params = AdmmParams(rho=0.9, eta=0.7, pi=0.05)

        def run():
            agents = harness.dadmm_agents(graph, comps, params)
            snaps = []
            _, logs = harness.run_rounds(
                agents, graph, 25,
                observer=lambda k, x, phi, log: snaps.append((k, x.copy(), phi.copy())),
            )
            return snaps, logs

        s1, l1 = run()
        s2, l2 = run()
        assert l1 == l2  # RoundLog equality ignores wall time
        for (k1, x1, p1), (k2, x2, p2) in zip(s1, s2):
            assert k1 == k2
            assert np.array_equal(x1, x2)
            assert np.array_equal(p1, p2)


class TestScenario:
    def test_components_not_strongly_convex_for_p_gt_1(self):
        _, comps = harness.scenario_least_squares(6, 3, seed=21)
        for comp in comps:
            eigvals, _ = denselin.sym_eigen(
                denselin.SymMatrix(comp.hess(np.zeros(3)))
            )
            assert eigvals[0] == pytest.approx(0.0, abs=1e-12)

    def test_same_seed_identical_instance(self):
        g1, c1 = harness.scenario_least_squares(6, 2, seed=17)
        g2, c2 = harness.scenario_least_squares(6, 2, seed=17)
        assert g1 == g2
        for a, b in zip(c1, c2):
            assert np.array_equal(a.h, b.h)
            assert a.y == b.y

    def test_sum_profile_passes(self):
        graph, comps = harness.scenario_least_squares(5, 2, seed=23)
        profile = objective.sum_profile(comps, graph)
        assert profile.mu_sum >= 0.1

    def test_requires_enough_rows(self):
        with pytest.raises(ValueError):
            harness.scenario_least_squares(2, 3, seed=0)

    def test_graph_builders(self):
        assert harness.ring_edges(4) == [(1, 2), (2, 3), (3, 4), (1, 4)]
        assert harness.path_edges(4) == [(1, 2), (2, 3), (3, 4)]
        assert harness.ring_edges(2) == [(1, 2)]
        rng = np.random.default_rng(3)
        for n in (3, 6, 10):
            edges = harness.random_connected_edges(n, rng)
            netgraph.build_graph(n, edges, 1)  # connected by construction
