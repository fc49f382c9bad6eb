import numpy as np
import pytest
from numpy.testing import assert_allclose

from deconopt import denselin, harness, netgraph, objective, solvers
from deconopt.errors import ConditionViolation
from deconopt.solvers import AdmmParams, PextraParams


def collect(agents, graph, rounds):
    snaps = []
    harness.run_rounds(agents, graph, rounds,
                       observer=lambda k, x, phi, log: snaps.append((k, x, phi, log)))
    return snaps


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
        agents = harness.dadmm_agents(graph, comps, AdmmParams(1.0, 0.5), x0=x0)
        agents, logs = harness.run_rounds(agents, graph, 0)
        assert logs == []
        assert_allclose(harness.stacked_x(agents), x0)

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
            assert np.max(np.abs(x - state.x)) <= 1e-12
            assert np.max(np.abs(phi - state.phi)) <= 1e-12


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


class TestInformationLocality:
    def test_agents_hold_no_global_references(self):
        graph, comps = harness.scenario_least_squares(4, 2, seed=2)
        agents = harness.dadmm_agents(graph, comps, AdmmParams(1.0, 0.5))
        for agent in agents:
            assert set(agent.inbox) == set(agent.neighbor_ids)
            assert not hasattr(agent, "graph")
            assert not hasattr(agent, "agents")

    def test_corrupting_non_neighbor_leaves_update_unchanged(self):
        # one round after corrupting agent j, every agent at graph distance
        # >= 2 from j must produce a bit-identical update
        graph, comps = harness.scenario_least_squares(7, 2, seed=5)
        params = AdmmParams(rho=1.0, eta=0.5, pi=0.1)

        def fresh():
            agents = harness.dadmm_agents(graph, comps, params)
            harness.run_rounds(agents, graph, 3)
            return agents

        target = 1
        immediate = set(graph.neighbor_ids(target)) | {target}
        far_agents = [i for i in range(1, graph.n + 1) if i not in immediate]
        assert far_agents, "test graph too dense to contain a distance-2 pair"

        clean = fresh()
        harness.run_rounds(clean, graph, 1)

        corrupted = fresh()
        victim = corrupted[target - 1]
        victim.x = victim.x + 100.0
        victim.phi = victim.phi - 50.0
        for j in victim.inbox:
            victim.inbox[j] = victim.inbox[j] * -3.0
        harness.run_rounds(corrupted, graph, 1)

        for i in far_agents:
            assert np.array_equal(clean[i - 1].x, corrupted[i - 1].x)
            assert np.array_equal(clean[i - 1].phi, corrupted[i - 1].phi)
        # the corrupted agent itself must differ (sanity of the mutation)
        assert not np.array_equal(clean[target - 1].x, corrupted[target - 1].x)


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
