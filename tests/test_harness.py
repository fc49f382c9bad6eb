import numpy as np
import pytest
from numpy.testing import assert_allclose

import dense_ref
from deconopt import denselin, harness, netgraph, objective, solvers
from deconopt.errors import ConditionViolation, DimensionMismatch
from deconopt.solvers import AdmmParams, PextraParams


def collect(agents, graph, rounds):
    snaps = []
    harness.run_rounds(agents, graph, rounds,
                       observer=lambda k, x, phi, log: snaps.append((k, x, phi, log)))
    return snaps


def run_logged(net, graph, rounds):
    """`run_rounds`' returned network and the RoundLog of each executed
    round, collected through the observer after the initial state's."""
    logs = []
    net = harness.run_rounds(net, graph, rounds,
                             observer=lambda k, x, phi, log: logs.append(log))
    return net, logs[1:]


def dadmm_weights(graph, params):
    """D-ADMM's graph-level (U, V) = (-rho/2 E_u'E_u, eta rho/2 L), from the
    dense incidence products."""
    gram_u, gram_o, _ = dense_ref.incidence_uv(graph)
    rho = params.rho
    return -0.5 * rho * gram_u, 0.5 * params.eta * rho * gram_o


def hops_from(graph, source):
    """Graph distance from agent `source` to agents 1..n, breadth first."""
    hops = {source: 0}
    frontier = [source]
    while frontier:
        reached = []
        for i in frontier:
            for j in dense_ref.neighbor_ids(graph, i):
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
        _, logs = run_logged(agents, graph, 5)
        assert graph.m == 4
        assert all(log.messages == 4 for log in logs)
        assert all(log.payload_scalars == 4 for log in logs)

    def test_zero_rounds_returns_initial_state(self):
        graph, comps = harness.scenario_least_squares(4, 2, seed=1)
        x0 = np.arange(8, dtype=float)
        net = harness.dadmm_agents(graph, comps, AdmmParams(1.0, 0.5), x0=x0)
        net, logs = run_logged(net, graph, 0)
        assert logs == []
        assert_allclose(net.x.ravel(), x0)

    def test_pextra_agents_match_engine(self):
        graph, comps = harness.scenario_least_squares(5, 2, seed=8)
        rho, eta = 1.0, 0.5
        dmax = float(netgraph.degrees(graph).max())
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
            assert np.array_equal(phi, engine.phi(state))

    def test_general_uv_agents_match_engine(self):
        graph, comps = harness.scenario_least_squares(5, 2, seed=9)
        params = AdmmParams(rho=1.0, eta=0.5, pi=0.1)
        u, v, dbar = dense_ref.incidence_uv(graph)
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
        x0 = np.random.default_rng(4).standard_normal(graph.n * graph.p)
        dadmm = collect(harness.dadmm_agents(graph, comps, params, x0=x0), graph, 50)
        uv = collect(harness.general_uv_agents(graph, *dense_ref.incidence_uv(graph),
                                               comps, params, x0=x0), graph, 50)
        assert len(dadmm) == len(uv) == 51
        for (_, x1, phi1, _), (_, x2, phi2, _) in zip(dadmm, uv):
            assert np.array_equal(x1, x2)
            assert np.array_equal(phi1, phi2)


class TestStackedLocalSolve:
    """A network inverts its agents' systems once, at set-up, and each round
    applies that stack to every row."""

    def count_inverses(self, monkeypatch):
        calls = []
        real = denselin.spd_inverse
        monkeypatch.setattr(denselin, "spd_inverse", lambda a: calls.append(1) or real(a))
        return calls

    def test_one_inverse_at_set_up(self, monkeypatch):
        graph, comps = harness.scenario_least_squares(5, 2, seed=8)
        calls = self.count_inverses(monkeypatch)
        net = harness.dadmm_agents(graph, comps, AdmmParams(rho=1.0, eta=0.5, pi=0.1))
        assert len(calls) == 1
        harness.run_rounds(net, graph, 20)
        assert len(calls) == 1

    @pytest.mark.parametrize("p", [1, 2])
    def test_rounds_match_fresh_per_agent_inverses(self, p):
        graph, comps = harness.scenario_least_squares(5, p, seed=8)
        params = AdmmParams(rho=1.0, eta=0.5, pi=0.1)
        snaps = collect(harness.dadmm_agents(graph, comps, params), graph, 50)

        # reference: every round inverts each agent's system afresh
        ref = harness.dadmm_agents(graph, comps, params)
        shift = ref.local.a + ref.local.pi
        u, v = dadmm_weights(graph, params)
        for k, x, phi, _ in snaps:
            if k > 0:
                c = ref.scale * ref.dual + dense_ref.mix(graph, u, ref.x)
                new_x = np.empty_like(ref.x)
                for i, comp in enumerate(comps):
                    q, b = dense_ref.terms(comp)
                    inv = denselin.spd_inverse(q + shift[i] * np.eye(p))
                    new_x[i] = inv @ (ref.local.pi[i] * ref.x[i] - b - c[i])
                ref.x = new_x
                ref.dual = ref.dual + dense_ref.mix(graph, v, new_x)
            assert np.array_equal(x, ref.x.ravel())
            assert np.array_equal(phi, ref.phi.ravel())

    def test_negative_weights_rejected_at_set_up(self):
        graph, comps = harness.scenario_least_squares(4, 2, seed=1)
        lap = netgraph.laplacian(graph)
        for a, pi in ((-np.ones(4), np.zeros(4)), (np.ones(4), np.full(4, -0.1))):
            with pytest.raises(ValueError, match="nonnegative"):
                harness.Network(graph, comps, lap, lap, a, pi, scale=1.0,
                                x=np.zeros((4, 2)), dual=np.zeros((4, 2)))


class TestFusedMixing:
    """A round forms U x and V x of each new iterate in one gather and one
    scatter; each destination adds its arcs in label order, then its self term."""

    FACTORIES = ("dadmm", "pextra", "general_uv")
    PARAMS = AdmmParams(rho=1.2, eta=0.5, pi=0.1)

    @staticmethod
    def graph_and_components(p):
        # vertex 1 has degree 4, so its bin sums several arcs
        graph = netgraph.build_graph(6, harness.ring_edges(6) + [(1, 3), (1, 4)], p)
        return graph, harness.random_rank_one_components(6, p, np.random.default_rng(p))

    def pextra_params(self, graph):
        xi = 0.9 / float(netgraph.degrees(graph).max())
        w, wt = solvers.pextra_mixing(graph, xi, self.PARAMS.rho, self.PARAMS.eta)
        return PextraParams(xi=xi, w=w, w_tilde=wt)

    def network(self, name, graph, comps, **start):
        """The named factory's network and its graph-level (U, V), built here
        from the dense products."""
        if name == "pextra":
            pp = self.pextra_params(graph)
            return (harness.pextra_agents(graph, comps, pp, **start),
                    (-pp.w / pp.xi, pp.w - pp.w_tilde))
        if name == "dadmm":
            net = harness.dadmm_agents(graph, comps, self.PARAMS, **start)
        else:
            net = harness.general_uv_agents(graph, *dense_ref.incidence_uv(graph), comps,
                                            self.PARAMS, **start)
        # the incidence triple makes the U/V round D-ADMM's
        return net, dadmm_weights(graph, self.PARAMS)

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("name", FACTORIES)
    def test_mixes_match_per_arc_reference(self, name, p):
        graph, comps = self.graph_and_components(p)
        assert netgraph.degrees(graph).max() >= 2 * 3
        net, (u, v) = self.network(name, graph, comps)
        rng = np.random.default_rng(70 + p)
        for _ in range(3):
            x = rng.standard_normal((graph.n, graph.p))
            want = np.stack([dense_ref.mix(graph, u, x), dense_ref.mix(graph, v, x)])
            assert np.array_equal(net.mixes(x), want)

    @pytest.mark.parametrize("name", FACTORIES)
    def test_one_scatter_per_round(self, monkeypatch, name):
        graph, comps = self.graph_and_components(2)
        net, _ = self.network(name, graph, comps)
        calls = []
        real = np.bincount
        monkeypatch.setattr(np, "bincount", lambda *args: calls.append(1) or real(*args))
        for k in range(1, 4):
            harness.network_round(net)
            assert len(calls) == k

    @pytest.mark.parametrize("name", ["dadmm", "general_uv"])
    def test_replaced_rows_round_matches_fresh_network(self, name):
        # assigning x, as `solvers._agent_round` does, re-forms [U x; V x]
        graph, comps = self.graph_and_components(2)
        used, _ = self.network(name, graph, comps)
        harness.run_rounds(used, graph, 3)
        rng = np.random.default_rng(5)
        x1, d1 = rng.standard_normal((2, graph.n, graph.p))
        used.x, used.dual = x1, d1
        fresh, _ = self.network(name, graph, comps, x0=x1.ravel(), phi0=d1.ravel())
        for net in (used, fresh):
            harness.network_round(net)
        assert np.array_equal(used.x, fresh.x)
        assert np.array_equal(used.dual, fresh.dual)

    def test_pextra_engine_step_matches_fresh_network(self):
        graph, comps = self.graph_and_components(2)
        pp = self.pextra_params(graph)
        engine = solvers.PextraEngine(graph, comps, pp)
        rng = np.random.default_rng(6)
        state = engine.init(rng.standard_normal(graph.n * graph.p))
        for _ in range(3):
            state = engine.step(state)
        x1, r1 = rng.standard_normal((2, graph.n * graph.p))
        got = engine.step(solvers.PextraState(x=x1, running_sum=r1))
        fresh = harness.pextra_agents(graph, comps, pp, x0=x1)
        fresh.dual = r1.reshape(graph.n, graph.p)
        harness.network_round(fresh)
        assert np.array_equal(got.x, fresh.x.ravel())
        assert np.array_equal(got.running_sum, fresh.dual.ravel())


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
        assert not netgraph.support_mask(graph)[0, 2]
        w, wt = solvers.pextra_mixing(graph, 0.1, 1.0, 0.5)
        mats = {"w": w, "w_tilde": wt}
        mats[which][0, 2] = mats[which][2, 0] = 0.1
        pp = PextraParams(xi=0.1, **mats)
        with pytest.raises(ValueError, match=r"\(1,3\)"):
            harness.pextra_agents(graph, comps, pp)

    def test_general_uv_checks_conditions(self):
        graph, comps = self.ring5()
        u, _, dbar = dense_ref.incidence_uv(graph)
        with pytest.raises(ConditionViolation):
            harness.general_uv_agents(graph, u, np.zeros((5, 5)),
                                      dbar, comps, AdmmParams(1.0, 0.5))

    def test_component_count_checked(self):
        graph, comps = self.ring5()
        params = AdmmParams(1.0, 0.5)
        w, wt = solvers.pextra_mixing(graph, 0.1, 1.0, 0.5)
        short = comps[:-1]
        with pytest.raises(ValueError, match="one component per agent"):
            harness.dadmm_agents(graph, short, params)
        with pytest.raises(ValueError, match="one component per agent"):
            harness.pextra_agents(graph, short, PextraParams(xi=0.1, w=w, w_tilde=wt))
        with pytest.raises(ValueError, match="one component per agent"):
            harness.general_uv_agents(graph, *dense_ref.incidence_uv(graph),
                                      short, params)


    @pytest.mark.parametrize("shape", [(13,), (9,), (5, 2)])
    def test_stacked_length_checked(self, shape):
        graph, comps = self.ring5()
        assert graph.n * graph.p == 10
        bad = np.ones(shape)
        params = AdmmParams(1.0, 0.5)
        w, wt = solvers.pextra_mixing(graph, 0.1, 1.0, 0.5)
        pp = PextraParams(xi=0.1, w=w, w_tilde=wt)
        uv = dense_ref.incidence_uv(graph)
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
        # U and V: one weight per arc, then one self weight per agent
        assert net.weights.shape == (2, graph.m + graph.n, graph.p)
        arrays = [value for value in vars(net).values() if isinstance(value, np.ndarray)]
        assert all(arr.shape[-2:] != (graph.n, graph.n) for arr in arrays)
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
        dmax = float(netgraph.degrees(graph).max())
        xi = 0.9 / dmax
        w, wt = solvers.pextra_mixing(graph, xi, 1.0, 0.5)
        factories = [
            lambda: harness.dadmm_agents(graph, comps, params),
            lambda: harness.pextra_agents(graph, comps, PextraParams(xi=xi, w=w, w_tilde=wt)),
            lambda: harness.general_uv_agents(graph, *dense_ref.incidence_uv(graph),
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
            snaps, logs = [], []

            def observe(k, x, phi, log):
                snaps.append((k, x.copy(), phi.copy()))
                logs.append(log)

            harness.run_rounds(agents, graph, 25, observer=observe)
            return snaps, logs

        s1, l1 = run()
        s2, l2 = run()
        assert l1 == l2
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

    # Preset instances, pinned: the edge lists and the last drawn row of the
    # ls-ring preset and one random graph. Both presets sample their chords
    # with one shared helper; these values fix how it consumes the rng.
    LS_RING = {
        (12, 5): (
            ((1, 2), (1, 4), (1, 12), (2, 3), (3, 4), (4, 5), (5, 6), (5, 8),
             (6, 7), (6, 10), (6, 12), (7, 8), (8, 9), (9, 10), (10, 11),
             (11, 12)),
            (-1.643023371405677, -0.256730126365494), -1.109349937891366,
        ),
        (30, 21): (
            ((1, 2), (1, 30), (2, 3), (2, 12), (3, 4), (4, 5), (5, 6), (5, 20),
             (5, 21), (6, 7), (6, 17), (7, 8), (7, 10), (8, 9), (8, 22),
             (9, 10), (10, 11), (11, 12), (11, 20), (12, 13), (12, 17),
             (13, 14), (13, 30), (14, 15), (15, 16), (15, 27), (16, 17),
             (17, 18), (18, 19), (19, 20), (20, 21), (21, 22), (22, 23),
             (23, 24), (24, 25), (25, 26), (26, 27), (27, 28), (28, 29),
             (29, 30)),
            (-0.019598117164741715, -0.4544882932751738), 0.9926118054712234,
        ),
    }

    @pytest.mark.parametrize("n, seed", sorted(LS_RING))
    def test_ls_ring_instance_is_pinned(self, n, seed):
        edges, h_last, y_last = self.LS_RING[n, seed]
        graph, comps = harness.scenario_least_squares(n, 2, seed)
        assert graph.edges == edges
        assert len(edges) == n + n // 3
        assert tuple(comps[-1].h.tolist()) == h_last
        assert comps[-1].y == y_last

    def test_random_connected_edges_is_pinned(self):
        assert harness.random_connected_edges(10, np.random.default_rng(3)) == [
            (1, 2), (1, 4), (1, 5), (1, 6), (1, 8), (2, 3), (2, 6), (2, 7),
            (6, 8), (6, 10), (7, 9),
        ]
