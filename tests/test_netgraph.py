import dataclasses
import gc
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

import dense_ref
from deconopt import denselin, netgraph, objective, solvers
from deconopt.errors import (
    DimensionMismatch,
    Disconnected,
    DuplicateEdge,
    EmptyGraph,
    SelfLoop,
)
from deconopt.solvers import AdmmParams

# three-agent path 1-2-3, the worked example used throughout
PATH3_EDGES = [(1, 2), (2, 3)]

# arc tables for the path graph, frozen independently of the builder
PATH3_AS = np.array([[1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
PATH3_AD = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=float)


def path3(p=1):
    return netgraph.build_graph(3, PATH3_EDGES, p)


class TestBuildGraph:
    def test_arc_labels_deterministic(self):
        g = path3()
        assert g.m == 4
        src, dst = netgraph.arc_indices(g)
        arcs = [(k, s + 1, d + 1) for k, (s, d) in enumerate(zip(src.tolist(), dst.tolist()), 1)]
        assert arcs == [(1, 1, 2), (2, 2, 1), (3, 2, 3), (4, 3, 2)]
        assert arcs == dense_ref.reference_arcs(g)
        labels = {(s, d): label for label, s, d in arcs}
        assert labels[(1, 2)] == 1
        assert labels[(2, 1)] == 2
        # the vectorized labels equal the edge-by-edge construction, and the
        # edges come back sorted whatever order and orientation they had
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            edges = [(v, u) if rng.random() < 0.5 else (u, v)
                     for u, v in _random_connected(n, rng)]
            g = netgraph.build_graph(n, [edges[k] for k in rng.permutation(len(edges))])
            assert list(g.edges) == sorted((min(e), max(e)) for e in edges)
            src, dst = netgraph.arc_indices(g)
            want = dense_ref.reference_arcs(g)
            assert g.m == len(want) == 2 * len(edges)
            assert src.tolist() == [s - 1 for _, s, _ in want]
            assert dst.tolist() == [d - 1 for _, _, d in want]

    def test_fields_are_n_p_and_edges(self):
        g = netgraph.build_graph(3, [(2, 3), (2, 1)], 2)
        assert [f.name for f in dataclasses.fields(g)] == ["n", "p", "edges"]
        assert g == netgraph.NetworkGraph(n=3, p=2, edges=((1, 2), (2, 3)))

    def test_smallest_graph(self):
        g = netgraph.build_graph(2, [(1, 2)], 1)
        assert g.m == 2
        src, dst = netgraph.arc_indices(g)
        assert src.tolist() == [0, 1]
        assert dst.tolist() == [1, 0]
        assert netgraph.degrees(g).tolist() == [2.0, 2.0]

    def test_disconnected_rejected(self):
        with pytest.raises(Disconnected):
            netgraph.build_graph(4, [(1, 2), (3, 4)], 1)

    def test_bad_inputs(self):
        with pytest.raises(SelfLoop):
            netgraph.build_graph(3, [(1, 1), (2, 3)], 1)
        with pytest.raises(DuplicateEdge):
            netgraph.build_graph(3, [(1, 2), (2, 1), (2, 3)], 1)
        with pytest.raises(EmptyGraph):
            netgraph.build_graph(3, [], 1)
        with pytest.raises(EmptyGraph):
            netgraph.build_graph(1, [], 1)
        with pytest.raises(ValueError):
            netgraph.build_graph(3, [(1, 4)], 1)

    def test_edge_input_order_irrelevant(self):
        g1 = netgraph.build_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)], 2)
        g2 = netgraph.build_graph(4, [(3, 4), (1, 4), (2, 3), (2, 1)], 2)
        assert g1 == g2


class TestArcMatrices:
    # the dense reference A_s, A_d built from the arc indices
    def test_path3_tables(self):
        a_s, a_d = dense_ref.arc_bases(path3())
        assert_allclose(a_s, PATH3_AS)
        assert_allclose(a_d, PATH3_AD)

    def test_single_edge(self):
        a_s, a_d = dense_ref.arc_bases(netgraph.build_graph(2, [(1, 2)], 1))
        assert_allclose(a_s, [[1, 0], [0, 1]])
        assert_allclose(a_d, [[0, 1], [1, 0]])

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        for n in (3, 5, 8):
            g = netgraph.build_graph(
                n, _random_connected(n, rng), 1
            )
            a_s, a_d = dense_ref.arc_bases(g)
            assert_allclose(a_s.sum(axis=1), 1.0)
            assert_allclose(a_d.sum(axis=1), 1.0)


class TestIncidenceOperators:
    def test_path3_degree_and_laplacian(self):
        # oracle: build D and L from the frozen arc tables directly
        e_o = PATH3_AS - PATH3_AD
        e_u = PATH3_AS + PATH3_AD
        d_oracle = 0.5 * (e_o.T @ e_o + e_u.T @ e_u)
        l_oracle = e_o.T @ e_o
        assert_allclose(np.diag(d_oracle), [2, 4, 2])
        assert_allclose(l_oracle, [[2, -2, 0], [-2, 4, -2], [0, -2, 2]])

        assert_allclose(np.diag(netgraph.degrees(path3())), d_oracle)
        assert_allclose(netgraph.laplacian(path3()), l_oracle)

    def test_incidence_identity_exact(self):
        # E_o'E_o + E_u'E_u = 2D holds in exact integer arithmetic, and the
        # package's E_u'E_u = 2D - L is that product
        rng = np.random.default_rng(11)
        for n in (3, 4, 6, 9):
            g = netgraph.build_graph(n, _random_connected(n, rng), 1)
            e_o, e_u = dense_ref.incidence_bases(g)
            two_d = 2 * np.diag(netgraph.degrees(g))
            assert np.array_equal(e_o.T @ e_o + e_u.T @ e_u, two_d)
            assert np.array_equal(netgraph.unoriented_gram(g), e_u.T @ e_u)

    def test_laplacian_annihilates_ones(self):
        rng = np.random.default_rng(2)
        for n in (2, 5, 7):
            g = netgraph.build_graph(n, _random_connected(n, rng), 1)
            assert_allclose(netgraph.laplacian(g) @ np.ones(n), 0.0, atol=1e-14)

    def test_laplacian_rank_and_null_eigvec(self):
        rng = np.random.default_rng(3)
        for n in (3, 6, 10):
            g = netgraph.build_graph(n, _random_connected(n, rng), 1)
            eigvals = netgraph.laplacian_eigvals(g)
            assert abs(eigvals[0]) <= 1e-10
            assert eigvals[1] > 1e-10  # rank n-1
            # the cached eigenvalues are the ones sym_eigen gives for L
            want = denselin.sym_eigen(netgraph.laplacian(g))
            assert np.array_equal(eigvals, want)

    @pytest.mark.parametrize("n", [5, 50, 200])
    @pytest.mark.parametrize("kind", ["path", "ring", "complete"])
    def test_spectrum_matches_closed_form(self, kind, n):
        # the package's L counts both arcs, so it is twice the usual
        # Laplacian: 4 - 4 cos(pi k / n) on the path, 4 - 4 cos(2 pi k / n)
        # on the ring, and 0 then 2n (n - 1 times) on the complete graph
        k = np.arange(n)
        if kind == "path":
            edges, exact = [(i, i + 1) for i in range(1, n)], 4.0 - 4.0 * np.cos(np.pi * k / n)
        elif kind == "ring":
            edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
            exact = 4.0 - 4.0 * np.cos(2.0 * np.pi * k / n)
        else:
            edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
            exact = np.where(k == 0, 0.0, 2.0 * n)
        exact = np.sort(exact)
        eigvals = netgraph.laplacian_eigvals(netgraph.build_graph(n, edges, 1))
        tol = 8 * n * np.finfo(float).eps * exact[-1]
        assert np.max(np.abs(eigvals - exact)) <= tol
        assert abs(denselin.smallest_nonzero(eigvals) - exact[1]) <= tol
        assert abs(eigvals[-1] - exact[-1]) <= tol

    def test_incidence_norm_is_neighbor_differences(self):
        # ||E_o x||^2 = sum_i sum_{j in N_i} ||x_j - x_i||^2
        rng = np.random.default_rng(7)
        for _ in range(4):
            n = int(rng.integers(3, 8))
            p = int(rng.integers(1, 4))
            g = netgraph.build_graph(n, _random_connected(n, rng), p)
            s = netgraph.arc_stack(g)
            for _ in range(25):
                x = rng.standard_normal(n * p)
                lhs = float(np.linalg.norm(s.e_o(x)) ** 2)
                rhs = 0.0
                for i in range(1, n + 1):
                    xi = x[(i - 1) * p: i * p]
                    for j in dense_ref.neighbor_ids(g, i):
                        xj = x[(j - 1) * p: j * p]
                        rhs += float(np.linalg.norm(xj - xi) ** 2)
                assert abs(lhs - rhs) <= 1e-12 * max(rhs, 1.0)

    @pytest.mark.parametrize("kind", ["ring", "path", "random"])
    def test_degree_and_laplacian_equal_dense_products(self, kind):
        # counted from the arcs; the dense Gram products are the definition
        rng = np.random.default_rng(17)
        for n in (2, 5, 12):
            if kind == "ring":
                edges = [(i, i % n + 1) for i in range(1, n + 1)] if n > 2 else [(1, 2)]
            elif kind == "path":
                edges = [(i, i + 1) for i in range(1, n)]
            else:
                edges = _random_connected(n, rng)
            g = netgraph.build_graph(n, edges)
            e_o, e_u = dense_ref.incidence_bases(g)
            lap, deg = netgraph.laplacian(g), netgraph.degrees(g)
            assert np.array_equal(lap, e_o.T @ e_o)
            assert np.array_equal(2 * np.diag(deg), e_o.T @ e_o + e_u.T @ e_u)
            assert deg.shape == (n,) and lap.shape == (n, n)
            for arr in (lap, deg):
                with pytest.raises(ValueError):
                    arr[0] = 7.0


class TestBlockOperator:
    """The products on stacked vectors of n blocks (`ArcStack`, and L at graph
    level) against the dense lift base (x) I_p."""

    def test_apply_matches_kron(self):
        rng = np.random.default_rng(13)
        for n in (2, 3, 5):
            for p in (1, 2, 3):
                g = netgraph.build_graph(n, _random_connected(n, rng), p)
                s = netgraph.arc_stack(g)
                e_o, e_u = dense_ref.lifted_incidence(g)
                x = rng.standard_normal(n * p)
                y = rng.standard_normal(g.m * p)
                for product, transpose, dense in ((s.e_o, s.e_o_transpose, e_o),
                                                  (s.e_u, s.e_u_transpose, e_u)):
                    assert_allclose(product(x), dense @ x, atol=1e-13)
                    assert_allclose(transpose(y), dense.T @ y, atol=1e-13)
                lap_x = netgraph.laplacian(g) @ x.reshape(n, p)
                assert_allclose(lap_x.ravel(), dense_ref.lift(netgraph.laplacian(g), p) @ x,
                                atol=1e-13)

    def test_dimension_mismatch(self):
        # the ArcStack products check no lengths; the entry points that take
        # a stacked vector from outside do
        g = path3(p=2)
        with pytest.raises(DimensionMismatch):
            netgraph.consensuality_residual(g, np.zeros(5))
        with pytest.raises(DimensionMismatch):
            netgraph.e_o_min_norm_solver(g)(np.zeros(5))

    def test_base_read_only(self):
        g = path3()
        for arr in (netgraph.degrees(g), netgraph.laplacian(g), netgraph.arc_stack(g).index,
                    netgraph.laplacian_eigvals(g)):
            with pytest.raises(ValueError):
                arr.flat[0] = 7.0


class TestArcOperator:
    """`ArcStack`, the one arc operator, bit for bit against the dense lift."""

    @pytest.mark.parametrize("p", [1, 3])
    def test_apply_equals_dense_product(self, p):
        # each arc row holds at most two unit entries, so the gather forms
        # the same single rounding as the dense product; integer-valued arc
        # vectors make every order of the transposes' sums exact too
        rng = np.random.default_rng(31 + p)
        for n in (2, 5, 9):
            g = netgraph.build_graph(n, _random_connected(n, rng), p)
            s = netgraph.arc_stack(g)
            a_s, a_d = (dense_ref.lift(base, p) for base in dense_ref.arc_bases(g))
            e_o, e_u = dense_ref.lifted_incidence(g)
            x = rng.standard_normal(g.n * p)
            z = rng.integers(-9, 10, g.m * p).astype(float)
            src, dst = s.apply(x)
            assert np.array_equal(src, a_s @ x)
            assert np.array_equal(dst, a_d @ x)
            assert np.array_equal(s.e_o(x), e_o @ x)
            assert np.array_equal(s.e_u(x), e_u @ x)
            assert np.array_equal(s.e_o_transpose(z), e_o.T @ z)
            assert np.array_equal(s.e_u_transpose(z), e_u.T @ z)
            y = rng.standard_normal(g.m * p)
            assert_allclose(s.e_o_transpose(y), e_o.T @ y, rtol=0, atol=1e-13)
            assert_allclose(s.e_u_transpose(y), e_u.T @ y, rtol=0, atol=1e-13)

    def test_transpose_dimension_mismatch(self):
        # the callers that form transposes from an arc vector check its length
        g = path3(p=2)
        comps = [objective.AffineQuadratic(np.eye(2), np.zeros(2)) for _ in range(3)]
        params = AdmmParams(rho=1.0, eta=0.5)
        with pytest.raises(DimensionMismatch):
            solvers.dadmm_init(g, alpha0=np.zeros(7))
        engine = solvers.FullAdmmEngine(g, comps, params)
        state = engine.init()
        state.lam = np.zeros(7)
        with pytest.raises(DimensionMismatch):
            engine.step(state)


class TestArcStack:
    @pytest.mark.parametrize("p", [1, 3])
    def test_products_equal_stacked_bases(self, p):
        # one unit entry per row of [A_s; A_d]: the gather is exact, and
        # integer-valued arc vectors make every order of the sums exact too
        rng = np.random.default_rng(41 + p)
        for n in (2, 5, 9):
            g = netgraph.build_graph(n, _random_connected(n, rng), p)
            dense = dense_ref.lift(np.vstack(dense_ref.arc_bases(g)), p)
            s = netgraph.arc_stack(g)
            x = rng.standard_normal(n * p)
            assert s.apply(x).shape == (2, g.m * p)
            assert np.array_equal(s.apply(x).ravel(), dense @ x)
            y = rng.integers(-9, 10, 2 * g.m * p).astype(float)
            assert np.array_equal(s.apply_transpose(y), dense.T @ y)
            assert np.array_equal(s.apply_transpose(y.reshape(2, -1)), dense.T @ y)

    @pytest.mark.parametrize("p", [1, 3])
    def test_incidence_products_equal_dense(self, p):
        # E_o x and E_u x are one rounding per arc, as in the dense product;
        # integer-valued arc vectors make the transposes exact too
        rng = np.random.default_rng(51 + p)
        g = netgraph.build_graph(7, _random_connected(7, rng), p)
        e_o, e_u = dense_ref.lifted_incidence(g)
        s = netgraph.arc_stack(g)
        x = rng.standard_normal(g.n * p)
        z = rng.integers(-9, 10, g.m * p).astype(float)
        for product, transpose, dense in ((s.e_o, s.e_o_transpose, e_o),
                                          (s.e_u, s.e_u_transpose, e_u)):
            assert np.array_equal(product(x), dense @ x)
            assert np.array_equal(transpose(z), dense.T @ z)
        # L x = E_o^T E_o x, the graph matrix against the two arc passes
        lap_x = (netgraph.laplacian(g) @ x.reshape(g.n, p)).ravel()
        assert_allclose(lap_x, s.e_o_transpose(s.e_o(x)), rtol=0, atol=1e-12)


class TestGraphCaches:
    CACHED = (netgraph.arc_indices, netgraph.support_mask, netgraph.arc_stack,
              netgraph.degrees, netgraph.laplacian, netgraph.laplacian_eigvals)

    def test_equal_graph_lookups_compare_no_arcs(self, monkeypatch):
        edges = _random_connected(40, np.random.default_rng(61))
        first = netgraph.build_graph(40, edges, 2)
        for fn in self.CACHED:
            fn(first)
        second = netgraph.build_graph(40, edges, 2)
        assert second == first
        assert hash(second) == hash(first)
        # a lookup keyed by the graph would hash it, and one that found an
        # equal graph's entry would then compare the two
        calls = []
        graph_eq, graph_hash = netgraph.NetworkGraph.__eq__, netgraph.NetworkGraph.__hash__
        monkeypatch.setattr(netgraph.NetworkGraph, "__eq__",
                            lambda a, b: calls.append("eq") or graph_eq(a, b))
        monkeypatch.setattr(netgraph.NetworkGraph, "__hash__",
                            lambda a: calls.append("hash") or graph_hash(a))
        assert second == first and hash(second) == hash(first)
        assert calls == ["eq", "hash", "hash"]
        calls.clear()
        for _ in range(3):
            for fn in self.CACHED:
                fn(second)
            netgraph.consensuality_residual(second, np.zeros(80))
        assert calls == []

    def test_cached_values_belong_to_their_graph(self):
        g = path3()
        for fn in self.CACHED:
            assert fn(g) is fn(g)
            assert fn(path3()) is not fn(g)

    def test_unreferenced_graph_is_collected(self):
        g = netgraph.build_graph(6, _random_connected(6, np.random.default_rng(62)), 2)
        for fn in self.CACHED:
            fn(g)
        netgraph.consensuality_residual(g, np.zeros(12))
        ref = weakref.ref(g)
        del g
        gc.collect()
        assert ref() is None


class TestConsensualityResidual:
    def test_consensual_is_zero(self):
        g = path3(p=2)
        block = np.array([3.5, -1.25])
        x = np.tile(block, 3)
        assert netgraph.consensuality_residual(g, x) == 0.0

    def test_path3_unit_vector(self):
        assert_allclose(
            netgraph.consensuality_residual(path3(), [1.0, 0.0, 0.0]),
            np.sqrt(2.0),
        )

    def test_invariant_to_consensual_shift(self):
        rng = np.random.default_rng(21)
        g = netgraph.build_graph(5, _random_connected(5, rng), 2)
        x = rng.standard_normal(10)
        shift = np.tile(rng.standard_normal(2), 5)
        r1 = netgraph.consensuality_residual(g, x)
        r2 = netgraph.consensuality_residual(g, x + shift)
        assert abs(r1 - r2) <= 1e-12 * max(r1, 1.0)

    def test_wrong_length(self):
        with pytest.raises(DimensionMismatch):
            netgraph.consensuality_residual(path3(), [1.0, 2.0])

    @pytest.mark.parametrize("p", [1, 3])
    def test_equals_dense_incidence_product(self, p):
        rng = np.random.default_rng(90 + p)
        for n in (2, 5, 9):
            g = netgraph.build_graph(n, _random_connected(n, rng), p)
            e_o = dense_ref.lifted_incidence(g)[0]
            for _ in range(5):
                x = 10.0 * rng.standard_normal(n * p)
                want = float(np.linalg.norm(e_o @ x))
                assert netgraph.consensuality_residual(g, x) == want


class TestResidualRows:
    """`consensuality_residual` on a (rows, n*p) array, in blocks of
    `_ROW_BLOCK` rows, gives each row's bits of the one-vector call."""

    @pytest.mark.parametrize("p", [1, 3])
    def test_rows_equal_per_row_calls(self, p):
        rng = np.random.default_rng(300 + p)
        g = netgraph.build_graph(9, _random_connected(9, rng), p)
        xs = rng.standard_normal((300, 9 * p)) * 10.0 ** rng.integers(-6, 6, (300, 1))
        picked = rng.integers(0, len(xs), 140)
        assert netgraph._ROW_BLOCK == 128
        for rows in (xs, xs[:1], xs[picked], np.asfortranarray(xs[::2])):
            got = netgraph.consensuality_residual(g, rows)
            want = [netgraph.consensuality_residual(g, x) for x in rows]
            assert got.shape == (len(rows),) and np.array_equal(got, want)

    def test_wrong_width_raises(self):
        g = path3(p=2)
        for bad in (np.zeros((4, 5)), np.zeros((4, 7)), np.zeros((2, 3, 6))):
            with pytest.raises(DimensionMismatch):
                netgraph.consensuality_residual(g, bad)


class TestArcIndices:
    def test_path3_tables(self):
        src, dst = netgraph.arc_indices(path3())
        assert np.array_equal(src, PATH3_AS.argmax(axis=1))
        assert np.array_equal(dst, PATH3_AD.argmax(axis=1))

    def test_cached_and_read_only(self):
        g = path3()
        src, _ = netgraph.arc_indices(g)
        assert netgraph.arc_indices(g)[0] is src
        with pytest.raises(ValueError):
            src[0] = 2

    def test_support_mask_is_self_or_neighbour(self):
        g = netgraph.build_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (2, 4)])
        mask = netgraph.support_mask(g)
        want = [[i == j or j in dense_ref.neighbor_ids(g, i) for j in range(1, 6)]
                for i in range(1, 6)]
        assert np.array_equal(mask, want)
        with pytest.raises(ValueError):
            mask[0, 2] = True


def test_vertex_relabeling_preserves_structure():
    # permuting vertex ids permutes the operators consistently
    rng = np.random.default_rng(31)
    edges = [(1, 2), (2, 3), (3, 4), (1, 4), (2, 4)]
    g = netgraph.build_graph(4, edges, 1)
    perm = [3, 1, 4, 2]  # old id -> new id
    relabeled = [(perm[u - 1], perm[v - 1]) for u, v in edges]
    g2 = netgraph.build_graph(4, relabeled, 1)
    lap1 = netgraph.laplacian(g)
    lap2 = netgraph.laplacian(g2)
    pmat = np.zeros((4, 4))
    for old, new in enumerate(perm, start=1):
        pmat[new - 1, old - 1] = 1.0
    assert_allclose(pmat @ lap1 @ pmat.T, lap2)


def _random_connected(n, rng):
    edges = {(int(rng.integers(1, v)), v) for v in range(2, n + 1)}
    extra = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
             if (i, j) not in edges]
    for idx in rng.choice(len(extra), size=min(2, len(extra)), replace=False):
        edges.add(extra[int(idx)])
    return sorted(edges)
