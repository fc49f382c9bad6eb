import gc
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

from deconopt import denselin, netgraph
from deconopt.errors import (
    DimensionMismatch,
    Disconnected,
    DuplicateEdge,
    EmptyGraph,
    MalformedGraph,
    SelfLoop,
)

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
        assert [(a.label, a.source, a.dest) for a in g.arcs] == [
            (1, 1, 2), (2, 2, 1), (3, 2, 3), (4, 3, 2),
        ]
        labels = {(a.source, a.dest): a.label for a in g.arcs}
        assert labels[(1, 2)] == 1
        assert labels[(2, 1)] == 2

    def test_smallest_graph(self):
        g = netgraph.build_graph(2, [(1, 2)], 1)
        assert g.m == 2
        assert g.neighbor_ids(1) == (2,)
        assert g.neighbor_ids(2) == (1,)

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
    def test_path3_tables(self):
        a_s, a_d = netgraph.arc_matrices(path3())
        assert_allclose(a_s.base, PATH3_AS)
        assert_allclose(a_d.base, PATH3_AD)

    def test_single_edge(self):
        a_s, a_d = netgraph.arc_matrices(netgraph.build_graph(2, [(1, 2)], 1))
        assert_allclose(a_s.base, [[1, 0], [0, 1]])
        assert_allclose(a_d.base, [[0, 1], [1, 0]])

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        for n in (3, 5, 8):
            g = netgraph.build_graph(
                n, _random_connected(n, rng), 1
            )
            a_s, a_d = netgraph.arc_matrices(g)
            assert_allclose(a_s.base.sum(axis=1), 1.0)
            assert_allclose(a_d.base.sum(axis=1), 1.0)


class TestIncidenceOperators:
    def test_path3_degree_and_laplacian(self):
        # oracle: build D and L from the frozen arc tables directly
        e_o = PATH3_AS - PATH3_AD
        e_u = PATH3_AS + PATH3_AD
        d_oracle = 0.5 * (e_o.T @ e_o + e_u.T @ e_u)
        l_oracle = e_o.T @ e_o
        assert_allclose(np.diag(d_oracle), [2, 4, 2])
        assert_allclose(l_oracle, [[2, -2, 0], [-2, 4, -2], [0, -2, 2]])

        _, _, deg, lap = netgraph.incidence_operators(path3())
        assert_allclose(deg.base, d_oracle)
        assert_allclose(lap.base, l_oracle)

    def test_incidence_identity_exact(self):
        # E_o'E_o + E_u'E_u = 2D holds in exact integer arithmetic
        rng = np.random.default_rng(11)
        for n in (3, 4, 6, 9):
            g = netgraph.build_graph(n, _random_connected(n, rng), 1)
            e_o, e_u, deg, _ = netgraph.incidence_operators(g)
            assert np.array_equal(e_o.gram_base() + e_u.gram_base(), 2 * deg.base)

    def test_laplacian_annihilates_ones(self):
        rng = np.random.default_rng(2)
        for n in (2, 5, 7):
            g = netgraph.build_graph(n, _random_connected(n, rng), 1)
            lap = netgraph.incidence_operators(g)[3]
            assert_allclose(lap.base @ np.ones(n), 0.0, atol=1e-14)

    def test_laplacian_rank_and_null_eigvec(self):
        rng = np.random.default_rng(3)
        for n in (3, 6, 10):
            g = netgraph.build_graph(n, _random_connected(n, rng), 1)
            lap = netgraph.incidence_operators(g)[3]
            eigvals, eigvecs = denselin.sym_eigen(denselin.SymMatrix(lap.base))
            assert abs(eigvals[0]) <= 1e-10
            assert eigvals[1] > 1e-10  # rank n-1
            v = eigvecs[:, 0]
            assert_allclose(np.abs(v), np.full(n, 1.0 / np.sqrt(n)), atol=1e-10)

    def test_incidence_norm_is_neighbor_differences(self):
        # ||E_o x||^2 = sum_i sum_{j in N_i} ||x_j - x_i||^2
        rng = np.random.default_rng(7)
        for _ in range(4):
            n = int(rng.integers(3, 8))
            p = int(rng.integers(1, 4))
            g = netgraph.build_graph(n, _random_connected(n, rng), p)
            e_o = netgraph.incidence_operators(g)[0]
            for _ in range(25):
                x = rng.standard_normal(n * p)
                lhs = float(np.linalg.norm(e_o.apply(x)) ** 2)
                rhs = 0.0
                for i in range(1, n + 1):
                    xi = x[(i - 1) * p: i * p]
                    for j in g.neighbor_ids(i):
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
            e_o, e_u, deg, lap = netgraph.incidence_operators(netgraph.build_graph(n, edges))
            assert np.array_equal(lap.base, e_o.base.T @ e_o.base)
            assert np.array_equal(deg.base, 0.5 * (e_o.gram_base() + e_u.gram_base()))

    def test_shared_arc_label_is_a_package_error(self):
        # two arcs under one label put two sources in one row of A_s, so the
        # extended degree matrix gets an off-diagonal entry
        g = netgraph.NetworkGraph(
            n=2, p=1, edges=((1, 2),),
            arcs=(netgraph.Arc(1, 1, 2), netgraph.Arc(1, 2, 1)),
            neighbors=((2,), (1,)),
        )
        with pytest.raises(MalformedGraph):
            netgraph.incidence_operators(g)


class TestBlockOperator:
    def test_apply_matches_kron(self):
        rng = np.random.default_rng(13)
        for n in (2, 3, 5):
            for p in (1, 2, 3):
                g = netgraph.build_graph(n, _random_connected(n, rng), p)
                for op in netgraph.incidence_operators(g):
                    x = rng.standard_normal(op.cols * p)
                    assert_allclose(op.apply(x), op.materialize() @ x, atol=1e-13)
                    y = rng.standard_normal(op.rows * p)
                    assert_allclose(
                        op.apply_transpose(y), op.materialize().T @ y, atol=1e-13
                    )

    def test_dimension_mismatch(self):
        e_o = netgraph.incidence_operators(path3(p=2))[0]
        with pytest.raises(DimensionMismatch):
            e_o.apply(np.zeros(5))

    def test_base_read_only(self):
        a_s, _ = netgraph.arc_matrices(path3())
        with pytest.raises(ValueError):
            a_s.base[0, 0] = 7.0


class TestArcOperator:
    @pytest.mark.parametrize("p", [1, 3])
    def test_apply_equals_dense_product(self, p):
        # each arc row holds at most two unit entries, so the gather forms
        # the same single rounding as the dense product
        rng = np.random.default_rng(31 + p)
        for n in (2, 5, 9):
            g = netgraph.build_graph(n, _random_connected(n, rng), p)
            ops = netgraph.arc_matrices(g) + netgraph.incidence_operators(g)[:2]
            for op in ops:
                x = rng.standard_normal(g.n * p)
                assert np.array_equal(op.apply(x), op.materialize() @ x)
                y = rng.standard_normal(g.m * p)
                assert_allclose(op.apply_transpose(y), op.materialize().T @ y,
                                rtol=0, atol=1e-13)

    def test_transpose_dimension_mismatch(self):
        for op in netgraph.arc_matrices(path3(p=2)) + netgraph.incidence_operators(path3(p=2))[:2]:
            with pytest.raises(DimensionMismatch):
                op.apply_transpose(np.zeros(7))
            with pytest.raises(DimensionMismatch):
                op.apply(np.zeros(7))


class TestArcStack:
    @pytest.mark.parametrize("p", [1, 3])
    def test_products_equal_stacked_bases(self, p):
        # one unit entry per row of [A_s; A_d]: the gather is exact, and
        # integer-valued arc vectors make every order of the sums exact too
        rng = np.random.default_rng(41 + p)
        for n in (2, 5, 9):
            g = netgraph.build_graph(n, _random_connected(n, rng), p)
            a_s, a_d = netgraph.arc_matrices(g)
            dense = np.kron(np.vstack((a_s.base, a_d.base)), np.eye(p))
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
        e_o, e_u, _, _ = netgraph.incidence_operators(g)
        s = netgraph.arc_stack(g)
        x = rng.standard_normal(g.n * p)
        z = rng.integers(-9, 10, g.m * p).astype(float)
        for product, transpose, op in ((s.e_o, s.e_o_transpose, e_o),
                                       (s.e_u, s.e_u_transpose, e_u)):
            dense = op.materialize()
            assert np.array_equal(product(x), dense @ x)
            assert np.array_equal(transpose(z), dense.T @ z)
            assert np.array_equal(op.apply(x), product(x))
            assert np.array_equal(op.apply_transpose(z), transpose(z))


class TestGraphCaches:
    CACHED = (netgraph.arc_indices, netgraph.support_mask, netgraph.arc_stack,
              netgraph.arc_matrices, netgraph.incidence_operators)

    def test_equal_graph_lookups_compare_no_arcs(self, monkeypatch):
        edges = _random_connected(40, np.random.default_rng(61))
        first = netgraph.build_graph(40, edges, 2)
        for fn in self.CACHED:
            fn(first)
        second = netgraph.build_graph(40, edges, 2)
        assert second == first
        assert hash(second) == hash(first)
        calls = []
        arc_eq = netgraph.Arc.__eq__
        monkeypatch.setattr(netgraph.Arc, "__eq__",
                            lambda a, b: calls.append(1) or arc_eq(a, b))
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
            e_o = netgraph.incidence_operators(g)[0]
            for _ in range(5):
                x = 10.0 * rng.standard_normal(n * p)
                want = float(np.linalg.norm(e_o.apply(x)))
                assert netgraph.consensuality_residual(g, x) == want


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
        want = [[i == j or j in g.neighbor_ids(i) for j in range(1, 6)]
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
    lap1 = netgraph.incidence_operators(g)[3].base
    lap2 = netgraph.incidence_operators(g2)[3].base
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
