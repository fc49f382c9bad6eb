"""Dense reference matrices, graph lookups and distances for the tests.

The package forms no m x n arc matrix and no Kronecker lift: `ArcStack`
gathers and scatters on the arc indices, and the graph matrices D and L are
n x n. The tests check those products against the textbook definitions,
which this module builds densely in one place: A_s and A_d hold a one in
the column of each arc's source and destination, E_o = A_s - A_d,
E_u = A_s + A_d, and `lift(base, p)` is base (x) I_p.

The package derives its arc indices from the sorted edges in one vectorized
step. `reference_arcs` labels the arcs edge by edge instead, and
`neighbor_ids` reads a vertex's neighbours off the edges, so tests can check
the package's arc arrays and masks against an independent construction.
`mix` forms a graph-local product W x arc by arc in a Python loop, in the
order the network's round must add the terms. `x_norm_blocks` builds the two
certificate norms' lifted x-blocks from the dense incidence, and `x_block`
reassembles a certificate's x-block densely from its node weights and
coupling. `phi_space_distances_sq` measures the certificate's distance on
dual aggregates through a dense L^+, against which the verification's
distances are checked. `eval_g` and `grad_g` are the penalized objective
g(x) = f(x) + rho (1 - eta)/4 |E_o x|^2 and its gradient, from the dense
lifted incidence: the oracles of the certified mu_g and L_g.

`terms` writes a component's quadratic terms (Q, b) from its own data, the
per-agent reference for the package's stacked terms.

`dadmm_matrix_step`, `full_admm_step` and `approx_mm_step` are the steps of
the three central engines whose agents decouple, written out with the
`ArcStack` methods, one method call per operator pass, and the checked
`objective.local_subproblem_ex` solve, on dicts of state fields. The engines
bind their operands at set-up and inline those passes; a test requires the
same bits from both.
"""

import math

import numpy as np

from deconopt import denselin, netgraph, objective


def reference_arcs(g):
    """(label, source, dest) of every arc, 1-based, labeled edge by edge: the
    forward arc (low -> high) of each sorted edge, then its reverse arc."""
    arcs = []
    for u, v in g.edges:
        arcs.append((len(arcs) + 1, u, v))
        arcs.append((len(arcs) + 1, v, u))
    return arcs


def neighbor_ids(g, i):
    """The ids of the vertices joined to vertex i by an edge, ascending."""
    return tuple(sorted(v if u == i else u for u, v in g.edges if i in (u, v)))


def mix(g, w, x):
    """W x for an n x n graph-local W and (n, p) rows x, row by row: the arcs
    into each vertex summed in label order from 0.0, then its self term."""
    out = np.empty_like(x)
    for i in range(g.n):
        acc = np.zeros(g.p)
        for _, src, dst in reference_arcs(g):
            if dst == i + 1:
                acc = acc + w[i, src - 1] * x[src - 1]
        out[i] = acc + w[i, i] * x[i]
    return out


def arc_bases(g):
    """(A_s, A_d), each m x n."""
    src, dst = netgraph.arc_indices(g)
    arcs = np.arange(g.m)
    a_s = np.zeros((g.m, g.n))
    a_s[arcs, src] = 1.0
    a_d = np.zeros((g.m, g.n))
    a_d[arcs, dst] = 1.0
    return a_s, a_d


def incidence_bases(g):
    """(E_o, E_u), each m x n."""
    a_s, a_d = arc_bases(g)
    return a_s - a_d, a_s + a_d


def lift(base, p):
    """base (x) I_p."""
    return np.kron(base, np.eye(p))


def lifted_incidence(g):
    """(E_o (x) I_p, E_u (x) I_p) for the graph's block dimension."""
    return tuple(lift(base, g.p) for base in incidence_bases(g))


def incidence_uv(g):
    """The classical incidence triple (U, V, Dbar) = (E_u'E_u, E_o'E_o, D),
    from the dense products."""
    e_o, e_u = incidence_bases(g)
    gram_o, gram_u = e_o.T @ e_o, e_u.T @ e_u
    return gram_u, gram_o, 0.5 * (gram_o + gram_u)


def min_norm_solver(b, p=1):
    """`denselin.MinNormTransposeSolver` for a dense graph-level incidence
    matrix b of a connected graph: its Gram matrix b'b, and the products of
    the dense lift b (x) I_p and its transpose."""
    b = np.asarray(b, dtype=float)
    lifted = lift(b, p)
    return denselin.MinNormTransposeSolver(
        b.T @ b, lambda y: lifted @ y, lambda a: lifted.T @ a, p
    )


def eval_g(components, g, rho, eta, x):
    """f(x) plus the consensus penalty rho (1 - eta)/4 |E_o x|^2."""
    e_o_x = lifted_incidence(g)[0] @ x
    return objective.sum_value(components, x) + 0.25 * rho * (1.0 - eta) * (e_o_x @ e_o_x)


def grad_g(components, g, rho, eta, x):
    """grad f(x) plus rho (1 - eta)/2 E_o'E_o x."""
    e_o = lifted_incidence(g)[0]
    return objective.sum_gradient(components, x) + 0.5 * rho * (1.0 - eta) * (e_o.T @ (e_o @ x))


def x_norm_blocks(g, rho, pi):
    """The lifted x-blocks of the two certificate norms, from the dense
    unoriented incidence and the proximal weights pi: M (x) I_p with
    M = (rho/2) E_u'E_u + diag(pi) for `delta`, and (rho/4) E_u'E_u (x) I_p
    for `delta_admm`."""
    e_u = incidence_bases(g)[1]
    gram_u = e_u.T @ e_u
    return lift(0.5 * rho * gram_u + np.diag(pi), g.p), lift(0.25 * rho * gram_u, g.p)


def x_block(cert):
    """A certificate's n x n x-block diag(x_weights) - x_coupling E_o'E_o,
    with E_o'E_o from the dense incidence."""
    e_o = incidence_bases(cert.graph)[0]
    return np.diag(cert.x_weights) - cert.x_coupling * (e_o.T @ e_o)


def phi_space_distances_sq(cert, ref, xs, phis):
    """The certificate's squared distance of every row (xs[k], phis[k]), with
    the dual term measured on the aggregates phi = E_o'alpha: for alpha in
    range(E_o), |alpha - alpha*|^2 = dphi' (L^+ (x) I_p) dphi with L = E_o'E_o,
    L^+ by `np.linalg.pinv`; the x-term is the lifted `x_block`, densely."""
    g = cert.graph
    l_pinv = lift(np.linalg.pinv(netgraph.laplacian(g), rtol=1e-9, hermitian=True), g.p)
    dphi = np.asarray(phis) - lifted_incidence(g)[0].T @ ref.alpha_star
    dx = np.asarray(xs) - ref.x_star
    x_sq = np.einsum("ki,ij,kj->k", dx, lift(x_block(cert), g.p), dx)
    return cert.dual_weight * np.einsum("ki,ij,kj->k", dphi, l_pinv, dphi) + x_sq


def terms(comp):
    """(Q, b) with comp(x) = 0.5 x'Qx + b'x + const: (Q, b) of an
    `AffineQuadratic`, (h h', -y h) of a `RankOneLeastSquares`; None for
    any other component."""
    if isinstance(comp, objective.AffineQuadratic):
        return comp.q, comp.b
    if isinstance(comp, objective.RankOneLeastSquares):
        return np.outer(comp.h, comp.h), -comp.y * comp.h
    return None


def _solve_stacked(rows, c, x):
    """The local subproblems of a central step on stacked vectors."""
    new_x, _ = objective.local_subproblem_ex(rows, c.reshape(rows.shape), x.reshape(rows.shape))
    return new_x.ravel()


def dadmm_rows(graph, components, params):
    """D-ADMM's local subproblems: a_i = rho d_i and the proximal pi_i."""
    return objective.ProximalRows(components, params.rho * netgraph.degrees(graph),
                                  params.pi_vector(graph.n))


def approx_mm_rows(graph, components, params, epsilon):
    """The majorized subproblems: a_i = 0 and pi_i = rho (d_i + eps pi_i)."""
    return objective.ProximalRows(
        components, np.zeros(graph.n),
        params.rho * (netgraph.degrees(graph) + epsilon * params.pi_vector(graph.n)))


def dadmm_matrix_step(graph, rows, params, state):
    """Operator-form D-ADMM: the fields (x, phi, alpha) after one step."""
    s = netgraph.arc_stack(graph)
    rho, eta = params.rho, params.eta
    x = state["x"]
    c = state["phi"] - 0.5 * rho * s.e_u_transpose(s.e_u(x))
    new_x = _solve_stacked(rows, c, x)
    new_alpha = state["alpha"] + 0.5 * eta * rho * s.e_o(new_x)
    return {"x": new_x, "phi": s.e_o_transpose(new_alpha), "alpha": new_alpha}


def full_admm_step(graph, rows, params, state):
    """Three-block ADMM: the fields (x, z, lam) after one step."""
    s = netgraph.arc_stack(graph)
    rho, eta = params.rho, params.eta
    lam = state["lam"].reshape(2, -1)
    new_x = _solve_stacked(rows, s.apply_transpose(lam - rho * state["z"]), state["x"])
    ends = s.apply(new_x)
    halves = lam + rho * ends
    new_z = (halves[0] + halves[1]) / (2.0 * rho)
    new_lam = lam + eta * rho * (ends - new_z)
    return {"x": new_x, "z": new_z, "lam": new_lam.ravel()}


def approx_mm_step(graph, rows, params, state):
    """Approximated method of multipliers: the fields (x, nu) after one
    step, and E_o x of the new x."""
    s = netgraph.arc_stack(graph)
    rho, eta = params.rho, params.eta
    root_eta = math.sqrt(eta)
    x = state["x"]
    c = s.e_o_transpose(root_eta * state["nu"] + 0.5 * rho * s.e_o(x))
    new_x = _solve_stacked(rows, c, x)
    new_nu = state["nu"] + root_eta * 0.5 * rho * s.e_o(new_x)
    return {"x": new_x, "nu": new_nu, "e_o_x": s.e_o(new_x)}

