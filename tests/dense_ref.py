"""Dense reference matrices and graph lookups for the tests.

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
order the network's round must add the terms.
"""

import numpy as np

from deconopt import denselin, netgraph
from deconopt.tolerances import DEFAULT


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


def min_norm_solver(b, tolerances=DEFAULT):
    """`denselin.MinNormTransposeSolver` for a dense matrix b at p = 1: its
    Gram matrix b'b with that matrix's decomposition, and the products b y
    and b'a."""
    b = np.asarray(b, dtype=float)
    gram = b.T @ b
    eigen = denselin.sym_eigen(denselin.SymMatrix(gram, tolerances), tolerances)
    return denselin.MinNormTransposeSolver(
        gram, eigen, lambda y: b @ y, lambda a: b.T @ a, tolerances=tolerances
    )
