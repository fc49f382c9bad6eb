"""Benchmark workloads, their generated configs and an independent oracle.

Every workload is an explicit scenario (``preset = explicit`` with
``[graph] edges`` and ``[problem] h{i}/y{i}`` rows) drawn from the workload
seed by this file alone. The program under test receives only the generated
INI text, so a change to the package's own scenario presets (for example the
chord sampling of ``ls-ring``) cannot silently change a benchmark input.

The oracle recomputes, with plain numpy and none of the package's code, the
values a run must report: the final-row ``obj_err`` and ``consensus_resid`` of
``trace.csv`` and the certificate's ``delta``. All engines the workloads use
produce the D-ADMM primal trajectory, so one dense D-ADMM recursion covers
them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

RHO = 1.0
ETA = 0.5
MIN_GRAM_EIG = 0.1
# stopping width of the package's golden-section searches for the
# certificate's scalars (``Tolerances.search``). A search stops anywhere
# within it of the maximizer; where the maximizing branch is steep and delta
# small, that moves delta by up to about 1e-4 of its value.
SEARCH_WIDTH = 1e-10


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    p: int
    algorithm: str
    pi: float
    rounds: int
    verify: bool
    compare: str | None
    # spans the traced run must see at least once; a renamed or moved
    # function otherwise zeroes its layer's metrics without notice
    expected_spans: tuple[str, ...]


_COMMON_SPANS = (
    "cli.main", "cli.emit_trace", "netgraph.build_graph",
    "netgraph.consensuality_residual", "denselin.sym_eigen",
    "denselin.spd_factor", "denselin.minnorm_setup", "denselin.minnorm_solve",
    "objective.sum_value", "analysis.reference_solution",
)

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="certify", n=60, p=3, algorithm="dadmm-matrix", pi=0.1,
            rounds=300, verify=True, compare=None,
            expected_spans=_COMMON_SPANS + (
                "denselin.spd_inverse", "solvers.engine_setup", "solvers.step",
                "analysis.rate_certificate", "analysis.verify_contraction",
            ),
        ),
        Workload(
            name="long-horizon", n=40, p=3, algorithm="dadmm", pi=0.1,
            rounds=2000, verify=True, compare=None,
            expected_spans=_COMMON_SPANS + (
                "objective.local_subproblem_ex", "harness.agents_setup",
                "harness.run_rounds", "analysis.rate_certificate",
                "analysis.verify_contraction",
            ),
        ),
        Workload(
            name="compare-p1", n=100, p=1, algorithm="full-admm", pi=0.0,
            rounds=3000, verify=False, compare="mm-approx",
            expected_spans=_COMMON_SPANS + (
                "denselin.spd_inverse", "solvers.engine_setup", "solvers.step",
            ),
        ),
    )
}


@dataclass(frozen=True)
class Instance:
    n: int
    p: int
    edges: tuple[tuple[int, int], ...]
    h: tuple[tuple[float, ...], ...]
    y: tuple[float, ...]


def make_instance(workload: Workload, seed: int) -> Instance:
    """Ring plus n//3 random chords, rank-one rows with a well-conditioned sum."""
    rng = random.Random(f"{workload.name}:{seed}")
    n, p = workload.n, workload.p
    edges = {(i, i + 1) for i in range(1, n)} | {(1, n)}
    while len(edges) < n + n // 3:
        u, v = sorted(rng.sample(range(1, n + 1), 2))
        edges.add((u, v))
    while True:
        h = tuple(tuple(rng.gauss(0.0, 1.0) for _ in range(p)) for _ in range(n))
        rows = np.array(h)
        if np.linalg.eigvalsh(rows.T @ rows)[0] >= MIN_GRAM_EIG:
            break
    y = tuple(rng.gauss(0.0, 1.0) for _ in range(n))
    return Instance(n=n, p=p, edges=tuple(sorted(edges)), h=h, y=y)


def config_text(workload: Workload, inst: Instance, rounds: int, out_dir: str) -> str:
    lines = [
        "[scenario]", "preset = explicit", f"n = {inst.n}", f"p = {inst.p}", "",
        "[graph]", "edges = " + " ".join(f"{u}-{v}" for u, v in inst.edges), "",
        "[problem]",
    ]
    for i, (h, y) in enumerate(zip(inst.h, inst.y), start=1):
        lines.append(f"h{i} = " + " ".join(repr(v) for v in h))
        lines.append(f"y{i} = {y!r}")
    lines += [
        "", "[algorithm]", f"name = {workload.algorithm}", f"rho = {RHO!r}",
        f"eta = {ETA!r}", f"pi = {workload.pi!r}", f"rounds = {rounds}", "",
        "[run]", f"verify = {'true' if workload.verify else 'false'}",
    ]
    if workload.compare is not None:
        lines.append(f"compare = {workload.compare}")
    lines += ["", "[output]", f"dir = {out_dir}"]
    return "\n".join(lines) + "\n"


# -- oracle ------------------------------------------------------------------------

def _incidence(inst: Instance) -> tuple[np.ndarray, np.ndarray]:
    """Graph-level oriented and unoriented incidence, arcs labeled as the
    package documents them (edges sorted, forward arc first)."""
    m = 2 * len(inst.edges)
    src = np.zeros((m, inst.n))
    dst = np.zeros((m, inst.n))
    for k, (u, v) in enumerate(inst.edges):
        src[2 * k, u - 1] = dst[2 * k + 1, u - 1] = 1.0
        dst[2 * k, v - 1] = src[2 * k + 1, v - 1] = 1.0
    return src - dst, src + dst


def _crossing(decreasing, increasing, lo: float, hi: float) -> float:
    """Argument of the crossing of a decreasing and an increasing branch,
    which is where the max over [lo, hi] of their min sits."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if decreasing(mid) > increasing(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _max_min(decreasing, increasing, lo: float, hi: float) -> tuple[float, float]:
    """Max over [lo, hi] of the min of the two branches, and the least value
    that min takes within SEARCH_WIDTH of its maximizer: the range a search
    with that stopping width may report."""
    def value(t):
        return min(decreasing(t), increasing(t))

    best = _crossing(decreasing, increasing, lo, hi)
    worst = min(value(max(lo, best - SEARCH_WIDTH)), value(min(hi, best + SEARCH_WIDTH)))
    return value(best), worst


def oracle(workload: Workload, inst: Instance, rounds: int) -> dict:
    """Final-row obj_err and consensus_resid after `rounds` D-ADMM rounds from
    zero, and (for verified workloads) the certificate's delta."""
    n, p = inst.n, inst.p
    h = np.array(inst.h)
    y = np.array(inst.y)
    e_o, e_u = _incidence(inst)
    lap = e_o.T @ e_o
    deg = 0.5 * np.diag(lap + e_u.T @ e_u)
    eye = np.eye(p)
    pi = workload.pi

    big_q = np.zeros((n * p, n * p))
    for i in range(n):
        big_q[i * p:(i + 1) * p, i * p:(i + 1) * p] = np.outer(h[i], h[i])
    big_b = (-y[:, None] * h).ravel()
    k_inv = np.linalg.inv(big_q + np.kron(np.diag(RHO * deg + pi), eye))
    coupling = 0.5 * RHO * np.kron(e_u.T @ e_u, eye)
    dual_step = 0.5 * ETA * RHO * np.kron(lap, eye)
    x = np.zeros(n * p)
    phi = np.zeros(n * p)
    for _ in range(rounds):
        x = k_inv @ -(big_b + phi - coupling @ x - pi * x)
        phi = phi + dual_step @ x

    def f(v):
        return float(0.5 * np.sum((np.sum(h * v.reshape(n, p), axis=1) - y) ** 2))

    xbar = np.linalg.solve(h.T @ h, h.T @ y)
    out = {
        "obj_err": f(x) - f(np.tile(xbar, n)),
        "consensus_resid": float(np.linalg.norm(np.kron(e_o, eye) @ x)),
    }
    if workload.verify:
        out["delta"] = _delta_range(h, lap, deg, pi)
    return out


def _delta_range(h: np.ndarray, lap: np.ndarray, deg: np.ndarray,
                 pi: float) -> tuple[float, float]:
    """Least and greatest delta a certificate may report: the value after
    both scalar searches (gamma for mu, then log10 tau) stop SEARCH_WIDTH off
    their maximizers, and the exact max-min value."""
    n = lap.shape[0]
    eig_lap = np.linalg.eigvalsh(lap)
    lam_min = float(eig_lap[eig_lap > 1e-9 * eig_lap[-1]][0])
    m_base = 0.5 * RHO * (2.0 * np.diag(deg) + (2.0 / RHO) * pi * np.eye(n) - lap)
    lam_max_m = float(np.linalg.eigvalsh(m_base)[-1])
    lip = float(np.max(np.sum(h * h, axis=1)))
    lip_g = lip + (1.0 - ETA) * 0.5 * RHO * float(eig_lap[-1])
    mu_bar = float(np.linalg.eigvalsh(h.T @ h)[0]) / n

    mu_best, mu_worst = _max_min(
        lambda g: mu_bar - 2.0 * lip * g,
        lambda g: lam_min * RHO * (1.0 - ETA) / (2.0 * (1.0 + 1.0 / (g * g))),
        0.0, mu_bar / (2.0 * lip),
    )
    a = RHO * ETA

    def delta(mu):
        return _max_min(
            lambda t: a * mu * lam_min
            / ((1.0 + 10.0 ** t) * lip_g ** 2 + a * lam_max_m * lam_min),
            lambda t: a * lam_min / (2.0 * (1.0 + 10.0 ** -t) * lam_max_m),
            -12.0, 12.0,
        )

    return delta(mu_worst)[1], delta(mu_best)[0]


def agrees(got: float, want: float, rtol: float, atol: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= atol + rtol * abs(want)
