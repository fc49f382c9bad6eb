"""Experiment runner.

Parses an INI config, builds the scenario, runs the selected engine(s), and
writes a per-round trace CSV plus (under --verify) the contraction
certificate report. Exit codes: 0 success, 1 setup error, 2 contraction
violation when verification was requested.

Config grammar (INI, parsed with configparser)::

    [scenario]            ; preset "ls-ring" or "explicit"
    preset = ls-ring
    n = 5
    p = 2
    seed = 1

    [graph]               ; explicit scenarios only
    edges = 1-2 2-3 3-1

    [problem]             ; one block per agent: rank-one h{i}/y{i} pairs or
    h1 = 1.0 0.0          ; quadratic q{i}/b{i} blocks (Q row-major, p x p)
    y1 = 0.25
    q2 = 1.0 0.0 0.0 1.0
    b2 = 0.5 -0.5

    [algorithm]
    name = dadmm          ; dadmm | pextra | general-uv | dadmm-matrix |
                          ; full-admm | mm-exact | mm-approx
    rho = 1.0
    eta = 0.5
    pi = 0                ; scalar or "theorem2" (needs xi)
    xi =                  ; pextra / theorem2 step size
    omega =               ; pextra overshoot, in [0.5, 1)
    epsilon =             ; mm-approx majorization weight (default 1/rho)
    rounds = 300

    [run]
    verify = false
    compare =             ; second algorithm name for comparison mode

    [output]
    dir = out

    [tolerances]          ; optional per-field overrides of the tolerance record,
    subproblem = 1e-11    ; the run's only source besides its defaults
"""

from __future__ import annotations

import argparse
import configparser
import io
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import analysis, harness, netgraph, objective, solvers, tolerances
from .errors import ConfigError, DeconoptError

ALGORITHMS = (
    "dadmm", "pextra", "general-uv", "dadmm-matrix",
    "full-admm", "mm-exact", "mm-approx",
)
TRACE_HEADER = "k,obj_err,consensus_resid,u_dist_H_sq,contraction_ratio,delta_bound,messages"


@dataclass(frozen=True)
class ExperimentConfig:
    preset: str = "ls-ring"
    n: int = 5
    p: int = 2
    seed: int = 1
    edges: tuple[tuple[int, int], ...] | None = None
    rows: tuple[tuple[tuple[float, ...], float], ...] | None = None
    algorithm: str = "dadmm"
    rho: float = 1.0
    eta: float = 0.5
    pi: float | str = 0.0
    xi: float | None = None
    omega: float | None = None
    epsilon: float | None = None
    rounds: int = 300
    verify: bool = False
    compare: str | None = None
    out_dir: str = "out"
    tolerance_overrides: tuple[tuple[str, float], ...] = ()

    def certified_eta(self) -> float:
        """The relaxation the verified run iterates with: a pextra run's
        overshoot omega when set, eta otherwise."""
        if self.algorithm == "pextra" and self.omega is not None:
            return self.omega
        return self.eta

    def validate(self) -> None:
        if self.preset not in ("ls-ring", "explicit"):
            raise ConfigError(f"unknown preset {self.preset!r}")
        if self.preset == "explicit" and (self.edges is None or self.rows is None):
            raise ConfigError("explicit scenario needs [graph] edges and [problem] rows")
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        if self.compare is not None and self.compare not in ALGORITHMS:
            raise ConfigError(f"unknown comparison algorithm {self.compare!r}")
        if self.rounds < 0:
            raise ConfigError("rounds must be nonnegative")
        if self.rho <= 0:
            raise ConfigError(f"rho must be positive, got {self.rho}")
        if not 0 < self.eta < solvers.ETA_SUP:
            raise ConfigError(
                f"eta must lie in (0, {solvers.ETA_SUP:.6f}), got {self.eta}"
            )
        if isinstance(self.pi, str) and self.pi != "theorem2":
            raise ConfigError(f"pi must be a number or 'theorem2', got {self.pi!r}")
        if self.pi == "theorem2" and self.xi is None:
            raise ConfigError("pi = theorem2 requires xi")
        runs_pextra = self.algorithm == "pextra" or self.compare == "pextra"
        if runs_pextra and self.xi is None:
            raise ConfigError("pextra requires xi")
        if self.omega is not None and not 0.5 <= self.omega < 1.0:
            raise ConfigError(f"omega must lie in [0.5, 1), got {self.omega}")
        if self.omega is not None and not runs_pextra:
            raise ConfigError("omega applies to pextra only; no pextra run is configured")
        if self.verify:
            eff = self.certified_eta()
            if not 0 < eff < 1:
                raise ConfigError(
                    f"verification certifies eta in (0,1) only, got {eff}"
                )
            # the certificate must describe the run it checks
            if self.algorithm == "pextra" and self.pi != "theorem2":
                raise ConfigError(
                    "verifying a pextra run requires pi = theorem2 so the "
                    "certificate matches the iterates"
                )
            if self.algorithm == "mm-exact":
                raise ConfigError(
                    "verifying an mm-exact run is not supported: the exact "
                    "method of multipliers does not produce D-ADMM's iterates, "
                    "which the certificate describes"
                )
            if (self.algorithm == "mm-approx" and self.epsilon is not None
                    and abs(self.epsilon - 1.0 / self.rho) > 1e-12):
                raise ConfigError(
                    "verifying an mm-approx run requires the matched "
                    "majorization weight epsilon = 1/rho"
                )


def parse_config(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    def get(section, option, cast, default):
        if not parser.has_option(section, option):
            return default
        raw = parser.get(section, option).strip()
        if raw == "":
            return default
        try:
            return cast(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {option}: bad value {raw!r}") from exc

    preset = get("scenario", "preset", str, "ls-ring")
    n = get("scenario", "n", int, 5)
    p = get("scenario", "p", int, 2)
    seed = get("scenario", "seed", int, 1)

    edges = None
    if parser.has_option("graph", "edges"):
        edges = []
        for token in parser.get("graph", "edges").split():
            try:
                u, v = token.split("-")
                edges.append((int(u), int(v)))
            except ValueError as exc:
                raise ConfigError(f"[graph] edges: bad token {token!r}") from exc
        edges = tuple(edges)

    rows = None
    if parser.has_section("problem"):
        rows = []
        for i in range(1, n + 1):
            # each agent supplies either a rank-one (h, y) pair or a full
            # quadratic (Q, b) block, Q given row-major
            if parser.has_option("problem", f"q{i}"):
                if not parser.has_option("problem", f"b{i}"):
                    raise ConfigError(f"[problem] q{i} given without b{i}")
                q = tuple(float(t) for t in parser.get("problem", f"q{i}").split())
                b = tuple(float(t) for t in parser.get("problem", f"b{i}").split())
                rows.append(("quadratic", q, b))
            elif parser.has_option("problem", f"h{i}"):
                if not parser.has_option("problem", f"y{i}"):
                    raise ConfigError(f"[problem] h{i} given without y{i}")
                h = tuple(float(t) for t in parser.get("problem", f"h{i}").split())
                rows.append(("rank-one", h, float(parser.get("problem", f"y{i}"))))
            else:
                raise ConfigError(f"[problem] agent {i} needs h{i}/y{i} or q{i}/b{i}")
        rows = tuple(rows)

    pi_raw = get("algorithm", "pi", str, "0")
    pi: float | str
    if pi_raw == "theorem2":
        pi = "theorem2"
    else:
        try:
            pi = float(pi_raw)
        except ValueError as exc:
            raise ConfigError(f"[algorithm] pi: bad value {pi_raw!r}") from exc

    overrides = []
    if parser.has_section("tolerances"):
        for name, raw in parser.items("tolerances"):
            try:
                overrides.append((name, float(raw)))
            except ValueError as exc:
                raise ConfigError(f"[tolerances] {name}: bad value {raw!r}") from exc

    compare = get("run", "compare", str, None)
    return ExperimentConfig(
        preset=preset, n=n, p=p, seed=seed, edges=edges, rows=rows,
        algorithm=get("algorithm", "name", str, "dadmm"),
        rho=get("algorithm", "rho", float, 1.0),
        eta=get("algorithm", "eta", float, 0.5),
        pi=pi,
        xi=get("algorithm", "xi", float, None),
        omega=get("algorithm", "omega", float, None),
        epsilon=get("algorithm", "epsilon", float, None),
        rounds=get("algorithm", "rounds", int, 300),
        verify=get("run", "verify", lambda s: s.lower() in ("1", "true", "yes"), False),
        compare=compare,
        out_dir=get("output", "dir", str, "out"),
        tolerance_overrides=tuple(sorted(overrides)),
    )


def serialize_config(config: ExperimentConfig) -> str:
    """Canonical INI text; parse(serialize(parse(t))) == parse(t)."""
    out = io.StringIO()
    out.write("[scenario]\n")
    out.write(f"preset = {config.preset}\n")
    out.write(f"n = {config.n}\np = {config.p}\nseed = {config.seed}\n")
    if config.edges is not None:
        out.write("\n[graph]\n")
        out.write("edges = " + " ".join(f"{u}-{v}" for u, v in config.edges) + "\n")
    if config.rows is not None:
        out.write("\n[problem]\n")
        for i, (kind, first, second) in enumerate(config.rows, start=1):
            if kind == "quadratic":
                out.write(f"q{i} = " + " ".join(repr(v) for v in first) + "\n")
                out.write(f"b{i} = " + " ".join(repr(v) for v in second) + "\n")
            else:
                out.write(f"h{i} = " + " ".join(repr(v) for v in first) + "\n")
                out.write(f"y{i} = {second!r}\n")
    out.write("\n[algorithm]\n")
    out.write(f"name = {config.algorithm}\n")
    out.write(f"rho = {config.rho!r}\neta = {config.eta!r}\n")
    out.write(f"pi = {config.pi if isinstance(config.pi, str) else repr(config.pi)}\n")
    for name in ("xi", "omega", "epsilon"):
        value = getattr(config, name)
        if value is not None:
            out.write(f"{name} = {value!r}\n")
    out.write(f"rounds = {config.rounds}\n")
    out.write("\n[run]\n")
    out.write(f"verify = {'true' if config.verify else 'false'}\n")
    if config.compare is not None:
        out.write(f"compare = {config.compare}\n")
    out.write("\n[output]\n")
    out.write(f"dir = {config.out_dir}\n")
    if config.tolerance_overrides:
        out.write("\n[tolerances]\n")
        for name, value in config.tolerance_overrides:
            out.write(f"{name} = {value!r}\n")
    return out.getvalue()


# -- scenario and engine assembly ------------------------------------------------

def build_scenario(config: ExperimentConfig):
    if config.preset == "ls-ring":
        return harness.scenario_least_squares(config.n, config.p, config.seed)
    graph = netgraph.build_graph(config.n, config.edges, config.p)
    components = []
    for idx, (kind, first, second) in enumerate(config.rows, start=1):
        if kind == "quadratic":
            if len(first) != config.p * config.p or len(second) != config.p:
                raise ConfigError(f"[problem] q{idx}/b{idx} sizes disagree with p")
            q = np.array(first, dtype=float).reshape(config.p, config.p)
            components.append(objective.AffineQuadratic(q, np.array(second)))
        else:
            components.append(
                objective.RankOneLeastSquares(np.array(first, dtype=float), second)
            )
    if any(comp.p != config.p for comp in components):
        raise ConfigError("problem rows disagree with the configured block dimension")
    return graph, components


def _resolve_params(config: ExperimentConfig, graph, tol) -> solvers.AdmmParams:
    if config.pi == "theorem2":
        pi = solvers.theorem2_pi(graph, config.xi, config.rho)
    else:
        pi = float(config.pi)
    try:
        return solvers.AdmmParams(
            rho=config.rho, eta=config.eta, pi=pi, subproblem_tol=tol.subproblem
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _run_algorithm(name: str, config: ExperimentConfig, graph, components,
                   params: solvers.AdmmParams, tol):
    """Run one algorithm for the configured rounds from a zero dual.

    Returns (xs, phi_last, messages). Row k of the preallocated
    (rounds+1, n*p) array `xs` holds a copy of the iterate after round k,
    row 0 the initial state. `phi_last` is the dual aggregate after the last
    round, the one dual the verification reads: it takes the duals of the
    other rounds off `xs`. `messages[k]` is round k's message count.
    """
    xs = np.empty((config.rounds + 1, graph.n * graph.p))
    messages = [0] * len(xs)

    def record(k, x, count):
        xs[k] = x
        messages[k] = count

    if name in ("dadmm", "pextra", "general-uv"):
        if name == "dadmm":
            agents = harness.dadmm_agents(graph, components, params)
        elif name == "pextra":
            eta_like = config.omega if config.omega is not None else config.eta
            w, wt = solvers.pextra_mixing(graph, config.xi, config.rho, eta_like)
            agents = harness.pextra_agents(
                graph, components,
                solvers.PextraParams(xi=config.xi, w=w, w_tilde=wt),
                subproblem_tol=tol.subproblem,
            )
        else:
            agents = harness.general_uv_agents(
                graph, netgraph.unoriented_gram(graph), netgraph.laplacian(graph),
                np.diag(netgraph.degrees(graph)), components, params
            )
        harness.run_rounds(
            agents, graph, config.rounds,
            observer=lambda k, x, phi, log: record(k, x, log.messages),
        )
        return xs, agents.phi.ravel(), messages

    if name == "dadmm-matrix":
        engine = solvers.DadmmMatrixEngine(graph, components, params)
    elif name == "full-admm":
        engine = solvers.FullAdmmEngine(graph, components, params)
    elif name == "mm-exact":
        engine = solvers.ExactMMEngine(graph, components, params)
    elif name == "mm-approx":
        eps = config.epsilon if config.epsilon is not None else 1.0 / config.rho
        engine = solvers.ApproxMMEngine(graph, components, params, eps)
    else:
        raise ConfigError(f"unknown algorithm {name!r}")

    state = engine.init()
    for k in range(config.rounds + 1):
        if k > 0:
            state = engine.step(state)
        record(k, state.x, 0)
    return xs, engine.snapshot(state).phi, messages


def emit_trace(rows, path) -> None:
    """Write the per-round trace CSV with the fixed seven-column header.

    Floats print with 17 significant digits; missing entries are empty
    fields (the contraction ratio is always empty at k = 0).
    """
    def fmt(v):
        return "" if v is None else f"{v:.17g}"

    lines = [TRACE_HEADER]
    for row in rows:
        k, obj_err, resid, udist, ratio, delta, messages = row
        lines.append(
            f"{k},{fmt(obj_err)},{fmt(resid)},{fmt(udist)},{fmt(ratio)},"
            f"{fmt(delta)},{messages}"
        )
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def run(config: ExperimentConfig, tol: tolerances.Tolerances | None = None) -> int:
    """Execute one experiment; returns the process exit code."""
    config.validate()
    if tol is None:
        tol = tolerances.DEFAULT.replace(**dict(config.tolerance_overrides))

    graph, components = build_scenario(config)
    params = _resolve_params(config, graph, tol)
    ref = analysis.reference_solution(graph, components, params.eta, tol)

    xs, phi_last, messages = _run_algorithm(config.algorithm, config, graph, components,
                                            params, tol)

    cert = None
    report = None
    if config.verify:
        profile = objective.sum_profile(components, graph)
        cert_params = replace(params, eta=config.certified_eta())
        cert = analysis.rate_certificate(graph, profile, cert_params, tol)
        report = analysis.verify_contraction(xs, phi_last, ref, cert, tolerances=tol)

    os.makedirs(config.out_dir, exist_ok=True)

    udists = None if report is None else report.distances
    obj_errs = objective.sum_value(components, xs) - ref.objective_value
    csv_rows = []
    for k, x in enumerate(xs):
        resid = netgraph.consensuality_residual(graph, x)
        udist = None if udists is None else float(udists[k])
        ratio = None
        if udists is not None and k > 0 and udists[k - 1] > 0:
            ratio = float(udists[k] / udists[k - 1])
        delta = None if cert is None else cert.delta
        csv_rows.append((k, float(obj_errs[k]), resid, udist, ratio, delta, messages[k]))
    emit_trace(csv_rows, os.path.join(config.out_dir, "trace.csv"))

    if cert is not None:
        lines = analysis.certificate_lines(cert)
        lines.append(f"violations = {len(report.violations)}")
        if report.worst_ratio is not None:
            lines.append(f"worst_ratio = {report.worst_ratio:.17g}")
        with open(os.path.join(config.out_dir, "certificate.txt"), "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with open(os.path.join(config.out_dir, "certificate.csv"), "w", newline="") as fh:
            fh.write("\n".join(analysis.certificate_csv_rows(cert)) + "\n")

    if config.compare is not None:
        other = _run_algorithm(config.compare, config, graph, components, params, tol)[0]
        # in place: `other` is not read again, and a fresh (rounds+1, n*p)
        # temporary would raise the run's peak memory
        gaps = np.abs(np.subtract(xs, other, out=other), out=other).max(axis=1)
        lines = ["k,max_abs_dx"] + [f"{k},{gap:.17g}" for k, gap in enumerate(gaps)]
        with open(os.path.join(config.out_dir, "compare.csv"), "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")

    if config.verify and report is not None and not report.ok:
        return 2
    return 0


def _dump_operators(config: ExperimentConfig, out_dir: str) -> None:
    """Write the dense arc matrices A_s, A_d, E_o, E_u (m x n) and the graph
    matrices D and L (n x n) as CSV files, for inspection; the arc matrices
    are formed here only, from the arc indices."""
    graph, _ = build_scenario(config)
    src, dst = netgraph.arc_indices(graph)
    arcs = np.arange(graph.m)
    a_src = np.zeros((graph.m, graph.n))
    a_src[arcs, src] = 1.0
    a_dst = np.zeros((graph.m, graph.n))
    a_dst[arcs, dst] = 1.0
    os.makedirs(out_dir, exist_ok=True)
    for name, matrix in (("a_src", a_src), ("a_dst", a_dst), ("e_o", a_src - a_dst),
                         ("e_u", a_src + a_dst), ("degree", np.diag(netgraph.degrees(graph))),
                         ("laplacian", netgraph.laplacian(graph))):
        with open(os.path.join(out_dir, f"{name}.csv"), "w", newline="") as fh:
            fh.write("\n".join(netgraph.operator_csv_rows(matrix)) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="deconopt",
        description="Decentralized consensus optimization experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute an experiment config")
    run_p.add_argument("config", help="path to the INI config")
    run_p.add_argument("--verify", action="store_true",
                       help="check the contraction certificate per round")
    run_p.add_argument("--compare", metavar="ALG1,ALG2",
                       help="run two algorithms and emit their per-round gap")
    run_p.add_argument("--seed", type=int, help="override the scenario seed")
    run_p.add_argument("--out", help="override the output directory")
    run_p.add_argument("--dump-operators", action="store_true",
                       help="also export the arc and graph matrices as CSV")

    args = parser.parse_args(argv)
    try:
        with open(args.config) as fh:
            config = parse_config(fh.read())
        if args.verify:
            config = replace(config, verify=True)
        if args.compare:
            names = [t.strip() for t in args.compare.split(",")]
            if len(names) != 2:
                raise ConfigError("--compare needs exactly two algorithm names")
            config = replace(config, algorithm=names[0], compare=names[1])
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        if args.out is not None:
            config = replace(config, out_dir=args.out)
        if args.dump_operators:
            config.validate()
            _dump_operators(config, config.out_dir)
        return run(config)
    except (DeconoptError, OSError, ValueError) as exc:
        print(f"deconopt: {args.config}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
