"""Experiment runner.

Parses an INI config, builds the scenario, runs the selected engine(s), and
writes a per-round trace CSV plus (under --verify) the contraction
certificate report. Exit codes: 0 success, 1 setup error, 2 contraction
violation when verification was requested.

Config grammar (INI, parsed with configparser)::

    [scenario]            ; preset "explicit" or "ls-ring"
    preset = explicit
    n = 3
    p = 2
    seed = 1              ; ls-ring only

    [graph]               ; explicit scenarios only
    edges = 1-2 2-3 3-1

    [problem]             ; explicit scenarios only; every agent 1..n gives
    h1 = 1.0 0.0          ; either a rank-one h{i}/y{i} pair or a quadratic
    y1 = 0.25             ; q{i}/b{i} block (Q row-major, p x p), never both
    q2 = 1.0 0.0 0.0 1.0
    b2 = 0.5 -0.5
    h3 = 0.0 1.0
    y3 = -1.0

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
    verify = false        ; 1/yes/true/on or 0/no/false/off
    compare =             ; second algorithm name for comparison mode

    [output]
    dir = out

    [tolerances]          ; optional: the two thresholds a verdict reads
    contraction_slack = 1e-7
    minnorm_consistency = 1e-8

A ";" at the start of a line or after whitespace begins a comment. Every
float value (rho, eta, pi, xi, omega, epsilon, the [problem] entries and the
[tolerances] values) must be a finite number; anything else is a
ConfigError, as is an unknown [tolerances] name, a negative tolerance, a
[problem] option naming no agent 1..n, and an agent without exactly one
complete pair.
"""

from __future__ import annotations

import argparse
import configparser
import io
import math
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

    def run_tolerances(self) -> tolerances.Tolerances:
        """The run's thresholds: the defaults with the config's overrides;
        ConfigError for an unknown name or a negative value."""
        return tolerances.DEFAULT.replace(**dict(self.tolerance_overrides))

    def certified_eta(self) -> float:
        """The relaxation the verified run iterates with: a pextra run's
        overshoot omega when set, eta otherwise."""
        if self.algorithm == "pextra" and self.omega is not None:
            return self.omega
        return self.eta

    def validate(self) -> None:
        self.run_tolerances()
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


def _finite(raw: str) -> float:
    """float(raw); ValueError unless it is finite."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


def _boolean(raw: str) -> bool:
    """configparser's boolean words; ValueError for anything else."""
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError(raw) from None


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(map(_finite, raw.split()))


# an agent's [problem] entries per kind: its two option letters and casts
_PROBLEM_KINDS = (("rank-one", "h", _floats, "y", _finite),
                  ("quadratic", "q", _floats, "b", _floats))


def parse_config(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";",))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    def cast(section, option, raw, convert):
        raw = raw.strip()
        try:
            return convert(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {option}: bad value {raw!r}") from exc

    def get(section, option, convert, default):
        raw = parser.get(section, option, fallback="")
        return cast(section, option, raw, convert) if raw.strip() else default

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
        # each agent supplies either a rank-one (h, y) pair or a full
        # quadratic (Q, b) block, Q given row-major
        section = dict(parser.items("problem"))
        rows = []
        for i in range(1, n + 1):
            found = []
            for kind, first, first_cast, second, second_cast in _PROBLEM_KINDS:
                a, b = section.pop(f"{first}{i}", None), section.pop(f"{second}{i}", None)
                if a is None and b is None:
                    continue
                if a is None or b is None:
                    have, lack = (first, second) if b is None else (second, first)
                    raise ConfigError(f"[problem] {have}{i} given without {lack}{i}")
                found.append((kind, cast("problem", f"{first}{i}", a, first_cast),
                              cast("problem", f"{second}{i}", b, second_cast)))
            if len(found) != 1:
                raise ConfigError(f"[problem] agent {i} is given both h{i}/y{i} and q{i}/b{i}"
                                  if found else
                                  f"[problem] agent {i} needs h{i}/y{i} or q{i}/b{i}")
            rows.append(found[0])
        # configparser lists [DEFAULT]'s options in every section
        unknown = [option for option in section if option not in parser.defaults()]
        if unknown:
            raise ConfigError(f"[problem] {unknown[0]} names no agent 1..{n}")
        rows = tuple(rows)

    pi = get("algorithm", "pi", lambda raw: raw if raw == "theorem2" else _finite(raw), 0.0)
    overrides = []
    if parser.has_section("tolerances"):
        overrides = [(name, cast("tolerances", name, raw, _finite))
                     for name, raw in parser.items("tolerances")]

    compare = get("run", "compare", str, None)
    return ExperimentConfig(
        preset=preset, n=n, p=p, seed=seed, edges=edges, rows=rows,
        algorithm=get("algorithm", "name", str, "dadmm"),
        rho=get("algorithm", "rho", _finite, 1.0),
        eta=get("algorithm", "eta", _finite, 0.5),
        pi=pi,
        xi=get("algorithm", "xi", _finite, None),
        omega=get("algorithm", "omega", _finite, None),
        epsilon=get("algorithm", "epsilon", _finite, None),
        rounds=get("algorithm", "rounds", int, 300),
        verify=get("run", "verify", _boolean, False),
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


def _resolve_params(config: ExperimentConfig, graph) -> solvers.AdmmParams:
    if config.pi == "theorem2":
        pi = solvers.theorem2_pi(graph, config.xi, config.rho)
    else:
        pi = float(config.pi)
    try:
        return solvers.AdmmParams(rho=config.rho, eta=config.eta, pi=pi)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _run_algorithm(name: str, config: ExperimentConfig, graph, components,
                   params: solvers.AdmmParams, record):
    """Run one algorithm for the configured rounds from a zero dual.

    Calls the row sink `record(k, x, messages)` for k = 0 (the initial
    state) to `rounds`, with `x` the stacked iterate after round k, which
    the sink copies if it keeps it, and round k's message count. Returns
    `phi_last`, the dual aggregate after the last round, the one dual the
    verification reads: it takes the other rounds' duals off the iterates.
    """
    if name in ("dadmm", "pextra", "general-uv"):
        if name == "dadmm":
            agents = harness.dadmm_agents(graph, components, params)
        elif name == "pextra":
            eta_like = config.omega if config.omega is not None else config.eta
            w, wt = solvers.pextra_mixing(graph, config.xi, config.rho, eta_like)
            agents = harness.pextra_agents(
                graph, components, solvers.PextraParams(xi=config.xi, w=w, w_tilde=wt)
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
        return agents.phi.ravel()

    if name == "dadmm-matrix":
        engine = solvers.DadmmMatrixEngine(graph, components, params)
    elif name == "full-admm":
        engine = solvers.FullAdmmEngine(graph, components, params)
    elif name == "mm-exact":
        engine = solvers.ExactMMEngine(graph, components, params)
    else:  # mm-approx; `ExperimentConfig.validate` admits no other name
        eps = config.epsilon if config.epsilon is not None else 1.0 / config.rho
        engine = solvers.ApproxMMEngine(graph, components, params, eps)

    state = engine.init()
    for k in range(config.rounds + 1):
        if k > 0:
            state = engine.step(state)
        record(k, state.x, 0)
    return engine.phi(state)


def _gap_sink(xs, gaps):
    """Row sink for the comparison run: `gaps[k] = max|xs[k] - x_k|`.

    Rows are copied into one (analysis._ROW_BLOCK, n*p) buffer; when it fills,
    and at the last row of `xs`, its block of gaps is formed in place.
    """
    buf = np.empty((min(len(xs), analysis._ROW_BLOCK), xs.shape[1]))
    last = len(xs) - 1

    def record(k, x, messages):
        row = k % len(buf)
        buf[row] = x
        if row == len(buf) - 1 or k == last:
            block = buf[:row + 1]
            np.subtract(xs[k - row:k + 1], block, out=block)
            np.abs(block, out=block).max(axis=1, out=gaps[k - row:k + 1])

    return record


def _write_lines(path, header: str, lines) -> None:
    """Write the header line, then each newline-terminated line of an iterable."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        fh.writelines(lines)


def emit_trace(path, obj_errs, resids, messages, distances=None, delta=None) -> None:
    """Write the per-round trace CSV with the fixed seven-column header.

    The columns are sequences with one entry per round k = 0..K: floats for
    obj_err and consensus_resid, ints for messages. Without `distances`
    (a float sequence, given with the certificate's `delta`) the columns
    u_dist_H_sq, contraction_ratio and delta_bound are empty. With them,
    the contraction ratio is distances[k] / distances[k - 1], empty at k = 0
    and wherever the previous distance is not positive. Each line is one
    `%` operation; floats print with 17 significant digits.
    """
    rows = zip(range(len(obj_errs)), obj_errs, resids, messages)
    if distances is None:
        lines = map("%d,%.17g,%.17g,,,,%d\n".__mod__, rows)
    else:
        ratio_line = f"%d,%.17g,%.17g,%.17g,%.17g,{delta:.17g},%d\n"
        blank_line = f"%d,%.17g,%.17g,%.17g,,{delta:.17g},%d\n"
        lines = (ratio_line % (k, obj_err, resid, dist, dist / prev, count) if prev > 0
                 else blank_line % (k, obj_err, resid, dist, count)
                 for (k, obj_err, resid, count), prev, dist
                 in zip(rows, [0.0, *distances], distances))
    _write_lines(path, TRACE_HEADER, lines)


def run(config: ExperimentConfig) -> int:
    """Execute one experiment; returns the process exit code.

    Only the primary run's (rounds+1, n*p) iterates are kept; a comparison
    run's rows become compare.csv's gaps one row block at a time.
    """
    config.validate()
    tol = config.run_tolerances()

    graph, components = build_scenario(config)
    params = _resolve_params(config, graph)
    ref = analysis.reference_solution(graph, components, params.eta, tol)

    xs = np.empty((config.rounds + 1, graph.n * graph.p))
    messages = [0] * len(xs)

    def record(k, x, count):
        xs[k] = x
        messages[k] = count

    phi_last = _run_algorithm(config.algorithm, config, graph, components, params, record)

    cert = None
    report = None
    if config.verify:
        cert_params = replace(params, eta=config.certified_eta())
        cert = analysis.rate_certificate(graph, ref.profile, cert_params)
        report = analysis.verify_contraction(xs, phi_last, ref, cert, tolerances=tol)

    os.makedirs(config.out_dir, exist_ok=True)

    obj_errs = objective.sum_value(components, xs) - ref.objective_value
    resids = [netgraph.consensuality_residual(graph, x) for x in xs]
    distances = None if report is None else report.distances.tolist()
    delta = None if cert is None else cert.delta
    emit_trace(os.path.join(config.out_dir, "trace.csv"), obj_errs.tolist(), resids,
               messages, distances, delta)

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
        gaps = np.empty(len(xs))
        _run_algorithm(config.compare, config, graph, components, params,
                       _gap_sink(xs, gaps))
        _write_lines(os.path.join(config.out_dir, "compare.csv"), "k,max_abs_dx",
                     map("%d,%.17g\n".__mod__, enumerate(gaps.tolist())))

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
