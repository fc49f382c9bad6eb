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

A ";" at the start of a line or after whitespace begins a comment, and an
absent or empty setting keeps its `ExperimentConfig` default. Every float
value (rho, eta, pi, xi, omega, epsilon, the [problem] entries and the
[tolerances] values) must be a finite number; anything else is a
ConfigError, as is an unknown section or option, a [DEFAULT] option that no
section of the config reads, an unknown [tolerances] name, a negative
tolerance, a [problem] option naming no agent 1..n, and an agent without
exactly one complete pair.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import gc
import math
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import analysis, harness, netgraph, objective, solvers
from .errors import ConfigError, DeconoptError
from .tolerances import DEFAULT, Tolerances

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
    tolerances: Tolerances = DEFAULT

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
        if not 0 < self.rho < math.inf:
            raise ConfigError(f"rho must be positive and finite, got rho = {self.rho!r}")
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
                    and not abs(self.epsilon * self.rho - 1.0) <= 1e-12):
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


# the scalar settings: (section, option, ExperimentConfig field, cast of the
# stripped text); an absent or empty option leaves its field at the default
_SETTINGS = (
    ("scenario", "preset", "preset", str),
    ("scenario", "n", "n", int),
    ("scenario", "p", "p", int),
    ("scenario", "seed", "seed", int),
    ("algorithm", "name", "algorithm", str),
    ("algorithm", "rho", "rho", _finite),
    ("algorithm", "eta", "eta", _finite),
    ("algorithm", "pi", "pi", lambda raw: raw if raw == "theorem2" else _finite(raw)),
    ("algorithm", "xi", "xi", _finite),
    ("algorithm", "omega", "omega", _finite),
    ("algorithm", "epsilon", "epsilon", _finite),
    ("algorithm", "rounds", "rounds", int),
    ("run", "verify", "verify", _boolean),
    ("run", "compare", "compare", str),
    ("output", "dir", "out_dir", str),
)
# the options of each section but [problem] and [tolerances], which check
# their own names
_OPTIONS = {"graph": {"edges"}} | {
    section: {option for s, option, _, _ in _SETTINGS if s == section}
    for section, _, _, _ in _SETTINGS}

# an agent's [problem] entries per kind: its two option letters and casts
_PROBLEM_KINDS = (("rank-one", "h", _floats, "y", _finite),
                  ("quadratic", "q", _floats, "b", _floats))


def parse_config(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";",))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    # configparser lists [DEFAULT]'s options in every section; each must be
    # read by some section of the config (`read`)
    inherited = parser.defaults()
    read = set()
    for section in parser.sections():
        if section in ("problem", "tolerances"):
            continue
        if section not in _OPTIONS:
            raise ConfigError(f"unknown section [{section}]")
        for option in parser.options(section):
            if option in _OPTIONS[section]:
                read.add(option)
            elif option not in inherited:
                raise ConfigError(f"[{section}] {option}: unknown option")

    def cast(section, option, raw, convert):
        raw = raw.strip()
        try:
            return convert(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {option}: bad value {raw!r}") from exc

    values = {}
    for section, option, field, convert in _SETTINGS:
        raw = parser.get(section, option, fallback="")
        if raw.strip():
            values[field] = cast(section, option, raw, convert)

    if parser.has_option("graph", "edges"):
        edges = []
        for token in parser.get("graph", "edges").split():
            try:
                u, v = token.split("-")
                edges.append((int(u), int(v)))
            except ValueError as exc:
                raise ConfigError(f"[graph] edges: bad token {token!r}") from exc
        values["edges"] = tuple(edges)

    if parser.has_section("problem"):
        # each agent supplies either a rank-one (h, y) pair or a full
        # quadratic (Q, b) block, Q given row-major
        n = values.get("n", ExperimentConfig.n)
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
        unknown = [option for option in section if option not in inherited]
        if unknown:
            raise ConfigError(f"[problem] {unknown[0]} names no agent 1..{n}")
        read.update(option for option in inherited if option not in section)
        values["rows"] = tuple(rows)

    if parser.has_section("tolerances"):
        names = {field.name for field in fields(Tolerances)}
        given = {name: cast("tolerances", name, raw, _finite)
                 for name, raw in parser.items("tolerances")
                 if name in names or name not in inherited}
        bad = sorted(set(given) - names)
        if bad:
            raise ConfigError(f"unknown tolerance name(s): {bad}")
        read.update(given)
        values["tolerances"] = Tolerances(**given)

    unread = [option for option in inherited if option not in read]
    if unread:
        raise ConfigError(f"[DEFAULT] {unread[0]}: no section of the config reads it")
    return ExperimentConfig(**values)


def _text(value) -> str:
    """A value's INI text: true/false, a string as it is, a number by repr
    and a tuple of numbers space-separated."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return " ".join(map(repr, value))
    return value if isinstance(value, str) else repr(value)


def serialize_config(config: ExperimentConfig) -> str:
    """Canonical INI text of every setting that is not None, the graph, the
    problem rows and both tolerances; parse_config inverts it."""
    sections = {}
    for section, option, field, _ in _SETTINGS:
        value = getattr(config, field)
        if value is not None:
            sections.setdefault(section, []).append(f"{option} = {_text(value)}")
    if config.edges is not None:
        sections["graph"] = ["edges = " + " ".join(f"{u}-{v}" for u, v in config.edges)]
    if config.rows is not None:
        letters = {kind: (first, second) for kind, first, _, second, _ in _PROBLEM_KINDS}
        sections["problem"] = [f"{letter}{i} = {_text(value)}"
                               for i, (kind, *pair) in enumerate(config.rows, start=1)
                               for letter, value in zip(letters[kind], pair)]
    sections["tolerances"] = [f"{field.name} = {getattr(config.tolerances, field.name)!r}"
                              for field in fields(Tolerances)]
    return "\n".join(f"[{name}]\n" + "".join(f"{line}\n" for line in lines)
                     for name, lines in sections.items())


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


# each algorithm's engine from (graph, components, params, config), and the
# messages its round sends per arc (a network agent's new x row, once)
_ENGINES = {
    "dadmm": (1, lambda g, comps, params, config: solvers.DadmmEngine(g, comps, params)),
    "pextra": (1, lambda g, comps, params, config: solvers.PextraEngine(
        g, comps, solvers.PextraParams(config.xi, *solvers.pextra_mixing(
            g, config.xi, config.rho, config.eta if config.omega is None else config.omega)))),
    "general-uv": (1, lambda g, comps, params, config: solvers.GeneralUVEngine(
        g, netgraph.unoriented_gram(g), netgraph.laplacian(g),
        np.diag(netgraph.degrees(g)), comps, params)),
    "dadmm-matrix": (0, lambda g, comps, params, config: solvers.DadmmMatrixEngine(
        g, comps, params)),
    "full-admm": (0, lambda g, comps, params, config: solvers.FullAdmmEngine(g, comps, params)),
    "mm-exact": (0, lambda g, comps, params, config: solvers.ExactMMEngine(g, comps, params)),
    "mm-approx": (0, lambda g, comps, params, config: solvers.ApproxMMEngine(
        g, comps, params, 1.0 / config.rho if config.epsilon is None else config.epsilon)),
}
ALGORITHMS = tuple(_ENGINES)


def _run_engines(config: ExperimentConfig, graph, components, params: solvers.AdmmParams,
                 xs: np.ndarray):
    """Fill the (rounds+1, n*p) float array xs with the configured
    algorithm's iterates, from its engine's `init` state, a zero dual: row 0
    with the initial state, then one `step` per block of
    `objective._ROW_BLOCK` rows, each copying a round's iterate into its
    row. Both engines `_ENGINES` builds exist before either steps; the
    comparison, when configured, steps in lockstep into one reused block
    buffer, and each block gives its rows' gaps max|xs[k] - x_k|. Returns
    the primary's dual aggregate after the last round (`phi`, the one dual
    the verification reads), the comparison's gaps or None, and the message
    count of a round, the same for every round."""
    per_arc, make = _ENGINES[config.algorithm]
    engine = make(graph, components, params, config)
    other = None if config.compare is None else _ENGINES[config.compare][1](
        graph, components, params, config)
    state = engine.init()
    xs[0] = state.x
    gaps = None
    if other is not None:
        other_state = other.init()
        gaps = np.empty(len(xs))
        gaps[0] = np.abs(xs[0] - other_state.x).max()
        buf = np.empty((min(len(xs) - 1, objective._ROW_BLOCK), xs.shape[1]))
    for start in range(1, len(xs), objective._ROW_BLOCK):
        rows = xs[start:start + objective._ROW_BLOCK]
        state = engine.step(state, rows)
        if other is not None:
            block = buf[:len(rows)]
            other_state = other.step(other_state, block)
            np.subtract(rows, block, out=block)
            np.abs(block, out=block).max(axis=1, out=gaps[start:start + len(rows)])
    return engine.phi(state), gaps, per_arc * graph.m


def _write_lines(path, header: str, lines) -> None:
    """Write the header line, then each newline-terminated line of an iterable."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        fh.writelines(lines)


def emit_trace(path, obj_errs, resids, messages, distances=None, delta=None) -> None:
    """Write the per-round trace CSV with the fixed seven-column header.

    The columns are sequences with one entry per round k = 0..K: floats for
    obj_err and consensus_resid, ints for messages. Without `distances`
    (a float sequence, given with the `delta` the verify checked) the columns
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


# the scalar settings a run computes with, named when a value leaves the float
# range
_SCALARS = ("rho", "eta", "pi", "xi", "omega", "epsilon")


@contextlib.contextmanager
def _float_range(config: ExperimentConfig):
    """Compute under np.errstate(over="raise", invalid="raise"): an overflow
    or invalid operation is a ConfigError naming the run's algorithms and
    its set scalars, not a warning and a later failure that names none."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        names = config.algorithm if config.compare is None else (
            f"{config.algorithm} and {config.compare}")
        scalars = ", ".join(f"{name} = {getattr(config, name)!r}" for name in _SCALARS
                            if getattr(config, name) is not None)
        raise ConfigError(f"{names}: a value left the float range ({exc}) at {scalars}") from exc


def run(config: ExperimentConfig, dump_operators: bool = False) -> int:
    """Execute one experiment; returns the process exit code.

    The component list's stacked view is built once and serves every pass
    over the sum. Only the primary run's (rounds+1, n*p) iterates are
    kept, filled a block at a time by `_run_engines`; the comparison steps
    in lockstep, so a comparison that fails its set-up fails the run before
    any round, and its rows become compare.csv's gaps a block at a time.
    The obj_err and consensus_resid columns are one row-wise pass each over
    the kept iterates. Every computation ends
    before the first file is written, so a run that fails writes nothing;
    a value that leaves the float range on the way fails it with a
    ConfigError (`_float_range`). `dump_operators` adds the operator CSVs
    of `_dump_operators` to the files.
    """
    config.validate()
    with _float_range(config):
        graph, components = build_scenario(config)
        components = objective.stacked(components)
        params = _resolve_params(config, graph)
        ref = analysis.reference_solution(graph, components, config.tolerances)

        try:
            xs = np.empty((config.rounds + 1, graph.n * graph.p))
        except (MemoryError, ValueError) as exc:
            raise ConfigError(f"rounds = {config.rounds}: no room for the iterates") from exc
        cert = None
        if config.verify:
            cert_params = replace(params, eta=config.certified_eta())
            cert = analysis.rate_certificate(graph, ref.profile, cert_params)

        # the engines form the penalty weights rho d_i, and an overflowed one
        # would iterate on inf; checked after the certificate, which names its
        # own out-of-range constant first
        if not math.isfinite(config.rho * float(netgraph.degrees(graph).max())):
            raise ConfigError(f"rho = {config.rho!r}: the penalty weights rho d_i "
                              "leave the float range")

        phi_last, gaps, messages = _run_engines(config, graph, components, params, xs)

        report = None
        if cert is not None:
            report = analysis.verify_contraction(xs, phi_last, ref, cert,
                                                 tolerances=config.tolerances)

        obj_errs = objective.sum_value(components, xs) - ref.objective_value
        resids = netgraph.consensuality_residual(graph, xs)

    os.makedirs(config.out_dir, exist_ok=True)
    distances = None if report is None else report.distances.tolist()
    delta = None if cert is None else cert.checked.delta
    emit_trace(os.path.join(config.out_dir, "trace.csv"), obj_errs.tolist(),
               resids.tolist(), [0] + [messages] * config.rounds, distances, delta)

    if cert is not None:
        with open(os.path.join(config.out_dir, "certificate.txt"), "w") as fh:
            fh.write("\n".join(analysis.certificate_lines(cert, report)) + "\n")
        with open(os.path.join(config.out_dir, "certificate.csv"), "w", newline="") as fh:
            fh.write("\n".join(analysis.certificate_csv_rows(cert, report)) + "\n")

    if gaps is not None:
        _write_lines(os.path.join(config.out_dir, "compare.csv"), "k,max_abs_dx",
                     map("%d,%.17g\n".__mod__, enumerate(gaps.tolist())))

    if dump_operators:
        _dump_operators(graph, config.out_dir)

    if report is not None and not report.ok:
        return 2
    return 0


def _dump_operators(graph, out_dir: str) -> None:
    """Write the dense arc matrices A_s, A_d, E_o, E_u (m x n) and the graph
    matrices D and L (n x n) as CSV files, for inspection; the arc matrices
    are formed here only, from the arc indices."""
    src, dst = netgraph.arc_indices(graph)
    arcs = np.arange(graph.m)
    a_src = np.zeros((graph.m, graph.n))
    a_src[arcs, src] = 1.0
    a_dst = np.zeros((graph.m, graph.n))
    a_dst[arcs, dst] = 1.0
    for name, matrix in (("a_src", a_src), ("a_dst", a_dst), ("e_o", a_src - a_dst),
                         ("e_u", a_src + a_dst), ("degree", np.diag(netgraph.degrees(graph))),
                         ("laplacian", netgraph.laplacian(graph))):
        with open(os.path.join(out_dir, f"{name}.csv"), "w", newline="") as fh:
            fh.write("\n".join(netgraph.operator_csv_rows(matrix)) + "\n")


def main(argv=None) -> int:
    """The command line; returns the exit code. The heap that exists on entry
    (the interpreter's and the imports') is frozen out of garbage collection
    until it returns, so a collection during a run scans only what the run
    allocated. The freeze comes first: building the parser may collect."""
    gc.freeze()
    try:
        return _main(argv)
    finally:
        gc.unfreeze()


def _main(argv) -> int:
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
        return run(config, args.dump_operators)
    except (DeconoptError, OSError, ValueError) as exc:
        print(f"deconopt: {args.config}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
