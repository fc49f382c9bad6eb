import csv
import os
import re
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

import dense_ref
from deconopt import (
    analysis, cli, denselin, harness, netgraph, objective, solvers, tolerances,
)
from deconopt.cli import ExperimentConfig, parse_config, serialize_config
from deconopt.errors import ConfigError, Inconsistent

BASE_INI = """
[scenario]
preset = ls-ring
n = 5
p = 2
seed = 1

[algorithm]
name = dadmm
rho = 1.0
eta = 0.5
pi = 0
rounds = 40

[output]
dir = {out}
"""

EXPLICIT_INI = """
[scenario]
preset = explicit
n = 3
p = 1
seed = 7

[graph]
edges = 1-2 2-3

[problem]
h1 = 1.0
y1 = 0.0
h2 = 1.0
y2 = 1.0
h3 = 1.0
y3 = 2.0

[algorithm]
name = dadmm
rho = 1.0
eta = 0.5
rounds = 30

[output]
dir = {out}
"""


def write(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfigRoundTrip:
    def test_parse_serialize_parse_identity(self):
        for text in (BASE_INI.format(out="out"), EXPLICIT_INI.format(out="x")):
            cfg = parse_config(text)
            again = parse_config(serialize_config(cfg))
            assert again == cfg

    def test_defaults(self):
        cfg = parse_config("[scenario]\npreset = ls-ring\n")
        assert cfg == ExperimentConfig()

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[algorithm]\nrho = abc\n")
        with pytest.raises(ConfigError):
            parse_config("[graph]\nedges = 1:2\n")
        with pytest.raises(ConfigError):
            parse_config("not an ini at all [ ")

    NON_FINITE = {
        "[algorithm] rho": "[algorithm]\nrho = nan\n",
        "[algorithm] eta": "[algorithm]\neta = inf\n",
        "[algorithm] pi": "[algorithm]\npi = -inf\n",
        "[algorithm] xi": "[algorithm]\nxi = nan\n",
        "[algorithm] omega": "[algorithm]\nomega = nan\n",
        "[algorithm] epsilon": "[algorithm]\nepsilon = inf\n",
        "[problem] h1": "[scenario]\nn = 1\n[problem]\nh1 = 1.0 nan\ny1 = 0\n",
        "[problem] y1": "[scenario]\nn = 1\n[problem]\nh1 = 1.0\ny1 = inf\n",
        "[problem] q1": "[scenario]\nn = 1\n[problem]\nq1 = nan\nb1 = 0\n",
        "[tolerances] contraction_slack": "[tolerances]\ncontraction_slack = nan\n",
        "[tolerances] minnorm_consistency": "[tolerances]\nminnorm_consistency = inf\n",
    }

    @pytest.mark.parametrize("name", list(NON_FINITE))
    def test_non_finite_values_rejected(self, name):
        with pytest.raises(ConfigError, match=re.escape(f"{name}: bad value")):
            parse_config(self.NON_FINITE[name])

    @pytest.mark.parametrize("rows", ["h4 = 1.0\ny4 = 0.5\n", "bb2 = 1.0\n"], ids=["h4", "bb2"])
    def test_problem_option_naming_no_agent_is_setup_error(self, rows, tmp_path, capsys):
        out = tmp_path / "o"
        text = EXPLICIT_INI.format(out=out).replace("[algorithm]", rows + "\n[algorithm]")
        with pytest.raises(ConfigError, match=r"names no agent 1\.\.3"):
            parse_config(text)
        assert cli.main(["run", write(tmp_path, text)]) == 1
        assert "deconopt:" in capsys.readouterr().err
        assert not out.exists()

    def test_default_section_options_name_no_agent(self):
        # [DEFAULT]'s options show in every section without being its own
        text = "[DEFAULT]\nrounds = 7\n" + EXPLICIT_INI.format(out="o")
        assert parse_config(text).rows == parse_config(EXPLICIT_INI.format(out="o")).rows

    def test_agent_given_both_kinds_is_setup_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        text = EXPLICIT_INI.format(out=out).replace("y2 = 1.0", "y2 = 1.0\nq2 = 1.0\nb2 = 0.0")
        with pytest.raises(ConfigError, match="agent 2 is given both h2/y2 and q2/b2"):
            parse_config(text)
        assert cli.main(["run", write(tmp_path, text)]) == 1
        assert "deconopt:" in capsys.readouterr().err
        assert not out.exists()

    def test_inline_comments(self):
        text = "[algorithm]\nrho = 2.0 ; penalty\n\n[output]\ndir = a;b\n"
        cfg = parse_config(text)
        assert (cfg.rho, cfg.out_dir) == (2.0, "a;b")

    def test_readme_example_runs(self, tmp_path):
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme) as fh:
            text = re.search(r"```ini\n(.*?)```", fh.read(), re.S)[1]
        out = tmp_path / "readme"
        assert cli.main(["run", write(tmp_path, text), "--out", str(out)]) == 0
        assert (out / "trace.csv").exists()

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            parse_config("[algorithm]\nname = nosuch\n").validate()
        with pytest.raises(ConfigError):
            parse_config("[algorithm]\nrho = -1\n").validate()
        with pytest.raises(ConfigError):
            parse_config("[algorithm]\npi = theorem2\n").validate()
        # the overshoot omega's one range check
        for omega in (0.3, 1.0):
            with pytest.raises(ConfigError, match=r"omega must lie in \[0.5, 1\)"):
                ExperimentConfig(algorithm="pextra", xi=0.04, omega=omega).validate()


class TestRun:
    def test_preset_smoke(self, tmp_path):
        out = tmp_path / "out"
        path = write(tmp_path, BASE_INI.format(out=out))
        code = cli.main(["run", path, "--verify"])
        assert code == 0
        assert (out / "trace.csv").exists()
        assert (out / "certificate.txt").exists()
        assert (out / "certificate.csv").exists()

    def test_eta_out_of_theorem_range_with_verify_fails_setup(self, tmp_path, capsys):
        text = BASE_INI.format(out=tmp_path / "o").replace("eta = 0.5", "eta = 1.5")
        path = write(tmp_path, text)
        code = cli.main(["run", path, "--verify"])
        assert code == 1
        assert "deconopt" in capsys.readouterr().err

    @pytest.mark.parametrize("old,new", [("rho = 1.0", "rho = 1%"),
                                         ("edges = 1-2 2-3", "edges = 1-2 %(x)s")])
    def test_percent_in_a_value_is_setup_error(self, old, new, tmp_path, capsys):
        text = EXPLICIT_INI.format(out=tmp_path / "o").replace(old, new)
        assert cli.main(["run", write(tmp_path, text)]) == 1
        assert capsys.readouterr().err.startswith("deconopt: ")

    def test_percent_in_out_dir_is_literal(self, tmp_path):
        out = tmp_path / "100%(x)s"
        assert cli.main(["run", write(tmp_path, BASE_INI.format(out=out))]) == 0
        assert (out / "trace.csv").exists()

    def test_eta_without_verify_runs(self, tmp_path):
        text = BASE_INI.format(out=tmp_path / "o").replace("eta = 0.5", "eta = 1.5")
        path = write(tmp_path, text)
        assert cli.main(["run", path]) == 0

    def test_compare_dadmm_pextra_theorem2(self, tmp_path):
        out = tmp_path / "cmp"
        text = BASE_INI.format(out=out).replace("pi = 0", "pi = theorem2")
        text = text.replace("[algorithm]", "[algorithm]\nxi = 0.04")
        path = write(tmp_path, text)
        code = cli.main(["run", path, "--compare", "dadmm,pextra"])
        assert code == 0
        with open(out / "compare.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k", "max_abs_dx"]
        gaps = [float(r[1]) for r in rows[1:]]
        assert len(gaps) == 41
        assert max(gaps) <= 1e-9

    def test_explicit_scenario(self, tmp_path):
        out = tmp_path / "exp"
        path = write(tmp_path, EXPLICIT_INI.format(out=out))
        assert cli.main(["run", path]) == 0
        with open(out / "trace.csv") as fh:
            rows = list(fh)
        assert rows[0].strip() == cli.TRACE_HEADER
        assert len(rows) == 32  # header + k=0..30

    def test_explicit_quadratic_blocks(self, tmp_path):
        out = tmp_path / "quad"
        text = f"""
[scenario]
preset = explicit
n = 2
p = 2
seed = 0

[graph]
edges = 1-2

[problem]
q1 = 1.0 0.0 0.0 1.0
b1 = -1.0 0.0
h2 = 0.0 1.0
y2 = 2.0

[algorithm]
name = dadmm
rho = 1.0
eta = 0.5
rounds = 400

[output]
dir = {out}
"""
        path = write(tmp_path, text, name="quad.ini")
        cfg = parse_config(text)
        assert parse_config(serialize_config(cfg)) == cfg  # mixed-row round-trip
        assert cli.main(["run", path, "--verify"]) == 0
        with open(out / "trace.csv") as fh:
            last = list(csv.DictReader(fh))[-1]
        assert float(last["consensus_resid"]) < 1e-6
        assert abs(float(last["obj_err"])) < 1e-9

    def test_missing_config_is_setup_error(self, tmp_path, capsys):
        assert cli.main(["run", str(tmp_path / "nope.ini")]) == 1
        assert "nope.ini" in capsys.readouterr().err

    def test_dump_operators(self, tmp_path):
        out = tmp_path / "ops"
        path = write(tmp_path, EXPLICIT_INI.format(out=out))
        assert cli.main(["run", path, "--dump-operators"]) == 0
        lap = np.loadtxt(out / "laplacian.csv", delimiter=",")
        np.testing.assert_allclose(lap, [[2, -2, 0], [-2, 4, -2], [0, -2, 2]])
        # the doubled degree: twice the neighbour count on the diagonal
        deg = np.loadtxt(out / "degree.csv", delimiter=",")
        assert np.array_equal(deg, np.diag([2.0, 4.0, 2.0]))
        # arc rows: one 1 at the source (A_s) or the destination (A_d);
        # +1 at the source, -1 (E_o) or +1 (E_u) at the destination
        arc_files = {name: np.loadtxt(out / f"{name}.csv", delimiter=",")
                     for name in ("a_src", "a_dst", "e_o", "e_u")}
        graph = netgraph.build_graph(3, [(1, 2), (2, 3)], 1)
        assert all(mat.shape == (graph.m, graph.n) for mat in arc_files.values())
        for label, source, dest in dense_ref.reference_arcs(graph):
            want_s, want_d = np.zeros(graph.n), np.zeros(graph.n)
            want_s[source - 1] = want_d[dest - 1] = 1.0
            row = label - 1
            assert np.array_equal(arc_files["a_src"][row], want_s)
            assert np.array_equal(arc_files["a_dst"][row], want_d)
            assert np.array_equal(arc_files["e_o"][row], want_s - want_d)
            assert np.array_equal(arc_files["e_u"][row], want_s + want_d)
        # the exports are the dense reference matrices, written exactly
        e_o, e_u = dense_ref.incidence_bases(graph)
        assert np.array_equal(arc_files["e_o"].T @ arc_files["e_o"], lap)
        assert np.array_equal(0.5 * (e_o.T @ e_o + e_u.T @ e_u), deg)

    def test_exact_mm_over_size_cap_is_setup_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(solvers, "EXACT_MM_MAX_ORDER", 5)
        out = tmp_path / "cap"
        path = write(tmp_path, EXPLICIT_INI.format(out=out).replace(
            "name = dadmm", "name = mm-exact"))
        assert cli.main(["run", path]) == 0  # n*p = 3 is within the cap
        path = write(tmp_path, BASE_INI.format(out=out).replace(
            "name = dadmm", "name = mm-exact"), name="big.ini")
        assert cli.main(["run", path]) == 1
        assert "cap of 5" in capsys.readouterr().err


class TestTraceFile:
    def read_rows(self, out):
        with open(os.path.join(out, "trace.csv")) as fh:
            return list(csv.DictReader(fh))

    def test_header_and_k0_fields(self, tmp_path):
        out = str(tmp_path / "t")
        path = write(tmp_path, BASE_INI.format(out=out))
        assert cli.main(["run", path, "--verify"]) == 0
        rows = self.read_rows(out)
        assert rows[0]["k"] == "0"
        assert rows[0]["contraction_ratio"] == ""
        assert rows[0]["messages"] == "0"
        assert rows[1]["contraction_ratio"] != ""
        assert all(r["messages"] == rows[1]["messages"] for r in rows[1:])

    def test_delta_column_constant(self, tmp_path):
        out = str(tmp_path / "t2")
        path = write(tmp_path, BASE_INI.format(out=out))
        cli.main(["run", path, "--verify"])
        rows = self.read_rows(out)
        deltas = {r["delta_bound"] for r in rows}
        assert len(deltas) == 1

    def test_verification_columns_empty_without_verify(self, tmp_path):
        out = str(tmp_path / "t3")
        path = write(tmp_path, BASE_INI.format(out=out))
        cli.main(["run", path])
        rows = self.read_rows(out)
        assert all(r["u_dist_H_sq"] == "" for r in rows)
        assert all(r["delta_bound"] == "" for r in rows)

    def test_byte_identical_reruns(self, tmp_path):
        path = write(tmp_path, BASE_INI.format(out=tmp_path / "A"))
        cli.main(["run", path, "--verify"])
        path2 = write(tmp_path, BASE_INI.format(out=tmp_path / "B"), name="exp2.ini")
        cli.main(["run", path2, "--verify"])
        a = (tmp_path / "A" / "trace.csv").read_bytes()
        b = (tmp_path / "B" / "trace.csv").read_bytes()
        assert a == b

    @pytest.mark.parametrize("flags,files", [
        (["--compare", "full-admm,mm-approx"], ("trace.csv", "compare.csv")),
        (["--verify"], ("trace.csv", "certificate.txt")),
    ])
    def test_central_engine_reruns_byte_identical(self, tmp_path, flags, files):
        text = BASE_INI.replace("name = dadmm", "name = dadmm-matrix")
        for run in ("A", "B"):
            path = write(tmp_path, text.format(out=tmp_path / run), name=f"{run}.ini")
            assert cli.main(["run", path] + flags) == 0
        for name in files:
            assert (tmp_path / "A" / name).read_bytes() == (tmp_path / "B" / name).read_bytes()

    def test_seed_flag_changes_instance(self, tmp_path):
        path = write(tmp_path, BASE_INI.format(out=tmp_path / "A"))
        cli.main(["run", path])
        path2 = write(tmp_path, BASE_INI.format(out=tmp_path / "B"), name="e2.ini")
        cli.main(["run", path2, "--seed", "99"])
        a = (tmp_path / "A" / "trace.csv").read_bytes()
        b = (tmp_path / "B" / "trace.csv").read_bytes()
        assert a != b


class TestBatchedTraceColumns:
    """obj_err and consensus_resid, computed for all rows at once, equal the
    per-row formulas applied to the iterates the run produced."""

    @pytest.mark.parametrize("flags", [["--verify"], ["--compare", "full-admm,mm-approx"]])
    def test_rows_equal_per_row_reference(self, flags, tmp_path, monkeypatch):
        iterates = []
        run_algorithm = cli._run_algorithm

        def keep_iterates(*args, **kwargs):
            # the rows each run hands its `record` sink, the primary's first
            *args, record = args
            rows = []
            iterates.append(rows)

            def also_keep(k, x, messages):
                rows.append(x.copy())
                record(k, x, messages)

            return run_algorithm(*args, also_keep, **kwargs)

        monkeypatch.setattr(cli, "_run_algorithm", keep_iterates)
        out = str(tmp_path / "t")
        text = BASE_INI.format(out=out)
        assert cli.main(["run", write(tmp_path, text)] + flags) == 0

        config = parse_config(text)
        graph, comps = cli.build_scenario(config)
        p = config.p

        def f(x):
            return sum(c.value(x[i * p:(i + 1) * p]) for i, c in enumerate(comps))

        f_star = f(analysis.reference_solution(graph, comps, config.eta).x_star)
        e_o = dense_ref.lifted_incidence(graph)[0]
        with open(os.path.join(out, "trace.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(iterates[0]) == config.rounds + 1
        for row, x in zip(rows, iterates[0]):
            assert float(row["obj_err"]) == f(x) - f_star
            assert float(row["consensus_resid"]) == float(np.linalg.norm(e_o @ x))


class TestCompareMode:
    TEXT = BASE_INI.replace("name = dadmm", "name = full-admm").replace(
        "[output]", "[run]\ncompare = mm-approx\n\n[output]")

    @staticmethod
    def recorded(name, config):
        """The (rounds+1, n*p) trajectory of one algorithm, row by row."""
        graph, comps = cli.build_scenario(config)
        rows = []
        cli._run_algorithm(name, config, graph, comps, cli._resolve_params(config, graph),
                           lambda k, x, messages: rows.append(x.copy()))
        return np.array(rows)

    @pytest.mark.parametrize("rounds", [0, 127, 128, 129])
    def test_gaps_equal_the_dense_difference(self, rounds, tmp_path):
        # rounds + 1 rows: a single row, exactly one full row block, and one
        # or two rows past it
        assert analysis._ROW_BLOCK == 128
        out = tmp_path / "c"
        text = self.TEXT.format(out=out).replace("rounds = 40", f"rounds = {rounds}")
        assert cli.main(["run", write(tmp_path, text)]) == 0
        config = parse_config(text)
        gaps = np.abs(self.recorded("full-admm", config)
                      - self.recorded("mm-approx", config)).max(axis=1)
        want = "k,max_abs_dx\n" + "".join(f"{k},{g:.17g}\n" for k, g in enumerate(gaps))
        assert (out / "compare.csv").read_text() == want

    def test_benchmark_call_counts(self, tmp_path, monkeypatch):
        # the counts the benchmark's tracer reads off a compare-mode run: one
        # step of each engine per round, one residual per trace row
        calls = {}

        def counting(name, real):
            def counted(*args):
                calls[name] = calls.get(name, 0) + 1
                return real(*args)
            return counted

        for cls in (solvers.FullAdmmEngine, solvers.ApproxMMEngine):
            monkeypatch.setattr(cls, "step", counting(cls.__name__, cls.step))
        monkeypatch.setattr(netgraph, "consensuality_residual",
                            counting("residual", netgraph.consensuality_residual))
        text = self.TEXT.format(out=tmp_path / "b").replace("rounds = 40", "rounds = 20")
        assert cli.main(["run", write(tmp_path, text.replace("p = 2", "p = 1"))]) == 0
        assert calls == {"FullAdmmEngine": 20, "ApproxMMEngine": 20, "residual": 21}

    def test_holds_one_trajectory(self, tmp_path):
        # the comparison run's rows are never kept as a second trajectory
        n, p, rounds = 50, 2, 2000
        config = replace(parse_config(self.TEXT.format(out=tmp_path / "m")),
                         n=n, p=p, seed=3, rounds=rounds)
        # a short run first, so modules imported on first use are not counted
        assert cli.run(replace(config, rounds=1)) == 0
        tracemalloc.start()
        try:
            assert cli.run(config) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * (rounds + 1) * n * p * 8


class TestStackedAgents:
    """The sums, the reference solution and the engines' set-up read every
    rank-one and affine-quadratic agent through one stacked view, with no
    call on a component."""

    TEXT = """
[scenario]
preset = explicit
n = 4
p = 2

[graph]
edges = 1-2 2-3 3-4 4-1

[problem]
h1 = 1.0 0.5
y1 = 0.25
q2 = 2.0 0.5 0.5 1.0
b2 = -1.0 0.5
h3 = -0.5 1.0
y3 = 1.0
q4 = 1.0 0.0 0.0 1.5
b4 = 0.0 -0.5

[algorithm]
name = dadmm
pi = 0.1
rounds = 20

[output]
dir = {out}
"""

    @pytest.mark.parametrize("flags", [["--verify"], ["--compare", "full-admm,mm-approx"]])
    def test_run_makes_no_per_agent_call(self, flags, tmp_path, monkeypatch):
        calls = []
        for cls in (objective.RankOneLeastSquares, objective.AffineQuadratic):
            for name in ("value", "grad", "hess"):
                monkeypatch.setattr(cls, name, lambda *args, name=name: calls.append(name))
        out = tmp_path / "s"
        assert cli.main(["run", write(tmp_path, self.TEXT.format(out=out)), *flags]) == 0
        assert calls == []
        assert (out / "trace.csv").exists()


class TestVerifiedRuns:
    def test_misspelt_verify_exits_1(self, tmp_path, capsys):
        out = tmp_path / "t"
        text = BASE_INI.format(out=out) + "\n[run]\nverify = ture\n"
        assert cli.main(["run", write(tmp_path, text)]) == 1
        assert "deconopt:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("word,verified", [("on", True), ("Off", False)])
    def test_boolean_verify_words(self, tmp_path, word, verified):
        out = tmp_path / "b"
        text = BASE_INI.format(out=out) + f"\n[run]\nverify = {word}\n"
        assert parse_config(text).verify is verified
        assert cli.main(["run", write(tmp_path, text)]) == 0
        assert (out / "certificate.txt").exists() is verified

    def test_pextra_verify_requires_matching_weights(self, tmp_path):
        text = BASE_INI.format(out=tmp_path / "o")
        text = text.replace("name = dadmm", "name = pextra")
        text = text.replace("[algorithm]", "[algorithm]\nxi = 0.04")
        path = write(tmp_path, text)
        assert cli.main(["run", path, "--verify"]) == 1  # pi is not theorem2

    def test_theorem2_step_beyond_the_bound_exits_1(self, tmp_path, capsys):
        text = BASE_INI.format(out=tmp_path / "o").replace("pi = 0", "pi = theorem2")
        text = text.replace("[algorithm]", "[algorithm]\nxi = 1.0")
        path = write(tmp_path, text)
        assert cli.main(["run", path]) == 1
        assert "1/max_i d_i" in capsys.readouterr().err

    def test_pextra_verify_with_theorem2_passes(self, tmp_path):
        out = tmp_path / "p"
        text = BASE_INI.format(out=out)
        text = text.replace("name = dadmm", "name = pextra")
        text = text.replace("pi = 0", "pi = theorem2")
        text = text.replace("[algorithm]", "[algorithm]\nxi = 0.04")
        path = write(tmp_path, text)
        assert cli.main(["run", path, "--verify"]) == 0
        assert (out / "certificate.txt").exists()

    def test_overshoot_pextra_verify_passes(self, tmp_path):
        out = tmp_path / "ov"
        text = BASE_INI.format(out=out)
        text = text.replace("name = dadmm", "name = pextra")
        text = text.replace("pi = 0", "pi = theorem2")
        text = text.replace("[algorithm]", "[algorithm]\nxi = 0.04\nomega = 0.75")
        path = write(tmp_path, text)
        assert cli.main(["run", path, "--verify"]) == 0

    def test_omega_without_pextra_is_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="omega"):
            ExperimentConfig(omega=0.9).validate()
        text = BASE_INI.format(out=tmp_path / "om")
        text = text.replace("[algorithm]", "[algorithm]\nomega = 0.9")
        path = write(tmp_path, text)
        assert cli.main(["run", path, "--verify"]) == 1
        assert not (tmp_path / "om").exists()

    @pytest.mark.parametrize("algorithm,compare,want", [
        ("pextra", None, "0.75"),
        ("dadmm", "pextra", "0.5"),
    ])
    def test_certificate_eta_from_omega_only_for_pextra(self, tmp_path, algorithm,
                                                         compare, want):
        out = tmp_path / "ce"
        text = BASE_INI.format(out=out).replace("name = dadmm", f"name = {algorithm}")
        text = text.replace("pi = 0", "pi = theorem2")
        text = text.replace("[algorithm]", "[algorithm]\nxi = 0.04\nomega = 0.75")
        path = write(tmp_path, text)
        argv = ["run", path, "--verify"]
        if compare is not None:
            argv += ["--compare", f"{algorithm},{compare}"]
        assert cli.main(argv) == 0
        lines = (out / "certificate.txt").read_text().splitlines()
        assert f"eta = {want}" in lines

    def test_contraction_violation_exit_code(self, tmp_path, monkeypatch):
        # wire check: a violating report must surface as exit code 2
        real = cli.analysis.verify_contraction

        def fake(*args, **kwargs):
            report = real(*args, **kwargs)
            return cli.analysis.ContractionReport(
                distances=report.distances, bound=report.bound,
                slack=report.slack, violations=((1, 1.0, 0.5),),
                worst_ratio=report.worst_ratio,
            )

        monkeypatch.setattr(cli.analysis, "verify_contraction", fake)
        path = write(tmp_path, BASE_INI.format(out=tmp_path / "v"))
        assert cli.main(["run", path, "--verify"]) == 2

    @pytest.mark.parametrize("algorithm", ["dadmm", "dadmm-matrix"])
    def test_one_min_norm_solve_per_verified_run(self, tmp_path, monkeypatch, algorithm):
        # the reference multiplier is the only reconstruction: the verify
        # reads the arc dual off the primal trace, with no per-round solve
        solver = denselin.MinNormTransposeSolver
        real = solver.__call__
        calls = []

        def counted(self, c):
            calls.append(1)
            return real(self, c)

        monkeypatch.setattr(solver, "__call__", counted)
        text = BASE_INI.format(out=tmp_path / "v").replace("name = dadmm",
                                                           f"name = {algorithm}")
        assert cli.main(["run", write(tmp_path, text), "--verify"]) == 0
        assert len(calls) == 1

    def test_one_sum_profile_per_verified_run(self, tmp_path, monkeypatch):
        # the certificate reads the profile the reference solution formed
        calls = []
        real = objective.sum_profile
        monkeypatch.setattr(objective, "sum_profile",
                            lambda *args: calls.append(1) or real(*args))
        out = tmp_path / "v"
        assert cli.main(["run", write(tmp_path, BASE_INI.format(out=out)), "--verify"]) == 0
        assert len(calls) == 1
        assert (out / "certificate.txt").exists()

    def test_one_local_solve_per_round(self, tmp_path, monkeypatch):
        # all agents' subproblems of a round are one call, applying one
        # stack of inverses formed when the network is set up
        solves, stacks = [], []
        real_solve, real_inverse = objective.local_subproblem_ex, denselin.spd_inverse

        def counted_solve(*args, **kwargs):
            solves.append(1)
            return real_solve(*args, **kwargs)

        def counted_inverse(a):
            if np.ndim(a) == 3:
                stacks.append(np.shape(a))
            return real_inverse(a)

        monkeypatch.setattr(objective, "local_subproblem_ex", counted_solve)
        monkeypatch.setattr(denselin, "spd_inverse", counted_inverse)
        path = write(tmp_path, BASE_INI.format(out=tmp_path / "v"))
        assert cli.main(["run", path, "--verify"]) == 0
        assert len(solves) == 40
        assert stacks == [(5, 2, 2)]

    def test_verify_uses_the_run_tolerances(self, tmp_path, monkeypatch):
        real = cli.analysis.verify_contraction
        seen = []

        def spy(*args, **kwargs):
            seen.append(kwargs["tolerances"])
            return real(*args, **kwargs)

        monkeypatch.setattr(cli.analysis, "verify_contraction", spy)
        text = BASE_INI.format(out=tmp_path / "v") + (
            "\n[tolerances]\nminnorm_consistency = 1e-9\ncontraction_slack = 1e-6\n")
        assert cli.main(["run", write(tmp_path, text), "--verify"]) == 0
        assert [(t.minnorm_consistency, t.contraction_slack)
                for t in seen] == [(1e-9, 1e-6)]

    @staticmethod
    def nudge_final_dual(monkeypatch, rel):
        """Make the CLI's run return a final phi moved by rel |phi| off E_o^T
        of the arc dual its trace implies."""
        run_algorithm = cli._run_algorithm

        def nudged(*args, **kwargs):
            phi_last = run_algorithm(*args, **kwargs).copy()
            phi_last[0] += rel * np.linalg.norm(phi_last)
            return phi_last

        monkeypatch.setattr(cli, "_run_algorithm", nudged)

    def test_final_dual_off_the_trace_exits_1(self, tmp_path, monkeypatch, capsys):
        self.nudge_final_dual(monkeypatch, 1e-6)
        text = BASE_INI.format(out=tmp_path / "v")
        assert cli.main(["run", write(tmp_path, text), "--verify"]) == 1
        assert "final dual is not E_o^T alpha" in capsys.readouterr().err
        with pytest.raises(Inconsistent):
            cli.run(replace(parse_config(text), verify=True))

    def test_final_dual_check_uses_the_run_tolerances(self, tmp_path, monkeypatch):
        # a 1e-9 relative residual passes at the default minnorm_consistency
        # (1e-8) and fails when [tolerances] sets it to 1e-11
        self.nudge_final_dual(monkeypatch, 1e-9)
        text = BASE_INI.format(out=tmp_path / "v")
        assert cli.main(["run", write(tmp_path, text), "--verify"]) == 0
        tight = text + "\n[tolerances]\nminnorm_consistency = 1e-11\n"
        assert cli.main(["run", write(tmp_path, tight), "--verify"]) == 1

    def test_unknown_tolerance_is_setup_error(self, tmp_path, capsys):
        # `search` names no tolerance: the certificate's scalars are closed forms
        text = BASE_INI.format(out=tmp_path / "s") + "\n[tolerances]\nsearch = 1e-10\n"
        assert cli.main(["run", write(tmp_path, text), "--verify"]) == 1
        assert "search" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("name", ["spectrum_zero", "symmetry", "subproblem",
                                      "central_solve", "newton_armijo", "newton_max_iter",
                                      "mixing_eigen"])
    def test_removed_tolerance_is_setup_error(self, name, tmp_path, capsys):
        # thresholds no run could change are module constants, not settings
        text = BASE_INI.format(out=tmp_path / "s") + f"\n[tolerances]\n{name} = 1e-10\n"
        assert cli.main(["run", write(tmp_path, text), "--verify"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("deconopt: ") and name in err
        assert not (tmp_path / "s").exists()

    def test_tolerances_are_the_run_thresholds(self):
        assert {f.name for f in fields(tolerances.Tolerances)} == {
            "minnorm_consistency", "contraction_slack"}

    def test_non_finite_xi_is_setup_error(self, tmp_path, capsys):
        text = (BASE_INI.format(out=tmp_path / "s")
                .replace("name = dadmm", "name = pextra").replace("pi = 0", "pi = 0\nxi = nan"))
        assert cli.main(["run", write(tmp_path, text)]) == 1
        assert "[algorithm] xi: bad value 'nan'" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-1e-7"])
    def test_bad_contraction_slack_is_setup_error(self, value, tmp_path, capsys):
        # a NaN slack makes every round's allowed distance NaN, so no round
        # could ever violate
        text = (BASE_INI.format(out=tmp_path / "s")
                + f"\n[tolerances]\ncontraction_slack = {value}\n")
        assert cli.main(["run", write(tmp_path, text), "--verify"]) == 1
        assert "contraction_slack" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()


class TestCentralAlgorithms:
    @pytest.mark.parametrize("name", ["dadmm-matrix", "full-admm", "mm-approx"])
    def test_each_runs_and_verifies(self, name, tmp_path):
        out = tmp_path / name
        text = BASE_INI.format(out=out).replace("name = dadmm", f"name = {name}")
        path = write(tmp_path, text, name=f"{name}.ini")
        assert cli.main(["run", path, "--verify"]) == 0
        with open(out / "trace.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert all(r["messages"] == "0" for r in rows)

    def test_general_uv_runs_on_network(self, tmp_path):
        out = tmp_path / "uv"
        text = BASE_INI.format(out=out).replace("name = dadmm", "name = general-uv")
        path = write(tmp_path, text, name="uv.ini")
        assert cli.main(["run", path, "--verify"]) == 0
        with open(out / "trace.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert all(r["messages"] != "0" for r in rows[1:])

    def test_general_uv_matches_dadmm(self, tmp_path):
        out = tmp_path / "uvc"
        path = write(tmp_path, BASE_INI.format(out=out))
        assert cli.main(["run", path, "--compare", "dadmm,general-uv"]) == 0
        with open(out / "compare.csv") as fh:
            gaps = [float(r[1]) for r in list(csv.reader(fh))[1:]]
        assert max(gaps) <= 1e-9



# Every algorithm with the [algorithm] settings that make `validate` accept or
# refuse it under --verify; the cells are small criterion-1-style ls-ring
# instances (n, p, seed, pi). An accepted run must pass its certificate, a
# refused one must stop at set-up, so the accept list cannot admit a run the
# D-ADMM certificate does not describe.
VERIFY_TABLE = [
    ("dadmm", ""),
    ("pextra", "pi = theorem2\nxi = 0.04\n"),
    ("pextra", "pi = theorem2\nxi = 0.04\nomega = 0.75\n"),
    ("pextra", "xi = 0.04\n"),
    ("general-uv", ""),
    ("dadmm-matrix", ""),
    ("full-admm", ""),
    ("mm-exact", ""),
    ("mm-approx", ""),
    ("mm-approx", "epsilon = 2.0\n"),
]
VERIFY_CELLS = [(5, 2, 1, 0.1), (8, 3, 4, 0.0), (20, 2, 21, 0.0)]


def verify_text(name, settings, cell, out):
    """The verified run of one VERIFY_TABLE entry on one cell."""
    n, p, seed, pi = cell
    return (f"[scenario]\npreset = ls-ring\nn = {n}\np = {p}\nseed = {seed}\n\n"
            f"[algorithm]\nname = {name}\nrho = 1.0\neta = 0.5\nrounds = 300\n"
            + (settings if "pi =" in settings else f"pi = {pi}\n{settings}")
            + f"\n[run]\nverify = true\n\n[output]\ndir = {out}\n")


def _accepted(name, settings):
    try:
        parse_config(verify_text(name, settings, VERIFY_CELLS[0], "out")).validate()
    except ConfigError:
        return False
    return True


VERIFIED = [(name, settings) for name, settings in VERIFY_TABLE if _accepted(name, settings)]


def table_ids(table):
    return [",".join([name] + settings.replace(" ", "").split()) for name, settings in table]


def test_verify_table_covers_every_algorithm():
    assert {name for name, _ in VERIFY_TABLE} == set(cli.ALGORITHMS)


@pytest.mark.parametrize("name,settings", VERIFY_TABLE, ids=table_ids(VERIFY_TABLE))
def test_verified_run_passes_or_is_refused(name, settings, tmp_path):
    for n, p, seed, pi in VERIFY_CELLS:
        out = tmp_path / f"{n}-{seed}"
        text = verify_text(name, settings, (n, p, seed, pi), out)
        path = write(tmp_path, text)
        try:
            parse_config(text).validate()
        except ConfigError:
            assert cli.main(["run", path]) == 1, (n, p, seed, pi)
            continue
        assert cli.main(["run", path]) == 0, (n, p, seed, pi)
        assert "violations = 0" in (out / "certificate.txt").read_text().splitlines()


def record_phi_rows(monkeypatch):
    """The dual aggregate of every state a CLI run produces, in order: the
    simulated network's phi through a second observer, the central engines'
    through `phi` of each `init` and `step` result."""
    rows = []
    run_rounds = harness.run_rounds

    def observed(net, graph, rounds, observer=None):
        def both(k, x, phi, log):
            rows.append(phi.copy())
            observer(k, x, phi, log)
        return run_rounds(net, graph, rounds, observer=both)

    monkeypatch.setattr(harness, "run_rounds", observed)
    for cls in (solvers.DadmmMatrixEngine, solvers.FullAdmmEngine, solvers.ApproxMMEngine):
        for method in ("init", "step"):
            def recorded(self, *args, _real=getattr(cls, method), **kwargs):
                state = _real(self, *args, **kwargs)
                rows.append(self.phi(state).copy())
                return state
            monkeypatch.setattr(cls, method, recorded)
    return rows


@pytest.mark.parametrize("name,settings", VERIFIED, ids=table_ids(VERIFIED))
def test_verify_distances_match_dense_phi_reference(name, settings, tmp_path, monkeypatch):
    # the distances the verify reads off the primal trace equal the dense
    # phi-space distances of the phi rows the run's engine formed
    real = cli.analysis.verify_contraction
    seen = []

    def spy(xs, phi_last, ref, cert, **kwargs):
        report = real(xs, phi_last, ref, cert, **kwargs)
        seen.append((xs, phi_last, ref, cert, report))
        return report

    monkeypatch.setattr(cli.analysis, "verify_contraction", spy)
    rows = record_phi_rows(monkeypatch)
    for cell in VERIFY_CELLS:
        rows.clear()
        seen.clear()
        text = verify_text(name, settings, cell, tmp_path / "out")
        assert cli.main(["run", write(tmp_path, text)]) == 0, cell
        (xs, phi_last, ref, cert, report), = seen
        phis = np.array(rows)
        assert phis.shape == xs.shape and np.array_equal(phis[-1], phi_last), cell
        want = dense_ref.phi_space_distances_sq(cert, ref, xs, phis)
        assert np.max(np.abs(report.distances - want)) <= 1e-12 * want[0], cell
