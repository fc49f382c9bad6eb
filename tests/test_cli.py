import configparser
import csv
import gc
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
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

    # every table entry away from its default, explicit edges, both row kinds
    # and both tolerances
    EVERY_SETTING_INI = """
[scenario]
preset = explicit
n = 3
p = 1
seed = 9

[graph]
edges = 1-2 2-3 3-1

[problem]
h1 = 1.5
y1 = 0.25
q2 = 2.0
b2 = -1.0
h3 = -0.5
y3 = 1.0

[algorithm]
name = pextra
rho = 2.5
eta = 0.75
pi = {pi}
xi = 0.04
omega = 0.625
epsilon = 0.3
rounds = 17

[run]
verify = true
compare = mm-approx

[output]
dir = elsewhere

[tolerances]
minnorm_consistency = 1e-9
contraction_slack = 1e-6
"""

    @pytest.mark.parametrize("pi", ["0.125", "theorem2"])
    def test_round_trip_covers_every_setting(self, pi):
        cfg = parse_config(self.EVERY_SETTING_INI.format(pi=pi))
        default = ExperimentConfig()
        assert all(getattr(cfg, field) != getattr(default, field)
                   for _, _, field, _ in cli._SETTINGS)
        assert all(getattr(cfg.tolerances, f.name) != getattr(default.tolerances, f.name)
                   for f in fields(tolerances.Tolerances))
        assert {kind for kind, _, _ in cfg.rows} == {"rank-one", "quadratic"}
        text = serialize_config(cfg)
        assert parse_config(text) == cfg
        written = configparser.ConfigParser(interpolation=None)
        written.read_string(text)
        assert all(written.has_option(section, option)
                   for section, option, _, _ in cli._SETTINGS)

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

    # a misspelt option in each section the settings table reads, and a
    # misspelt section; with [output] misspelt the run would write to ./out
    MISSPELT = {
        "seeed": ("seed = 1", "seeed = 2"),
        "edgs": ("[algorithm]", "[graph]\nedgs = 1-2\n\n[algorithm]"),
        "etta": ("eta = 0.5", "etta = 0.9"),
        "verfy": ("[output]", "[run]\nverfy = true\n\n[output]"),
        "dirr": ("dir =", "dirr ="),
        "[outptu]": ("[output]", "[outptu]"),
    }

    @pytest.mark.parametrize("name", list(MISSPELT))
    def test_unknown_name_is_setup_error(self, name, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        text = BASE_INI.format(out=tmp_path / "o").replace(*self.MISSPELT[name])
        assert cli.main(["run", write(tmp_path, text)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("deconopt:") and err.count("\n") == 1
        assert name in err
        assert not (tmp_path / "o").exists() and not (tmp_path / "out").exists()

    def test_default_option_no_section_reads_is_setup_error(self, tmp_path, capsys):
        # a misspelt [DEFAULT] option is read by no section: refused, named
        out = tmp_path / "o"
        text = "[DEFAULT]\nverfy = true\n" + BASE_INI.format(out=out)
        assert cli.main(["run", write(tmp_path, text)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("deconopt:") and err.count("\n") == 1
        assert "verfy" in err
        assert not out.exists()

    def test_default_option_applies(self):
        # a [DEFAULT] option that a section reads keeps its meaning, also
        # beside a [tolerances] section, which ignores it
        text = "[DEFAULT]\nrho = 2\n" + BASE_INI.format(out="o").replace("rho = 1.0\n", "")
        assert parse_config(text).rho == 2.0
        text += "\n[tolerances]\ncontraction_slack = 1e-6\n"
        cfg = parse_config(text)
        assert (cfg.rho, cfg.tolerances.contraction_slack) == (2.0, 1e-6)

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

    def test_readme_library_example_runs(self, capsys):
        # the Python blocks run in order in one namespace, as a reader would
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme) as fh:
            blocks = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
        assert len(blocks) == 2
        namespace = {}
        for block in blocks:
            exec(compile(block, "README.md", "exec"), namespace)
        assert "violations = 0" in capsys.readouterr().out
        assert namespace["report"].ok and len(namespace["logs"]) == 301

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            parse_config("[algorithm]\nname = nosuch\n").validate()
        with pytest.raises(ConfigError):
            parse_config("[algorithm]\nrho = -1\n").validate()
        with pytest.raises(ConfigError):
            parse_config("[algorithm]\npi = theorem2\n").validate()
        # a config built in code may carry a rho that no INI value parses to
        for rho in (float("nan"), float("inf")):
            with pytest.raises(ConfigError, match=rf"rho = {rho!r}"):
                ExperimentConfig(rho=rho).validate()
        # the overshoot omega's one range check
        for omega in (0.3, 1.0):
            with pytest.raises(ConfigError, match=r"omega must lie in \[0.5, 1\)"):
                ExperimentConfig(algorithm="pextra", xi=0.04, omega=omega).validate()
        # the matched majorization weight is checked relative to 1/rho: at a
        # large rho, epsilon = 0 lies within 1e-12 of 1/rho but is no match
        mm = dict(algorithm="mm-approx", rho=1e13, pi=1.0, verify=True)
        with pytest.raises(ConfigError, match="matched majorization"):
            ExperimentConfig(epsilon=0.0, **mm).validate()
        ExperimentConfig(epsilon=1e-13, **mm).validate()


class TestRun:
    def test_preset_smoke(self, tmp_path):
        out = tmp_path / "out"
        path = write(tmp_path, BASE_INI.format(out=out))
        code = cli.main(["run", path, "--verify"])
        assert code == 0
        assert (out / "trace.csv").exists()
        assert (out / "certificate.txt").exists()
        assert (out / "certificate.csv").exists()

    @pytest.mark.parametrize("eta,code", [("0.5", 0), ("1.5", 1)])
    def test_heap_frozen_during_the_run_only(self, eta, code, tmp_path, monkeypatch):
        # main freezes the heap it starts with out of garbage collection for
        # the run, and unfreezes it on both the success and the error path
        frozen = []
        real = cli.run
        monkeypatch.setattr(cli, "run",
                            lambda *args: frozen.append(gc.get_freeze_count()) or real(*args))
        text = BASE_INI.format(out=tmp_path / "g").replace("eta = 0.5", f"eta = {eta}")
        assert gc.get_freeze_count() == 0
        assert cli.main(["run", write(tmp_path, text), "--verify"]) == code
        assert len(frozen) == 1 and frozen[0] > 0
        assert gc.get_freeze_count() == 0

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


class TestOutOfRange:
    """Values a run cannot represent are setup errors: exit 1 with one
    `deconopt:` line naming the value, and no output."""

    def test_unallocatable_round_count(self, tmp_path, capsys):
        # a (10**16 + 1, 12) iterate array needs about 2**60 bytes, more than
        # any address space, so nothing is allocated
        out = tmp_path / "r"
        text = BASE_INI.format(out=out).replace("n = 5", "n = 6")
        text = text.replace("rounds = 40", f"rounds = {10**16}")
        assert cli.main(["run", write(tmp_path, text)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("deconopt:") and err.count("\n") == 1
        assert f"rounds = {10**16}" in err
        assert not out.exists()

    @pytest.mark.parametrize("rho,constant", [("1e200", "delta"), ("1e250", "mu_g"),
                                              ("1e300", "mu_g"), ("1e308", "mu_g")])
    def test_certificate_constant_out_of_float_range(self, rho, constant, tmp_path, capsys):
        out = tmp_path / "o"
        text = BASE_INI.format(out=out).replace("n = 5", "n = 6")
        text = text.replace("rho = 1.0", f"rho = {rho}")
        assert cli.main(["run", write(tmp_path, text), "--verify"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("deconopt:") and err.count("\n") == 1
        assert "Traceback" not in err
        assert re.search(rf": {constant}\b", err)
        assert not out.exists()

    @pytest.mark.parametrize("name", cli.ALGORITHMS)
    def test_overflowing_penalty_weights(self, name, tmp_path, capsys):
        # rho d_i overflows on every graph with an edge: refused before any
        # engine forms a weight, with no numpy warning
        out = tmp_path / "o"
        text = BASE_INI.format(out=out).replace("n = 5", "n = 6")
        text = text.replace("rounds = 40", "rounds = 5").replace("rho = 1.0", "rho = 1e308")
        text = text.replace("name = dadmm", f"name = {name}")
        if name == "pextra":
            text = text.replace("[algorithm]", "[algorithm]\nxi = 0.04")
        assert cli.main(["run", write(tmp_path, text)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("deconopt:") and err.count("\n") == 1
        assert re.search(r"\brho\b", err)
        assert not out.exists()

    def test_non_finite_mixing_pair(self, tmp_path, capsys):
        # (xi rho / 2) L overflows in the comparison's mixing pair: refused
        # before the pair is formed, so no numpy warning, naming xi and rho
        out = tmp_path / "o"
        text = ("[scenario]\npreset = ls-ring\nn = 2\np = 1\nseed = 3\n\n"
                "[algorithm]\nname = general-uv\nrho = 2.98e172\nxi = 1.73e295\n"
                f"rounds = 5\n\n[run]\ncompare = pextra\n\n[output]\ndir = {out}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["run", write(tmp_path, text)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("deconopt:") and err.count("\n") == 1
        assert "xi = 1.73e+295" in err and "rho = 2.98e+172" in err
        assert not out.exists()

    @pytest.mark.parametrize("name,pi,flags", [("pextra", "0", []),
                                               ("dadmm", "theorem2", []),
                                               ("dadmm", "theorem2", ["--verify"])])
    def test_xi_without_a_finite_inverse(self, name, pi, flags, tmp_path, capsys):
        # 1/xi overflows for a subnormal xi: refused where xi is
        # range-checked, naming it, before any arithmetic on 1/xi
        out = tmp_path / "o"
        text = BASE_INI.format(out=out).replace("n = 5", "n = 6")
        text = text.replace("name = dadmm", f"name = {name}")
        text = text.replace("pi = 0", f"pi = {pi}\nxi = 1e-320")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["run", write(tmp_path, text)] + flags) == 1
        err = capsys.readouterr().err
        assert err.startswith("deconopt:") and err.count("\n") == 1
        assert "xi = 1e-320" in err
        assert not out.exists()

    @pytest.mark.parametrize("name,settings,flags", [
        ("pextra", "rho = 1e307\nxi = 0.04", []),
        ("mm-approx", "rho = 1e200\npi = 1e200\nepsilon = 1e200", []),
        ("dadmm", "rho = 1e-300\npi = 1e300", ["--verify"]),
    ])
    def test_overflow_during_the_run(self, name, settings, flags, tmp_path, capsys):
        # each passes the up-front checks and overflows in the arithmetic of
        # the run (the mixed weights, the majorizer weights, the certificate's
        # M): the numpy overflow fails the run, naming the algorithm and rho,
        # with no warning and no output
        out = tmp_path / "o"
        text = BASE_INI.format(out=out).replace("n = 5", "n = 6")
        text = text.replace("name = dadmm", f"name = {name}")
        text = text.replace("rho = 1.0", "").replace("pi = 0", settings)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["run", write(tmp_path, text)] + flags) == 1
        err = capsys.readouterr().err
        assert err.startswith("deconopt:") and err.count("\n") == 1
        assert f"{name}: a value left the float range" in err
        assert re.search(r"\brho = ", err)
        assert not out.exists()

    def test_huge_proximal_weight_runs(self, tmp_path, capsys):
        # the check reads rho d_i only: a huge finite pi still runs
        out = tmp_path / "o"
        text = BASE_INI.format(out=out).replace("n = 5", "n = 6")
        text = text.replace("pi = 0", "pi = 1e308")
        assert cli.main(["run", write(tmp_path, text)]) == 0
        assert capsys.readouterr().err == ""
        assert (out / "trace.csv").exists()

    def test_failed_run_dumps_no_operators(self, tmp_path, capsys):
        out = tmp_path / "o"
        text = BASE_INI.format(out=out).replace("n = 5", "n = 6")
        text = text.replace("rho = 1.0", "rho = 1e200")
        path = write(tmp_path, text)
        assert cli.main(["run", path, "--verify", "--dump-operators"]) == 1
        assert "delta" in capsys.readouterr().err
        assert not out.exists()


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


class TestCertificateFiles:
    """The contract of the certificate files that a reader such as the
    benchmark's relies on: every certificate.txt line parses as
    `name = <float>`, each name once, the verify's verdict last;
    certificate.csv mirrors every line; the trace's delta_bound column is
    the delta the verify checked."""

    TEN = ["rho", "eta", "mu_g", "lipschitz_g", "lam_min_nonzero", "tau_star",
           "gamma_star", "delta", "lam_max_m", "contraction_factor"]

    @pytest.mark.parametrize("pi", ["0.1", "0"])
    def test_lines_parse_and_delta_bound_is_the_checked_delta(self, pi, tmp_path):
        out = tmp_path / "c"
        text = EXPLICIT_INI.format(out=out).replace("eta = 0.5", f"eta = 0.5\npi = {pi}")
        assert cli.main(["run", write(tmp_path, text), "--verify"]) == 0
        lines = (out / "certificate.txt").read_text().splitlines()
        values = {}
        for line in lines:
            name, sep, value = line.partition(" = ")
            assert sep and re.fullmatch(r"[a-z_]+", name), line
            assert name not in values, line
            values[name] = float(value)
        with open(out / "certificate.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["name", "value"]
        assert [f"{name} = {value}" for name, value in rows[1:]] == lines
        names = [name for name, _ in rows[1:]]
        verdict = ["violations", "worst_ratio"]
        if pi == "0.1":
            assert names == self.TEN + verdict
            assert list(values) == self.TEN + verdict
        else:
            # the P = 0 corollary adds its delta, tau and lam_max
            assert set(names) == set(self.TEN + verdict) | {"delta_admm", "tau_admm",
                                                            "lam_max_eu"}
        checked = max(values["delta"], values.get("delta_admm", 0.0))
        assert values["contraction_factor"] == 1.0 / (1.0 + checked)
        with open(out / "trace.csv", newline="") as fh:
            deltas = {row["delta_bound"] for row in csv.DictReader(fh)}
        assert [float(d) for d in deltas] == [checked]


class TestBatchedTraceColumns:
    """obj_err and consensus_resid, computed for all rows at once, equal the
    per-row formulas applied to the iterates the run produced."""

    @pytest.mark.parametrize("flags", [["--verify"], ["--compare", "full-admm,mm-approx"]])
    def test_rows_equal_per_row_reference(self, flags, tmp_path, monkeypatch):
        iterates = []
        run_engines = cli._run_engines

        def keep_iterates(*args, **kwargs):
            # the primary's rows, copied once the engines have filled them
            # and before the trace columns read them
            *args, xs = args
            result = run_engines(*args, xs, **kwargs)
            iterates.append(xs.copy())
            return result

        monkeypatch.setattr(cli, "_run_engines", keep_iterates)
        out = str(tmp_path / "t")
        text = BASE_INI.format(out=out)
        assert cli.main(["run", write(tmp_path, text)] + flags) == 0

        config = parse_config(text)
        graph, comps = cli.build_scenario(config)
        p = config.p

        def f(x):
            return sum(c.value(x[i * p:(i + 1) * p]) for i, c in enumerate(comps))

        f_star = f(analysis.reference_solution(graph, comps).x_star)
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
        """The (rounds+1, n*p) trajectory of one algorithm, from the engine
        the CLI's table builds: its `init` state, then one `step` for all
        the rounds as one block."""
        graph, comps = cli.build_scenario(config)
        engine = cli._ENGINES[name][1](graph, comps, cli._resolve_params(config, graph),
                                       config)
        xs = np.empty((config.rounds + 1, graph.n * graph.p))
        state = engine.init()
        xs[0] = state.x
        engine.step(state, xs[1:])
        return xs

    @pytest.mark.parametrize("rounds", [0, 127, 128, 129])
    def test_gaps_equal_the_dense_difference(self, rounds, tmp_path):
        # rounds + 1 rows: a single row, exactly one full row block, and one
        # or two rows past it
        assert objective._ROW_BLOCK == 128
        out = tmp_path / "c"
        text = self.TEXT.format(out=out).replace("rounds = 40", f"rounds = {rounds}")
        assert cli.main(["run", write(tmp_path, text)]) == 0
        config = parse_config(text)
        gaps = np.abs(self.recorded("full-admm", config)
                      - self.recorded("mm-approx", config)).max(axis=1)
        want = "k,max_abs_dx\n" + "".join(f"{k},{g:.17g}\n" for k, g in enumerate(gaps))
        assert (out / "compare.csv").read_text() == want

    @staticmethod
    def counting(calls, name, real):
        """`real`, counting its calls in calls[name]."""
        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)
        return counted

    def test_benchmark_call_counts(self, tmp_path, monkeypatch):
        # the counts the benchmark's tracer reads off a compare-mode run: one
        # step of each engine per block of objective._ROW_BLOCK trace rows
        # (301 rows are 3 blocks), one residual call for all rows
        calls = {}
        for cls in (solvers.FullAdmmEngine, solvers.ApproxMMEngine):
            monkeypatch.setattr(cls, "step", self.counting(calls, cls.__name__, cls.step))
        monkeypatch.setattr(netgraph, "consensuality_residual",
                            self.counting(calls, "residual", netgraph.consensuality_residual))
        text = self.TEXT.format(out=tmp_path / "b").replace("rounds = 40", "rounds = 300")
        assert cli.main(["run", write(tmp_path, text.replace("p = 2", "p = 1"))]) == 0
        assert objective._ROW_BLOCK == 128
        assert calls == {"FullAdmmEngine": 3, "ApproxMMEngine": 3, "residual": 1}

    @pytest.mark.parametrize("name,cls", [("dadmm", solvers.DadmmEngine),
                                          ("pextra", solvers.PextraEngine),
                                          ("general-uv", solvers.GeneralUVEngine)])
    def test_network_algorithms_run_their_engines(self, name, cls, tmp_path, monkeypatch):
        # a network algorithm runs through its engine: one `step` per block
        # of objective._ROW_BLOCK trace rows (301 rows are 3 blocks), each
        # filling its rows by one `harness.run_rounds` call
        calls = {}
        monkeypatch.setattr(cls, "step", self.counting(calls, "step", cls.step))
        monkeypatch.setattr(harness, "run_rounds",
                            self.counting(calls, "run_rounds", harness.run_rounds))
        text = TestInPlaceRows.TEXT.format(out=tmp_path / "e").replace("rounds = 40",
                                                                        "rounds = 300")
        assert cli.main(["run", write(tmp_path, text.replace("name = dadmm",
                                                             f"name = {name}"))]) == 0
        assert objective._ROW_BLOCK == 128
        assert calls == {"step": 3, "run_rounds": 3}

    # a comparison algorithm that fails its set-up, before the primary steps
    SETUP_ERRORS = {
        "mm-approx": ("rounds = 40", "rounds = 40\nepsilon = -1"),
        "pextra": ("rounds = 40", "rounds = 40\nxi = -0.5"),
        "mm-exact": ("eta = 0.5", "eta = 1.2"),
    }

    @pytest.mark.parametrize("compare", list(SETUP_ERRORS))
    def test_comparison_setup_error_writes_nothing(self, compare, tmp_path, capsys):
        out = tmp_path / "c"
        text = BASE_INI.format(out=out).replace("n = 5", "n = 6")
        text = text.replace(*self.SETUP_ERRORS[compare])
        assert cli.main(["run", write(tmp_path, text), "--compare", f"dadmm,{compare}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("deconopt:") and err.count("\n") == 1
        assert not out.exists()

    def test_comparison_setup_error_comes_before_any_round(self, tmp_path, monkeypatch):
        # both engines are built before either steps, so the primary engine
        # never runs a round of a run its comparison cannot start
        calls = {}
        monkeypatch.setattr(solvers.DadmmEngine, "step",
                            self.counting(calls, "step", solvers.DadmmEngine.step))
        out = tmp_path / "c"
        text = BASE_INI.format(out=out).replace(*self.SETUP_ERRORS["mm-approx"])
        assert cli.main(["run", write(tmp_path, text), "--compare", "dadmm,mm-approx"]) == 1
        assert calls == {}
        assert not out.exists()

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


class TestInPlaceRows:
    """Each run fills its iterate rows a block of objective._ROW_BLOCK rows
    per engine `step`, which copies each round's iterate into its row; the
    rows equal a trajectory run one round at a time, with the block edges at
    127, 128 and 129 rounds."""

    TEXT = BASE_INI.replace("n = 5", "n = 6").replace("pi = 0", "pi = 0.1\nxi = 0.04")

    @staticmethod
    def reference(name, config):
        """The (rounds+1, n*p) trajectory of one algorithm, one `step`
        without rows at a time, built from this table, not the CLI's."""
        graph, comps = cli.build_scenario(config)
        params = cli._resolve_params(config, graph)
        engines = {
            "dadmm": lambda: solvers.DadmmEngine(graph, comps, params),
            "pextra": lambda: solvers.PextraEngine(graph, comps, solvers.PextraParams(
                config.xi, *solvers.pextra_mixing(graph, config.xi, config.rho, config.eta))),
            "general-uv": lambda: solvers.GeneralUVEngine(
                graph, netgraph.unoriented_gram(graph), netgraph.laplacian(graph),
                np.diag(netgraph.degrees(graph)), comps, params),
            "dadmm-matrix": lambda: solvers.DadmmMatrixEngine(graph, comps, params),
            "full-admm": lambda: solvers.FullAdmmEngine(graph, comps, params),
            "mm-exact": lambda: solvers.ExactMMEngine(graph, comps, params),
            "mm-approx": lambda: solvers.ApproxMMEngine(graph, comps, params, 1.0 / config.rho),
        }
        engine = engines[name]()
        state = engine.init()
        rows = [state.x.copy()]
        for _ in range(config.rounds):
            state = engine.step(state)
            rows.append(state.x.copy())
        return np.array(rows)

    @pytest.mark.parametrize("rounds", [0, 1, 127, 128, 129])
    @pytest.mark.parametrize("name", cli.ALGORITHMS)
    def test_rows_equal_one_round_at_a_time(self, name, rounds, tmp_path, monkeypatch):
        assert objective._ROW_BLOCK == 128
        kept = []
        run_engines = cli._run_engines
        monkeypatch.setattr(cli, "_run_engines",
                            lambda *args: kept.append(args[-1]) or run_engines(*args))
        text = self.TEXT.format(out=tmp_path / "r").replace("name = dadmm", f"name = {name}")
        config = parse_config(text.replace("rounds = 40", f"rounds = {rounds}"))
        assert cli.run(config) == 0
        (xs,) = kept
        assert np.array_equal(xs, self.reference(name, config))

    @pytest.mark.parametrize("rounds", [0, 1, 127, 128, 129])
    def test_network_comparison_gaps(self, rounds, tmp_path):
        # the comparison steps in lockstep into one reused block buffer; its
        # gaps are the dense difference of the two one-round-at-a-time
        # trajectories
        out = tmp_path / "c"
        text = self.TEXT.format(out=out).replace("rounds = 40", f"rounds = {rounds}")
        config = replace(parse_config(text), compare="pextra")
        assert cli.run(config) == 0
        gaps = np.abs(self.reference("dadmm", config)
                      - self.reference("pextra", config)).max(axis=1)
        want = "k,max_abs_dx\n" + "".join(f"{k},{g:.17g}\n" for k, g in enumerate(gaps))
        assert (out / "compare.csv").read_text() == want


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

    @pytest.mark.parametrize("name,flags", [("dadmm", ["--verify"]),
                                            ("dadmm-matrix", ["--verify"]),
                                            ("dadmm", ["--compare", "full-admm,mm-approx"])],
                             ids=["dadmm", "dadmm-matrix", "compare"])
    def test_one_stacked_view_per_run(self, name, flags, tmp_path, monkeypatch):
        # the run builds the view once; the reference solution, every
        # engine's subproblems and the trace's sums read that one
        views = []
        real = objective._Stacked.__init__

        def counted(self, components):
            views.append(1)
            real(self, components)

        monkeypatch.setattr(objective._Stacked, "__init__", counted)
        text = self.TEXT.format(out=tmp_path / "s").replace("name = dadmm", f"name = {name}")
        assert cli.main(["run", write(tmp_path, text), *flags]) == 0
        assert len(views) == 1

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
        run_engines = cli._run_engines

        def nudged(*args, **kwargs):
            phi_last, gaps, messages = run_engines(*args, **kwargs)
            phi_last = phi_last.copy()
            phi_last[0] += rel * np.linalg.norm(phi_last)
            return phi_last, gaps, messages

        monkeypatch.setattr(cli, "_run_engines", nudged)

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


def listed_algorithms(text):
    """The names a config grammar lists for `name`: the `|`-separated words
    of the comment on its `name =` line and on the comment lines under it."""
    lines = text.splitlines()
    first = next(i for i, line in enumerate(lines)
                 if re.match(r"\s*name = \S+\s+;.*\|", line))
    comments = [lines[first].split(";", 1)[1]]
    for line in lines[first + 1:]:
        if not line.lstrip().startswith(";"):
            break
        comments.append(line.split(";", 1)[1])
    return [word.strip() for word in " ".join(comments).split("|")]


@pytest.mark.parametrize("doc", ["cli", "README"])
def test_documented_algorithms_are_the_table(doc):
    # the config grammar in the cli docstring and in README lists exactly
    # the algorithms the CLI runs, in the table's order
    if doc == "cli":
        text = cli.__doc__
    else:
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme) as fh:
            text = fh.read()
    assert listed_algorithms(text) == list(cli.ALGORITHMS)


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


@pytest.mark.parametrize("name,settings", VERIFIED, ids=table_ids(VERIFIED))
def test_verified_run_forms_no_eigenvector(name, settings, tmp_path, monkeypatch):
    # every spectral constant of a verified run is an eigenvalue, and the
    # null-space checks read the ones vector: no eigenvector is formed
    calls = []
    real = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    path = write(tmp_path, verify_text(name, settings, VERIFY_CELLS[0], tmp_path / "out"))
    assert cli.main(["run", path]) == 0
    assert calls == []


def record_phi_rows(monkeypatch):
    """The dual aggregate of every state a CLI run produces, in order: the
    simulated network's phi through an observer (the initial state's once,
    then every round's), the central engines' through `phi` of the `init`
    result and of each round, a block's rows run as one-row steps."""
    phis = []
    run_rounds = harness.run_rounds

    def observed(net, graph, rounds, observer=None, rows=None):
        def both(k, x, phi, log):
            if k or not phis:
                phis.append(phi.copy())
            if observer is not None:
                observer(k, x, phi, log)
        return run_rounds(net, graph, rounds, observer=both, rows=rows)

    monkeypatch.setattr(harness, "run_rounds", observed)
    for cls in (solvers.DadmmMatrixEngine, solvers.FullAdmmEngine, solvers.ApproxMMEngine):
        def init(self, *args, _real=cls.init, **kwargs):
            state = _real(self, *args, **kwargs)
            phis.append(self.phi(state).copy())
            return state

        def step(self, state, block, _real=cls.step):
            for row in block:
                state = _real(self, state, row[None])
                phis.append(self.phi(state).copy())
            return state

        monkeypatch.setattr(cls, "init", init)
        monkeypatch.setattr(cls, "step", step)
    return phis


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


def test_module_entry_point_runs_with_warnings_as_errors(tmp_path):
    out = tmp_path / "m"
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "deconopt.cli", "run",
         write(tmp_path, BASE_INI.format(out=out))],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert (out / "trace.csv").exists()
