"""deconopt benchmark: verified experiment runs through the real CLI entry point.

    python3 bench/run.py --workload certify --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout. Each timed repetition is a fresh
interpreter (bench/child.py) that calls `cli.main(["run", config])` on a
config generated from the seed (bench/workloads.py); repetitions run one at a
time from this single process. Every repetition's output is checked.

--trace 0 prints the end-to-end metrics: medians of the full run (`run_s`)
and of the same config with `rounds = 0` (`setup_s`), the full run's peak RSS,
and the share of repetitions that passed every check. --trace 1 alternates
untraced and traced full runs and prints the per-layer metrics of the traced
runs (bench/tracer.py). Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORK_DIR = os.path.join(ROOT, ".bench_work")

# One BLAS thread here and in every child, set before numpy loads. The
# workloads' matrices are at most a few hundred wide, and on a host with few
# cores the extra BLAS threads only contend with the timed process.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update({name: "1" for name in BLAS_THREAD_VARS})

sys.path.insert(0, HERE)
from workloads import WORKLOADS, agrees, config_text, make_instance, oracle  # noqa: E402

# every run makes at least this many (full, setup) or (full, traced) cycles,
# then starts another cycle only if it should end within --seconds
MIN_CYCLES = 2
# the whole invocation stays well inside three minutes even when a child hangs
HARD_LIMIT_S = 150.0

# tolerances of the output checks
FINAL_ROW_RTOL, FINAL_ROW_ATOL = 1e-6, 1e-9   # final obj_err / consensus_resid
DELTA_RTOL = 1e-6                             # certificate delta, beyond the
                                              # oracle's search-width range
COMPARE_GAP_MAX = 1e-10                       # compare.csv max_abs_dx (seed: ~3e-16)

TIME_UNITS = ("s", "ms", "us")


# -- report metadata --------------------------------------------------------------

def _blas():
    import numpy
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{info.get('name')} {info.get('version')}"
    except (KeyError, TypeError):
        name = "unknown"
    threads = None
    libdir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return name, threads


def _git_sha() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(workload, seed: int, rounds: int) -> dict:
    import numpy
    blas, threads = _blas()
    src_lines = 0
    for path in glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True):
        with open(path) as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "workload": workload.name, "seed": seed, "rounds": rounds,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": blas, "blas_threads": threads,
        "blas_env": {k: os.environ[k] for k in BLAS_THREAD_VARS if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "git_sha": _git_sha(), "src_lines": src_lines,
    }


# -- one repetition ----------------------------------------------------------------

@dataclasses.dataclass
class Rep:
    kind: str                 # "full", "setup" or "traced"
    seconds: float | None = None
    maxrss_kib: int | None = None
    trace: dict | None = None
    digest: str | None = None
    trace_bytes: int = 0
    worst_ratio: float | None = None
    problems: list = dataclasses.field(default_factory=list)


def run_child(config: str, result_path: str, traced: bool, timeout: float) -> tuple[dict | None, str]:
    cmd = [sys.executable, CHILD, config, result_path] + (["--trace"] if traced else [])
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    if not os.path.exists(result_path):
        return None, f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"
    with open(result_path) as fh:
        result = json.load(fh)
    if proc.returncode != 0:
        return result, f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"
    return result, ""


def _read_certificate(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for line in fh:
            name, _, value = line.partition(" = ")
            values[name.strip()] = float(value)
    return values


def check_outputs(workload, rounds: int, out_dir: str, expect: dict, rep: Rep) -> None:
    """Check one run's output files against the oracle; append problems."""
    trace_path = os.path.join(out_dir, "trace.csv")
    try:
        with open(trace_path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        rep.problems.append(f"trace.csv unreadable: {exc}")
        return
    rep.digest = hashlib.sha256(raw).hexdigest()
    rep.trace_bytes = len(raw)
    rows = raw.decode().splitlines()
    if len(rows) != rounds + 2:
        rep.problems.append(f"trace.csv has {len(rows) - 1} rows, expected {rounds + 1}")
        return
    last = rows[-1].split(",")
    for column, name in ((1, "obj_err"), (2, "consensus_resid")):
        try:
            got = float(last[column])
        except (IndexError, ValueError):
            got = float("nan")
        if not agrees(got, expect[name], FINAL_ROW_RTOL, FINAL_ROW_ATOL):
            rep.problems.append(f"final {name} {got!r} != oracle {expect[name]!r}")

    if workload.verify:
        try:
            cert = _read_certificate(os.path.join(out_dir, "certificate.txt"))
        except (OSError, ValueError) as exc:
            rep.problems.append(f"certificate.txt unreadable: {exc}")
            return
        if cert.get("violations") != 0:
            rep.problems.append(f"violations = {cert.get('violations')}")
        low, high = expect["delta"]
        delta = cert.get("delta", float("nan"))
        if not low * (1.0 - DELTA_RTOL) <= delta <= high * (1.0 + DELTA_RTOL):
            rep.problems.append(f"delta {delta!r} outside oracle range [{low!r}, {high!r}]")
        rep.worst_ratio = cert.get("worst_ratio")

    if workload.compare is not None:
        try:
            with open(os.path.join(out_dir, "compare.csv")) as fh:
                gaps = [float(line.split(",")[1]) for line in fh.read().splitlines()[1:]]
        except (OSError, ValueError, IndexError) as exc:
            rep.problems.append(f"compare.csv unreadable: {exc}")
            return
        if len(gaps) != rounds + 1:
            rep.problems.append(f"compare.csv has {len(gaps)} rows, expected {rounds + 1}")
        elif not max(gaps) <= COMPARE_GAP_MAX:
            rep.problems.append(f"compare max gap {max(gaps)!r} > {COMPARE_GAP_MAX}")


# -- a benchmark invocation ---------------------------------------------------------------

class Bench:
    def __init__(self, workload, seed: int, rounds: int, work: str, seconds: float):
        self.workload = workload
        self.rounds = rounds
        self.work = work
        self.seconds = seconds
        self.started = time.perf_counter()
        inst = make_instance(workload, seed)
        self.configs = {}
        self.expect = {}
        for kind, kind_rounds in (("full", rounds), ("setup", 0)):
            self.configs[kind] = self._write(kind, config_text(
                workload, inst, kind_rounds, self._out_dir(f"out-{kind}")))
            self.expect[kind] = oracle(workload, inst, kind_rounds)
        self.configs["traced"] = self.configs["full"]
        self.expect["traced"] = self.expect["full"]
        small = dataclasses.replace(workload, n=max(6, workload.p))
        self.configs["warm"] = self._write("warm", config_text(
            small, make_instance(small, seed), 2, self._out_dir("out-warm")))
        self.reps: list[Rep] = []
        self.seq = 0

    def _out_dir(self, name: str) -> str:
        """Output directory as written into a config: relative to the
        checkout root (the child's working directory), so that no character
        of the checkout's own path reaches the INI parser."""
        return os.path.relpath(os.path.join(self.work, name), ROOT)

    def _write(self, kind: str, text: str) -> str:
        path = os.path.join(self.work, f"{kind}.ini")
        with open(path, "w") as fh:
            fh.write(text)
        return path

    def time_left(self) -> float:
        return self.started + HARD_LIMIT_S - time.perf_counter()

    def warm_up(self) -> None:
        """Compile bytecode and fill the file cache; not measured."""
        run_child(self.configs["warm"], os.path.join(self.work, "warm.json"),
                  False, self.time_left())

    def rep(self, kind: str) -> Rep:
        rounds = 0 if kind == "setup" else self.rounds
        out_dir = os.path.join(self.work, "out-setup" if kind == "setup" else "out-full")
        shutil.rmtree(out_dir, ignore_errors=True)
        self.seq += 1
        result_path = os.path.join(self.work, f"rep-{self.seq}.json")
        rep = Rep(kind)
        result, error = run_child(self.configs[kind], result_path,
                                  kind == "traced", self.time_left())
        if result is not None:
            rep.seconds = result["seconds"]
            rep.maxrss_kib = result["maxrss_kib"]
            rep.trace = result.get("trace")
        if error:
            rep.problems.append(error)
        else:
            check_outputs(self.workload, rounds, out_dir, self.expect[kind], rep)
        same_output = [r for r in self.reps if r.digest and not r.problems
                       and (r.kind == "setup") == (kind == "setup")]
        if rep.digest and same_output and rep.digest != same_output[0].digest:
            rep.problems.append("trace.csv differs from the first passing repetition's")
        self.reps.append(rep)
        return rep

    def measure(self, kinds: tuple[str, ...]) -> None:
        deadline = self.started + self.seconds
        cycles, last = 0, 0.0
        while cycles < MIN_CYCLES or time.perf_counter() + last <= deadline:
            begin = time.perf_counter()
            for kind in kinds:
                self.rep(kind)
                if self.time_left() <= 0:
                    return
            last = time.perf_counter() - begin
            cycles += 1

    def passed(self, kind: str) -> list[Rep]:
        return [r for r in self.reps if r.kind == kind and not r.problems]


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _spread(label: str, values, unit: str) -> str:
    if not values:
        return f"{label}: no passing samples"
    return (f"{label} = {_median(values):.6g} {unit} (median of {len(values)}: "
            + " ".join(f"{v:.4g}" for v in values) + ")")


def end_to_end(bench: Bench) -> dict:
    full = bench.passed("full")
    setup = bench.passed("setup")
    attempted = len(bench.reps)
    failed = sum(1 for r in bench.reps if r.problems)
    run_s = [r.seconds for r in full]
    setup_s = [r.seconds for r in setup]
    rss = [r.maxrss_kib / 1024.0 for r in full]
    print(_spread("run_s", run_s, "s"))
    print(_spread("setup_s", setup_s, "s"))
    print(_spread("peak_rss_mib", rss, "MiB"))
    print(f"fail_frac = {failed / attempted:.6g} ({failed} of {attempted} runs failed)")
    return {
        "run_s": (_median(run_s), "s"),
        "setup_s": (_median(setup_s), "s"),
        "peak_rss_mib": (_median(rss), "MiB"),
        "pass_frac": (1.0 - failed / attempted, "ratio"),
    }


def per_layer(bench: Bench) -> dict:
    from tracer import call_counts, layer_metrics

    for rep in (r for r in bench.reps if r.kind == "traced" and r.trace):
        counts = call_counts(rep.trace)
        for name in bench.workload.expected_spans:
            if counts.get(name, 0) == 0:
                rep.problems.append(f"span {name} recorded zero calls")
    traced = bench.passed("traced")
    if not traced:
        return {}
    per_rep = [layer_metrics(r.trace) for r in traced]
    first = call_counts(traced[0].trace)
    for rep in traced[1:]:
        if call_counts(rep.trace) != first:
            rep.problems.append("traced call counts differ between repetitions")
    # counts and sizes repeat exactly (checked above); times take the median
    metrics = {name: (_median([m[name][0] for m in per_rep]) if unit in TIME_UNITS
                      else value, unit)
               for name, (value, unit) in per_rep[0].items()}
    metrics["cli.trace_bytes"] = (traced[0].trace_bytes, "bytes")
    untraced = _median([r.seconds for r in bench.passed("full")])
    traced_s = _median([r.seconds for r in traced])
    overhead = traced_s / untraced - 1.0 if untraced else 0.0
    print(f"tracing overhead = {overhead:.4f} (traced cli.main median {traced_s:.6g} s "
          f"over {len(traced)}, untraced run_s median {untraced:.6g} s)")
    metrics["bench.trace_overhead"] = (overhead, "ratio")
    worst = [r.worst_ratio for r in traced if r.worst_ratio is not None]
    metrics["analysis.worst_ratio"] = (_median(worst), "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int,
                        help="override the workload's round count (quick checks only)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "deconopt", "cli.py")):
        print(f"bench: no package source under {os.path.join(ROOT, 'src')}; "
              "run from the root of a deconopt checkout", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    rounds = workload.rounds if args.rounds is None else args.rounds
    meta = metadata(workload, args.seed, rounds)
    print("meta " + json.dumps(meta, sort_keys=True))

    os.makedirs(WORK_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as work:
        bench = Bench(workload, args.seed, rounds, work, args.seconds)
        bench.warm_up()
        bench.measure(("full", "traced") if args.trace else ("full", "setup"))
        metrics = per_layer(bench) if args.trace else end_to_end(bench)

    for rep in bench.reps:
        for problem in rep.problems:
            print(f"FAILED {rep.kind} repetition: {problem}")
            print(f"bench: FAILED {rep.kind} repetition: {problem}", file=sys.stderr)
    worst = [r.worst_ratio for r in bench.reps if r.worst_ratio is not None]
    if worst:
        print(f"worst_ratio = {worst[0]!r} (information only; not gated)")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")

    failed = sum(1 for r in bench.reps if r.problems)
    correct = failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": len(bench.reps),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
