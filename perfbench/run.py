"""Layered benchmark of the seifert package, one workload per run.

    python3 -m perfbench.run --workload census_gen --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its `src/`
and from nowhere else.  The timed calls run in a fresh worker process
(perfbench.worker); this process makes the seeded input, measures set-up,
checks every output and prints the metrics.  The last line of stdout is
the JSON result.  perfbench/README.md explains the workloads and metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from perfbench import inputs
from perfbench.worker import import_cli, result_key

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
WORKLOADS = ("census_gen", "census_check", "cli_oneshot")
# Never used while a change is being written; a claimed gain must also
# hold on this seed.
HELD_OUT_SEED = 7919
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 30

# `census gen --cmax N` listing: entry count and sha256 of the output, as
# printed by the commit that added this benchmark.  The listing is
# specified to stay byte-identical.
EXPECTED_CENSUS = {
    15: (18223, "b67935a82b9c73fb519b9f4607133a9aff87e79874635cd2ad1e69b1bc265af4"),
    6: (38, "3d670d8f7edbc62bd82c6bfd286bbe1936a1b82dc2ab6042a2e25c8944603133"),
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "census.enumerate_nonorientable_closed.self_s": "s",
    "census.candidates": "count",
    "census.entries": "count",
    "census.useful_ratio": "ratio",
    "notation.parse_params.calls": "count",
    "notation.parse_params.self_s": "s",
    "normal_form.normalize.calls": "count",
    "normal_form.normalize.self_s": "s",
    "normal_form.normalize.calls_per_item": "calls/item",
    "complexity.upper_bound.calls": "count",
    "complexity.upper_bound.self_s": "s",
    "core.validate.calls": "count",
    "core.validate.self_s": "s",
    "notation.format_params.calls": "count",
    "notation.format_params.self_s": "s",
    "census.ingest_census.self_s": "s",
    "census.compare.self_s": "s",
    "cli.main.self_s": "s",
    "cli.import_ms": "ms",
    "cli.interp_ms": "ms",
    "trace.overhead": "ratio",
    "error_rate": "ratio",
}
_COUNTED = ("notation.parse_params", "normal_form.normalize",
            "complexity.upper_bound", "core.validate", "notation.format_params")
_SELF_ONLY = ("census.enumerate_nonorientable_closed", "census.ingest_census",
              "census.compare", "cli.main")

IMPORT_PROBE = """\
import time
start = time.perf_counter()
import seifert.cli
elapsed = time.perf_counter() - start
print(elapsed)
print(seifert.cli.__file__)
"""


@dataclass(frozen=True)
class Sizes:
    census_budget: int = 15   # census_gen: `census gen --cmax`
    check_budget: int = 12    # census_check: census entries rewritten into rows
    check_rows: int = 60_000  # census_check: rows in the table
    min_ops: int = 3          # census workloads: CLI calls per run, at least
    min_calls: int = 110      # cli_oneshot: leaves >= 10 samples above p90
    trace_calls: int = 100    # cli_oneshot: in-process calls per traced pass
    probes: int = 15          # fresh processes timed for each set-up figure


FULL = Sizes()
# Sizes for the self-test (perfbench/test_perfbench.py).
TINY = Sizes(census_budget=6, check_budget=6, check_rows=300, min_ops=1,
             min_calls=3, trace_calls=3, probes=1)


class BenchmarkError(Exception):
    """The run cannot be measured; no result is printed."""


@dataclass
class Prepared:
    """A workload's job for the worker, and what its output is checked by."""

    job: dict
    description: str
    input_sha256: str
    items: int                     # entries, rows, or 1 per call
    census_names: tuple[str, ...] = ()


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _run_child(argv: list[str], timeout: float) -> subprocess.CompletedProcess:
    try:
        return subprocess.run(argv, cwd=ROOT, env=_child_env(), text=True,
                              capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{argv[:3]} timed out after {timeout} s") from exc


def import_seconds(count: int) -> list[float]:
    """Time `import seifert.cli` inside `count` fresh interpreters."""
    samples = []
    for _ in range(count):
        proc = _run_child([sys.executable, "-c", IMPORT_PROBE], PROBE_TIMEOUT_S)
        lines = proc.stdout.split("\n")
        if proc.returncode != 0 or len(lines) < 2:
            raise BenchmarkError(f"import probe failed: {proc.stderr.strip()}")
        if not Path(lines[1]).resolve().is_relative_to(SRC.resolve()):
            raise BenchmarkError(f"child imported seifert from {lines[1]}")
        samples.append(float(lines[0]))
    return samples


def interpreter_seconds(count: int) -> list[float]:
    """Wall time of `count` runs of `python -c pass`."""
    samples = []
    for _ in range(count):
        start = perf_counter()
        _run_child([sys.executable, "-c", "pass"], PROBE_TIMEOUT_S)
        samples.append(perf_counter() - start)
    return samples


def provenance() -> list[str]:
    """Commit, source digest, interpreter and host load at start."""
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError):
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
            commit = proc.stdout.strip() or commit
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode("utf-8"))
        source.update(path.read_bytes())
    load = " ".join(f"{v:.2f}" for v in os.getloadavg())
    return [f"commit: {commit}",
            f"source: sha256 {source.hexdigest()} over src/**/*.py",
            f"host: python {platform.python_version()}, "
            f"nproc {os.cpu_count()}, load average {load}"]


def prepare(workload: str, seed: int, sizes: Sizes, tmp: Path) -> Prepared:
    job = {"workload": workload, "root": str(ROOT), "src": str(SRC),
           "result": str(tmp / "result.json"),
           "stdout": str(tmp / "stdout.txt")}
    if workload == "census_gen":
        out = tmp / "census.tsv"
        argv = ["census", "gen", "--cmax", str(sizes.census_budget),
                "--out", str(out)]
        job.update(argv=argv, output=str(out))
        text = " ".join(argv[:4])
        count = EXPECTED_CENSUS[sizes.census_budget][0]
        return Prepared(job, f"`seifert {text}`, {count} entries; "
                             "the seed does not enter", inputs.digest(text),
                        count)
    if workload == "census_check":
        table, names = inputs.census_check_table(seed, sizes.check_budget,
                                                 sizes.check_rows)
        path = tmp / "table.tsv"
        path.write_text(table, encoding="utf-8")
        job.update(argv=["census", "check", "--file", str(path)],
                   output=job["stdout"])
        rows = table.count("\n") - 1  # less the comment line
        return Prepared(job, f"`seifert census check` on {rows} rows, "
                             f"{len(names)} of them rewritten census entries",
                        inputs.digest(table), rows, tuple(names))
    argvs = inputs.oneshot_argvs(seed)
    job.update(argvs=argvs, trace_calls=sizes.trace_calls)
    return Prepared(job, f"cold `python -m seifert` calls cycling through "
                         f"{len(argvs)} generated command lines",
                    inputs.digest(json.dumps(argvs)), 1)


def run_worker(job: dict, tmp: Path) -> dict:
    path = tmp / "job.json"
    path.write_text(json.dumps(job), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "perfbench.worker", str(path)], cwd=ROOT,
            stdout=subprocess.DEVNULL, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker timed out after {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited with {proc.returncode}")
    return json.loads(Path(job["result"]).read_text(encoding="utf-8"))


def check_listing(text: str, budget: int, count: int) -> list[str]:
    """A `census gen` listing: header, entry count, and every entry
    re-parses to a fixed point of normalize with value <= budget."""
    from seifert import ParseError, normalize, parse_params
    lines = text.splitlines()
    problems = []
    header = f"# closed non-orientable census, bound <= {budget} ({count} entries)"
    if lines[:1] != [header]:
        problems.append(f"header is {lines[:1]}, expected {header!r}")
    if len(lines) - 2 != count:
        problems.append(f"{len(lines) - 2} entries, expected {count}")
    for line in lines[2:]:
        fields = line.split("\t")
        try:
            P = parse_params(fields[0])
            fixed = normalize(P) == P
            value = int(fields[1])
        except (ParseError, ValueError, IndexError) as exc:
            problems.append(f"{line!r}: {exc}")
            continue
        if not fixed:
            problems.append(f"{fields[0]} is not in normal form")
        if value > budget:
            problems.append(f"{fields[0]} has value {value} > {budget}")
    return problems


_SUMMARY = re.compile(
    r"rows: (\d+)  sharp: \d+  overestimates: \d+  violations: (\d+)")


def check_report(text: str, rows: int, census_names: tuple[str, ...]) -> list[str]:
    """A `census check` report: one line per row, no violation, every
    census-derived row sharp, and a summary that agrees."""
    census = set(census_names)
    lines = text.splitlines()
    problems = []
    sharp_census = 0
    for line in lines[:rows]:
        fields = line.split("\t")
        if len(fields) != 5:
            problems.append(f"malformed row {line!r}")
        elif fields[4] == "violation":
            problems.append(f"violation: {line!r}")
        elif fields[0] in census:
            if fields[4] == "sharp":
                sharp_census += 1
            else:
                problems.append(f"census-derived row not sharp: {line!r}")
    if sharp_census != len(census_names):
        problems.append(f"{sharp_census} of {len(census_names)} "
                        "census-derived rows graded sharp")
    summary = _SUMMARY.fullmatch(lines[rows]) if len(lines) > rows else None
    if not summary or int(summary[1]) != rows or int(summary[2]) != 0:
        problems.append(f"summary {lines[rows:rows + 1]} does not report "
                        f"{rows} rows and 0 violations")
    return problems


def in_process_key(cli, argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return result_key(code, out.getvalue().encode("utf-8"))


def check(prep: Prepared, ops: list[dict], cli, sizes: Sizes,
          trace: bool) -> tuple[int, int, list[str]]:
    """(calls attempted, calls failed, problems) over every call made.

    A call fails when its exit code is not 0 or its output differs from
    the reference: the stored census digest for census_gen, the checked
    report for census_check, and in-process ``main`` on the same command
    line for cli_oneshot.
    """
    job = prep.job
    problems: list[str] = []
    if job["workload"] == "census_gen":
        problems = check_listing(Path(job["output"]).read_text("utf-8"),
                                 sizes.census_budget, prep.items)
        wanted = [["0:" + EXPECTED_CENSUS[sizes.census_budget][1]]] * len(ops)
    elif job["workload"] == "census_check":
        text = Path(job["output"]).read_text("utf-8")
        problems = check_report(text, prep.items, prep.census_names)
        wanted = [[result_key(0, text.encode("utf-8"))]] * len(ops)
    elif trace:
        wanted = [[in_process_key(cli, argv)
                   for argv in job["argvs"][:sizes.trace_calls]]] * len(ops)
    else:
        argvs = job["argvs"]
        wanted = [[in_process_key(cli, argvs[i % len(argvs)])]
                  for i in range(len(ops))]
    attempted = sum(len(w) for w in wanted)
    if problems:
        return attempted, attempted, problems
    failed = sum(got != want or not want.startswith("0:")
                 for op, keys in zip(ops, wanted)
                 for got, want in zip(op["results"], keys))
    return attempted, failed, problems


def _p90(samples: list[float]) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def end_to_end_metrics(prep: Prepared, worker: dict,
                       import_s: list[float]) -> tuple[dict, dict]:
    times = [op["seconds"] for op in worker["ops"]]
    median = statistics.median(times)
    cold = prep.job["workload"] == "cli_oneshot"
    rss_kb = worker["peak_rss_kb"]["children" if cold else "self"]
    metrics = {
        "setup_s": statistics.median(import_s),
        "wall_s": median,
        "items_per_s": prep.items * len(times) / sum(times),
        "call_p50_ms": median * 1000,
        "call_p90_ms": _p90(times) * 1000,
        "peak_rss_mb": rss_kb / 1024,
    }
    per_item = {"census_gen": "entries", "census_check": "rows",
                "cli_oneshot": "call"}[prep.job["workload"]]
    notes = {
        "setup_s": f"median import of seifert.cli in {len(import_s)} fresh interpreters",
        "wall_s": f"median of {len(times)} calls",
        "items_per_s": f"{prep.items} {per_item} per call, over the "
                       "total time of all calls",
        "call_p50_ms": f"{len(times)} samples",
        "call_p90_ms": f"{len(times)} samples, "
                       f"{sum(t > _p90(times) for t in times)} above p90",
        "peak_rss_mb": "largest cold child" if cold else "worker process",
    }
    return metrics, notes


def layer_metrics(prep: Prepared, worker: dict, import_s: list[float],
                  interp_s: list[float], sizes: Sizes) -> tuple[dict, dict]:
    traced = [op["seconds"] for op in worker["ops"] if op["traced"]]
    untraced = [op["seconds"] for op in worker["ops"] if not op["traced"]]
    cold = prep.job["workload"] == "cli_oneshot"
    calls_made = len(traced) * (sizes.trace_calls if cold else 1)
    layers = worker["layers"]
    metrics = {}
    for name in _COUNTED:
        metrics[f"{name}.calls"] = layers["calls"].get(name, 0) / calls_made
    for name in _COUNTED + _SELF_ONLY:
        metrics[f"{name}.self_s"] = layers["self_s"].get(name, 0.0) / calls_made
    candidates = layers["edges"].get(
        "census.enumerate_nonorientable_closed>normal_form.normalize", 0) / calls_made
    entries = prep.items if prep.job["workload"] == "census_gen" else 0
    metrics.update({
        "census.candidates": candidates,
        "census.entries": entries,
        "census.useful_ratio": entries / candidates if candidates else 0.0,
        "normal_form.normalize.calls_per_item":
            metrics["normal_form.normalize.calls"] / prep.items,
        "cli.import_ms": statistics.median(import_s) * 1000,
        "cli.interp_ms": statistics.median(interp_s) * 1000,
        "trace.overhead": statistics.median(traced) / statistics.median(untraced) - 1,
    })
    unit = "in-process call" if cold else "CLI call"
    notes = {
        "trace.overhead": f"median of {len(traced)} traced over {len(untraced)} "
                          "untraced calls, less 1",
        "cli.import_ms": f"median of {len(import_s)} fresh interpreters",
        "cli.interp_ms": f"median of {len(interp_s)} `python -c pass`",
    }
    notes.update({name: f"per {unit}" for name in metrics if name not in notes
                  and name.endswith((".calls", ".self_s", "candidates"))})
    return metrics, notes


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  sizes: Sizes = FULL) -> tuple[list[str], dict]:
    """Measure one workload; returns the report lines and the result."""
    try:
        cli = import_cli(SRC)
    except ImportError as exc:
        raise BenchmarkError(f"cannot import seifert from {SRC}: {exc}") from exc
    lines = [f"perfbench: workload {workload}, seed {seed}, "
             f"{seconds:g} s, trace {int(trace)}", *provenance()]
    if seed == HELD_OUT_SEED:
        lines.append("seed: the held-out seed")
    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        prep = prepare(workload, seed, sizes, tmp)
        if trace:
            min_rounds = 1
        else:
            min_rounds = sizes.min_calls if workload == "cli_oneshot" else sizes.min_ops
        prep.job.update(seconds=seconds, trace=trace, min_rounds=min_rounds)
        lines.append(f"input: {prep.description}; sha256 {prep.input_sha256}")
        import_s = import_seconds(sizes.probes)
        interp_s = interpreter_seconds(sizes.probes) if trace else []
        worker = run_worker(prep.job, tmp)
        attempted, failed, problems = check(prep, worker["ops"], cli, sizes, trace)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()
    if trace:
        metrics, notes = layer_metrics(prep, worker, import_s, interp_s, sizes)
        metrics["error_rate"] = failed / attempted
        units = PER_LAYER
    else:
        metrics, notes = end_to_end_metrics(prep, worker, import_s)
        units = END_TO_END
    lines += [f"check: {problem}" for problem in problems[:20]]
    lines.append(f"error_rate = {failed / attempted} ({failed} of {attempted} "
                 "calls failed their check)")
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"{name} = {metrics[name]!r} {unit}{note}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return lines, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 -m perfbench.run",
        description="Layered benchmark of the seifert package.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the timed calls run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    try:
        lines, result = run_benchmark(args.workload, args.seed, args.seconds,
                                      bool(args.trace))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
