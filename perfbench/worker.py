"""Timed part of one benchmark run, in a fresh process.

    python3 -m perfbench.worker JOB.json

perfbench.run writes the job, starts this process and reads back the
result file it names.  Keeping the timed calls here means the peak RSS
this process reports covers the program and this small loop, not the
input generation or the output checks.

`census_gen` and `census_check` call ``seifert.cli.main`` in-process with
stdout sent to a file.  `cli_oneshot` starts one ``python -m seifert``
child at a time; traced, it runs the same command lines in-process
instead, because spans cannot be recorded inside a cold child.  A traced
run alternates untraced and traced calls, so the tracing overhead is
measured on the same process and input.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from perfbench.spans import Tracer

CHILD_TIMEOUT_S = 60


def result_key(code: int, output: bytes) -> str:
    """What a call is checked by: exit code and digest of its output."""
    return f"{code}:{hashlib.sha256(output).hexdigest()}"


def file_result_key(code: int, path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return f"{code}:{digest.hexdigest()}"


def import_cli(src: Path):
    """seifert.cli from `src`; refuses any other copy of the package."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import seifert.cli
    if not Path(seifert.cli.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"seifert imported from {seifert.cli.__file__}, "
                          f"not from {src}")
    return seifert.cli


def _in_process(cli, argv: list[str], stdout) -> tuple[int, float]:
    with contextlib.redirect_stdout(stdout):
        start = perf_counter()
        code = cli.main(argv)
        return code, perf_counter() - start


def _census_op(cli, job: dict, tracer: Tracer | None) -> dict:
    with open(job["stdout"], "w", encoding="utf-8") as out:
        with tracer or contextlib.nullcontext():
            code, seconds = _in_process(cli, job["argv"], out)
    return {"seconds": seconds,
            "results": [file_result_key(code, job["output"])]}


def _inprocess_pass(cli, job: dict, tracer: Tracer | None) -> dict:
    seconds, results = 0.0, []
    for argv in job["argvs"][:job["trace_calls"]]:
        out = io.StringIO()
        with tracer or contextlib.nullcontext():
            code, elapsed = _in_process(cli, argv, out)
        seconds += elapsed
        results.append(result_key(code, out.getvalue().encode("utf-8")))
    return {"seconds": seconds, "results": results}


def _cold_call(job: dict, index: int) -> dict:
    argv = job["argvs"][index % len(job["argvs"])]
    env = dict(os.environ, PYTHONPATH=job["src"])
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-m", "seifert", *argv],
                          cwd=job["root"], env=env, capture_output=True,
                          timeout=CHILD_TIMEOUT_S)
    seconds = perf_counter() - start
    return {"seconds": seconds, "results": [result_key(proc.returncode,
                                                       proc.stdout)]}


def measure(job: dict, cli) -> dict:
    """Runs rounds of calls until the next round would end after
    job["seconds"], and at least job["min_rounds"] rounds.  A round is
    one untraced call, followed by one traced call when tracing."""
    ops: list[dict] = []
    layers: dict[str, Counter] = {"calls": Counter(), "self_s": Counter(),
                                  "edges": Counter()}
    start = perf_counter()
    rounds = 0
    while True:
        for traced in (False, True) if job["trace"] else (False,):
            tracer = Tracer() if traced else None
            if job["workload"] != "cli_oneshot":
                op = _census_op(cli, job, tracer)
            elif job["trace"]:
                op = _inprocess_pass(cli, job, tracer)
            else:
                op = _cold_call(job, rounds)
            if tracer is not None:
                for key, counts in tracer.summary().items():
                    layers[key].update(counts)
            ops.append({"traced": traced, **op})
        rounds += 1
        elapsed = perf_counter() - start
        if rounds >= job["min_rounds"] and elapsed * (rounds + 1) / rounds > job["seconds"]:
            break
    return {"ops": ops, "layers": {k: dict(v) for k, v in layers.items()}}


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    cli = import_cli(Path(job["src"]))
    result = measure(job, cli)
    result["peak_rss_kb"] = {
        "self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
