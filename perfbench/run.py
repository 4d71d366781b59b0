#!/usr/bin/env python3
"""Benchmark of the sbfock CLI.

    python3 perfbench/run.py --workload {study,vanhove,desk} --seed N --seconds S --trace {0,1}

Run from the repository root.  A round is the workload's list of CLI
commands (see ``inputs.py``), each in a fresh ``python -m sbfock.cli``
process on configs generated from ``--seed``; the output of each command
is checked (``checks.py``) before the next one starts, so the loop is
closed with one client.  An operation is one command; a wrong exit code,
a timeout or a failed check counts it as failed, and any failure other
than the known malformed-number fault (``checks.MALFORMED``) also makes
``correct`` false.

``--trace 0`` first times seven set-ups (interpreter start, ``import
sbfock.cli`` and ``parse_config`` in a fresh process), then runs whole
rounds until ``--seconds`` have passed, and reports the end-to-end
metrics: the median round's wall and CPU time of the commands, the
largest peak RSS of any command and the median set-up time.
``--trace 1`` runs an untraced, a traced (``tracer.py``) and another
untraced round, and reports the per-layer metrics of the traced one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; every run also
writes a results file under ``.perfbench_out/results/``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import tracer  # noqa: E402
from checks import MALFORMED, Checker  # noqa: E402

ROOT = Path.cwd()
OUT = ROOT / ".perfbench_out"
ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p),
)
SETUP_PROBES = 7
DEADLINE_S = 170.0  # every child is killed by then, so the run ends within 180 s
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def run_child(argv, log_path: Path, deadline: float):
    """(exit code, or None when killed at the deadline; wall s; CPU s; largest
    peak RSS in MiB of any child so far) of one child process."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        try:
            code = subprocess.run(
                argv, cwd=ROOT, env=ENV, stdout=log, stderr=subprocess.STDOUT,
                timeout=max(deadline - time.monotonic(), 1e-3),
            ).returncode
        except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
            code = None
        wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
    return code, wall, cpu, after.ru_maxrss / 1024.0


def setup_time(config: Path, log: Path, deadline: float) -> float:
    code, wall, _, _ = run_child(
        [sys.executable, "-c", "import sys, sbfock.cli; sbfock.cli.parse_config(sys.argv[1])", str(config)],
        log, deadline,
    )
    if code != 0:
        raise RuntimeError(f"set-up probe on {config} exited {code}; see {log}")
    return wall


def command_argv(cmd, config: Path, out: Path, spans_dir: Path | None) -> list[str]:
    cli_args = [cmd.cli, "--config", str(config), "--out", str(out)]
    if spans_dir is None:
        return [sys.executable, "-m", "sbfock.cli", *cli_args]
    return [sys.executable, str(HERE / "tracer.py"), str(spans_dir / f"{cmd.label}.json"), *cli_args]


def known_fault(problems) -> bool:
    """True when the only problems are the known malformed-number fault."""
    return bool(problems) and all(p.startswith(MALFORMED) for p in problems)


def run_round(commands, work: Path, checker, spans_dir: Path | None, deadline: float):
    """Run every command once; returns per-command records."""
    records = []
    for cmd in commands:
        out = work / "out" / cmd.label
        shutil.rmtree(out, ignore_errors=True)
        argv = command_argv(cmd, work / f"{cmd.config}.json", out, spans_dir)
        code, wall, cpu, rss = run_child(argv, work / f"{cmd.label}.log", deadline)
        if code is None:
            problems = ["killed at the run's deadline"]
        elif code != cmd.expect_exit:
            problems = [f"exit code {code}, expected {cmd.expect_exit}"]
        else:
            try:
                problems = checker(cmd, out)
            except (OSError, KeyError, ValueError) as exc:
                problems = [f"unreadable output: {exc!r}"]
        records.append(
            {"label": cmd.label, "exit": code, "wall_s": wall, "cpu_s": cpu, "max_rss_so_far_mib": rss,
             "problems": problems, "failed": bool(problems), "known_fault": known_fault(problems)}
        )
        print(f"  {cmd.label}: exit {code} in {wall:.2f} s{'' if not problems else ' ' + '; '.join(problems)}",
              file=sys.stderr)
        if time.monotonic() >= deadline:
            break
    return records


def summary(records) -> dict:
    """The result fields of a run's records.  Every failed operation counts
    in ``failed``; ``correct`` is false unless each failure is the known
    malformed-number fault, so a wrong exit code, a timeout or a wrong value
    shows even on a workload whose operations all fail on that fault."""
    return {
        "correct": all(r["known_fault"] for r in records if r["failed"]),
        "attempted": len(records),
        "failed": sum(r["failed"] for r in records),
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def machine_info() -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    if not (ROOT / "src" / "sbfock" / "cli.py").is_file():
        print(f"perfbench: no sbfock sources under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))  # the dense reference check imports sbfock
    deadline = started + DEADLINE_S
    # a terminated run unwinds through subprocess.run, which kills its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = OUT / "work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    configs, commands = inputs.build(args.workload, args.seed)
    for name, cfg in configs.items():
        (work / f"{name}.json").write_text(json.dumps(cfg, indent=1) + "\n")
    checker = Checker(configs, work)

    rounds, metrics = [], {}
    if args.trace == 0:
        config_cycle = [work / f"{cmd.config}.json" for cmd in commands]
        setups = [
            setup_time(config_cycle[i % len(config_cycle)], work / "setup.log", deadline)
            for i in range(SETUP_PROBES)
        ]
        measure_start = time.monotonic()
        while not rounds or time.monotonic() - measure_start < args.seconds:
            round_start = time.monotonic()
            rounds.append(run_round(commands, work, checker, None, deadline))
            # stop before a round that would not end by the deadline
            if time.monotonic() + (time.monotonic() - round_start) > deadline:
                break
        metrics = {
            "wall_s": _metric(statistics.median(sum(r["wall_s"] for r in rnd) for rnd in rounds), "s"),
            "cpu_s": _metric(statistics.median(sum(r["cpu_s"] for r in rnd) for rnd in rounds), "s"),
            "peak_rss_mib": _metric(max(r["max_rss_so_far_mib"] for rnd in rounds for r in rnd), "MiB"),
            "setup_s": _metric(statistics.median(setups), "s"),
        }
    else:
        spans_dir = work / "spans"
        spans_dir.mkdir()
        # untraced, traced, untraced: the mean of the untraced rounds cancels
        # a linear drift of the host's speed and the order of the rounds
        for spans in (None, spans_dir, None):
            rounds.append(run_round(commands, work, checker, spans, deadline))
        before, traced, after = (sum(r["wall_s"] for r in rnd) for rnd in rounds)
        docs = [json.loads(p.read_text()) for p in sorted(spans_dir.glob("*.json"))]
        metrics = tracer.layer_metrics(docs, overhead_s=traced - (before + after) / 2)

    records = [r for rnd in rounds for r in rnd]
    result = {**summary(records), "metrics": metrics}

    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S")
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json").write_text(
        json.dumps(
            {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
             "machine": machine_info(), "result": result,
             "known_fault": sum(r["known_fault"] for r in records), "rounds": rounds,
             "configs": configs},
            indent=1,
        )
        + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
