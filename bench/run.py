"""Benchmark of codecert's command line, one workload per process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Set-up writes the workload's seeded
inputs under .bench_work/ and imports codecert from src/; it is repeated
SETUP_REPEATS times and its median reported. The timed phase then calls
`codecert.cli.main(argv)` in-process with --machine output, in whole
rounds of the same operations, until another round would overrun S
seconds. Every output is checked against an independent reference
computation right after its call, outside the timing.

`hostspeed.probe()` runs before every set-up and every call and after the
last of a round. The times of the set-ups, and of each round's calls, are
reported at quiet-host speed by the median of the probes among them
(`hostspeed.corrected`), so that the host's own swings in speed do not
show as changes in the program.

With --trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics. With --trace 1, after one untraced warm-up round,
every call runs untraced and then traced; the per-layer metrics come
from the traced calls, and the spans of the last round are written to
.bench_out/. A table of per-operation times goes to stderr.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import hostspeed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 9

#: What one unit of each subcommand's work is, for the stderr report.
UNIT_NAMES = {"certify": "symbols", "huffman": "symbols", "fuzz": "trials", "simulate": "symbols", "check-ud": "codes"}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program():
    """Import codecert afresh from the checkout's src/ and return its cli module."""
    src = ROOT / "src"
    if not (src / "codecert" / "cli.py").is_file():
        raise FileNotFoundError(f"no codecert sources under {src}")
    for key in [k for k in sys.modules if k == "codecert" or k.startswith("codecert.")]:
        del sys.modules[key]
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    cli = importlib.import_module("codecert.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise FileNotFoundError(f"codecert was imported from {cli.__file__}, outside {src}")
    return cli


def set_up(name: str, seed: int, workdir: Path):
    """Import the program and build the inputs SETUP_REPEATS times; the last set-up is kept.

    Returns the corrected seconds of each set-up.
    """
    times = []
    probes = [hostspeed.probe()]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        cli = load_program()
        workload = workloads.build(name, seed, workdir)
        times.append(time.perf_counter() - t0)
        probes.append(hostspeed.probe())
    return workload, cli, [hostspeed.corrected(t, probes) for t in times]


def call(cli, op) -> tuple[float, int | None, str]:
    """One CLI call: seconds taken, exit status (None if it raised) and output."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(buf), redirect_stderr(buf):
            status = cli.main(list(op.argv))
    except Exception as exc:  # a crash in the program fails this operation only
        status = None
        buf.write(f"{type(exc).__name__}: {exc}")
    return time.perf_counter() - t0, status, buf.getvalue()


def judge(op, status: int | None, out: str) -> str | None:
    if status is None:
        return f"raised {out}"
    try:
        return op.check(status, out)
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        return f"malformed output ({type(exc).__name__}: {exc}): {out[:200]!r}"


def geomean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def per_op_medians(rounds: list[list[float]]) -> list[float]:
    return [statistics.median(column) for column in zip(*rounds)]


def kind_rate(ops, times: list[float], kind: str) -> float:
    """Units of `kind` operations per second spent in them."""
    units = sum(op.units for op in ops if op.kind == kind)
    spent = sum(t for op, t in zip(ops, times) if op.kind == kind)
    return units / spent


def report_table(workload, rounds: list[list[float]], measured: list[list[float]], traced: int) -> None:
    """Per-operation median seconds, corrected and as measured, and each
    subcommand's own throughput, on stderr."""
    ops = workload.ops
    medians = per_op_medians(rounds)
    columns = "measured / measured" if traced else "corrected / measured"
    print(f"{len(rounds)} untraced round(s), {traced} traced; seconds {columns}", file=sys.stderr)
    for op, t, m in zip(ops, medians, per_op_medians(measured)):
        print(f"  {t:10.4f} {m:10.4f}  {op.label}", file=sys.stderr)
    for kind in dict.fromkeys(op.kind for op in ops):
        name = f"{kind.replace('-', '_')}_{UNIT_NAMES[kind]}_per_s"
        print(f"  {name} = {kind_rate(ops, medians, kind):.6g}", file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        try:
            workload, cli, setup_times = set_up(args.workload, args.seed, workdir)
        except FileNotFoundError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        ops = workload.ops
        tracer = tracing.Tracer() if args.trace else None

        rounds: list[list[float]] = []  # untraced seconds, corrected unless tracing
        measured_rounds: list[list[float]] = []  # the same calls' seconds as measured
        traced_rounds: list[list[float]] = []
        layer_samples: list[dict[str, float]] = []
        attempted = failed = 0
        deterministic = True
        first_outputs: dict[int, tuple[int | None, str]] = {}

        def attempt(i: int, traced: bool = False) -> float:
            nonlocal attempted, failed, deterministic
            if traced:
                tracer.install()
            try:
                seconds, status, out = call(cli, ops[i])
            finally:
                if traced:
                    tracer.uninstall()
            attempted += 1
            problem = judge(ops[i], status, out)
            if problem:
                failed += 1
                print(f"FAILED {ops[i].label}: {problem}", file=sys.stderr)
            if first_outputs.setdefault(i, (status, out)) != (status, out):
                print(f"output of {ops[i].label} differs between calls", file=sys.stderr)
                deterministic = False
            return seconds

        start = time.perf_counter()
        if tracer is not None:
            # the first round in a process runs cold (allocator growth, first calls)
            for i in range(len(ops)):
                attempt(i)
        while True:
            began = time.perf_counter()
            if tracer is None:
                probes = [hostspeed.probe()]
                measured = []
                for i in range(len(ops)):
                    measured.append(attempt(i))
                    probes.append(hostspeed.probe())
                measured_rounds.append(measured)
                rounds.append([hostspeed.corrected(t, probes) for t in measured])
            else:
                # each call runs untraced and then traced, back to back, so that
                # both see the same state of a shared machine
                tracer.clear()
                pairs = [(attempt(i), attempt(i, traced=True)) for i in range(len(ops))]
                rounds.append([plain for plain, _ in pairs])
                measured_rounds.append(rounds[-1])
                traced_rounds.append([traced for _, traced in pairs])
                layer_samples.append(tracing.layer_metrics(*tracer.summary()))
            now = time.perf_counter()
            if now - start + (now - began) > args.seconds:
                break

        report_table(workload, rounds, measured_rounds, len(traced_rounds))

        if tracer is None:
            medians = per_op_medians(rounds)
            metrics = {
                "setup_s": (statistics.median(setup_times), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "ops_per_s": (len(ops) / sum(medians), "1/s"),
                "units_per_s": (kind_rate(ops, medians, workload.primary), "1/s"),
                "op_geomean_ms": (1000 * geomean(medians), "ms"),
            }
        else:
            tracer.write(ROOT / ".bench_out" / f"spans-{args.workload}.tsv")
            metrics = {}
            for key in layer_samples[0]:
                unit = "count" if key.endswith(".calls") else "s" if key.endswith("_s") else "ratio"
                metrics[key] = (statistics.median(s[key] for s in layer_samples), unit)
            overhead = statistics.median(sum(t) - sum(u) for t, u in zip(traced_rounds, rounds))
            metrics["trace_overhead_s"] = (overhead, "s")

        result = {
            "correct": deterministic,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run's inputs are still there
            pass


if __name__ == "__main__":
    sys.exit(main())
