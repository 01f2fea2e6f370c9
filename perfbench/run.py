"""Benchmark of the wplarcs library and CLI; see perfbench/README.md.

Run from the repository root:

    python3 perfbench/run.py --workload hom-deep --seed 1 --seconds 20 --trace 0

One process, one client, closed loop: each op is sent when the previous one
has returned and been checked.  The run prints a table of every metric with
its unit, then, as its last line, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  `--trace 0` reports the end-to-end
metrics; `--trace 1` reports the per-layer metrics of a traced run.
"""

from __future__ import annotations

import argparse
import gc
from array import array
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

import speed

SETUP_REPEATS = 7
OP_LIMIT_S = 60  # an in-process op running longer is stopped and counted as failed
CAP_FACTOR = 3  # a run starts no op after CAP_FACTOR * --seconds + CAP_EXTRA_S
CAP_EXTRA_S = 30
PROBE_SPAWNS = 5
OUT_DIR = ".perfbench-out"


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout(f"op ran longer than {OP_LIMIT_S} s")


def run_op(op):
    """(latency in seconds, answer checked correct, result or exception)."""
    try:
        signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
        t0 = time.perf_counter()
        try:
            result = op.call()
        finally:
            latency = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Exception as err:  # a raising op is a failed op, and the run goes on
        return latency, False, err
    try:
        ok = bool(op.check(result))
    except Exception:  # a check that cannot even read the answer fails the op
        ok = False
    return latency, ok, result


def tail(rounds: List[List[tuple]]):
    """(value, percentile, ops): latency at the highest percentile leaving ten ops beyond it.

    A run of fewer than 20 ops has no such percentile worth the name; there
    the value is the median over rounds of each round's slowest op (p100).
    """
    ordered = sorted(rec[0] for rnd in rounds for rec in rnd)
    n = len(ordered)
    if n < 20:
        return statistics.median(max(rec[0] for rec in rnd) for rnd in rounds if rnd), 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


class Record:
    """Per-op (latency, ok, kind, info, failure) tuples grouped by round.

    Op ids count from 0 across rounds.  Only a failed op keeps a description
    of its inputs and outcome, so the record stays small on long runs.
    Latencies are adjusted for host speed (see `speed`); `measured` keeps
    the op times as read, in op order.
    """

    def __init__(self) -> None:
        self.rounds: List[List[tuple]] = []
        self.measured: List[float] = []
        self.starts = array("d")  # perf_counter time each op started, in op order
        self.speed_samples: List[tuple] = []  # (time, seconds)

    def ops(self):
        return [rec for rnd in self.rounds for rec in rnd]

    @property
    def attempted(self) -> int:
        return sum(len(r) for r in self.rounds)

    @property
    def failed(self) -> int:
        return sum(1 for rec in self.ops() if not rec[1])


def round_count(workload, seconds: float, traced: bool) -> int:
    """Rounds a run makes: the work that takes `seconds` on the reference machine.

    A traced run makes an even number, alternating traced and untraced
    rounds, and at least `workload.trace_rounds` pairs.
    """
    rounds = round(seconds * workload.rounds_per_s)
    if traced:
        return 2 * max(workload.trace_rounds, rounds // 2)
    return max(1, rounds)


def timed_loop(workload, seconds: float, tracer=None) -> Record:
    """Run a fixed number of rounds; with a tracer, the even-numbered ones traced.

    The work is fixed, not the time, so that every run of a seed sends the
    same ops and leaves the library's caches in the same state.  On a
    machine much slower than the reference, the cap stops the run early.
    """
    record = Record()
    t_start = time.perf_counter()
    op_id = 0
    since_sample = speed.EVERY_S
    for index in range(round_count(workload, seconds, tracer is not None)):
        traced = tracer is not None and index % 2 == 0
        results = []
        cut = False
        ops = workload.next_round()
        if traced:
            tracer.install()
        try:
            for op in ops:
                if time.perf_counter() - t_start > CAP_FACTOR * seconds + CAP_EXTRA_S:
                    cut = True
                    break
                if traced:
                    tracer.op_id = op_id
                if workload.collect_each_op:
                    gc.collect()
                if since_sample >= speed.EVERY_S:
                    record.speed_samples += speed.burst()
                    since_sample = 0.0
                start = time.perf_counter()
                latency, ok, result = run_op(op)
                record.starts.append(start)
                since_sample += latency
                failure = None if ok else f"{op.kind}{op.args!r}: {result!r}"
                results.append((latency, ok, op.kind, op.info, failure))
                op_id += 1
        finally:
            if traced:
                tracer.uninstall()
                tracer.op_id = -1
        record.rounds.append(results)
        if cut:
            break
    record.speed_samples += speed.burst()
    record.measured = [rec[0] for rnd in record.rounds for rec in rnd]
    factors = iter(speed.factors(record.speed_samples, record.starts, record.measured))
    for rnd in record.rounds:
        for k, rec in enumerate(rnd):
            rnd[k] = (rec[0] * next(factors),) + rec[1:]
    return record


def end_to_end(record: Record, workload_name: str, setup_times: List[float]):
    """End-to-end metrics and a note on how each was taken."""
    latencies = [rec[0] for rec in record.ops()]
    tail_value, tail_pct, tail_ops = tail(record.rounds)
    if workload_name == "cli-oneshot":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": (record.attempted - record.failed) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail_value * 1e3,
        "peak_rss_mb": rss_kb / 1024,
    }
    measured = record.measured
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups in fresh processes",
        "ops_per_s": f"verified ops / op time over {len(record.rounds)} rounds; "
        f"{(record.attempted - record.failed) / sum(measured):.6g} as measured",
        "op_p50_ms": f"{len(latencies)} ops; {statistics.median(measured) * 1e3:.6g} as measured",
        "op_tail_ms": f"p{tail_pct:.2f} of {tail_ops} ops"
        + (", median over rounds of the slowest op" if tail_ops < 20 else ""),
        "peak_rss_mb": "largest child process" if workload_name == "cli-oneshot" else "this process",
        "host_speed": f"times adjusted by {len(record.speed_samples)} speed samples; "
        f"reference loop median {statistics.median(s for _, s in record.speed_samples) * 1e3:.3f} ms, "
        f"nominal {speed.NOMINAL_S * 1e3:.3f} ms",
    }
    return metrics, notes


def time_setups(args, root: Path) -> List[float]:
    """Wall time of fresh processes from spawn until set-up is done, adjusted for host speed.

    A burst of speed samples is taken before each process and after the
    last; each time is scaled by the samples around it (`speed.factors`).
    """
    starts, times, samples = [], [], []
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0", "--setup-only",
    ]
    for _ in range(SETUP_REPEATS):
        samples += speed.burst()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=root) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up process failed with code {code}")
        starts.append(t0)
        times.append(elapsed)
    samples += speed.burst()
    return [t * f for t, f in zip(times, speed.factors(samples, starts, times))]


def _spawn_ms(cmd: List[str], env) -> float:
    # No timeout here: with one, `subprocess.run` polls for the exit at
    # growing intervals (63.5 ms, then 113.5 ms after the spawn), and the
    # time read would snap to those.
    times = []
    for _ in range(PROBE_SPAWNS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def spawn_probe(env) -> Dict[str, float]:
    """Bare interpreter start, and fresh-process `import wplarcs` beyond it.

    Taken before the timed phase: forking from a process grown by the
    run's caches and spans costs more and would inflate both.
    """
    interp = _spawn_ms([sys.executable, "-c", "pass"], env)
    imported = _spawn_ms([sys.executable, "-c", "import wplarcs"], env)
    return {"cli.interp_ms": interp, "cli.import_ms": imported - interp}


def main_probe(args, src: str) -> float:
    """Median in-process `cli.main` time over two rounds of the cli-oneshot commands."""
    from workloads import CliOneshot

    probe = CliOneshot(args.seed, src, in_process=True)
    probe.setup()
    return statistics.median(run_op(op)[0] for _ in range(2) for op in probe.next_round())


def traced_run(args, workload, src: str, root: Path):
    """Per-layer metrics from the spans of the first `trace_rounds` traced rounds."""
    from tracer import Tracer
    from workloads import CliOneshot
    from wplarcs.errors import SearchExhausted

    spawns = spawn_probe(CliOneshot(args.seed, src).env)
    tracer = Tracer()
    record = timed_loop(workload, args.seconds, tracer)
    pairs = len(record.rounds) // 2
    traced_rounds = record.rounds[0 : 2 * pairs : 2]
    plain_rounds = record.rounds[1 : 2 * pairs : 2]
    overhead = sum(rec[0] for rnd in traced_rounds for rec in rnd) / sum(
        rec[0] for rnd in plain_rounds for rec in rnd
    ) - 1

    sample_ids, first = [], 0
    for index, rnd in enumerate(record.rounds):
        if index % 2 == 0 and index < 2 * workload.trace_rounds:
            sample_ids.extend(range(first, first + len(rnd)))
        first += len(rnd)
    metrics = tracer.summary(sample_ids)

    letters = base = exhausted = 0
    for rnd in traced_rounds[: workload.trace_rounds]:
        for latency, ok, kind, info, failure in rnd:
            if kind != "normalize_to_theta":
                continue
            if ok:
                letters += info["letters"]
                base += info["scramble"] + info["shift"]
            elif SearchExhausted.__name__ in failure:
                exhausted += 1
    metrics["braid.word_len_ratio"] = letters / base if base else 0.0
    metrics["braid.search_exhausted"] = exhausted
    metrics["trace.overhead_ratio"] = overhead

    metrics.update(spawns)
    if workload.name == "cli-oneshot":
        main_s = statistics.median(rec[0] for rnd in plain_rounds for rec in rnd)
    else:
        main_s = main_probe(args, src)
    metrics["cli.main_ms"] = main_s * 1e3

    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    tracer.write(str(out / f"spans-{args.workload}.bin"))
    notes = {
        "trace.ops": f"{len(sample_ids)} traced ops give the counts and self times",
        "trace.spans": f"{len(tracer)} spans written to {OUT_DIR}/spans-{args.workload}.bin",
        "trace.overhead_ratio": f"traced over untraced op time, {pairs} round pairs, minus 1",
    }
    return record, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "wplarcs" / "__init__.py").is_file():
        print("perfbench: src/wplarcs not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import wplarcs

    if Path(wplarcs.__file__).resolve().parent != (src / "wplarcs").resolve():
        print(f"perfbench: imported wplarcs from {wplarcs.__file__}, not {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _alarm)
    workload = WORKLOADS[args.workload](args.seed, str(src), in_process=bool(args.trace))
    workload.setup()
    if args.setup_only:
        print("ready", flush=True)
        return 0

    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.trace:
        record, metrics, notes = traced_run(args, workload, str(src), root)
        wanted = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        record = timed_loop(workload, args.seconds)
        metrics, notes = end_to_end(record, args.workload, time_setups(args, root))
        wanted = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    failed = record.failed
    for latency, ok, kind, info, failure in record.ops():
        if failure:
            print(f"FAILED {failure}"[:400])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"attempted {record.attempted}  failed {failed}  fail_ratio {failed / max(1, record.attempted):.6f}")
    for name, unit in wanted.items():
        print(f"  {name:48s} {metrics[name]:>16.6f} {unit:6s} {notes.get(name, '')}")
    for name, note in notes.items():
        if name not in wanted:
            print(f"  {name:48s} {note}")
    result = {
        "correct": failed == 0 and record.attempted > 0,
        "attempted": record.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in wanted.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
