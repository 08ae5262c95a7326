"""Closed-loop benchmark of the polytoric command line, run in-process.

    python3 perfbench/run.py --workload cohomology --seed 1 --seconds 55 --trace 0

One client sends one op at a time: an op is a `polytoric.cli.main(argv)`
call on a JSON input generated from the seed, with stdout and stderr
captured. The CLI builds a fresh hull and face lattice on every call, so
every op is cold, as it is for a user running the command (minus
interpreter start). The process is pinned to one CPU (`pin_to_one_cpu`);
the program keeps its default thread pool. After one untimed warm-up op,
the run goes through its schedule (`corpus.schedule`: the fixed op list,
light ops twice, in a seeded order) in passes: the first pass always ends,
and the run stops at the first op that would start after ``--seconds``.
An op's latency is the
mean of its timings, so the latency percentiles average over the whole run
rather than over the moments a few ops happened to run. Afterwards every
report is checked against its oracle and against the sha256 digest
recorded for it in ``reference.json``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one pass
over the op list, every op untraced and then traced, and prints the
per-layer metrics. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. ``failed`` counts
every wrong report except the known defect (`oracles.KNOWN_DEFECT`), which
is counted on its own line.

``--record-reference`` runs every op any seed can draw and rewrites
``reference.json`` with the digest of each report that passes its oracle.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import corpus
import oracles
import tracer as tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")
SETUP_REPEATS = 15
TAIL_BEYOND = 10


class SetupError(Exception):
    pass


@dataclass
class Outcome:
    op: corpus.Op
    seconds: float
    code: int | None
    stdout: str
    error: str | None = None


# ---------------------------------------------------------------------------
# set-up


def import_program():
    """Import polytoric from this checkout's src/, never from elsewhere."""
    for name in [n for n in sys.modules if n.split(".")[0] == "polytoric"]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        cli = importlib.import_module("polytoric.cli")
    except ImportError as err:
        raise SetupError(f"cannot import polytoric from {SRC}: {err}") from None
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SetupError(f"polytoric was imported from {cli.__file__}, not from {SRC}")
    return cli


def pin_to_one_cpu() -> list[int] | None:
    """Keep this process, and the worker threads it starts later, on one CPU.

    The program's default pool runs its pure-Python workers under one GIL,
    so a second CPU adds no parallelism; it only adds cross-CPU hand-offs,
    whose cost on a shared host swings with the neighbours' load (a verify
    op on a polygon read 0.66 s spread over two vCPUs against 0.44 s on one,
    minutes apart). The pool itself keeps its default size and cost.
    Returns the CPUs the process could use before."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    return cpus


def setup(workload: str, seed: int, input_dir: str):
    """Import the program, generate and write the inputs; median of repeats."""
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(input_dir, ignore_errors=True)
        gc.collect()
        t0 = time.perf_counter()
        cli = import_program()
        ops = corpus.generate(workload, seed, input_dir)
        times.append(time.perf_counter() - t0)
    return cli, ops, statistics.median(times)


# ---------------------------------------------------------------------------
# the closed loop


def run_op(main, op: corpus.Op, input_dir: str) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(op.argv(input_dir))
    except Exception as exc:  # an op that raises is a failed op; the run goes on
        return Outcome(op, time.perf_counter() - t0, None, out.getvalue(), repr(exc))
    return Outcome(op, time.perf_counter() - t0, code, out.getvalue())


def warm_up(main, workload: str, ops: list[corpus.Op], input_dir: str) -> None:
    """Run one light op once, untimed and unchecked, so that first-call costs
    inside the program are paid before timing starts."""
    run_op(main, next((o for o in ops if corpus.repeats(workload, o) > 1), ops[0]), input_dir)


def run_timed(main, timed: list[corpus.Op], input_dir: str, seconds: float):
    """Passes over the schedule `timed`. The first pass always ends; after it
    the run stops at the first op that would start more than `seconds` after
    the first one. Returns the outcomes and the number of passes begun."""
    outcomes: list[Outcome] = []
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        passes += 1
        for op in timed:
            if passes > 1 and time.perf_counter() - start >= seconds:
                break
            outcomes.append(run_op(main, op, input_dir))
    return outcomes, passes


def run_traced(main, ops: list[corpus.Op], input_dir: str, tracer: tracing.Tracer):
    """One pass over the op list, every op twice back to back: untraced and
    then traced, so both see the same machine state. Returns the untraced
    outcomes, the traced ones and the op label of each traced "op" span."""
    plain: list[Outcome] = []
    traced: list[Outcome] = []
    labels: dict[int, str] = {}
    for op in ops:
        plain.append(run_op(main, op, input_dir))
        with tracer, tracer.span("op") as sid:
            traced.append(run_op(main, op, input_dir))
        labels[sid] = op.key
    return plain, traced, labels


# ---------------------------------------------------------------------------
# checking


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Checker:
    def __init__(self, polytoric, reference: dict[str, str]):
        self.ehrhart = oracles.EhrhartSource(polytoric)
        self.reference = reference
        self._verdicts: dict[tuple[str, str], str | None] = {}

    def verdict(self, o: Outcome, check_reference: bool = True) -> str | None:
        """None if the op's report is right, else the reason it is not."""
        if o.error is not None:
            return f"raised {o.error}"
        key = (o.op.key, o.stdout, o.code)
        if key not in self._verdicts:
            self._verdicts[key] = self._judge(o, check_reference)
        return self._verdicts[key]

    def _judge(self, o: Outcome, check_reference: bool) -> str | None:
        try:
            report = json.loads(o.stdout)
        except json.JSONDecodeError:
            return "stdout is not one JSON report"
        try:
            reason = oracles.check(o.op, o.code, report, self.ehrhart)
        except (KeyError, TypeError, ValueError, IndexError) as err:
            return f"malformed report: {err!r}"
        if reason is not None or not check_reference:
            return reason
        want = self.reference.get(o.op.key)
        if want is None:
            return "no reference digest recorded for this op"
        if digest(o.stdout) != want:
            return "report digest differs from the reference"
        return None


def tally(outcomes, checker: Checker):
    failed, known = [], []
    for o in outcomes:
        reason = checker.verdict(o)
        if reason == oracles.KNOWN_DEFECT:
            known.append(o)
        elif reason is not None:
            failed.append((o, reason))
    return failed, known


# ---------------------------------------------------------------------------
# metrics and the run record


def tail(latencies):
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it."""
    xs = sorted(latencies)
    i = max(len(xs) - 1 - TAIL_BEYOND, 0)
    return xs[i], 100.0 * (i + 1) / len(xs), len(xs) - 1 - i


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def run_record(args, ops, timings: int, passes: int, attempted: int, cpus) -> dict:
    parallel = sys.modules["polytoric.parallel"]
    workers = parallel.worker_count()
    record = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(cpus) if cpus else os.cpu_count(),
        "os_cpu_count": os.cpu_count(),
        "pinned_cpu": cpus[0] if cpus else None,
        "TORIC_THREADS": os.environ.get("TORIC_THREADS"),
        "effective_workers": workers,
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": len(ops),
        "timings": timings,
        "passes": passes,
        "repeats": {str(r): sum(corpus.repeats(args.workload, o) == r for o in ops)
                    for r in sorted({corpus.repeats(args.workload, o) for o in ops})},
        "attempted": attempted,
        "ops_by_command": {c: sum(o.command == c for o in ops) for c in sorted({o.command for o in ops})},
        "polytopes": sorted({o.polytope.name for o in ops}),
    }
    if cpus and workers > 1:
        record["oversubscribed"] = (
            f"the default pool of {workers} threads shares the one CPU the run is pinned to"
        )
    elif workers > record["nproc"]:
        record["oversubscribed"] = (
            f"the default pool of {workers} threads exceeds the {record['nproc']} cores available"
        )
    return record


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def report_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


# ---------------------------------------------------------------------------


def measure(args) -> int:
    input_dir = os.path.join(OUT, f"inputs-{args.workload}-{args.seed}-{os.getpid()}")
    cpus = pin_to_one_cpu()
    try:
        cli, ops, setup_s = setup(args.workload, args.seed, input_dir)
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)
        warm_up(cli.main, args.workload, ops, input_dir)
        if args.trace:
            tr = tracing.Tracer()
            outcomes, traced, labels = run_traced(cli.main, ops, input_dir, tr)
            passes = 1
        else:
            timed = corpus.schedule(args.workload, ops, args.seed)
            outcomes, passes = run_timed(cli.main, timed, input_dir, args.seconds)
            traced = []
    finally:
        shutil.rmtree(input_dir, ignore_errors=True)

    checker = Checker(sys.modules["polytoric"], reference)
    failed, known = tally(outcomes + traced, checker)
    for o, t in zip(outcomes, traced):
        if (t.stdout, t.code) != (o.stdout, o.code) and checker.verdict(t) in (None, oracles.KNOWN_DEFECT):
            failed.append((t, "traced report differs from the untraced one"))
    attempted = len(outcomes) + len(traced)
    per_op: dict[str, list[float]] = {}
    for o in outcomes:
        per_op.setdefault(o.op.key, []).append(o.seconds)
    latencies = [statistics.fmean(v) for v in per_op.values()]
    busy = sum(o.seconds for o in outcomes)
    tail_s, tail_pct, beyond = tail(latencies)
    end_to_end = {
        "ops_per_s": metric(len(latencies) / sum(latencies), "1/s"),
        "op_p50_s": metric(statistics.median(latencies), "s"),
        "op_tail_s": metric(tail_s, "s"),
        "failed_ops_ratio": metric((len(failed) + len(known)) / attempted, "ratio"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} ops, {len(outcomes)} timings "
          f"in {passes} pass(es) in {busy:.2f} s, one client, closed loop; "
          f"an op's latency is the mean of its timings")
    for name, m in end_to_end.items():
        print(f"{name} {m['value']:.4f} {m['unit']}")
    print(f"op_tail_s is p{tail_pct:.1f}: {beyond} of {len(latencies)} op latencies lie beyond it")
    print(f"failed_ops_ratio counts {len(failed)} failed and {len(known)} known-defect ops "
          f"of {attempted}; setup_s is the median of {SETUP_REPEATS} set-ups")
    if known:
        print(f"{oracles.KNOWN_DEFECT}: {len(known)} op(s), e.g. {known[0].op.key}")
    for o, reason in failed[:10]:
        print(f"FAILED {o.op.key}: {reason}")

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        layer, self_sum = tr.layer_metrics()
        traced_wall = sum(t.seconds for t in traced)
        layer["trace.overhead_ratio"] = traced_wall / busy - 1
        print(f"trace: {len(tr.start)} spans, listed self time {self_sum:.3f} s "
              f"of traced wall {traced_wall:.3f} s")
        if self_sum > traced_wall:
            failed.append((traced[0], "summed self time exceeds the traced wall time"))
        tr.write(stem + "-spans.tsv.gz", labels)
        metrics = {name: metric(layer[name], _unit(name)) for name in tracing.metric_names()}
    else:
        metrics = {k: v for k, v in end_to_end.items() if k != "failed_ops_ratio"}

    record = run_record(args, ops, len(outcomes), passes, attempted, cpus)
    print("record " + json.dumps(record, sort_keys=True))
    record["latencies_s"] = {}
    for o in outcomes:
        record["latencies_s"].setdefault(o.op.key, []).append(round(o.seconds, 6))
    record["failed"] = [[o.op.key, reason] for o, reason in failed]
    record["known_defect_ops"] = [o.op.key for o in known]
    with open(stem + "-record.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(f"run record written to {os.path.relpath(stem, ROOT)}-record.json")
    print(report_line(not failed, attempted, len(failed), metrics))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name == "parallel.workers":
        return "threads"
    return "count"


def record_reference() -> int:
    """Run every op of the catalogue once and store the digests of correct reports."""
    input_dir = os.path.join(OUT, "inputs-reference")
    cli = import_program()
    ops = corpus.all_ops()
    corpus.write_inputs({o.polytope.name: o.polytope for o in ops}.values(), input_dir)
    checker = Checker(sys.modules["polytoric"], {})
    reference, bad = {}, 0
    try:
        for op in ops:
            o = run_op(cli.main, op, input_dir)
            reason = checker.verdict(o, check_reference=False)
            if reason is None:
                reference[op.key] = digest(o.stdout)
            else:
                bad += reason != oracles.KNOWN_DEFECT
                print(f"{op.key}: {reason} (no reference recorded)")
    finally:
        shutil.rmtree(input_dir, ignore_errors=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{len(reference)} digests recorded, {bad} ops failed their oracle")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.record_reference:
            return record_reference()
        if args.workload is None:
            parser.error("--workload is required")
        return measure(args)
    except (SetupError, OSError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
