"""egpkit benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload faces --seed 1 --seconds 32 --trace 0

One process and one thread run the ops; each op starts when the previous one
has returned. The ops come in passes (see workloads.py): every pass runs the
same ops in the same order on fresh inputs of the same shapes, so the op at
a given position does the same work in every pass. A run makes PASSES
passes, and each position's latency is its median over them. On a shared
2-core AMD EPYC VM, other tenants slow a fixed loop by 1.6-1.8x for periods
of one to several seconds, and a pass that falls in such a period counts
for one of three. The corpus grows with --seconds (see
Workload.slots_for). Every output is checked outside the timed region.

--trace 0 prints the end-to-end metrics. The same passes run under
`python -O` in a child process, one after each pass of the default
interpreter, so that the passes of both spread over the whole run; the
two processes never run at once.
--trace 1 makes one pass with a span around every public egpkit function,
writes the spans to bench/out/, derives the per-layer metrics from that
file, and times the same pass untraced in a child process for
trace.overhead_ratio.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The lines before it list every metric with its unit,
the provenance of the run and the output digest. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

SETUP_CHILDREN = 8  # set-up is a fraction of a second: report the median of nine
PASSES = 3  # timed passes; each op position reports its median
TRACE_PASSES = 1  # the pass count is fixed, so traced counts repeat exactly for a seed
CHILD_TIMEOUT_S = 150


class ProgramMissing(Exception):
    pass


def import_program():
    """Import egpkit from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import egpkit
    except ImportError as e:
        raise ProgramMissing(f"cannot import egpkit from {src}: {e}") from None
    if not Path(egpkit.__file__).resolve().is_relative_to(src.resolve()):
        raise ProgramMissing(f"egpkit imported from {egpkit.__file__}, not from {src}")
    import workloads

    return workloads


def set_up(name, seed, seconds, workdir):
    """Import egpkit, build pass 0's inputs (and its documents), run one
    warm-up op. Returns the workload and the seconds it took."""
    t0 = time.perf_counter()
    workloads = import_program()
    cls = workloads.WORKLOADS[name]
    wl = cls(seed, workdir, cls.slots_for(seconds))
    wl.pass_ops(0)
    wl.warm_up()
    return wl, time.perf_counter() - t0


class Phase:
    """Latencies per pass, failures and the output digest of one timed phase."""

    def __init__(self):
        self.passes = []  # one list of op latencies per pass, in op order
        self.failed = 0
        self.digest = hashlib.sha256()
        self.first_error = None

    @property
    def latencies(self):
        return [dt for lat in self.passes for dt in lat]

    @property
    def busy_s(self):
        return sum(self.latencies)

    def per_op(self):
        """Each op position's median latency over the passes."""
        return [statistics.median(col) for col in zip(*self.passes)]

    def summary(self):
        return {
            "attempted": len(self.latencies),
            "failed": self.failed,
            "busy_s": self.busy_s,
            "passes": len(self.passes),
            "per_op": self.per_op(),
            "digest": self.digest.hexdigest(),
            "first_error": self.first_error,
        }


def measure(wl, passes, tracer=None):
    """Run `passes` passes of the workload's ops."""
    phase = Phase()
    for _ in range(passes):
        measure_pass(wl, phase, tracer)
    return phase


def measure_pass(wl, phase, tracer=None):
    """Run the workload's next pass and add it to `phase`."""
    clock = time.perf_counter
    op_id = len(phase.latencies)
    ops = wl.pass_ops(len(phase.passes))  # later passes are built here, untimed
    lat = []
    for op in ops:
        out, error = None, None
        if tracer is not None:
            tracer.op_id = op_id
        t = clock()
        try:
            out = op.run()
        except (Exception, SystemExit) as e:  # an op failure is counted, not fatal
            error = e
        dt = clock() - t
        if tracer is not None:
            tracer.op_id = -1
        if error is None:
            try:
                canon = op.check(out)
            except Exception as e:  # a failed check counts like a failed op
                error = e
        lat.append(dt)
        if error is not None:
            phase.failed += 1
            if phase.first_error is None:
                phase.first_error = f"{op.kind}: " + "".join(
                    traceback.format_exception_only(type(error), error)).strip()
                traceback.print_exception(error, file=sys.stderr)
            canon = f"failed {op.kind}"
        phase.digest.update(canon.encode() + b"\n")
        op_id += 1
    phase.passes.append(lat)


def tail(latencies):
    """Latency at the highest percentile with at least ten samples beyond
    it, that percentile, and the sample count."""
    xs = sorted(latencies)
    n = len(xs)
    k = max(n - 11, 0)
    return xs[k], 100.0 * (k + 1) / n, n


def child_cmd(args, role, *extra, python_flags=()):
    """This script for the same workload, seed and corpus, in another role."""
    return [sys.executable, *python_flags, str(Path(__file__).resolve()), "--role", role,
            "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]


def run_child(args, role, *extra, python_flags=()):
    """Run this script in a child process and return the JSON object on its
    last stdout line."""
    cmd = child_cmd(args, role, *extra, python_flags=python_flags)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"child {role} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Worker:
    """The workload in a child process that runs its next pass only when
    asked, so that its passes interleave with ours and the two processes
    never run at once. Use as a context manager: leaving it stops and
    reaps the child on every path."""

    def __init__(self, args, python_flags=()):
        self.proc = subprocess.Popen(child_cmd(args, "worker", python_flags=python_flags), cwd=ROOT,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self):
        try:
            if self._reply() != "ready":
                raise RuntimeError("worker did not start")
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()

    def _reply(self):
        ready, _, _ = select.select([self.proc.stdout], [], [], CHILD_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError(f"worker gave no reply (exit code {self.proc.poll()})")
        return line.strip()

    def run_pass(self):
        self.proc.stdin.write("pass\n")
        self.proc.stdin.flush()
        return json.loads(self._reply())

    def finish(self):
        """Close the worker's input; return its summary."""
        self.proc.stdin.close()
        summary = json.loads(self._reply())
        if self.proc.wait(timeout=CHILD_TIMEOUT_S) != 0:
            raise RuntimeError(f"worker exited with {self.proc.returncode}")
        return summary


def serve(wl):
    """The worker role: one pass per line read from stdin, then the summary.
    Replies go to the real stdout; anything else printed goes to stderr."""
    reply, sys.stdout = sys.stdout, sys.stderr
    phase = Phase()
    print("ready", file=reply, flush=True)
    for _ in sys.stdin:
        measure_pass(wl, phase)
        print(json.dumps(phase.passes[-1]), file=reply, flush=True)
    print(json.dumps(phase.summary()), file=reply, flush=True)


def provenance(args, extra):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu_model(),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        **extra,
    }


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest():
    """sha256 over the program's source files, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def add_ns_probe():
    """Median time of one ExtValue addition, tracing off."""
    from fractions import Fraction

    from egpkit.values import ExtValue

    a, b = ExtValue(Fraction(7, 3)), ExtValue(Fraction(5, 2))
    loops, samples = 20000, []
    for _ in range(7):
        t = time.perf_counter_ns()
        for _ in range(loops):
            a + b
        samples.append((time.perf_counter_ns() - t) / loops)
    return statistics.median(samples)


def emit(args, metrics, phase, child, label, extra):
    """Count the ops of this process and of its child, print the report
    lines, then the result object as the last line."""
    attempted = len(phase.latencies) + child["attempted"]
    failed = phase.failed + child["failed"]
    same = child["digest"] == phase.digest.hexdigest()
    prov = provenance(args, {"ops": len(phase.latencies), "passes": len(phase.passes),
                             "ops_per_pass": len(phase.passes[0]), "busy_s": phase.busy_s, **extra})
    info = {
        "digest": f"sha256:{phase.digest.hexdigest()}, {label} {'same' if same else 'DIFFERENT'}",
        "failed_ops_ratio": f"{failed / attempted:.6g} ratio ({failed}/{attempted})",
    }
    first_error = phase.first_error or child.get("first_error")
    if first_error:
        info["first_error"] = first_error
    print("provenance " + json.dumps(prov, sort_keys=True))
    for key, line in info.items():
        print(f"{key} {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<45} {value:>16.6g} {unit}")
    result = {
        "correct": failed == 0 and same,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({**result, **info, "provenance": prov}, indent=1, sort_keys=True))
    print(json.dumps(result))


def main_untraced(args, wl, setup_s):
    phase = Phase()
    with Worker(args, python_flags=["-O"]) as worker:
        for _ in range(PASSES):
            measure_pass(wl, phase)
            worker.run_pass()
        opt = worker.finish()
    setups = [setup_s] + [run_child(args, "setup")["setup_s"] for _ in range(SETUP_CHILDREN)]
    per_op = phase.per_op()
    t, pct, n = tail(per_op)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(per_op) / sum(per_op), "1/s"),
        "op_p50_ms": (statistics.median(per_op) * 1e3, "ms"),
        "op_tail_ms": (t * 1e3, "ms"),
        "ops_per_s_O": (len(opt["per_op"]) / sum(opt["per_op"]), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    emit(args, metrics, phase, opt, "-O", {
        "ops_O": opt["attempted"], "busy_s_O": opt["busy_s"],
        "op_tail_percentile": pct, "op_tail_samples": n, "setup_samples_s": setups,
    })


def main_traced(args, wl):
    import tracer as tr

    add_ns = add_ns_probe()
    t = tr.Tracer()
    t.install()
    try:
        phase = measure(wl, TRACE_PASSES, tracer=t)
    finally:
        t.uninstall()
    path = OUT / f"spans-{args.workload}.bin.gz"
    t.write(path, {"workload": args.workload, "seed": args.seed, "passes": TRACE_PASSES})
    del t  # free the spans held in memory before loading them back from the file
    metrics = tr.layer_metrics(tr.load_spans(path))
    ref = run_child(args, "measure")
    metrics["values.add_ns"] = (add_ns, "ns")
    metrics["trace.overhead_ratio"] = (phase.busy_s / ref["busy_s"], "ratio")
    emit(args, metrics, phase, ref, "untraced", {
        "busy_s_untraced": ref["busy_s"], "spans_file": str(path.relative_to(ROOT)),
    })


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("faces", "invariants", "session"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=32)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("main", "setup", "measure", "worker"), default="main",
                    help="internal: the child processes of a run")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        wl, setup_s = set_up(args.workload, args.seed, args.seconds, workdir)
        if args.role == "setup":
            print(json.dumps({"setup_s": setup_s}))
        elif args.role == "measure":
            phase = measure(wl, TRACE_PASSES)
            print(json.dumps(phase.summary()))
        elif args.role == "worker":
            serve(wl)
        elif args.trace:
            main_traced(args, wl)
        else:
            main_untraced(args, wl, setup_s)
    except ProgramMissing as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
