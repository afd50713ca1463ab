"""One benchmark process: set up a workload, time its passes, check every output.

Run by run.py as a script (run.py imports it only for its constants).
Prints one JSON line with the set-up time, every pass and operation
time, peak memory, the counts of attempted and failed operations and,
for traced passes, the per-layer metrics.

Set-up time runs from --spawned-at (taken by run.py just before it
started this interpreter) to the first timed operation, less the time
spent checking outputs; it covers the interpreter, the import, input
generation and, for warm workloads, one untimed pass.

A cold workload runs one pass.  A stream workload runs passes until the
next one would end later than --budget seconds after --spawned-at, but
at least until MIN_SESSION_SAMPLES untraced operations have been timed;
with --trace 1 its passes alternate untraced and traced, starting
untraced.

The first output of each operation is checked in a forked child
process, so the reference arithmetic of the check does not count
toward this process's peak memory, which is a metric.

Every untraced pass runs under hostspeed.Sampler: each operation's
time is recorded less the probes that ran inside it, with the host
speed factor around it, and set-up with the factor measured right after
it.  run.py scales the times by these factors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# run.py runs a stream workload as STREAM_SESSIONS processes; together they
# time at least MIN_STREAM_SAMPLES operations, so the 90th percentile of
# latency has ten samples beyond it
STREAM_SESSIONS = 3
MIN_STREAM_SAMPLES = 100
MIN_SESSION_SAMPLES = math.ceil(MIN_STREAM_SAMPLES / STREAM_SESSIONS)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--budget", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file")
    parser.add_argument("--print-digests", action="store_true",
                        help="print the sha256 of every output instead of timing")
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import cliffpoly as lib
    import workloads

    make_ops, cold, warm, seeded = workloads.WORKLOADS[args.workload]
    ops = make_ops(lib, args.seed)
    recorded = None
    if not args.print_digests and (not seeded or args.seed == workloads.DEFAULT_SEED):
        with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
            recorded = json.load(fh).get(args.workload)

    run = Runner(recorded)
    if args.print_digests:
        for op in ops:
            run.execute(op)
        print(json.dumps(run.digests, indent=1, sort_keys=True))
        return 0 if not run.failures else 1
    if warm:
        for op in ops:
            run.execute(op)
    setup_s = time.monotonic() - args.spawned_at - run.check_s
    setup_speed = hostspeed.burst_speed()

    tracers = []
    deadline = args.spawned_at + args.budget
    while True:
        traced = bool(args.trace) and (cold or len(run.passes) % 2 == 1)
        tracer = None
        if traced:
            from spans import Tracer
            tracer = Tracer()
            tracers.append(tracer)
        run.timed_pass(ops, tracer)
        if cold:
            break
        samples = sum(len(p["ops_ms"]) for p in run.passes if not p["traced"])
        enough = samples >= MIN_SESSION_SAMPLES and (not args.trace or len(run.passes) >= 2)
        if enough and time.monotonic() + run.passes[-1]["seconds"] > deadline:
            break

    if args.trace_file and tracers:
        header = {"workload": args.workload, "seed": args.seed}
        with open(args.trace_file, "w", encoding="utf-8") as fh:
            for i, tracer in enumerate(tracers):
                tracer.write(fh, {**header, "pass": i})

    print(json.dumps({
        "setup_s": setup_s,
        "setup_speed": setup_speed,
        "passes": run.passes,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures[:5],
        "missing": sorted({name for t in tracers for name in t.missing}),
    }))
    return 0


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def checked_digest(op, result) -> str:
    """Check result with op.check in a forked child; return the digest of its output text."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: check, reply, and exit without any clean-up of the parent's
        status = 1
        try:
            os.close(read_fd)
            try:
                reply = {"digest": sha256(op.check(result))}
            except Exception as exc:  # the failed check is the reply
                reply = {"error": f"{type(exc).__name__}: {exc}"}
            with os.fdopen(write_fd, "w", encoding="utf-8") as fh:
                json.dump(reply, fh)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, encoding="utf-8") as fh:
        text = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not text:
        raise RuntimeError(f"the check process ended with status {status} and no reply")
    reply = json.loads(text)
    if "error" in reply:
        raise ValueError(reply["error"])
    return reply["digest"]


def output_bytes(result) -> int:
    """Bytes a request wrote as its answer: CLI stdout, or the JSON of an h_action."""
    if isinstance(result, tuple):
        return len(result[1])
    return len(result) if isinstance(result, str) else 0


class Runner:
    """Executes operations, times them and checks their outputs.

    The first execution of an operation is checked in full, in a forked
    child; later ones must reproduce its output byte for byte.  Where a digest was recorded
    for the operation, the output must match it too.
    """

    def __init__(self, recorded: dict | None):
        self.recorded = recorded
        self.digests: dict[str, str] = {}
        self.passes: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.check_s = 0.0

    def execute(self, op, tracer=None):
        """Run op once; return (perf_counter at start and at end, output bytes or 0)."""
        self.attempted += 1
        root = tracer.open("op") if tracer is not None else None
        start = time.perf_counter()
        try:
            result = op.run()
            error = None
        except Exception as exc:  # the operation failed; record it and go on
            result, error = None, f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        if root is not None:
            tracer.close(root)
            tracer.uninstall()
        check_start = time.perf_counter()
        if error is None:
            try:
                self._record(op, result)
            except Exception as exc:  # a failed check, or a result too malformed to check
                error = f"check: {exc}"
        self.check_s += time.perf_counter() - check_start
        if tracer is not None:
            tracer.install()
        if error is not None:
            self.failed += 1
            self.failures.append(f"{op.name}: {error}")
        return start, end, output_bytes(result)

    def _record(self, op, result) -> None:
        if op.name in self.digests and isinstance(result, (tuple, str)):
            rc, text = result if isinstance(result, tuple) else (0, result)
            if rc != 0:
                raise ValueError(f"exit code {rc}")
            digest = sha256(text)
        else:
            digest = checked_digest(op, result)
        first = self.digests.setdefault(op.name, digest)
        if digest != first:
            raise ValueError("output differs from this operation's earlier output")
        if self.recorded is not None and self.recorded.get(op.name) != digest:
            raise ValueError("output differs from the recorded digest")

    def timed_pass(self, ops, tracer=None) -> None:
        """Run every op once, timed; traced when tracer is given, sampled for host speed when not."""
        sampler = hostspeed.Sampler() if tracer is None else None
        spans, bytes_out = [], 0
        if tracer is not None:
            tracer.install()
        else:
            sampler.start()
        try:
            for op in ops:
                start, end, nbytes = self.execute(op, tracer)
                spans.append((start, end))
                bytes_out += nbytes
        finally:
            if tracer is not None:
                tracer.uninstall()
            else:
                sampler.stop()
        if sampler is not None:
            scaled = [sampler.scale(start, end) for start, end in spans]
            ops_ms = [seconds * 1e3 for seconds, _ in scaled]
            record = {"traced": False, "speed": [factor for _, factor in scaled]}
        else:
            ops_ms = [(end - start) * 1e3 for start, end in spans]
            record = {"traced": True, "layers": {**tracer.layer_metrics(), "cli.bytes_out": bytes_out}}
        self.passes.append({**record, "seconds": sum(ops_ms) / 1e3, "ops_ms": ops_ms})


if __name__ == "__main__":
    sys.exit(main())
