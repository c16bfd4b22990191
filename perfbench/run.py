"""lgphase benchmark: closed-loop CLI workloads, end-to-end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

One process, one client: an op is one in-process call of
``lgphase.cli.main(argv)`` with stdout and stderr captured, and the next op
starts when it returns.  Inputs come from ``perfbench/workloads.py`` and
the seed alone.  A run measures whole rounds (one op per stratum) until
the ops have taken ``--seconds`` of wall time, then checks every output.
Every op and every set-up is timed between two runs of the fixed kernel in
``perfbench/speed.py``, and its wall time is reported scaled to the
kernel's reference speed, so that the share of a shared host's cores this
process gets at the moment does not move the figures.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
plain loop, then replays its first rounds (at least ``REFERENCE_OPS`` ops),
each op once plain and once with spans recorded around the package's
public functions, checks that both replays printed the same bytes, and
prints the per-layer metrics and the tracing overhead.  Spans are written
to ``perfbench_out/``.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import spans
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PLAN = json.loads((HERE / "plan.json").read_text(encoding="utf-8"))
DIGESTS = HERE / "digests.json"
OUT = ROOT / "perfbench_out"

# p95 needs at least ten samples above it, so a run must complete 200 ops.
# The traced replay and the committed digests cover the first rounds that
# hold this many ops; their content depends on the seed only.
REFERENCE_OPS = 200
SETUP_REPEATS = 9


class Unavailable(Exception):
    """The package under test cannot be imported from this checkout."""


def load_cli():
    """Import ``lgphase.cli`` afresh from ``src/`` of this checkout."""
    for name in [m for m in sys.modules if m == "lgphase" or m.startswith("lgphase.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import lgphase.cli as cli
    except ImportError as e:
        raise Unavailable(f"cannot import lgphase from {SRC}: {e}") from None
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise Unavailable(f"lgphase was imported from {cli.__file__}, outside {SRC}")
    return cli


def setup(workload, seed):
    """Import the package and build round 0; median scaled time of several set-ups."""
    times = []
    for _ in range(SETUP_REPEATS):
        before = speed.time_kernel()
        t0 = perf_counter()
        cli = load_cli()
        first = workloads.build_round(workload, seed, 0)
        wall = perf_counter() - t0
        times.append(speed.scale(wall, before, speed.time_kernel()))
    return cli, first, statistics.median(times)


def invoke(cli, argv):
    """One op: ``(exit code, stdout, stderr)``; an exception is reported, not raised."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except Exception:
            traceback.print_exc()
            code = None
    return code, out.getvalue(), err.getvalue()


def digest(stdout):
    return hashlib.sha256(stdout.encode()).hexdigest()[:16]


class Run:
    """One run: every op's wall and scaled time, and the first ops kept for replay."""

    def __init__(self, cli, workload, seed, first_round):
        self.cli, self.workload, self.seed = cli, workload, seed
        self.first_round = first_round
        self.rounds = 0
        self.durations = []  # wall time of each op
        self.scaled = []  # the same, scaled to the kernel's reference speed
        self.kernels = []  # kernel times, one before and one after each op
        # (op, duration, exit code, stdout digest) of the first reference ops;
        # later ops are not kept, so memory does not grow with the op count
        self.reference = []
        self.keep = reference_ops(first_round)
        self.failures = []  # (op index, message)

    def measure(self, seconds, min_ops):
        """Run whole rounds until ``seconds`` of op time and ``min_ops`` ops."""
        timed = 0.0
        while timed < seconds or len(self.durations) < min_ops:
            ops = (self.first_round if self.rounds == 0
                   else workloads.build_round(self.workload, self.seed, self.rounds))
            results = []
            kernels = [speed.time_kernel()]
            for op in ops:
                t0 = perf_counter()
                code, stdout, stderr = invoke(self.cli, op.argv)
                dt = perf_counter() - t0
                kernels.append(speed.time_kernel())
                results.append((op, dt, code, stdout, stderr))
                timed += dt
            self.kernels.extend(kernels)
            for k, (op, dt, code, stdout, stderr) in enumerate(results):
                self.scaled.append(speed.scale(dt, kernels[k], kernels[k + 1]))
                self._check(op, code, stdout, stderr)
                if len(self.reference) < self.keep:
                    self.reference.append((op, dt, code, digest(stdout)))
                self.durations.append(dt)
            self.rounds += 1
        return timed

    def _check(self, op, code, stdout, stderr):
        index = len(self.durations)
        try:
            if code is None:
                raise workloads.CheckFailed("raised:\n" + stderr)
            workloads.check(op, code, stdout, self.workload)
        except workloads.CheckFailed as e:
            self.failures.append((index, f"{op.stratum}: {e}"))
        except (KeyError, TypeError, ValueError, IndexError) as e:
            self.failures.append((index, f"{op.stratum}: malformed output ({e!r})"))

    def fail(self, index, message):
        self.failures.append((index, message))


def reference_ops(first_round):
    """Ops in the first whole rounds that hold ``REFERENCE_OPS`` ops."""
    return -(-REFERENCE_OPS // len(first_round)) * len(first_round)


def input_digest(run):
    """Digest of the argv of the reference ops, in run order."""
    h = hashlib.sha256()
    for op, *_ in run.reference:
        h.update(json.dumps(op.argv).encode())
    return h.hexdigest()[:16]


def check_committed_digests(run):
    """Byte-identical stdout on the committed seed, op by op."""
    if run.seed != PLAN["committed_seed"] or not DIGESTS.exists():
        return None
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))[run.workload]
    got = [d for _, _, _, d in run.reference]
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            run.fail(i, f"stdout differs from the committed digest ({g} != {w})")
    return sum(g == w for g, w in zip(got, want)), len(want)


def op_time_metrics(durations):
    """Throughput and quantiles of a list of op times in seconds."""
    return {
        "ops_per_s": (len(durations) / sum(durations), "1/s"),
        "op_p50_ms": (statistics.median(durations) * 1e3, "ms"),
        "op_p95_ms": (statistics.quantiles(durations, n=20, method="inclusive")[18] * 1e3, "ms"),
    }


def end_to_end(run, setup_s):
    return {
        **op_time_metrics(run.scaled),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced_replay(run):
    """Replay each reference op plain, then traced; returns the tracer and both op times.

    Alternating the two per op keeps warm-up and machine drift out of the
    tracing overhead.  Both replays must print what the measured run printed.
    """
    tracer = spans.Tracer()
    plain_s = traced_s = 0.0
    try:
        for k, (op, _, code, want) in enumerate(run.reference):
            t0 = perf_counter()
            plain = invoke(run.cli, op.argv)
            t1 = perf_counter()
            tracer.install()
            tracer.op_id = k
            t2 = perf_counter()
            traced = invoke(run.cli, op.argv)
            t3 = perf_counter()
            tracer.uninstall()
            plain_s += t1 - t0
            traced_s += t3 - t2
            for kind, (got_code, stdout, _) in (("plain", plain), ("traced", traced)):
                if (got_code, digest(stdout)) != (code, want):
                    run.fail(k, f"{op.stratum}: {kind} replay output differs from the measured run")
    finally:
        tracer.uninstall()
    return tracer, plain_s, traced_s


def report_trace(run, tracer, plain_s, traced_s):
    count = len(run.reference)
    metrics, missing = spans.layer_metrics(tracer, count, run.workload)
    print(f"traced ops: the first {count} of the measured run, each replayed plain and traced")
    print(f"tracing overhead: traced {count / traced_s:.2f} ops/s vs plain "
          f"{count / plain_s:.2f} ops/s (x{traced_s / plain_s:.3f} time)")
    for name in missing:
        print(f"MISSING: {name} saw no call on {run.workload}, the workload meant to exercise it")
    by_function = sorted(
        ((v, k[: -len(".self_s")]) for k, v in metrics.items() if k.endswith(".self_s")), reverse=True)
    by_layer = sorted(((v, k) for k, v in spans.self_time_by_layer(metrics).items()), reverse=True)
    predicted = PLAN["predicted_top_self_time"][run.workload]
    top = [by_function[0][1], by_layer[0][1]]
    verdict = "matches" if set(top) & set(predicted) else "DIFFERS FROM"
    print(f"top self time by function: {', '.join(f'{n} {v:.3f}s' for v, n in by_function[:5])}")
    print(f"top self time by layer: {', '.join(f'{n} {v:.3f}s' for v, n in by_layer[:4])}")
    print(f"top function {top[0]}, top layer {top[1]}: {verdict} the prediction {predicted}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{run.workload}-{run.seed}.jsonl"
    tracer.write(path)
    summary = {
        "workload": run.workload, "seed": run.seed, "ops": count,
        "plain_s": plain_s, "traced_s": traced_s, "missing": missing,
        "top_self_time": top, "predicted": predicted, "metrics": metrics,
    }
    (OUT / f"layers-{run.workload}-{run.seed}.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(f"spans: {len(tracer.start)} written to {path.relative_to(ROOT)}")
    units = {name: unit for name, unit, _ in spans.layer_metric_names()}
    return {name: (value, units[name]) for name, value in metrics.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli, first, setup_s = setup(args.workload, args.seed)
    except Unavailable as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    run = Run(cli, args.workload, args.seed, first)
    timed = run.measure(args.seconds, REFERENCE_OPS)
    committed = check_committed_digests(run)

    ops = len(run.durations)
    print(f"workload {args.workload}, seed {args.seed}: {ops} ops in "
          f"{run.rounds} rounds, {timed:.3f} s of op time")
    print(f"input digest (first {len(run.reference)} ops): {input_digest(run)}")
    if committed is not None:
        print(f"committed stdout digests: {committed[0]}/{committed[1]} identical")
    if args.trace:
        metrics = report_trace(run, *traced_replay(run))
    else:
        metrics = end_to_end(run, setup_s)
        beyond = sum(1 for dt in run.scaled if dt * 1e3 > metrics["op_p95_ms"][0])
        wall = op_time_metrics(run.durations)
        print(f"kernel: median {statistics.median(run.kernels) * 1e6:.1f} us over {len(run.kernels)} runs, "
              f"reference {speed.REFERENCE_S * 1e6:.1f} us; figures below are scaled to the reference")
        for name, (value, unit) in metrics.items():
            extra = f"  (n={ops}, {beyond} above)" if name == "op_p95_ms" else ""
            if name in wall:
                extra += f"  [unscaled wall: {wall[name][0]:.4f}]"
            print(f"{name:>12} {value:12.4f} {unit}{extra}")
    failed = len({i for i, _ in run.failures})
    print(f"{'failed_ratio':>12} {failed / ops:12.4f} ({failed}/{ops})")
    for i, message in run.failures[:5]:
        print(f"op {i} failed: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ops,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
