"""Benchmark of the multinorm-sha command line, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The package is imported from ``src/`` of
that checkout and driven only through ``multinorm_sha.cli.main(argv)``, the
function behind the console script, with its output captured.  One process
and one thread run the operations back to back (a closed loop).

A run repeats whole rounds until ``--seconds`` have passed.  Each round
re-imports the package, so it starts with the cold module caches of a new
CLI process, and writes its input documents; that is the round's set-up.
Then it runs the workload's operations in order and checks every output.
Every timed step is timed in CPU time and scaled to a reference speed of
the host by a probe timed around it (:class:`HostSpeed`).
With ``--trace 1``, rounds alternate untraced and traced, and the result
holds the per-layer metrics of the traced rounds instead (see README.md).

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("abelian", "fields", "places", "oracle", "structure", "kummer", "selftest", "cli")


def cpu_seconds() -> float:
    """CPU time of this process, all its threads, and its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class HostSpeed:
    """Times a step in CPU seconds at a reference speed of the host.

    The host slows the benchmark in two ways (see README.md).  The
    hypervisor takes the vCPU away now and then; the guest kernel accounts
    that as steal time, apart from the process's CPU time, so steps are
    timed in CPU time.  And other tenants on the same cores slow every
    instruction, by up to 1.7x for seconds or minutes, which CPU time keeps.
    So before and after every step the benchmark times a probe, a fixed
    piece of pure-Python work that calls no code of the package, and
    multiplies the step's CPU time by REFERENCE_S over the probe's mean CPU
    time around it.  A change to the program moves the step and not the
    probe, so it shows in full.
    """

    # about the probe's time in a quiet phase of the development host
    REFERENCE_S = 0.0004

    @staticmethod
    def _work() -> int:
        acc = 0
        seen = {}
        for i in range(1500):
            v = (i * 7919 + 3) % 251
            key = (v, i & 15)
            seen[key] = seen.get(key, 0) + 1
            acc += v * v % 13
        return acc + len(seen)

    def probe(self) -> float:
        """The probe's CPU time now: the median of three back-to-back repeats."""
        times = []
        for _ in range(3):
            t = time.process_time()
            self._work()
            times.append(time.process_time() - t)
        return statistics.median(times)

    def timed(self, before, step):
        """(result, scaled seconds, wall seconds, probe time after) of step()."""
        t, c = time.perf_counter(), cpu_seconds()
        result = step()
        cpu, wall = cpu_seconds() - c, time.perf_counter() - t
        after = self.probe()
        return result, cpu * 2 * self.REFERENCE_S / (before + after), wall, after


def load_package() -> dict:
    """Import the package afresh from the checkout's ``src/``."""
    if not (SRC / "multinorm_sha" / "__init__.py").is_file():
        raise ImportError(f"no multinorm_sha package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n.split(".")[0] == "multinorm_sha"]:
        del sys.modules[name]
    modules = {name: importlib.import_module(f"multinorm_sha.{name}") for name in MODULES}
    origin = Path(modules["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"multinorm_sha was imported from {origin}, not from {SRC}")
    return modules


def run_command(cli, argv) -> tuple[int | str, str, str]:
    """One CLI command in-process: (exit code or exception name, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception as exc:  # an escaping exception is a failed operation
            rc = type(exc).__name__
            err.write(f"{rc}: {exc}\n")
    return rc, out.getvalue(), err.getvalue()


class Round:
    """Set-up, then every operation of the workload once, timed and scaled."""

    def __init__(self, build, seed, workdir, speed, tracer=None):
        gc.collect()
        probe = speed.probe()
        (modules, self.ops), self.setup_s, _, probe = speed.timed(
            probe, lambda: (load_package(), build(seed, workdir)))
        if tracer is not None:
            tracer.install(modules)
        cli = modules["cli"]
        self.op_s, self.raw_op_s, self.probe_s = [], [], [probe]
        for index, op in enumerate(self.ops):
            if tracer is not None:
                tracer.current_op = index
            (op.rc, op.stdout, op.stderr), scaled, raw, probe = speed.timed(
                probe, lambda: run_command(cli, op.argv))
            self.op_s.append(scaled)
            self.raw_op_s.append(raw)
            self.probe_s.append(probe)
        self.problems = []
        for op in self.ops:
            if op.rc == 0:
                try:
                    self.problems += op.check(op.stdout)
                except (ValueError, KeyError, TypeError, IndexError) as exc:
                    self.problems.append(f"{' '.join(op.argv[:2])}: unreadable output: {exc!r}")
            elif op.rc == 4:
                self.problems.append(f"{' '.join(op.argv[:2])}: routes disagree (exit 4)")
        self.failed = sum(op.rc != 0 for op in self.ops)


def median_op_s(rounds, raw=False) -> list[float]:
    """Each operation's median time over the rounds: scaled, or wall if raw."""
    return [statistics.median(times)
            for times in zip(*(r.raw_op_s if raw else r.op_s for r in rounds))]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(rounds, peak_rss_mib) -> dict:
    per_op = median_op_s(rounds)
    # a failed operation counts as slower than any answered one
    answered = [t if op.rc == 0 else float("inf") for t, op in zip(per_op, rounds[-1].ops)]
    return {
        "setup_s": _metric(statistics.median(r.setup_s for r in rounds), "s"),
        "wall_s": _metric(sum(per_op), "s"),
        "op_ms_p50": _metric(1000 * statistics.median(answered), "ms"),
        "peak_rss_mib": _metric(peak_rss_mib, "MiB"),
    }


PER_LAYER_UNITS = {"_s": "s", "_us": "us"}


def per_layer(layers, plain, traced_rounds) -> dict:
    """Per-layer metrics of the fastest traced round, metric by metric."""
    out = {}
    for name in layers[0]:
        unit = next((u for suffix, u in PER_LAYER_UNITS.items() if name.endswith(suffix)), "count")
        out[name] = _metric(min(m[name] for m in layers), unit)
    traced_wall = sum(median_op_s(traced_rounds))
    out["trace.wall_s"] = _metric(traced_wall, "s")
    out["trace.overhead_s"] = _metric(traced_wall - sum(median_op_s(plain)), "s")
    out["host.raw_wall_s"] = _metric(sum(median_op_s(plain, raw=True)), "s")
    probes = [p for r in plain for p in r.probe_s]
    out["host.slowdown"] = _metric(statistics.median(probes) / HostSpeed.REFERENCE_S, "x")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="also write the traced rounds' spans (JSON lines) here")
    args = parser.parse_args(argv)
    build, final_check = workloads.WORKLOADS[args.workload]

    try:
        load_package()
    except ImportError as exc:
        print(f"cannot import the package: {exc}", file=sys.stderr)
        return 2

    plain, traced_rounds, layers = [], [], []
    rnd = None
    speed = HostSpeed()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        deadline = time.perf_counter() + args.seconds
        while True:
            trace_this = args.trace == 1 and len(plain) > len(traced_rounds)
            tracer = spans.Tracer() if trace_this else None
            for op in rnd.ops if rnd else ():
                op.stdout = ""  # only the last round's outputs are needed later
            started = time.perf_counter()
            rnd = Round(build, args.seed, workdir, speed, tracer)
            if tracer is None:
                plain.append(rnd)
            else:
                traced_rounds.append(rnd)
                layers.append(spans.layer_metrics(tracer))
                if args.spans:
                    tracer.write(args.spans)
            # start another round only if most of it fits before the deadline
            now = time.perf_counter()
            enough = not args.trace or traced_rounds
            if enough and now + (now - started) / 2 >= deadline:
                break
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        rounds = plain + traced_rounds
        problems = [p for r in rounds for p in r.problems]
        if final_check is not None:
            cli = load_package()["cli"]
            problems += final_check(
                args.seed, workdir, rnd.ops, lambda argv: run_command(cli, argv)
            )

    failures = {
        f"{Path(op.argv[1]).name if len(op.argv) > 1 else ''} {op.argv[0]}: "
        f"exit {op.rc}: {op.stderr.strip()[:200]}"
        for r in rounds for op in r.ops if op.rc != 0
    }
    for line in sorted(failures):
        print(f"FAILED: {line}", file=sys.stderr)
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(layers, plain, traced_rounds)
    else:
        metrics = end_to_end(plain, peak_rss_mib)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(len(r.ops) for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
