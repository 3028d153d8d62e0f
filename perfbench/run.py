"""wittram benchmark: closed-loop runs of one workload, untraced or traced.

    python3 perfbench/run.py --workload fp_witt_law --seed 1 --seconds 36 --trace 0

One client sends each item only after the previous one returned; there are
no threads.  The run measures whole cycles of items (see workloads.py)
until ``--seconds`` of wall time, output checks included, have passed,
checks every output outside the timed region, and prints human-readable
lines followed, as the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the items
traced, then the same items untraced, and reports the per-layer metrics
with the tracing overhead.  ``--record-digest`` rewrites the recorded
output digests for the given seed (see README.md).

The package is imported from ``src`` next to this directory; it need not
be installed.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"

# Set-ups are measured this many times, spread evenly over the run.
SETUP_RUNS = 9

# A fresh interpreter imports wittram and runs the warm-up; run as a child.
SETUP_PROBE = (
    "import sys; sys.path.insert(0, {here!r}); import workloads; "
    "workloads.WORKLOADS[{name!r}].warm_up()"
)


def _median_ms(values):
    return statistics.median(values) * 1000.0


def _p90_ms(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8] * 1000.0


def host_probe():
    """Seconds a fixed integer loop takes, independent of wittram.  The
    cores are shared with other machines' work, which can slow this process
    by up to 1.8 times for seconds or minutes; the probe shows how fast the
    core ran while a run was measured."""
    t0 = time.perf_counter()
    s = 0
    for i in range(6000):
        s += i * i % 7
    return time.perf_counter() - t0


def measure_setup(name):
    """(seconds, probe): wall time of a fresh child interpreter doing
    import + warm-up, and a host probe run just before it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = SETUP_PROBE.format(here=str(HERE), name=name)
    probe = host_probe()
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0, probe


def provenance():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            commit = out.stdout.strip()
    source = hashlib.sha256()
    for path in sorted((SRC / "wittram").glob("*.py")):
        source.update(path.name.encode())
        source.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": cpu,
        "commit": commit,
        "source_sha256": source.hexdigest()[:16],
    }


def outcome_hash(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Pass:
    """One closed-loop pass over whole cycles of items."""

    def __init__(self):
        self.latencies = []
        self.shapes = {}
        self.hashes = []
        self.failed = 0
        self.timed = 0.0
        self.slowest = (0.0, "", "")

    def run_item(self, item, tracer=None):
        if tracer is not None:
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            out = item.run()
            raised = None
        except Exception as exc:  # a raised item is a failed item
            raised = exc
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
        self.timed += dt
        self.latencies.append(dt)
        if dt > self.slowest[0]:
            self.slowest = (dt, item.shape, item.key)
        self.shapes[item.shape] = self.shapes.get(item.shape, 0) + 1
        if raised is not None:
            self.failed += 1
            self.hashes.append(outcome_hash(f"raised {type(raised).__name__}"))
            print(f"item failed: {item.shape}: {type(raised).__name__}: "
                  f"{raised} [{item.key[:200]}]")
            return
        try:
            ok = bool(item.check(out))
            text = item.outcome(out)
        except Exception as exc:
            ok = False
            text = f"check raised {type(exc).__name__}"
        if not ok:
            self.failed += 1
            print(f"check failed: {item.shape} [{item.key[:200]}]")
        self.hashes.append(outcome_hash(text))

    def run_cycles(self, cycles, seconds, tracer=None, keep=None,
                   pause=None, pauses=0):
        """Whole cycles until ``seconds`` of wall time, checks included,
        have passed.  ``pause()`` is called ``pauses`` times between
        cycles, spread evenly over that time."""
        start = time.perf_counter()
        paused = 0
        while True:
            elapsed = time.perf_counter() - start
            while paused < pauses and (elapsed >= seconds
                                       or elapsed >= paused * seconds / pauses):
                pause()
                paused += 1
            if elapsed >= seconds:
                return
            cycle = next(cycles)
            if keep is not None:
                keep.append(cycle)
            for item in cycle:
                self.run_item(item, tracer)


def compare_digests(workload, seed, hashes):
    """(compared, differing) against the outputs recorded for this seed."""
    if not DIGESTS.is_file():
        return 0, 0
    recorded = json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))
    if not recorded:
        return 0, 0
    pairs = list(zip(recorded, hashes))
    return len(pairs), sum(a != b for a, b in pairs)


def record_digests(workload, seed, hashes):
    data = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    data.setdefault(workload, {})[str(seed)] = hashes
    DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def metric(value, unit):
    return {"value": value, "unit": unit}


def untraced_run(args, workload):
    """The end-to-end metrics; returns ([pass], metrics)."""
    workload.warm_up()
    run = Pass()
    setups = []
    run.run_cycles(workload.cycles(args.seed), args.seconds,
                   pause=lambda: setups.append(measure_setup(args.workload)),
                   pauses=SETUP_RUNS)
    setup_s = statistics.median(t for t, _ in setups)
    probes = sorted(p * 1000.0 for _, p in setups)
    print(f"host_probe {statistics.median(probes):.4g} ms median, "
          f"{probes[0]:.4g} to {probes[-1]:.4g} ms over the run")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lat = run.latencies
    metrics = {
        "throughput_items_s": metric(len(lat) / run.timed, "items/s"),
        "item_p50_ms": metric(_median_ms(lat), "ms"),
        "item_p90_ms": metric(_p90_ms(lat), "ms"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(rss_mb, "MiB"),
    }
    # failed_share is zero on a clean run, so it is printed here and carried
    # by the result's "attempted" and "failed" fields.
    print(f"failed_share {run.failed / len(lat):.6g} ratio "
          f"({run.failed} of {len(lat)})")
    return [run], metrics


def traced_run(args, workload):
    """The per-layer metrics; returns ([traced pass, untraced pass], metrics)."""
    import tracer as tracing

    tr = tracing.Tracer()
    tr.install()
    workload.warm_up()
    tr.enabled = False
    cycles = []
    traced = Pass()
    traced.run_cycles(workload.cycles(args.seed), args.seconds / 2, tr, cycles)
    tr.uninstall()
    untraced = Pass()
    for cycle in cycles:
        for item in cycle:
            untraced.run_item(item)
    layer = tr.metrics()
    layer["trace.overhead_share"] = (traced.timed / untraced.timed - 1.0, "ratio")
    if tr.missing:
        print("missing wrapped targets: " + ", ".join(tr.missing))
    absent = sorted(set(tracing.SPANS) - tr.present)
    if absent:
        print("missing spans, their metrics left out: " + ", ".join(absent))
    metrics = {name: metric(v, unit) for name, (v, unit) in layer.items()}
    return [traced, untraced], metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digest", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "wittram" / "__init__.py").is_file():
        print(f"error: no wittram sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    print("provenance " + json.dumps(provenance()))
    if args.trace:
        passes, metrics = traced_run(args, workload)
    else:
        passes, metrics = untraced_run(args, workload)
    run = passes[0]

    dt, shape, key = max(p.slowest for p in passes)
    print(f"slowest_item {dt * 1000:.1f} ms {shape} [{key[:300]}]")
    total = sum(run.shapes.values())
    print("shape_shares " + json.dumps(
        {k: round(v / total, 4) for k, v in sorted(run.shapes.items())}))
    if args.record_digest:
        record_digests(args.workload, args.seed, run.hashes)
        print(f"recorded {len(run.hashes)} output digests for seed {args.seed}")
    compared, differ = compare_digests(args.workload, args.seed, run.hashes)
    print(f"digest {differ} of {compared} recorded outputs differ"
          + ("" if compared else " (no outputs recorded for this seed)"))
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    failed = sum(p.failed for p in passes)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(len(p.latencies) for p in passes),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
