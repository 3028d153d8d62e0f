"""Interleaved timing of two source trees on one perfbench workload.

Two worker processes, one per tree, import that tree's wittram and
perfbench/workloads.py from this repository, and draw the same seeded
cycles of items.  They run in lockstep: for each cycle one worker runs
it, then the other, and the tree that goes first alternates.  So both
trees see the same items under the same load on the host, which
separate perfbench runs cannot give.  A round is --cycles cycles; the
ratio of change to parent is taken per round, for the timed item calls
(run()) and for the untimed output checks (check() and outcome()).

    python3 tests/interleave.py fp_witt_law PARENT_TREE CHANGE_TREE
    python3 tests/interleave.py fpu_certify A B --rounds 8 --cycles 40

A tree is a directory holding src/wittram.  The report gives the median
ratio over the rounds with its range, each tree's median seconds per
round, the ratio per shape over all rounds, and the number of items
whose outcome text differs between the trees.  Only the standard
library is used, and pytest does not collect this file.
"""

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def worker(tree, workload_name, seed):
    """Serve cycles on stdin/stdout: each line read runs the next cycle
    and answers with one JSON line of per-shape times and outcome hashes."""
    sys.path[:0] = [str(Path(tree) / "src"), str(PERFBENCH)]
    import workloads

    workload = workloads.WORKLOADS[workload_name]
    workload.warm_up()
    cycles = workload.cycles(seed)
    print("ready", flush=True)
    for _ in sys.stdin:
        shapes, hashes = {}, []
        for item in next(cycles):
            t0 = time.perf_counter()
            try:
                out = item.run()
                raised = None
            except Exception as exc:  # compared by outcome, as in perfbench
                raised = exc
            t1 = time.perf_counter()
            if raised is None:
                try:
                    ok = bool(item.check(out))
                    text = item.outcome(out) + ("" if ok else " (check failed)")
                except Exception as exc:
                    text = f"check raised {type(exc).__name__}"
            else:
                text = f"raised {type(raised).__name__}"
            t2 = time.perf_counter()
            run_s, check_s, count = shapes.get(item.shape, (0.0, 0.0, 0))
            shapes[item.shape] = (run_s + t1 - t0, check_s + t2 - t1, count + 1)
            hashes.append(hashlib.sha256(text.encode()).hexdigest()[:16])
        print(json.dumps({"shapes": shapes, "hashes": hashes}), flush=True)


def _start(tree, args):
    proc = subprocess.Popen(
        [sys.executable, __file__, "--worker", str(tree), args.workload,
         str(args.seed)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    if proc.stdout.readline().strip() != "ready":
        raise SystemExit(f"worker for {tree} did not start")
    return proc


def _cycle(proc):
    proc.stdin.write("next\n")
    proc.stdin.flush()
    line = proc.stdout.readline()
    if not line:
        raise SystemExit("a worker stopped")
    return json.loads(line)


def _ratio_line(label, ratios, parent, change):
    return (f"{label}: median ratio {statistics.median(ratios):.4f} "
            f"[{min(ratios):.4f}, {max(ratios):.4f}] over {len(ratios)} rounds; "
            f"median s per round, parent {statistics.median(parent):.3f}, "
            f"change {statistics.median(change):.3f}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--cycles", type=int, default=30)
    args = parser.parse_args(argv)
    for tree in (args.parent, args.change):
        if not (tree / "src" / "wittram" / "__init__.py").is_file():
            parser.error(f"no src/wittram under {tree}")

    procs = {"parent": _start(args.parent, args), "change": _start(args.change, args)}
    # per side and round: [run s, check s]; per side and shape: [run s, check s]
    rounds = {side: [] for side in procs}
    shapes = {side: {} for side in procs}
    differ = items = 0
    try:
        for r in range(args.rounds):
            totals = {side: [0.0, 0.0] for side in procs}
            for c in range(args.cycles):
                order = ("parent", "change") if (r * args.cycles + c) % 2 == 0 \
                    else ("change", "parent")
                got = {side: _cycle(procs[side]) for side in order}
                for side, out in got.items():
                    for shape, (run_s, check_s, _) in out["shapes"].items():
                        totals[side][0] += run_s
                        totals[side][1] += check_s
                        per = shapes[side].setdefault(shape, [0.0, 0.0])
                        per[0] += run_s
                        per[1] += check_s
                pairs = zip(got["parent"]["hashes"], got["change"]["hashes"],
                            strict=True)
                for a, b in pairs:
                    items += 1
                    differ += a != b
            for side in procs:
                rounds[side].append(totals[side])
    finally:
        for proc in procs.values():
            proc.stdin.close()
            proc.wait()

    print(f"workload {args.workload} seed {args.seed}: {args.rounds} rounds of "
          f"{args.cycles} cycles, {items} items per tree, "
          f"{differ} outcomes differ")
    for k, label in ((0, "item time"), (1, "check time")):
        parent = [t[k] for t in rounds["parent"]]
        change = [t[k] for t in rounds["change"]]
        ratios = [b / a for a, b in zip(parent, change)]
        print(_ratio_line(label, ratios, parent, change))
    for shape in sorted(shapes["parent"]):
        a, b = shapes["parent"][shape], shapes["change"][shape]
        print(f"  {shape}: item {b[0] / a[0]:.4f}, check "
              + (f"{b[1] / a[1]:.4f}" if a[1] else "n/a"))
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        worker(sys.argv[2], sys.argv[3], int(sys.argv[4]))
    else:
        sys.exit(main())
