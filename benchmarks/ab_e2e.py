"""Interleaved A/B host time of one e2ebench workload on two source trees.

Run directly::

    python benchmarks/ab_e2e.py TREE_A TREE_B --workload apps --rounds 10
        [--seed 0]

Each tree is a checkout holding ``src/repro`` and ``e2ebench/suite.py``
(for instance the parent commit extracted with ``git archive`` and this
working tree).  The script starts one warm worker per tree: a long-lived
interpreter that imports that tree's ``repro`` and builds the workload's
spec list from that tree's unmodified ``e2ebench/suite.py``.  For every
round a worker forks a child that runs the whole spec list through
``repro.harness.runner.run_specs`` with one worker and an empty result
store, exactly as an e2ebench pass does, and reports the wall seconds
``run_specs`` took, the child's CPU seconds over the same span
(``time.process_time()``, which a busy neighbour on the host inflates
less than wall time) and each spec's physics digest.  Forking keeps
in-process memos (such as the time-series distance cache) empty at the
start of every round, as they are in a fresh e2ebench pass, while the
imports stay warm; the worker starts no threads, so forking it is safe.

Warm rounds exclude start-up: interpreter launch, imports and spec
planning happen once per worker, so the numbers are not comparable with
e2ebench's ``wall_s`` (nor host-scaled); they compare the two trees only.
The trees alternate which goes first each round, so host-speed drift
lands on both.  After one untimed warm-up round per tree, the script
prints, for wall and for CPU seconds, each tree's median and quartiles,
the median of the per-round B/A ratios and how many rounds B won.  It
exits 1 if any spec's physics digest differs between the trees.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time


def serve(tree: str, workload: str, seed: int) -> None:
    """Worker loop: one forked spec-list run per ``run`` line on stdin."""
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "e2ebench")]
    os.environ.setdefault("REPRO_SCALE", "small")
    import suite
    from repro.harness import runner
    from worker import physics_digest

    specs = suite.build(workload, seed)
    for _line in sys.stdin:
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: one run with fresh in-process memos
            os.close(read_fd)
            store = tempfile.mkdtemp(prefix="ab-e2e-store-")
            try:
                start, cpu_start = time.monotonic(), time.process_time()
                results = runner.run_specs(specs, workers=1, cache=True,
                                           store=f"dir:{store}")
                seconds = time.monotonic() - start
                cpu = time.process_time() - cpu_start
                digests = {spec.describe(): physics_digest(result)
                           for spec, result in zip(specs, results)}
                with os.fdopen(write_fd, "w") as out:
                    json.dump({"seconds": seconds, "cpu": cpu,
                               "digests": digests}, out)
            finally:
                shutil.rmtree(store, ignore_errors=True)
                os._exit(0)
        os.close(write_fd)
        with os.fdopen(read_fd) as reply:
            payload = reply.read()
        os.waitpid(pid, 0)
        print(payload or json.dumps({"error": "round failed"}), flush=True)


def quartiles(values):
    """(first quartile, median, third quartile) of ``values``; one value
    is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, mid, high = statistics.quantiles(values, n=4)
    return low, mid, high


class Worker:
    """The parent's handle on one tree's warm worker."""

    def __init__(self, tree: str, workload: str, seed: int):
        self.tree = os.path.abspath(tree)
        if not os.path.isfile(os.path.join(self.tree, "src", "repro",
                                           "__init__.py")):
            raise SystemExit(f"no src/repro package under {self.tree}")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--serve", self.tree,
             "--workload", workload, "--seed", str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=env, cwd=self.tree)

    def run(self) -> dict:
        self.proc.stdin.write("run\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"worker for {self.tree} exited")
        reply = json.loads(line)
        if "error" in reply:
            raise SystemExit(f"worker for {self.tree}: {reply['error']}")
        return reply

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", metavar="TREE")
    parser.add_argument("--workload", default="apps",
                        choices=("apps", "structures", "spin"))
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--serve", metavar="TREE", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.serve:
        serve(args.serve, args.workload, args.seed)
        return 0
    if len(args.trees) != 2 or args.rounds < 1:
        parser.error("give TREE_A TREE_B and --rounds >= 1")

    workers = [Worker(tree, args.workload, args.seed) for tree in args.trees]
    try:
        reference, other = (w.run()["digests"] for w in workers)  # warm-up
        measures = {"wall": ([], []), "cpu": ([], [])}
        mismatched = {label for label in set(reference) | set(other)
                      if reference.get(label) != other.get(label)}
        for index in range(args.rounds):
            order = (0, 1) if index % 2 == 0 else (1, 0)
            for side in order:
                reply = workers[side].run()
                measures["wall"][side].append(reply["seconds"])
                measures["cpu"][side].append(reply["cpu"])
                mismatched |= {label for label, digest
                               in reply["digests"].items()
                               if digest != reference.get(label)}
            wall, cpu = measures["wall"], measures["cpu"]
            print(f"round {index + 1}: A {wall[0][-1]:.3f} s "
                  f"(cpu {cpu[0][-1]:.3f}), B {wall[1][-1]:.3f} s "
                  f"(cpu {cpu[1][-1]:.3f}) "
                  f"({'A' if order[0] == 0 else 'B'} first)", flush=True)
    finally:
        for worker in workers:
            worker.close()

    print(f"{args.workload}, seed {args.seed}, {args.rounds} rounds "
          f"(warm workers, start-up excluded)")
    for tree, worker in zip("AB", workers):
        print(f"  {tree} = {worker.tree}")
    for name, (a_side, b_side) in measures.items():
        for tree, values in (("A", a_side), ("B", b_side)):
            low, mid, high = quartiles(values)
            print(f"  {name:4} {tree} median {mid:.3f} s, "
                  f"quartiles {low:.3f}-{high:.3f} s")
        ratios = [b / a for a, b in zip(a_side, b_side)]
        wins = sum(b < a for a, b in zip(a_side, b_side))
        print(f"  {name:4} median B/A {statistics.median(ratios):.4f}, "
              f"B faster in {wins} of {args.rounds} rounds")
    if mismatched:
        print(f"  physics digests differ on {len(mismatched)} specs: "
              f"{sorted(mismatched)}")
        return 1
    print("  physics digests equal on every spec")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
