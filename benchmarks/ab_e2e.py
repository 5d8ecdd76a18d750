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
store, exactly as an e2ebench pass does, and reports the seconds
``run_specs`` took and each spec's physics digest.  Forking keeps
in-process memos (such as the time-series distance cache) empty at the
start of every round, as they are in a fresh e2ebench pass, while the
imports stay warm; the worker starts no threads, so forking it is safe.

Warm rounds exclude start-up: interpreter launch, imports and spec
planning happen once per worker, so the numbers are not comparable with
e2ebench's ``wall_s`` (nor host-scaled); they compare the two trees only.
The trees alternate which goes first each round, so host-speed drift
lands on both.  The script prints both trees' median seconds, the median
of the per-round B/A ratios and how many rounds B won, after one untimed
warm-up round per tree.  It exits 1 if any spec's physics digest differs
between the trees.
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
                start = time.monotonic()
                results = runner.run_specs(specs, workers=1, cache=True,
                                           store=f"dir:{store}")
                seconds = time.monotonic() - start
                digests = {spec.describe(): physics_digest(result)
                           for spec, result in zip(specs, results)}
                with os.fdopen(write_fd, "w") as out:
                    json.dump({"seconds": seconds, "digests": digests}, out)
            finally:
                shutil.rmtree(store, ignore_errors=True)
                os._exit(0)
        os.close(write_fd)
        with os.fdopen(read_fd) as reply:
            payload = reply.read()
        os.waitpid(pid, 0)
        print(payload or json.dumps({"error": "round failed"}), flush=True)


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
        seconds = ([], [])
        mismatched = {label for label in set(reference) | set(other)
                      if reference.get(label) != other.get(label)}
        for index in range(args.rounds):
            order = (0, 1) if index % 2 == 0 else (1, 0)
            for side in order:
                reply = workers[side].run()
                seconds[side].append(reply["seconds"])
                mismatched |= {label for label, digest
                               in reply["digests"].items()
                               if digest != reference.get(label)}
            print(f"round {index + 1}: A {seconds[0][-1]:.3f} s, "
                  f"B {seconds[1][-1]:.3f} s "
                  f"({'A' if order[0] == 0 else 'B'} first)", flush=True)
    finally:
        for worker in workers:
            worker.close()

    ratios = [b / a for a, b in zip(*seconds)]
    wins = sum(b < a for a, b in zip(*seconds))
    print(f"{args.workload}, seed {args.seed}, {args.rounds} rounds "
          f"(warm workers, start-up excluded)")
    print(f"  A median {statistics.median(seconds[0]):.3f} s  {workers[0].tree}")
    print(f"  B median {statistics.median(seconds[1]):.3f} s  {workers[1].tree}")
    print(f"  median B/A {statistics.median(ratios):.4f}, "
          f"B faster in {wins} of {args.rounds} rounds")
    if mismatched:
        print(f"  physics digests differ on {len(mismatched)} specs: "
              f"{sorted(mismatched)}")
        return 1
    print("  physics digests equal on every spec")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
