"""Fresh-process wall time of each cgalign subcommand.

Generates one mutated pair with `cgalign generate` (seed 11; 5% of the
functions inserted, 5% deleted, 10% perturbed, and n/10 calls rewired),
then runs `-h`, `generate`, `diff`, `ged` and `eval` on it, each in a new
interpreter (`python -m cgalign.cli ...`), and prints the median, lowest and highest
wall time per subcommand over --runs runs.  Each time covers the whole
process: interpreter start, imports, the command's work and exit, which is
what a user who runs one diff per pair of programs waits for.

The package is imported from the `src/` directory next to this script, so
running the script from another checkout measures that checkout.
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time

SEED = 11
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def timed(argv, env):
    started = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "cgalign.cli"] + argv, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    elapsed = time.perf_counter() - started
    if done.returncode != 0:
        raise RuntimeError("cgalign %s exited %d:\n%s"
                           % (" ".join(argv), done.returncode, done.stderr))
    return elapsed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=120, help="functions in the base graph")
    parser.add_argument("--density", type=float, default=0.025, help="call edge density")
    parser.add_argument("--max-iters", type=int, default=12,
                        help="belief propagation iteration cap of the timed diff")
    parser.add_argument("--runs", type=int, default=10, help="fresh processes per subcommand")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")

    mutate = "insert={0},delete={0},perturb={1},rewire={1}".format(args.n // 20, args.n // 10)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as work:
        a, b, truth, report = (os.path.join(work, name) for name in
                               ("a.json", "b.json", "truth.json", "report.json"))
        generate = ["generate", "--n", str(args.n), "--density", str(args.density),
                    "--seed", str(SEED), "--out", a, "--mutate", mutate,
                    "--out-b", b, "--out-truth", truth]
        timed(generate, env)  # writes the pair; each timed run rewrites the same bytes
        commands = [
            ("-h", ["-h"]),
            ("generate", generate),
            ("diff", ["diff", a, b, "--max-iters", str(args.max_iters), "--output", report]),
            ("ged", ["ged", a, b, report]),
            ("eval", ["eval", report, truth]),
        ]
        print("command    median_s   min_s   max_s  (runs %d, n %d)" % (args.runs, args.n))
        for name, command in commands:
            samples = [timed(command, env) for _ in range(args.runs)]
            print("%-9s  %8.3f  %6.3f  %6.3f" % (name, statistics.median(samples),
                                               min(samples), max(samples)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
