"""Digests of cvmet's outputs, one line each, for comparing two checkouts.

    python3 scripts/output_digests.py [--root CHECKOUT] [--seeds 7 11]

Runs, each in a fresh Python process on CHECKOUT's `src` (default: the
checkout holding this script), the default run of every CSV command (every
command but `claims`) and every op of the four benchmark workloads at each
seed: the ops of pass 0, generated by CHECKOUT's `perfbench/workloads.py`.
Each prints one line: a label, the exit code and the md5 of stdout plus
stderr.  A CLI op is `cvmet.cli.main(argv)`; a claim op prints the repr of
its `ClaimResult`.  Two checkouts print the same bytes where `diff` of their
digest lists is empty.  Nothing is written to CHECKOUT.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMANDS = ("qfi", "sweep", "ratio", "bch-table", "factorization-check", "optomech")
CHILD = """
import sys
root, kind, args = sys.argv[1], sys.argv[2], sys.argv[3:]
sys.path.insert(0, root + "/src")
if kind == "claim":
    from cvmet import claims
    print(repr(getattr(claims, args[0])()))
else:
    from cvmet import cli
    sys.exit(cli.main(args))
"""


def digest(root: str, kind: str, args) -> str:
    """'exit=<code> <md5 of stdout + stderr>' of one op in a fresh process."""
    done = subprocess.run([sys.executable, "-c", CHILD, root, kind, *args],
                          capture_output=True, cwd=root, check=False)
    return f"exit={done.returncode} {hashlib.md5(done.stdout + done.stderr).hexdigest()}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=HERE, help="checkout to run (default: this one)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[7, 11])
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)
    sys.path.insert(0, os.path.join(root, "perfbench"))
    import workloads

    for command in COMMANDS:
        print(f"default {command}\t{digest(root, 'cli', [command])}", flush=True)
    for workload in workloads.BUILDERS:
        for seed in args.seeds:
            for op in workloads.ops_for(workload, seed, 0):
                kind, op_args = ("claim", [op.claim]) if op.claim else ("cli", list(op.argv))
                print(f"{workload} seed={seed} {op.id}\t{digest(root, kind, op_args)}",
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
