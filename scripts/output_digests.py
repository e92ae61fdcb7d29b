"""Digests of cvmet's outputs, one line each, for comparing two checkouts.

    python3 scripts/output_digests.py [--root CHECKOUT] [--seeds 7 11]

Runs, each in a fresh Python process on CHECKOUT's `src` (default: the
checkout holding this script), the default run of every CSV command (every
command but `claims`) and every op of the four benchmark workloads at each
seed: the ops of pass 0, generated by CHECKOUT's `perfbench/workloads.py`;
then the `qfi` rows of ROUTE_CASES, one per outcome of `qfi.route`, and of
CENTRE_CASES, rows at a probe centre of 1e12, which neither of the others
reaches.  Each prints one line: a label, the exit
code and the md5 of stdout plus stderr.  A CLI op is `cvmet.cli.main(argv)`;
a claim op prints the repr of its `ClaimResult`.  Two checkouts print the
same bytes where `diff` of their digest lists is empty.  Nothing is written
to CHECKOUT.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMANDS = ("qfi", "sweep", "ratio", "bch-table", "factorization-check", "optomech")
CS_M3_N24 = ("--set", "m=3", "--set", "n_queries=24", "--set", "theta1=1.2",
             "--set", "theta2=0.05", "--set", "strategy=coherent_superposition")
SQUEEZED_25 = ("--set", 'probe={"kind": "squeezed_vacuum", "r": 2.5}')  # leaks at d = 1024
THETA1 = ("--set", "estimate=theta1")
ROUTE_CASES = (  # (name, argv after "qfi")
    ("start64-fock63", ("--set", 'probe={"kind": "fock", "n": 63}')),
    ("start64-coherent3", ("--set", 'probe={"kind": "coherent", "alpha_re": 3}')),
    ("start128-fock70", ("--set", 'probe={"kind": "fock", "n": 70}')),
    ("start128-coherent6", ("--set", 'probe={"kind": "coherent", "alpha_re": 6}')),
    ("nodes-unholdable", SQUEEZED_25),
    ("nodes-beyond-reach", CS_M3_N24),
    ("theta1-nodes-unholdable", SQUEEZED_25 + THETA1),
    ("theta1-nodes-beyond-reach", CS_M3_N24 + THETA1),
    ("theta1-nodes-fock300", ("--set", "n_queries=30", "--set", "theta1=1.2",
                              "--set", 'probe={"kind": "fock", "n": 300}') + THETA1),
    ("node-cap-fock509-m3", CS_M3_N24 + ("--set", 'probe={"kind": "fock", "n": 509}')),
    ("node-cap-fock1024", ("--set", 'probe={"kind": "fock", "n": 1024}')),
    ("float-range", ("--set", "m=5", "--set", "n_queries=1e60", "--set", "theta1=1.2")),
    ("theta1-m2-f-gen-nan", ("--set", "m=2") + THETA1),
)
FAR_P = ("--set", 'probe={"kind": "coherent", "alpha_re": 0.3, "alpha_im": 1e12}')
CENTRE_CASES = (  # (name, argv after "qfi"); exact: F = F_gen = F_asym = 34.56 at m = 1
    ("switch-m1-im1e12", FAR_P),
    ("switch-m3-im1e12", FAR_P + ("--set", "m=3")),
    ("cs-m2-im1e12", FAR_P + ("--set", "m=2", "--set", "strategy=coherent_superposition")),
    # theta1 at an X centre of 1e12, exact on the nodes: 4 N^2 Var X + theta2^2 N^4
    ("theta1-m1-re1e12", ("--set", 'probe={"kind": "coherent", "alpha_re": 1e12}') + THETA1),
)
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
    for label, cases in (("route", ROUTE_CASES), ("centre", CENTRE_CASES)):
        for name, argv in cases:
            print(f"{label} {name}\t{digest(root, 'cli', ['qfi', *argv])}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
