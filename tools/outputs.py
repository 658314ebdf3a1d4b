"""Compare what the CLI and the demos write at a git commit with what they
write in the working tree.

    python tools/outputs.py REF

REF is checked out with ``git worktree add`` into a temporary directory
(no network) and removed again at the end.  A fixed list of commands runs
in both trees, each in a fresh process, in its own empty directory, with
the same relative paths and the same input files.  Every exit status,
stdout and stderr that differs is printed, and so is every file that
differs or that only one tree wrote.  A ``.json`` file first drops its
top-level ``timestamp`` and ``wall_time_s`` lines; nothing else is
dropped.  The last line counts the differences; the exit status is 0 when
there are none, 1 when there are some and 2 when REF cannot be checked out.

Byte identity is compared on one machine only: the Parseval total uses
BLAS ``matmul``, which may round differently on another CPU.  Only the
standard library is used.
"""

from __future__ import annotations

import argparse
import difflib
import json
import math
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (name, argv): "envlab" runs the CLI, anything else is a script path
# relative to the tree
COMMANDS = [
    ("verify-all-seed-5", ["envlab", "verify-all", "--seed", "5", "--out", "out"]),
    ("verify-all-seed-42", ["envlab", "verify-all", "--out", "out"]),
    ("verify-all-seed-3", ["envlab", "verify-all", "--seed", "3", "--out", "out"]),
    ("envelope-4096", ["envlab", "envelope", "--input", "w.csv", "--out", "out"]),
    ("fiber-check-tight", ["envlab", "fiber-check", "--seed", "9",
                           "--tol", "fiber=1e-300", "--out", "out"]),
    ("glue-demo", ["envlab", "glue-demo", "--out", "out"]),
    ("glue-demo-grid-64", ["envlab", "glue-demo", "--config", "grid64.json",
                           "--out", "out"]),
    ("glue-demo-empty-config", ["envlab", "glue-demo", "--config", "",
                                "--out", "out"]),
] + [(f"demo-{name[:-3]}", [f"demos/{name}"])
     for name in sorted(os.listdir(os.path.join(ROOT, "demos")))
     if name.endswith(".py")]

VOLATILE = re.compile(rb'(?m)^  "(?:timestamp|wall_time_s)": [^\n]*\n')


def _inputs():
    """{file name: text}: a 4096-point non-convex weight with slope data
    (0, 2) and its sidecar, and a glue-demo config."""
    rows = ["s,u"]
    for i in range(4096):
        s = -20.0 + 40.0 * i / 4095
        u = (2.0 * (math.log1p(math.exp(-abs(s))) + max(s, 0.0))
             + 1.5 * math.exp(-0.5 * (s + 3.0) ** 2)
             - 2.0 * math.exp(-0.3 * (s - 4.0) ** 2))
        rows.append(f"{s!r},{u!r}")
    return {"w.csv": "\n".join(rows) + "\n",
            "w.csv.json": json.dumps({"slope_left": 0.0, "slope_right": 2.0}),
            "grid64.json": json.dumps({"grid": 64})}


def run_tree(tree, commands, work):
    """Run ``commands`` with ``tree``'s package, each in a new directory
    under ``work``.  Returns {name: (exit status, stdout, stderr,
    {relative path: bytes})}."""
    env = {k: v for k, v in os.environ.items() if k != "ENVLAB_OUT"}
    env.update(PYTHONPATH=os.path.join(tree, "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    inputs, results = _inputs(), {}
    for name, argv in commands:
        cwd = os.path.join(work, name)
        os.makedirs(cwd)
        for fname, text in inputs.items():
            with open(os.path.join(cwd, fname), "w", encoding="utf-8",
                      newline="\n") as fh:
                fh.write(text)
        head = (["-m", "envlab.cli"] if argv[0] == "envlab"
                else [os.path.join(tree, argv[0])])
        done = subprocess.run([sys.executable, *head, *argv[1:]], cwd=cwd,
                              env=env, capture_output=True)
        files = {}
        for dirpath, _, names in os.walk(cwd):
            for fname in names:
                path = os.path.join(dirpath, fname)
                with open(path, "rb") as fh:
                    files[os.path.relpath(path, cwd)] = fh.read()
        results[name] = (done.returncode, done.stdout, done.stderr, files)
    return results


def _first_change(a, b):
    """The first differing line of two byte strings, as a unified diff."""
    diff = difflib.unified_diff(a.decode(errors="replace").splitlines(),
                                b.decode(errors="replace").splitlines(),
                                "ref", "tree", n=0, lineterm="")
    return [line for line in diff if not line.startswith("@@")][2:4]


def compare(base, head):
    """Lines naming every difference between two :func:`run_tree` results
    of the same commands."""
    lines = []
    for name in base:
        (code_a, out_a, err_a, files_a), (code_b, out_b, err_b, files_b) = \
            base[name], head[name]
        if code_a != code_b:
            lines.append(f"{name}: exit status {code_a} -> {code_b}")
        for label, a, b in (("stdout", out_a, out_b), ("stderr", err_a, err_b)):
            if a != b:
                lines.append(f"{name}: {label} differs")
                lines += ["    " + line for line in _first_change(a, b)]
        for path in sorted(files_a.keys() | files_b.keys()):
            if path not in files_b:
                lines.append(f"{name}: {path} only in ref")
            elif path not in files_a:
                lines.append(f"{name}: {path} only in tree")
            else:
                a, b = files_a[path], files_b[path]
                if path.endswith(".json"):
                    a, b = VOLATILE.sub(b"", a), VOLATILE.sub(b"", b)
                if a != b:
                    lines.append(f"{name}: {path} differs")
                    lines += ["    " + line for line in _first_change(a, b)]
    return lines


def main(argv=None):
    p = argparse.ArgumentParser(
        prog="outputs", description="compare CLI and demo outputs at REF "
        "with those of the working tree")
    p.add_argument("ref", help="commit to compare against")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="outputs-") as tmp:
        ref_tree = os.path.join(tmp, "ref")
        added = subprocess.run(["git", "-C", ROOT, "worktree", "add", "--detach",
                                "--quiet", ref_tree, args.ref],
                               capture_output=True, text=True)
        if added.returncode:
            print(f"error: cannot check out {args.ref}: {added.stderr.strip()}",
                  file=sys.stderr)
            return 2
        try:
            base = run_tree(ref_tree, COMMANDS, os.path.join(tmp, "run-ref"))
            head = run_tree(ROOT, COMMANDS, os.path.join(tmp, "run-tree"))
        finally:
            subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force",
                            ref_tree], capture_output=True)
    lines = compare(base, head)
    for line in lines:
        print(line)
    print(f"{len(COMMANDS)} commands, "
          f"{sum(not line.startswith(' ') for line in lines)} differences "
          f"against {args.ref}")
    return 1 if lines else 0


if __name__ == "__main__":
    raise SystemExit(main())
