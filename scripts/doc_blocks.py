#!/usr/bin/env python3
"""Check (or rewrite) the command output spliced into a Markdown file.

A block is a marker line naming a portals_repro command, directly above
a fenced code block:

    <!-- portals_repro latency -->
    ```
    ...what `portals_repro.exe latency` prints...
    ```

For every block the built executable runs with the marker's arguments
(split as a shell would, so quotes work) and nothing else, so each
command runs at the default scenario. By default each block must equal
the command's stdout byte for byte: every difference is printed as a
unified diff and the exit status is 1 (2 for a usage error). With
--write the blocks are rewritten from the output instead, for an
intended output change.

    python3 scripts/doc_blocks.py             # check EXPERIMENTS.md
    python3 scripts/doc_blocks.py --write     # regenerate its blocks
    python3 scripts/doc_blocks.py FILE        # check another file

Build the executable first (`dune build bin/portals_repro.exe`).
"""

import argparse
import difflib
import pathlib
import re
import shlex
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXE = ROOT / "_build/default/bin/portals_repro.exe"
MARKER = re.compile(r"^<!-- portals_repro (.+) -->$")
FENCE = "```"


def fail(msg):
    """A usage error (exit 2), kept apart from a stale block (exit 1)."""
    print(msg, file=sys.stderr)
    sys.exit(2)


def blocks(lines):
    """(args, first, end) per block: its body is lines[first:end]."""
    i = 0
    while i < len(lines):
        m = MARKER.match(lines[i].rstrip("\n"))
        if not m:
            i += 1
            continue
        if i + 1 >= len(lines) or not lines[i + 1].startswith(FENCE):
            fail(f"line {i + 1}: marker not directly above a fence")
        end = i + 2
        while end < len(lines) and lines[end].rstrip("\n") != FENCE:
            end += 1
        if end == len(lines):
            fail(f"line {i + 2}: fence never closed")
        yield m.group(1), i + 2, end
        i = end + 1


def run(args):
    proc = subprocess.run([EXE, *shlex.split(args)], capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"portals_repro {args}: exit {proc.returncode}")
    return proc.stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--write", action="store_true", help="rewrite the blocks")
    ap.add_argument("file", nargs="?", default=ROOT / "EXPERIMENTS.md")
    opts = ap.parse_args()
    if not EXE.exists():
        fail(f"{EXE} not found: run dune build bin/portals_repro.exe")
    path = pathlib.Path(opts.file)
    lines = path.read_text().splitlines(keepends=True)
    out, last, stale, count = [], 0, 0, 0
    for args, first, end in blocks(lines):
        count += 1
        want = run(args).splitlines(keepends=True)
        got = lines[first:end]
        if got != want:
            stale += 1
            if not opts.write:
                sys.stdout.writelines(
                    difflib.unified_diff(
                        got, want, f"{path}:{first + 1}", f"portals_repro {args}"
                    )
                )
        out += lines[last:first] + want
        last = end
    if count == 0:
        fail(f"{path}: no portals_repro blocks")
    if opts.write:
        path.write_text("".join(out + lines[last:]))
        print(f"{path}: {stale} of {count} blocks rewritten")
        return 0
    if stale:
        print(f"{path}: {stale} of {count} blocks differ from their command")
        return 1
    print(f"{path}: all {count} blocks match their command")
    return 0


if __name__ == "__main__":
    sys.exit(main())
