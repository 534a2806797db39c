#!/usr/bin/env python3
"""Print added, removed and net lines per top-level directory since BASE.

Reads `git diff --numstat BASE` (the working tree against BASE, so
uncommitted edits count; untracked files do not until they are staged
with `git add -N` or `git add`) and sums the counts into src, tests,
bench, tools and other. Binary files, which numstat reports as "-", are
left out.

Usage:
  tools/net_loc.py BASE

Exits 1 if git fails.
"""

import subprocess
import sys

GROUPS = ("src", "tests", "bench", "tools")


def group_of(path):
    # A rename is reported as "old => new" or "dir/{old => new}/file";
    # the top-level directory is the text before the first slash either way.
    top = path.split("/", 1)[0].lstrip("{")
    return top if top in GROUPS else "other"


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base = sys.argv[1]
    try:
        diff = subprocess.run(["git", "diff", "--numstat", base], check=True,
                              stdout=subprocess.PIPE, text=True).stdout
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"net_loc: git diff failed: {error}", file=sys.stderr)
        return 1
    totals = {group: [0, 0] for group in GROUPS + ("other",)}
    for line in diff.splitlines():
        added, removed, path = line.split("\t", 2)
        if added == "-":
            continue
        counts = totals[group_of(path)]
        counts[0] += int(added)
        counts[1] += int(removed)
    print(f"{'dir':<8}{'added':>8}{'removed':>9}{'net':>8}")
    all_added = all_removed = 0
    for group, (added, removed) in totals.items():
        all_added += added
        all_removed += removed
        print(f"{group:<8}{added:>8}{removed:>9}{added - removed:>+8}")
    print(f"{'total':<8}{all_added:>8}{all_removed:>9}{all_added - all_removed:>+8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
