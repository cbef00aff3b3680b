#!/usr/bin/env python3
"""Fail when a test-name filter in a workflow matches no test.

`cargo test … NAME` and `cargo test … -- NAME…` pass silently when NAME
matches nothing, so a renamed or deleted test would drop out of a named
smoke step unnoticed. For every `cargo test` command with name filters in
the workflow, this runs the same command with `-- --list` (once per
distinct set of cargo flags) and checks that each filter is a substring of
some listed test, the rule libtest filters by.

    python3 .github/check_test_filters.py .github/workflows/ci.yml
"""

import re
import shlex
import subprocess
import sys

# cargo test flags that take a value
VALUED = {"-p", "--package", "--test", "--bin", "--example", "--bench",
          "--features", "--manifest-path", "--target", "--target-dir", "-j"}


def commands(workflow):
    """Every `cargo test` command line, backslash continuations joined."""
    text = re.sub(r"\\\n\s*", " ", open(workflow).read())
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("cargo test "):
            yield shlex.split(line)


def split(argv):
    """(cargo flags, name filters) of one `cargo test` argv."""
    args = argv[2:]
    cut = args.index("--") if "--" in args else len(args)
    flags, filters = [], [a for a in args[cut + 1:] if not a.startswith("-")]
    i = 0
    while i < cut:
        arg = args[i]
        if arg in VALUED:
            flags += args[i:i + 2]
            i += 2
            continue
        (flags if arg.startswith("-") else filters).append(arg)
        i += 1
    return tuple(flags), filters


def listed(flags):
    """The names of every test `cargo test FLAGS` runs."""
    out = subprocess.run(["cargo", "test", *flags, "--", "--list"],
                         check=True, capture_output=True, text=True).stdout
    return [l[:-len(": test")] for l in out.splitlines() if l.endswith(": test")]


def main(workflow):
    wanted = {}
    for argv in commands(workflow):
        flags, filters = split(argv)
        if filters:
            wanted.setdefault(flags, []).extend(filters)
    checked, missing = 0, []
    for flags, filters in wanted.items():
        names = listed(flags)
        for f in filters:
            checked += 1
            if not any(f in n for n in names):
                missing.append(f"cargo test {' '.join(flags)} -- {f}")
    for m in missing:
        print(f"no test matches: {m}")
    print(f"{checked - len(missing)} of {checked} test-name filters match a test")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
