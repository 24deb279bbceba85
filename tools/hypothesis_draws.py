"""Digest the examples that the property tests of one source tree draw.

    python tools/hypothesis_draws.py TREE [MODULES ...]

TREE is a checkout of this repository; MODULES are test files relative to
it, by default every file under ``tests/`` that holds a ``@given`` test.
They run under pytest in a child process, in TREE with ``TREE/src`` on the
path, with ``--hypothesis-verbosity=verbose``.  One line per property test
is printed: its node id and the SHA-256 of everything hypothesis reported
for it, every "Trying example" line included, or ``not-derandomized`` for a
test whose examples change from run to run.

Hypothesis adds the numeric literals of every loaded local module to the
values it draws, so a change that adds, edits or deletes a constant anywhere
in ``src/`` or ``tests/`` can make a ``derandomize=True`` test draw other
examples.  Diff the lines of the parent tree against the change's to see
which tests do:

    python tools/hypothesis_draws.py PARENT > parent.txt
    python tools/hypothesis_draws.py CHANGE > change.txt
    diff parent.txt change.txt
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import os
import subprocess
import sys

MARK = "hypothesis-draws "


class _Digests:
    """A pytest plugin that keeps, after each property test, the digest of
    the reports that hypothesis' own plugin stored on its item."""

    def __init__(self):
        self.lines = []

    def pytest_runtest_teardown(self, item):
        obj = getattr(item, "obj", None)
        test = getattr(obj, "__func__", obj)
        if not hasattr(test, "hypothesis"):
            return
        settings = getattr(test, "_hypothesis_internal_use_settings", None)
        if settings is not None and settings.derandomize:
            text = getattr(item, "hypothesis_report_information", "")
            digest = hashlib.sha256(text.encode("utf-8", "surrogatepass")).hexdigest()
        else:
            digest = "not-derandomized"
        self.lines.append(f"{item.nodeid} {digest}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("tree", help="source tree to run")
    ap.add_argument("modules", nargs="*", help="test files relative to TREE")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        import pytest

        digests = _Digests()
        code = pytest.main([*args.modules, "-q", "-p", "no:cacheprovider",
                            "--hypothesis-verbosity=verbose"], plugins=[digests])
        print("".join(f"\n{MARK}{line}" for line in digests.lines))
        return int(code)
    tree = os.path.abspath(args.tree)
    modules = args.modules
    if not modules:
        for path in sorted(glob.glob(os.path.join(tree, "tests", "*.py"))):
            with open(path, encoding="utf-8") as fh:
                if "@given" in fh.read():
                    modules.append(os.path.relpath(path, tree))
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), tree, *modules, "--child"],
        cwd=tree, env={**os.environ, "PYTHONPATH": os.path.join(tree, "src")},
        stdout=subprocess.PIPE, text=True,
    )
    for line in proc.stdout.splitlines():
        if line.startswith(MARK):
            print(line[len(MARK):])
    # pytest exits 1 when a test fails; its examples are digested all the same
    return 0 if proc.returncode in (0, 1) else proc.returncode


if __name__ == "__main__":
    sys.exit(main())
