"""Reachability probe: the lines of ``src/repro`` that no user path enters.

Runs every example in ``examples/`` (the service walkthrough a second time
with ``--workers 2``) and the three perfbench workloads
(``--trace 1 --seconds 2``) with a profile hook in every Python process they
start, then sums the lines of the ``src/repro`` functions none of them
entered::

    python scripts/reachability.py                # this checkout
    python scripts/reachability.py --root DIR     # another checkout
    python scripts/reachability.py --list 40      # also the 40 largest

The hook is a ``sitecustomize`` module written to a temporary directory put
first on ``PYTHONPATH``: ``sys.setprofile`` and ``threading.setprofile``
record the code object of every ``call`` event, and each newly seen
``(file, first line)`` under ``src/repro`` is appended to a per-pid file at
once, so forked pool workers, which leave through ``os._exit``, still count.
An ``ast`` pass then counts, for every function never entered, its lines
from its first decorator to its end; a nested function counts only when the
function around it was entered.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

#: Unreached lines under these package paths are reported apart.
ORACLE_PACKAGE = "repro/oracle/"

PERFBENCH_WORKLOADS = ("table1_core_x", "core_y_at_speed", "service_campaign")

#: Examples that also run with these arguments, after their default run:
#: the service walkthrough defaults to one worker, and its pooled recovery
#: paths (the pool reset after a cancel) run only with a pool.
EXAMPLE_REPEATS = {"campaign_service.py": (["--workers", "2"],)}

HOOK = '''\
import os
import sys
import threading

_SRC = os.environ["REACH_SRC"]
_OUT = os.environ["REACH_OUT"]
_seen = set()
_sink = [None, None]


def _hook(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    if code in _seen:
        return
    _seen.add(code)
    if not code.co_filename.startswith(_SRC):
        return
    pid = os.getpid()
    if _sink[0] != pid:
        _sink[0] = pid
        _sink[1] = open(os.path.join(_OUT, "%d.txt" % pid), "a", buffering=1)
    _sink[1].write("%s\\t%d\\n" % (code.co_filename, code.co_firstlineno))


sys.setprofile(_hook)
threading.setprofile(_hook)
'''


def commands(root: Path) -> list[list[str]]:
    """Every user path the probe drives: the examples (some twice), then
    perfbench."""
    runs = []
    for path in sorted((root / "examples").glob("*.py")):
        runs.append([sys.executable, str(path)])
        for arguments in EXAMPLE_REPEATS.get(path.name, ()):
            runs.append([sys.executable, str(path), *arguments])
    for workload in PERFBENCH_WORKLOADS:
        runs.append([
            sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "2", "--trace", "1",
        ])
    return runs


def run_probe(root: Path, hook_dir: Path, out_dir: Path) -> list[str]:
    """Run every command under the hook; the commands that failed."""
    (hook_dir / "sitecustomize.py").write_text(HOOK)
    src = root / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(hook_dir), str(src)])
    env["REACH_SRC"] = str(src / "repro") + os.sep
    env["REACH_OUT"] = str(out_dir)
    failed = []
    for command in commands(root):
        name = " ".join(Path(part).name if index < 2 else part
                        for index, part in enumerate(command))
        print(f"running {name}", file=sys.stderr, flush=True)
        status = subprocess.run(
            command, cwd=root, env=env, stdout=subprocess.DEVNULL
        ).returncode
        if status != 0:
            failed.append(f"{name} (exit {status})")
    return failed


def entered(out_dir: Path) -> dict[str, set[int]]:
    """Source file -> first lines of the code objects some process entered."""
    seen: dict[str, set[int]] = {}
    for path in out_dir.glob("*.txt"):
        for line in path.read_text().splitlines():
            filename, _, first = line.rpartition("\t")
            seen.setdefault(filename, set()).add(int(first))
    return seen


def unreached(path: Path, first_lines: set[int]) -> list[tuple[str, int, int]]:
    """``(qualified name, first line, lines)`` of each outermost function of
    ``path`` that was never entered."""
    found: list[tuple[str, int, int]] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                start = min([child.lineno] + [d.lineno for d in child.decorator_list])
                if start in first_lines or child.lineno in first_lines:
                    visit(child, name + ".")
                else:
                    found.append((name, start, child.end_lineno - start + 1))
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(), str(path)), "")
    return found


def report(root: Path, seen: dict[str, set[int]], listed: int) -> None:
    package = root / "src" / "repro"
    rows = []
    for path in sorted(package.rglob("*.py")):
        relative = path.relative_to(root / "src").as_posix()
        for name, start, lines in unreached(path, seen.get(str(path), set())):
            rows.append((lines, relative, start, name))
    inside = sum(row[0] for row in rows if row[1].startswith(ORACLE_PACKAGE))
    outside = sum(row[0] for row in rows) - inside
    per_file: dict[str, int] = {}
    for lines, relative, _start, _name in rows:
        per_file[relative] = per_file.get(relative, 0) + lines
    print("unreached lines per file (outside the oracle package):")
    for relative, lines in sorted(per_file.items(), key=lambda item: -item[1]):
        if not relative.startswith(ORACLE_PACKAGE):
            print(f"  {lines:6d}  {relative}")
    if listed:
        print(f"largest {listed} unreached functions:")
        for lines, relative, start, name in sorted(rows, reverse=True)[:listed]:
            print(f"  {lines:6d}  {relative}:{start}  {name}")
    print(f"unreached lines in {ORACLE_PACKAGE}: {inside}")
    print(f"unreached lines outside {ORACLE_PACKAGE}: {outside}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout to probe (default: this one)")
    parser.add_argument("--list", type=int, default=0, metavar="N",
                        help="also list the N largest unreached functions")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    with tempfile.TemporaryDirectory() as hook_dir, tempfile.TemporaryDirectory() as out_dir:
        failed = run_probe(root, Path(hook_dir), Path(out_dir))
        report(root, entered(Path(out_dir)), args.list)
    for name in failed:
        print(f"failed: {name}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
