"""``scripts/reachability.py``: the hook records what a run enters, forked
children included, and the ``ast`` pass counts what it never entered.

The probe is driven over a toy checkout written to ``tmp_path`` (a
``src/repro`` package, two examples and a stand-in ``perfbench/run.py``), so
the whole pipeline runs in well under a second.
"""

import importlib.util
import textwrap
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "reachability.py"


@pytest.fixture(scope="module")
def reach():
    spec = importlib.util.spec_from_file_location("reachability", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TOY = textwrap.dedent(
    """\
    import functools


    def used():
        def inner_used():
            return 1

        def inner_unused():
            return 2

        return inner_used()


    def unused():
        return 3


    @functools.lru_cache(maxsize=None)
    def decorated_unused():
        return 4


    class Box:
        def called(self):
            return 5

        def never(self):
            x = 6
            return x


    def forked_only():
        return 7
    """
)

ORACLE_TOY = textwrap.dedent(
    """\
    def oracle_unused():
        return 8
    """
)

EXAMPLE = textwrap.dedent(
    """\
    import os

    from repro import toy

    toy.used()
    toy.Box().called()
    pid = os.fork()
    if pid == 0:
        toy.forked_only()
        os._exit(0)
    os.waitpid(pid, 0)
    """
)


def write_toy_checkout(root: Path) -> None:
    package = root / "src" / "repro"
    (package / "oracle").mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "toy.py").write_text(TOY)
    (package / "oracle" / "__init__.py").write_text(ORACLE_TOY)
    (root / "examples").mkdir()
    (root / "examples" / "a_runs.py").write_text(EXAMPLE)
    (root / "examples" / "b_fails.py").write_text("import sys\nsys.exit(3)\n")
    (root / "perfbench").mkdir()
    (root / "perfbench" / "run.py").write_text("import sys\nassert '--workload' in sys.argv\n")


@pytest.fixture(scope="module")
def probed(reach, tmp_path_factory):
    """(root, failed commands, entered lines) of one probe of the toy checkout."""
    base = tmp_path_factory.mktemp("reach")
    root, hook_dir, out_dir = base / "checkout", base / "hook", base / "out"
    for directory in (root, hook_dir, out_dir):
        directory.mkdir()
    write_toy_checkout(root)
    failed = reach.run_probe(root, hook_dir, out_dir)
    return root, failed, reach.entered(out_dir)


def unreached_names(reach, root, seen):
    path = root / "src" / "repro" / "toy.py"
    return {name: (start, lines)
            for name, start, lines in reach.unreached(path, seen.get(str(path), set()))}


def test_commands_run_every_example_then_each_workload(reach, tmp_path):
    write_toy_checkout(tmp_path)
    runs = reach.commands(tmp_path)
    assert [Path(run[1]).name for run in runs] == ["a_runs.py", "b_fails.py"] + ["run.py"] * 3
    assert [run[run.index("--workload") + 1] for run in runs[2:]] == list(
        reach.PERFBENCH_WORKLOADS
    )
    for run in runs[2:]:
        assert run[run.index("--trace") + 1] == "1"
        assert run[run.index("--seconds") + 1] == "2"


def test_repeated_example_runs_again_with_its_arguments(reach, tmp_path):
    write_toy_checkout(tmp_path)
    (tmp_path / "examples" / "campaign_service.py").write_text(EXAMPLE)
    runs = reach.commands(tmp_path)
    names = [Path(run[1]).name for run in runs]
    assert names[:4] == ["a_runs.py", "b_fails.py"] + ["campaign_service.py"] * 2
    assert runs[2][2:] == []
    assert runs[3][2:] == ["--workers", "2"]


def test_failed_command_is_reported(probed):
    _root, failed, _seen = probed
    assert len(failed) == 1
    assert failed[0].endswith(" b_fails.py (exit 3)")


def test_hook_records_forked_children(probed, reach):
    root, _failed, seen = probed
    names = unreached_names(reach, root, seen)
    assert "forked_only" not in names
    assert "used" not in names and "Box.called" not in names


def test_unreached_functions_and_their_lines(probed, reach):
    root, _failed, seen = probed
    names = unreached_names(reach, root, seen)
    assert set(names) == {
        "used.inner_unused", "unused", "decorated_unused", "Box.never",
    }
    assert names["unused"][1] == 2
    assert names["Box.never"][1] == 3


def test_decorator_lines_count(probed, reach):
    root, _failed, seen = probed
    start, lines = unreached_names(reach, root, seen)["decorated_unused"]
    assert TOY.splitlines()[start - 1].startswith("@functools.lru_cache")
    assert lines == 3


def test_nested_function_counts_only_inside_an_entered_one(reach, tmp_path):
    path = tmp_path / "toy.py"
    path.write_text(TOY)
    names = {name for name, _start, _lines in reach.unreached(path, set())}
    assert "unused" in names and "used" in names
    assert not any(name.startswith("used.") for name in names)


def test_entered_merges_per_pid_files(reach, tmp_path):
    (tmp_path / "101.txt").write_text("/a/x.py\t4\n/a/x.py\t9\n")
    (tmp_path / "202.txt").write_text("/a/x.py\t4\n/a/tab\tname.py\t2\n")
    assert reach.entered(tmp_path) == {"/a/x.py": {4, 9}, "/a/tab\tname.py": {2}}


def test_report_counts_the_oracle_package_apart(probed, reach, capsys):
    root, _failed, seen = probed
    reach.report(root, seen, listed=2)
    out = capsys.readouterr().out
    assert "unreached lines in repro/oracle/: 2" in out
    # inner_unused 2 + unused 2 + decorated_unused 3 + Box.never 3
    assert "unreached lines outside repro/oracle/: 10" in out
    assert "repro/toy.py" in out.split("largest")[0]
    assert "repro/oracle/__init__.py" not in out.split("largest")[0]


def test_main_exits_nonzero_when_a_command_fails(reach, tmp_path, capsys):
    write_toy_checkout(tmp_path)
    assert reach.main(["--root", str(tmp_path)]) == 1
    assert "failed: " in capsys.readouterr().err
