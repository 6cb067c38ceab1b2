"""The recorder and matcher of ``scripts/census.py`` on a toy package."""

import os
import subprocess
import sys
import textwrap

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "scripts"))
import census  # noqa: E402

TOY = '''\
import abc
import functools
import multiprocessing


def called():
    return 1


def uncalled():
    return 2


@functools.lru_cache(maxsize=None)
def decorated():
    def nested():
        return 3
    return 4


class Base(abc.ABC):
    @abc.abstractmethod
    def abstract(self):
        """A stub: never listed."""

    def stub(self):
        raise NotImplementedError


def in_child():
    return 5


def main():
    called()
    decorated()
    child = multiprocessing.get_context("spawn").Process(target=in_child)
    child.start()
    child.join()
    assert child.exitcode == 0


def test_only():
    return 6
'''


def _toy(tmp_path):
    src = tmp_path / "src"
    (src / "toy").mkdir(parents=True)
    (src / "toy" / "__init__.py").write_text("")
    (src / "toy" / "mod.py").write_text(TOY)
    return src


def _record(tmp_path, src, group, code):
    """Run ``code`` under the recorder into the ``group`` records."""
    hook_dir, out_dir = tmp_path / group / "hook", tmp_path / group / "records"
    hook_dir.mkdir(parents=True)
    out_dir.mkdir()
    census.write_hook(hook_dir, out_dir, src)
    subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                   env=census.hook_env(hook_dir, src), check=True,
                   timeout=60)
    return out_dir


def test_census_lists_exactly_the_functions_nothing_entered(tmp_path):
    src = _toy(tmp_path)
    out_dir = _record(tmp_path, src, "rest",
                      "import toy.mod; toy.mod.main()")
    # The spawn child records into its own file.
    assert len(list(out_dir.glob("*.rec"))) == 2

    found = census.never_entered(census.load_records(out_dir), src)
    assert census.report(found, tmp_path) == textwrap.dedent("""\
        src/toy/mod.py:10 uncalled (2 lines)
        src/toy/mod.py:16 decorated.<locals>.nested (2 lines)
        src/toy/mod.py:43 test_only (2 lines)
        3 functions, 6 lines never entered""")


def test_second_list_is_what_only_tier1_entered(tmp_path):
    src = _toy(tmp_path)
    rest = census.load_records(_record(
        tmp_path, src, "rest", "import toy.mod; toy.mod.main()"))
    tier1 = census.load_records(_record(
        tmp_path, src, "tier1",
        "import toy.mod; toy.mod.called(); toy.mod.test_only()"))
    only = census.only_entered_by(tier1, rest, src)
    assert census.report(only, tmp_path, what="entered only by tier-1") \
        == textwrap.dedent("""\
        src/toy/mod.py:43 test_only (2 lines)
        1 functions, 2 lines entered only by tier-1""")
    # Nothing tier-1 and the rest both entered is on it, nor what
    # neither entered.
    assert census.never_entered(tier1 | rest, src) == [
        f for f in census.never_entered(rest, src)
        if f.qualname != "test_only"]


def test_an_unentered_function_hides_what_it_nests(tmp_path):
    (tmp_path / "m.py").write_text(textwrap.dedent("""\
        def outer():
            def inner():
                pass
            return inner
        """))
    found = census.never_entered(set(), tmp_path)
    assert census.report(found, tmp_path) == (
        "m.py:1 outer (4 lines)\n1 functions, 4 lines never entered")


def test_the_oracle_allowlist_names_modules_and_definitions(tmp_path):
    names = ("run", "runner", "Unit.step", "Unit.step.<locals>.push",
             "UnitTest.step")
    functions = [census.Function(tmp_path / "src" / "toy" / "mod.py", 1,
                                 name, 1, False) for name in names]

    def allowed(allow):
        return [f.qualname for f in functions
                if census.allowlisted(f, allow, tmp_path)]

    assert allowed({"src/toy/mod.py": "the whole module"}) == list(names)
    # A function, or a class with its methods; a name is matched
    # whole, never as the prefix of another.
    assert allowed({"src/toy/mod.py:run": "a function"}) == ["run"]
    assert allowed({"src/toy/mod.py:Unit": "a class"}) == [
        "Unit.step", "Unit.step.<locals>.push"]
    assert allowed({"src/toy/other.py": "another module",
                    "src/toy/mod.py:Uni": "no such name"}) == []


def test_every_oracle_entry_names_code_that_exists():
    functions = census.never_entered(set())
    for entry, reason in census.ORACLE.items():
        assert reason
        assert any(census.allowlisted(f, {entry: reason})
                   for f in functions), entry
