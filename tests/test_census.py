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
'''


def test_census_lists_exactly_the_functions_nothing_entered(tmp_path):
    src = tmp_path / "src"
    (src / "toy").mkdir(parents=True)
    (src / "toy" / "__init__.py").write_text("")
    (src / "toy" / "mod.py").write_text(TOY)
    hook_dir, out_dir = tmp_path / "hook", tmp_path / "records"
    hook_dir.mkdir()
    out_dir.mkdir()
    census.write_hook(hook_dir, out_dir, src)
    subprocess.run([sys.executable, "-c", "import toy.mod; toy.mod.main()"],
                   cwd=tmp_path, env=census.hook_env(hook_dir, src),
                   check=True, timeout=60)
    # The spawn child records into its own file.
    assert len(list(out_dir.glob("*.rec"))) == 2

    found = census.never_entered(census.load_records(out_dir), src)
    assert census.report(found, tmp_path) == textwrap.dedent("""\
        src/toy/mod.py:10 uncalled (2 lines)
        src/toy/mod.py:16 decorated.<locals>.nested (2 lines)
        2 functions, 4 lines never entered""")


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
