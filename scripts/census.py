#!/usr/bin/env python
"""Census of ``src/`` functions that nothing executes.

Runs the repo's inventory — the tier-1 suite, the examples, the smoke
scripts, one two-device ``repro run`` and the quick end-to-end
benchmark — with a recorder on
``PYTHONPATH``, then prints every function defined under ``src/`` that
none of them entered.  A second, informational list follows: the
functions tier-1 entered and nothing else in the inventory did (code
only its tests drive).

The recorder is a generated ``sitecustomize`` module, so every Python
process started with the hook on its path records, child processes
included.  It installs a global trace function (``sys.settrace`` and
``threading.settrace``) that notes each code object's first call and
returns ``None``: there is no line tracing.  Each process appends
``file<TAB>first line`` records to its own file (one per pid, opened
at its first record; a forked child opens its own), flushed as they are
found, so a killed process still counts.

Records are matched to the ``ast`` function definitions of ``src/`` by
first line (the first decorator's line when decorated).  Abstract stubs
are skipped: ``@abstractmethod``, or a body that is only ``...`` or
``raise NotImplementedError``.  A function nested in one that was never
entered is not listed on its own; its lines count in the outer one.
Tier-1 records into a directory of its own, so the second list is the
first list's rule applied to the rest of the inventory, kept to what
tier-1 entered.  It leaves out the code on the :data:`ORACLE`
allowlist (the scalar oracle and the cell-mode compiler it evaluates
with, which exist to be checked against) and prints their total on a
line of its own.

Run: ``python scripts/census.py [--out list.txt]`` (tier-1 runs from
the repo root, everything else from a temporary directory with its own
``REPRO_CACHE_DIR``).  Exits 1 when the first list is non-empty, 2 when
an inventory command fails; the second list never changes the exit
code.  Edit no ``src/`` file while it runs: a record names a function
by its first line.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Iterable, List, NamedTuple, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: What tier-1 alone may enter by design: the oracle every engine is
#: checked against.  ``path`` names a whole module, ``path:name`` a
#: function or class (its methods included); each has its reason.
ORACLE = {
    "src/repro/simulator/oracle.py":
        "the scalar oracle: every engine is checked bitwise against it",
    "src/repro/simulator/compile.py:CompiledStencil":
        "cell mode: the oracle's per-cell expression evaluator",
    "src/repro/simulator/compile.py:_emit":
        "cell mode: renders the expression the oracle evaluates",
    "src/repro/simulator/compile.py:_distinct_accesses":
        "cell mode: the argument order of the oracle's evaluator",
    "src/repro/simulator/compile.py:_div":
        "cell mode: the oracle's IEEE division",
}

#: The recorder, written as ``sitecustomize.py`` into the hook directory.
HOOK = '''\
import os
import sys
import threading

_OUT = {out!r}
_PREFIX = {prefix!r}
_seen = set()
_file = None


def _forget_file():
    global _file
    _file = None


def _tracer(frame, event, arg):
    global _file
    code = frame.f_code
    if code not in _seen:
        _seen.add(code)
        filename = os.path.abspath(code.co_filename)
        if filename.startswith(_PREFIX):
            if _file is None:
                _file = open(os.path.join(_OUT, "%d.rec" % os.getpid()), "a")
            _file.write("%s\\t%d\\n" % (filename, code.co_firstlineno))
            _file.flush()
    return None


os.register_at_fork(after_in_child=_forget_file)
sys.settrace(_tracer)
threading.settrace(_tracer)
'''


#: The record groups: tier-1, and everything else in the inventory.
TIER1, REST = "tier1", "rest"


def inventory(work: Path) -> List[Tuple[str, Path, List[str]]]:
    """The ``(group, cwd, argv)`` runs whose union of entered functions
    is the census.  Tier-1 runs from the root; the rest from ``work``,
    where an example may leave its output files."""
    py = sys.executable
    runs = [(TIER1, ROOT,
             [py, "-m", "pytest", "-q", "-p", "no:cacheprovider"])]
    scripts = sorted((ROOT / "examples").glob("*.py")) + [
        ROOT / "scripts" / name for name in (
            "crash_recovery_check.py", "serve_smoke.py",
            "telemetry_smoke.py")]
    runs += [(REST, work, [py, str(path)]) for path in scripts]
    runs.append((REST, work, [
        py, "-m", "repro", "run", "horizontal_diffusion",
        "--shape", "24,24,16", "--devices", "2",
        "--network-words-per-cycle", "0.3333333333333333",
        "--network-latency", "16"]))
    bench = str(ROOT / "benchmarks" / "e2e" / "bench.py")
    runs += [(REST, work, [py, bench, mode, "--quick", "--out", os.devnull])
             for mode in ("run", "trace")]
    return runs


def write_hook(hook_dir: Path, out_dir: Path, src: Path = SRC):
    """Write the recorder for files under ``src`` into ``hook_dir``."""
    prefix = str(src.resolve()) + os.sep
    (hook_dir / "sitecustomize.py").write_text(
        HOOK.format(out=str(out_dir), prefix=prefix))


def hook_env(hook_dir: Path, src: Path = SRC) -> dict:
    """``os.environ`` with the hook (then ``src``) first on the path."""
    path = [str(hook_dir), str(src)]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def load_records(out_dir: Path) -> Set[Tuple[str, int]]:
    """Every (file, first line) any recorded process entered."""
    entered = set()
    for path in out_dir.glob("*.rec"):
        for line in path.read_text().splitlines():
            filename, _, lineno = line.rpartition("\t")
            if filename:
                entered.add((filename, int(lineno)))
    return entered


class Function(NamedTuple):
    path: Path
    line: int       # the first decorator's line, else the ``def`` line
    qualname: str
    lines: int
    stub: bool


def _is_stub(node) -> bool:
    for decorator in node.decorator_list:
        name = decorator.attr if isinstance(decorator, ast.Attribute) \
            else getattr(decorator, "id", None)
        if name == "abstractmethod":
            return True
    body = node.body
    if (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]  # docstring
    if len(body) != 1:
        return False
    (stmt,) = body
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
        return stmt.value.value is Ellipsis
    if isinstance(stmt, ast.Raise) and stmt.exc is not None:
        exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
        return getattr(exc, "id", None) == "NotImplementedError"
    return False


def _walk(tree, path: Path, prefix: str
          ) -> Iterable[Tuple[Function, ast.AST]]:
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            yield from _walk(node, path, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            line = min([node.lineno] + [d.lineno
                                        for d in node.decorator_list])
            yield Function(path, line, prefix + node.name,
                           node.end_lineno - line + 1, _is_stub(node)), node
        else:
            yield from _walk(node, path, prefix)


def never_entered(entered: Set[Tuple[str, int]], src: Path = SRC
                  ) -> List[Function]:
    """Functions under ``src`` that no record names, in file order."""
    found = []

    def visit(tree, path, prefix):
        for function, node in _walk(tree, path, prefix):
            if (str(path), function.line) in entered:
                visit(node, path, f"{function.qualname}.<locals>.")
            elif not function.stub:
                found.append(function)

    for path in sorted(src.resolve().rglob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path, "")
    return found


def only_entered_by(entered: Set[Tuple[str, int]],
                    others: Set[Tuple[str, int]], src: Path = SRC
                    ) -> List[Function]:
    """Functions under ``src`` that ``entered`` names and ``others``
    never entered, nested ones folded as in :func:`never_entered`."""
    return [f for f in never_entered(others, src)
            if (str(f.path), f.line) in entered]


def allowlisted(function: Function, allow=ORACLE,
                root: Path = ROOT) -> bool:
    """Whether an ``allow`` entry names ``function``'s module, or it or
    the class it is defined in."""
    path = function.path.relative_to(root.resolve()).as_posix()
    parts = function.qualname.split(".")
    return path in allow or any(f"{path}:{'.'.join(parts[:n])}" in allow
                                for n in range(1, len(parts) + 1))


def report(functions: List[Function], root: Path = ROOT,
           what: str = "never entered") -> str:
    """One line per function, then the totals."""
    lines = [f"{f.path.relative_to(root.resolve())}:{f.line} "
             f"{f.qualname} ({f.lines} lines)" for f in functions]
    lines.append(f"{len(functions)} functions, "
                 f"{sum(f.lines for f in functions)} lines {what}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, default=None,
                        help="also write both lists to this file")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        work = Path(tmp, "work")
        work.mkdir()
        envs, records = {}, {}
        for group in (TIER1, REST):
            hook_dir, records[group] = (Path(tmp, group, name)
                                        for name in ("hook", "records"))
            hook_dir.mkdir(parents=True)
            records[group].mkdir()
            write_hook(hook_dir, records[group])
            # A private cache root: the examples persist reports.
            envs[group] = dict(hook_env(hook_dir),
                               REPRO_CACHE_DIR=str(work / "cache"))
        for group, cwd, command in inventory(work):
            print("[census] " + " ".join(command[1:]), flush=True)
            if subprocess.run(command, cwd=cwd,
                              env=envs[group]).returncode:
                print("[census] FAIL: inventory command failed",
                      flush=True)
                return 2
        tier1, rest = (load_records(records[group])
                       for group in (TIER1, REST))
    functions = never_entered(tier1 | rest)
    only = only_entered_by(tier1, rest)
    oracle = [f for f in only if allowlisted(f)]
    text = "\n".join((
        report(functions),
        "[census] entered only by tier-1 (informational):",
        report([f for f in only if not allowlisted(f)],
               what="entered only by tier-1"),
        f"{len(oracle)} functions, {sum(f.lines for f in oracle)} lines "
        f"on the oracle allowlist (left out above)"))
    print(text)
    if args.out is not None:
        args.out.write_text(text + "\n")
    return 1 if functions else 0


if __name__ == "__main__":
    sys.exit(main())
