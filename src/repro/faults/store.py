"""The store: the cache root's layout and its crash-safe primitives.

Everything the package persists lives under one root
(``$REPRO_CACHE_DIR``, default ``~/.cache/repro``) in one of the
:data:`KINDS` below; writers and readers take their paths from here,
and ``repro cache stats|prune`` loops over the same table.  The
resilience contract every kind follows:

* **quarantine, never crash** — a truncated, garbage, or
  schema-mismatched file is renamed aside (``<name>.corrupt-<pid>``)
  with a warning and treated as absent, so the caller rebuilds it;
* **never clobber evidence** — quarantine names are chosen to not
  overwrite a previous quarantine (the corrupt file is kept for
  inspection);
* **lock cross-process merges** — :class:`FileLock` serializes
  read-merge-write cycles between processes via ``fcntl.flock`` on a
  sidecar lockfile; without ``fcntl`` it falls back to an
  ``O_CREAT|O_EXCL`` pid lockfile with stale-lock breaking (a lock
  whose owner pid is dead is removed and re-taken), so merge-on-save
  is serialized on every platform.  Only a genuinely unacquirable
  lock (unwritable directory, timeout against a live holder)
  degrades to unlocked best-effort operation — the atomic-replace
  write keeps even the unlocked race torn-file-free.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional

try:
    import fcntl
except ImportError:  # non-POSIX: degrade to unlocked operation
    fcntl = None

#: Environment override for the cache root.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Infix of quarantined file names (``<name>.corrupt-<pid>[-n]``).
QUARANTINE_TAG = ".corrupt-"


def cache_root(root=None) -> Path:
    """The cache root: ``root`` when given, else ``$REPRO_CACHE_DIR``,
    else ``~/.cache/repro``.  Resolved on every call, never at import,
    so a process (or a test) can repoint the variable."""
    if root is None:
        root = os.environ.get(CACHE_DIR_ENV) or "~/.cache/repro"
    return Path(root).expanduser()


def write_json_atomic(path, data, fsync: bool = True):
    """Write ``data`` as compact JSON (one C-encoder pass: ``json.dump``
    encodes in Python) via write-temp-then-replace.

    The temp name embeds the pid so concurrent writers never collide;
    with ``fsync`` the content is forced to stable storage before the
    rename, so a crash straddling the write leaves either the old
    complete file or the new complete file — never a torn one.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    text = json.dumps(data)
    with open(tmp, "w") as handle:
        handle.write(text)
        if fsync:
            handle.flush()
            os.fsync(handle.fileno())
    os.replace(tmp, path)


def quarantine_file(path, reason: str = "",
                    warn: bool = True) -> Optional[Path]:
    """Move a corrupt file aside and warn; the caller then rebuilds.

    Returns the quarantine path, or ``None`` when the file vanished
    first (another process already quarantined or replaced it) or
    could not be moved (it is then unlinked as a last resort).
    """
    path = Path(path)
    stamp = os.getpid()
    target = None
    for n in range(10000):
        suffix = f"{QUARANTINE_TAG}{stamp}" if n == 0 \
            else f"{QUARANTINE_TAG}{stamp}-{n}"
        candidate = path.with_name(path.name + suffix)
        if not candidate.exists():
            target = candidate
            break
    try:
        if target is not None:
            os.rename(path, target)
        else:  # pathological: thousands of quarantines; just drop it
            os.unlink(path)
    except FileNotFoundError:
        return None
    except OSError:
        try:
            os.unlink(path)
        except OSError:
            return None
        target = None
    if warn:
        detail = f" ({reason})" if reason else ""
        where = f" -> {target.name}" if target is not None \
            else " (removed)"
        print(f"warning: quarantined corrupt file {path}{detail}"
              f"{where}; it will be rebuilt", file=sys.stderr)
    return target


def read_json_guarded(path, expect: type = dict, quiet: bool = False,
                      parse: Optional[Callable] = None
                      ) -> Optional[object]:
    """Parse JSON from ``path``; quarantine and return ``None`` on any
    corruption (missing files return ``None`` without quarantine).

    ``parse`` is the caller's shape check: it turns the data into the
    caller's object, and anything it raises quarantines the file too.
    """
    path = Path(path)
    try:
        with open(path) as handle:
            data = json.load(handle)
        if expect is not None and not isinstance(data, expect):
            raise ValueError(f"expected a JSON {expect.__name__}, "
                             f"got {type(data).__name__}")
        if parse is not None:
            data = parse(data)
    except FileNotFoundError:
        return None
    except Exception as exc:
        quarantine_file(path, reason=repr(exc), warn=not quiet)
        return None
    return data


# -- the layout ----------------------------------------------------------------

@dataclass(frozen=True)
class Kind:
    """One family of files under the cache root.

    Its members are the entries of ``subdir`` matching ``pattern``
    (plus ``<member>.lock`` sidecars with ``lock``); a ``*`` in the
    pattern stands for a member's key.  A kind with a ``count`` is a
    single file (``pattern`` is its name), and ``count`` says how many
    records it holds (``None``: unreadable, the file is then
    quarantined); a family is counted by members.  *Derived* kinds are
    rebuilt by whoever needs them and go with a plain ``repro cache
    prune``; primary kinds only with ``--all``.
    """

    label: str
    subdir: str
    pattern: str
    derived: bool
    unit: str
    count: Optional[Callable[[Path], Optional[int]]] = None
    lock: bool = False

    def dir(self, root=None) -> Path:
        return cache_root(root) / self.subdir

    def path(self, key: Optional[str] = None, root=None) -> Path:
        """The kind's file, or the family member named by ``key``."""
        name = self.pattern if key is None \
            else self.pattern.replace("*", key)
        return self.dir(root) / name

    def members(self, root=None) -> List[Path]:
        where = self.dir(root)
        found = set(where.glob(self.pattern))
        if self.lock:
            found.update(where.glob(self.pattern + ".lock"))
        return sorted(found)

    def describe(self, root=None) -> str:
        """The kind's line of ``repro cache stats``."""
        if self.count is None:
            members = self.members(root)
            size = sum(_size(p) for p in members)
            return f"{self.label}: {len(members)} {self.unit}, " \
                   f"{size} bytes"
        path = self.path(root=root)
        count = self.count(path) if path.is_file() else None
        if count is None:
            return f"{self.label}: absent"
        return f"{self.label}: {path.name} ({count} {self.unit}, " \
               f"{path.stat().st_size} bytes)"


def _size(path: Path) -> int:
    try:
        return path.stat().st_size
    except OSError:
        return 0  # removed while counting


def _json_count(measure: Callable) -> Callable[[Path], Optional[int]]:
    return lambda path: read_json_guarded(path, parse=measure)


def _line_count(path: Path) -> int:
    with open(path) as handle:
        return sum(1 for _ in handle)


RESULTS = Kind("explore result cache", "", "explore_cache.json",
               derived=False, unit="entries", count=_json_count(len),
               lock=True)
REPORTS = Kind("report store", "reports", "report-*.json",
               derived=False, unit="report(s)")
KERNELS = Kind("compiled kernels", "kernels", "*.json",
               derived=True, unit="artifact(s)")
SERVE_INDEX = Kind("serve frontier index", "serve",
                   "frontier_index.json", derived=True,
                   unit="front(s)",
                   count=_json_count(lambda d: len(d["entries"])))
QUERY_LOG = Kind("serve query log", "serve", "query_log.jsonl",
                 derived=True, unit="queries", count=_line_count)
TELEMETRY = Kind("last explore metrics", "telemetry",
                 "last_explore_metrics.json", derived=False,
                 unit="counters",
                 count=_json_count(lambda d: len(d["counters"])))

#: Every kind, in ``repro cache stats`` order.
KINDS = (RESULTS, REPORTS, KERNELS, SERVE_INDEX, QUERY_LOG, TELEMETRY)


def quarantined(root=None) -> List[Path]:
    """Quarantine leftovers anywhere under the root."""
    return sorted(p for p in cache_root(root).rglob(f"*{QUARANTINE_TAG}*")
                  if p.is_file())


class FileLock:
    """Advisory cross-process lock on a sidecar lockfile.

    With ``fcntl`` available the lock is a ``flock`` on the (never
    removed) sidecar file.  Without it — non-POSIX platforms — the
    sidecar itself is the lock: it is created with
    ``O_CREAT | O_EXCL`` holding the owner's pid, and released by
    unlinking.  A contender that finds the file but whose recorded
    owner is no longer alive breaks the stale lock and re-takes it,
    so a crashed holder cannot wedge every later merge.

    Best-effort by design: when acquisition fails (unwritable
    directory, timeout against a live holder), the context manager
    enters anyway with :attr:`locked` False — callers keep their
    atomic-replace writes, losing only the merge serialization (the
    pre-lock behaviour).
    """

    def __init__(self, path, timeout: float = 10.0,
                 poll: float = 0.05):
        self.path = Path(path)
        self.timeout = timeout
        self.poll = poll
        self.locked = False
        self._handle = None
        self._owns_file = False

    def acquire(self) -> bool:
        if self.locked:
            return True
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        except OSError:
            return False
        if fcntl is not None:
            return self._acquire_flock()
        return self._acquire_exclusive_create()

    def _acquire_flock(self) -> bool:
        try:
            handle = open(self.path, "a+")
        except OSError:
            return False
        deadline = time.monotonic() + self.timeout
        while True:
            try:
                fcntl.flock(handle.fileno(),
                            fcntl.LOCK_EX | fcntl.LOCK_NB)
                self._handle = handle
                self.locked = True
                return True
            except OSError:
                if time.monotonic() >= deadline:
                    handle.close()
                    return False
                time.sleep(self.poll)

    def _acquire_exclusive_create(self) -> bool:
        deadline = time.monotonic() + self.timeout
        while True:
            try:
                fd = os.open(self.path,
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                self._break_stale()
                if time.monotonic() >= deadline:
                    return False
                time.sleep(self.poll)
                continue
            except OSError:
                return False
            try:
                os.write(fd, str(os.getpid()).encode())
            except OSError:
                pass
            finally:
                os.close(fd)
            self._owns_file = True
            self.locked = True
            return True

    def _break_stale(self):
        """Remove the lockfile when its recorded owner is dead.

        An unreadable or pid-less lockfile is treated as stale too (a
        holder crashed between create and write).  The unlink races
        benignly: if another contender breaks and re-takes the lock
        first, this unlink may remove *their* fresh lockfile, which
        degrades that window to the documented best-effort behaviour
        rather than deadlocking on a lock nobody holds.
        """
        try:
            text = self.path.read_text().strip()
            pid = int(text) if text else 0
        except (OSError, ValueError):
            pid = 0
        if pid > 0 and pid != os.getpid():
            try:
                os.kill(pid, 0)
                return  # owner is alive: the lock is genuinely held
            except ProcessLookupError:
                pass  # owner is dead: stale
            except OSError:
                return  # EPERM etc.: some live process owns the pid
        elif pid == os.getpid():
            return  # our own (other FileLock instance): genuinely held
        try:
            os.unlink(self.path)
        except OSError:
            pass

    def release(self):
        handle, self._handle = self._handle, None
        owned, self._owns_file = self._owns_file, False
        self.locked = False
        if handle is not None:
            try:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
            except OSError:
                pass
            handle.close()
        if owned:
            try:
                os.unlink(self.path)
            except OSError:
                pass

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info):
        self.release()
        return False
