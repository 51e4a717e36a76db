"""The calling thread of pipeline._execute takes no lock a worker takes.

A Ctrl-C can land in the calling thread at any bytecode. If it lands just
after that thread took a lock a worker also takes, the lock stays held
and the run deadlocks. So inside _execute:

- no threading.Event, Condition, Semaphore, BoundedSemaphore, Barrier or
  RLock is built: their wait, set and release take a Python-level lock
  that every thread using them shares;
- outside the nested worker function, nothing enters `with lock` or
  calls .acquire, .release, .wait, .set, .notify or .notify_all.

The calling thread waits on queue.SimpleQueue, whose get and put take
only a lock implemented in C."""

import ast
from pathlib import Path

PIPELINE = Path(__file__).parent.parent / "src" / "autoscore" / "pipeline.py"

SHARED_LOCK_TYPES = {"Event", "Condition", "Semaphore", "BoundedSemaphore", "Barrier",
                     "RLock"}
LOCKING_METHODS = {"acquire", "release", "wait", "set", "notify", "notify_all"}


def calling_thread_locks(source: str) -> list[str]:
    """What in `source`'s _execute builds a lock type shared with the
    workers, or takes a lock outside its nested `work`, as "what (line N)"."""
    execute = next(node for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.FunctionDef) and node.name == "_execute")
    in_worker = {id(inner) for node in ast.walk(execute)
                 if isinstance(node, ast.FunctionDef) and node.name == "work"
                 for inner in ast.walk(node)}
    found = []
    for node in ast.walk(execute):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in SHARED_LOCK_TYPES:
                found.append(f"builds {name} (line {node.lineno})")
            elif (name in LOCKING_METHODS and isinstance(node.func, ast.Attribute)
                    and id(node) not in in_worker):
                found.append(f"calls .{name} (line {node.lineno})")
        elif isinstance(node, ast.With) and id(node) not in in_worker:
            found.extend(f"enters with {ast.unparse(item.context_expr)} "
                         f"(line {node.lineno})" for item in node.items
                         if ast.unparse(item.context_expr) == "lock")
    return sorted(found)


def test_the_calling_thread_takes_no_lock_a_worker_takes():
    assert calling_thread_locks(PIPELINE.read_text(encoding="utf-8")) == []


def test_guard_flags_a_calling_thread_that_waits_on_an_event():
    source = (
        "import threading\n"
        "def _execute(files):\n"
        "    lock = threading.Lock()\n"
        "    done = threading.Event()\n"
        "    def work():\n"
        "        with lock:\n"
        "            lock.acquire()\n"
        "            lock.release()\n"
        "        done.set()\n"
        "    with open(files) as handle:\n"
        "        done.wait(0.005)\n"
        "        with lock:\n"
        "            pass\n"
        "def elsewhere(lock):\n"
        "    with lock:\n"
        "        lock.acquire()\n"
    )
    assert calling_thread_locks(source) == [
        "builds Event (line 4)", "calls .wait (line 11)", "enters with lock (line 12)"]
