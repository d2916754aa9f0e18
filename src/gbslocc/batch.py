"""Batch `check --file`: the reports of the sets of a set file, in order.

cli imports this module only for a batch, so the start-up that every
command pays leaves it out.  A batch of at least FORK_LINES lines, where
this process may run on two or more CPUs, is split at its middle line: a
forked child parses, decides and writes the second half into a temporary
file while this process does the first, and the file is copied after the
first half.
"""

import io
import os
import signal
import sys
from functools import lru_cache

from .cli import _write_check_json
from .decide import decide, decide_with_gap
from .gpm import parse_rows
from .modring import LazyTable


@lru_cache(maxsize=256)
def _summary_tail(report) -> str:
    """What follows the set on its line of text batch `check`."""
    parts = ["", report.verdict, report.mode]
    if report.condition:
        parts.append(report.condition)
    if report.witness:
        m, n = report.witness
        parts.append(f"({m},{n})")
    return "  ".join(parts) + "\n"


def _write_text_sets(out, sets, lead: str) -> str:
    """Write the line of text batch `check` of each set; lead is not used."""
    texts = LazyTable(lambda pair: f"{pair[0]},{pair[1]}").__getitem__
    for S in sets:
        out.write(";".join(map(texts, S.elements)) + _summary_tail(decide(S)))
    return lead


def _write_json_sets(out, sets, lead: str) -> str:
    """Write the JSON report of each set as an element of render_json's
    list, the first after lead and the rest after ",\n  ".  Returns what
    goes before the next element."""
    for S in sets:
        out.write(lead)
        _write_check_json(out, S, *decide_with_gap(S), "  ")
        lead = ",\n  "
    return lead


# Measured on a 2-core machine, in fresh processes, on standard 5-sets at
# d = 6: the split broke even near 1,000 lines; at 4,096 it saved 8-12 ms
# of 97-107 ms, and at 8,192 24-28 ms of 130-146 ms.
FORK_LINES = 4096


def _can_fork(lines: int) -> bool:
    # A fork copies only the calling thread, so a lock that another thread
    # holds stays taken in the child: a process with threads never splits.
    threading = sys.modules.get("threading")
    return (lines >= FORK_LINES and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2 and hasattr(sys.stdout, "buffer")
            and (threading is None or threading.active_count() == 1))


def _fork_half(path, lines, d: int, start: int, write):
    """Fork a child that parses lines, numbered from start, and writes
    them with write(out, sets, "") into a temporary file.

    Returns (pid, ready, spill), or None when no child could be started.
    The child writes a byte to the pipe end ready once every line has
    parsed, and one after each 1,024 sets written; it never touches stdout,
    and leaves through os._exit: 0 once its file is complete.
    """
    import tempfile

    try:
        spill = tempfile.TemporaryFile()
        ready, done = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        spill.close()
        os.close(ready)
        os.close(done)
        return None
    if pid == 0:
        code = 1
        try:
            os.close(ready)
            sets = parse_rows(path, lines, d, start)
            os.write(done, b".")
            out, lead = io.TextIOWrapper(spill, encoding=sys.stdout.encoding), ""
            for i in range(0, len(sets), 1024):
                lead = write(out, sets[i:i + 1024], lead)
                # Once the parent is gone, as when a reader closed its
                # stdout, this write fails and ends the child.
                os.write(done, b".")
            out.flush()
            code = 0
        finally:
            os._exit(code)
    os.close(done)
    return pid, ready, spill


def check_batch(path, lines: list[str], d: int, as_json: bool) -> None:
    """Write the reports of batch `check` on the lines of the set file at path.

    Every line is parsed before the first write, so a bad line raises
    SetFormatError and leaves stdout empty; then each set is decided and
    written in turn, and the reports are never all held at once.  A split
    batch (see FORK_LINES) keeps to the same order: the child reports that
    its half parsed before this process writes, and whatever the child
    fails to do, this process does over again with parse_rows and write, so
    the bytes, errors and exit codes are those of one process.
    """
    write = _write_json_sets if as_json else _write_text_sets
    half = len(lines) // 2
    child = _can_fork(len(lines)) and _fork_half(path, lines[half:], d, half + 1, write)
    if not child:
        half = len(lines)
    pid, ready, spill = child or (None, None, None)
    try:
        sets = parse_rows(path, lines[:half], d)
        # None while the child's file holds the rest.
        rest = None if child and os.read(ready, 1) == b"." else \
            parse_rows(path, lines[half:], d, half + 1)
        lead = write(sys.stdout, sets, "[\n  " if as_json else "")
        if child:
            status = os.waitpid(pid, 0)[1]
            pid = None
            if rest is None and status != 0:
                rest = parse_rows(path, lines[half:], d, half + 1)
        if rest is not None:
            lead = write(sys.stdout, rest, lead)
        elif spill.seek(0, os.SEEK_END):  # the child wrote a set
            sys.stdout.write(lead)
            sys.stdout.flush()
            spill.seek(0)
            while chunk := spill.read(1 << 16):
                sys.stdout.buffer.write(chunk)
            lead = ",\n  "
        if as_json:
            sys.stdout.write("[]\n" if lead == "[\n  " else "\n]\n")
    finally:
        if pid is not None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if child:
            os.close(ready)
            spill.close()
