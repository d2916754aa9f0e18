"""Batch `check --file`: the reports of the sets of a set file, in order.

cli imports this module only for a batch, so the start-up that every
command pays leaves it out.  parse_codes reads each line into the packed
codes m*2d + n of its elements.  The difference of two codes is
(m - m')*2d + (n - n') with both parts in (-d, d), so a pair difference is
one subtraction, and its cover (see decide._covers) one index into a table
of (2d)^2 entries.

At d <= decide.SMALL_D the report of a set, all but its element list, is
fixed by three things: its size k, the OR `covered` of its pair-difference
covers, off which decide reads the witness, the units, the slope gap's row
and the index cardinality, and, when `covered` holds no witness and k > 3,
whether the k - 1 translates s_i - s_0 commute.  Of `covered` the report
reads only the witness, its lowest free bit, and the bits above the
witness segments, of which text reads only the top one, the units bit.
That report less the elements, the frame, is rendered by decide_with_gap
for the first set of each key and kept; each set is written as its frame
around the texts of its elements, from a table by code.  Above SMALL_D
each set is decided and written on its own.  The parent's reports go to
stdout in pieces of 64 sets or 64 KB, so a write-through stdout costs a
write per piece, not per set.

A batch of at least FORK_LINES lines, where this process may run on two or
more CPUs, is split at its middle line: a forked child parses, decides and
writes the second half into a temporary file while this process does the
first, and the file is copied after the first half.
"""

import io
import os
import signal
import sys
from functools import lru_cache, partial
from itertools import combinations

# Under `python -m gbslocc.cli`, cli has registered itself as gbslocc.cli,
# so this import finds the running module and compiles no second copy.
from .cli import _pair_text, _write_check_json
from .decide import SMALL_D, _covers, _witness_rows, decide_with_gap
from .gpm import GbsSet, SetFormatError, _trusted_gbs_set, is_commutative, parse_gbs_set
from .modring import LazyTable


def parse_codes(path, lines, d: int, start: int = 1) -> list[tuple[int, ...]]:
    """The sets of lines, numbered from start, one set literal per line, as
    the tuples of the codes m*2d + n of their elements; blank lines and '#'
    comments are skipped.  A bad line raises SetFormatError naming the path
    and the line, as gpm.parse_rows does.

    A batch repeats a few token texts many times, so each line whose
    tokens are all known canonical texts 'm,n', each written once, is read
    from a table of the codes met so far and not checked again.  The table
    holds only the elements of lines parse_gbs_set took, under the text
    format_gbs_set gives them, and every other line is parsed in full: the
    first, which checks d, and any with spaces, signs, leading zeros, a
    repeated token or an error.
    """
    rows, known, width = [], {}, 2 * d
    for lineno, raw in enumerate(lines, start):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            codes = tuple([known[token] for token in line.split(";")])
        except KeyError:
            pass
        else:
            if len(set(codes)) == len(codes):
                rows.append(codes)
                continue
        try:
            S = parse_gbs_set(line, d)
        except SetFormatError as exc:
            raise SetFormatError(f"{path}:{lineno}: {exc}") from None
        codes = tuple([m * width + n for m, n in S.elements])
        rows.append(codes)
        known.update(zip((f"{m},{n}" for m, n in S.elements), codes))
    return rows


def _gbs_set(codes, d: int) -> GbsSet:
    # parse_codes took d and checked every code it returns.
    return _trusted_gbs_set(d, tuple([divmod(code, 2 * d) for code in codes]))


@lru_cache(maxsize=8)
def _texts(d: int, as_json: bool) -> LazyTable:
    """The text of the element of each code at d, as batch `check` writes it."""
    if as_json:
        text = _pair_text("      ")
        return LazyTable(lambda code: text(divmod(code, 2 * d)))
    return LazyTable(lambda code: "%d,%d" % divmod(code, 2 * d))


@lru_cache(maxsize=8)
def _difference_covers(d: int) -> list[int]:
    """The cover of each difference of two codes at d <= SMALL_D, by that
    difference: entry (m*2d + n) mod (2d)^2, for m and n in (-d, d), holds
    the cover of (m mod d, n mod d).

    Built whole on first use: at d = 6 in about 0.2 ms, and at d = 64,
    where it makes all 4096 covers, in about 22 ms, which a batch of many
    sets at d = 64 pays in covers anyway.
    """
    covers, width = _covers(d), 2 * d
    table = [0] * width ** 2
    for m in range(1 - d, d):
        for n in range(1 - d, d):
            table[m * width + n] = covers[m % d * d + n % d]
    return table


# Frames a batch keeps before it empties its table of them.  The 52,360
# standard 5-sets at d = 6 make 85 JSON frames and 13 text ones, the 10,626
# at d = 5 make 28 and 7.  100,000 random 5-sets at d = 64 make 6 text
# frames, but meet a JSON frame, of about 1.9 KB, only 53 times, and keep
# none once their first 1,024 have filled the table.
FRAMES = 1024


class _Frames(dict):
    """A batch's frames by key, and how many of its sets met their frame
    since the table was last emptied; None once it keeps no frames."""

    hits = 0


def _frame(codes, d: int, as_json: bool) -> tuple[str, str]:
    """The report of the set of codes as (head, tail), around its elements."""
    S = _gbs_set(codes, d)
    report, gap_row = decide_with_gap(S)
    if not as_json:
        return "", _summary_tail(report)
    text = io.StringIO()
    _write_check_json(text, S, report, gap_row, "  ", "\0")
    head, tail = text.getvalue().split("\0")
    return head, tail


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


def _write_framed(out, rows, lead: str, d: int, frames: _Frames, as_json: bool) -> str:
    """Write the report of each set of codes at d <= SMALL_D from its frame,
    made on first use and kept in frames, a _Frames, as (head, tail).

    A frame is kept under (k, w, h): w is one more than the position of
    the witness, the lowest free bit of `covered`, or 0 without one, and h
    the bits of `covered` above its witness segments, or for text only the
    units bit.  A set of k > 3 without a witness adds whether its
    translates commute.  A batch that met its frames fewer than 8 times
    while its table filled, as random sets at d = 64 do, repeats too little
    to pay for the keys: from then on each frame is made and used once.
    """
    table, texts = _difference_covers(d), _texts(d, as_json)
    # The witness segments of a cover, below the slope gap's row, the INF
    # bit and the bit of a difference with no unit coordinate (the top one).
    width = len(_witness_rows(d)) * d
    full, shift = (1 << width) - 1, width if as_json else width + d + 1
    sep, after = (",\n      ", ",\n  ") if as_json else (";", "")
    parts, hits = [], frames.hits
    for codes in rows:
        if hits is None:
            frame = _frame(codes, d, as_json)
        else:
            covered = 0
            for a, b in combinations(codes, 2):
                covered |= table[a - b]
            free = ~covered & full
            key = len(codes), (free & -free).bit_length(), covered >> shift
            if not free and len(codes) > 3:
                # (m_i - m_0, n_i - n_0 + d), whose commutation form mod d
                # is that of the translate s_i - s_0.
                c0 = codes[0]
                key += is_commutative([divmod(c - c0 + d, 2 * d) for c in codes[1:]], d),
            frame = frames.get(key)
            if frame is not None:
                hits += 1
            else:
                if len(frames) >= FRAMES:
                    frames.clear()
                    hits = 0 if hits >= 8 else None
                frame = _frame(codes, d, as_json)
                if hits is not None:
                    frames[key] = frame
        parts.append(f"{lead}{frame[0]}{sep.join(map(texts.__getitem__, codes))}{frame[1]}")
        lead = after
        if len(parts) == 64:
            out.write("".join(parts))
            parts.clear()
    out.write("".join(parts))
    frames.hits = hits
    return lead


class _Pieces(list):
    """A text stream that hands what is written to it on to out in pieces
    of at least 64 KB, and the rest on flush."""

    def __init__(self, out):
        super().__init__()
        self.out, self.size = out, 0

    def write(self, text: str) -> None:
        self.append(text)
        self.size += len(text)
        if self.size >= 1 << 16:
            self.flush()

    def flush(self) -> None:
        self.out.write("".join(self))
        self.clear()
        self.size = 0


def _write_each(out, rows, lead: str, d: int, as_json: bool) -> str:
    """Decide and write each set of codes at d > SMALL_D on its own."""
    texts, pieces = _texts(d, False).__getitem__, _Pieces(out)
    for codes in rows:
        S = _gbs_set(codes, d)
        report, gap_row = decide_with_gap(S)
        if as_json:
            pieces.write(lead)
            _write_check_json(pieces, S, report, gap_row, "  ")
            lead = ",\n  "
        else:
            pieces.write(";".join(map(texts, codes)) + _summary_tail(report))
    pieces.flush()
    return lead


def _write_sets(out, rows, lead: str, d: int, frames: _Frames, as_json: bool) -> str:
    """Write the report of each set of codes, in text or as an element of
    render_json's list, the first after lead and the rest after ",\\n  ".
    Returns what goes before the next element.  frames holds the batch's
    frames at d <= SMALL_D, and starts empty."""
    if d > SMALL_D:
        return _write_each(out, rows, lead, d, as_json)
    return _write_framed(out, rows, lead, d, frames, as_json)


_write_text_sets = partial(_write_sets, as_json=False)
_write_json_sets = partial(_write_sets, as_json=True)


# Measured in alternating fresh processes, with --json, on a 2-vCPU host
# whose second vCPU came and went.  With it free the split won from 8,192
# lines of standard 5-sets at d = 6 up (136 against 152 ms at 8,192), and
# on 4,200 random sets at d = 100, decided one at a time (0.30 against
# 0.40 s).  With it taken, as two spin loops running half as fast as one
# showed, the split lost 7-10 ms at 4,096 and 8,192 lines (against 75 and
# 93 ms unsplit) and 20 ms at 52,360 (against 262 ms).  At 4,096 a batch
# of sets decided one at a time still splits.
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
    them with write(out, rows, "", d, frames) into a temporary file.

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
            rows = parse_codes(path, lines, d, start)
            os.write(done, b".")
            out, lead, frames = io.TextIOWrapper(spill, encoding=sys.stdout.encoding), "", _Frames()
            for i in range(0, len(rows), 1024):
                lead = write(out, rows[i:i + 1024], lead, d, frames)
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
    fails to do, this process does over again with parse_codes and write,
    so the bytes, errors and exit codes are those of one process.
    """
    write, frames = _write_json_sets if as_json else _write_text_sets, _Frames()
    half = len(lines) // 2
    child = _can_fork(len(lines)) and _fork_half(path, lines[half:], d, half + 1, write)
    if not child:
        half = len(lines)
    pid, ready, spill = child or (None, None, None)
    try:
        rows = parse_codes(path, lines[:half], d)
        # None while the child's file holds the rest.
        rest = None if child and os.read(ready, 1) == b"." else \
            parse_codes(path, lines[half:], d, half + 1)
        lead = write(sys.stdout, rows, "[\n  " if as_json else "", d, frames)
        if child:
            status = os.waitpid(pid, 0)[1]
            pid = None
            if rest is None and status != 0:
                rest = parse_codes(path, lines[half:], d, half + 1)
        if rest is not None:
            lead = write(sys.stdout, rest, lead, d, frames)
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
