"""Command-line front end.

Five subcommands: `check` decides a set (single or batch), `classify`
expands a representative family and audits coverage, `orbit` lists one
equivalence class, `verify` certifies a distinguishable verdict
numerically, and `tables` dumps the shipped reference data.

Exit codes are part of the interface and depend only on the outcome, never
on timing: 0 success (an INCONCLUSIVE verdict is still a successful run),
1 numeric certification above tolerance, 2 bad input, 3 unsupported request,
4 golden-table mismatch, 5 nothing to certify.  Reports go to stdout,
diagnostics to stderr.
"""

import argparse
import json
import signal
import sys
from functools import lru_cache
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii
from math import comb

# catalog, clifford, equivalence and numerics are imported by the commands
# that use them, so the start-up of `check` leaves them out.
from .decide import INDISTINGUISHABLE, decide, decide_with_gap
from .gpm import GbsSet, SetFormatError, format_gbs_set, load_set_rows, read_rows
from .modring import LazyTable, set_bits

EXIT_OK = 0
EXIT_DEVIATION = 1
EXIT_BAD_INPUT = 2
EXIT_UNSUPPORTED = 3
EXIT_GOLDEN_MISMATCH = 4
EXIT_NOTHING_TO_CERTIFY = 5

# Largest moduli served, checked before anything is parsed.  The witness
# scan of `check` (and of `verify`, which decides first) reads row 0 and the
# rows dividing d, each a d-bit mask, so a set without a witness costs one
# row per divisor; `check` then lists the slope gap's up to d + 1
# parameters, written as they are made.  For a 5-set at the prime
# d = 4,194,301, on a 2-core machine in a fresh process, that is about
# 1.0-1.2 s and 24 MB, and 2.0-2.6 s and 24 MB with --json, which also lists
# every admissible and excluded parameter.
# `orbit` and `classify` apply all ~d^3 symplectic matrices: about
# 0.4-0.6 s for a 2-set at d = 64, a quarter of it listing the 196,608
# matrices.
MAX_CHECK_D = 2 ** 22
MAX_ORBIT_D = 64
# `classify` audits all C(d^2 - 1, k - 1) standard sets.
MAX_CLASSIFY_SETS = 10 ** 6
# An orbit of N is built from |N| * |SL(2, Z_d)| candidate sets, and
# `classify` builds one orbit per representative.  At d = 64, `orbit
# --json` on a 4-set, 786,432 candidates, takes about 2.2-2.7 s and 112 MB,
# and on a 5-set, 983,040 candidates, 4.3-5.0 s and 125 MB.
MAX_ORBIT_CANDIDATES = 10 ** 6


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _refuse_candidates(command: str, d: int, sets) -> int | None:
    """Exit 3 when the orbits of the sets would enumerate too many candidates."""
    from .clifford import symplectic_order

    count = sum(map(len, sets)) * symplectic_order(d)
    if count > MAX_ORBIT_CANDIDATES:
        return _fail(EXIT_UNSUPPORTED, f"{command} enumerates at most {MAX_ORBIT_CANDIDATES} "
                     f"candidate sets, |N| * |SL(2, Z_d)| per set, and this request has {count}")


def render_json(payload) -> str:
    """The one JSON serialization used everywhere, so output round-trips
    byte-identically through json.loads."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# The reports of `check` and `orbit --json` are written as text directly,
# because json.dumps with indent goes through the pure-Python encoder: at
# d = 6 that took longer than deciding the sets, and for the 36,864 members
# of a d = 24 orbit it held about 44 MB of chunks.  Each writer must match
# render_json of its payload byte for byte.  _write_check_json writes,
# without the final "\n",
#
#   {"d", "set", "verdict", "mode", "condition", "witness",
#    "index_cardinality", "slope_gap": null or
#    {"admissible", "excluded", "gap"}}
#
# where each slope-gap list holds finite parameters ascending, then "inf";
# pad indents every line after the first, as render_json does to the
# elements of a list.  _write_orbit_json writes
#
#   {"d", "generation_certified", "members", "representative", "size"}
#
# Keys are written in sorted order.  The members of an orbit and the
# slope-gap lists go through _write_json_list, and every
# (m, n) pair, a set element, a witness, a member's element or the orbit's
# representative, is text from the table of _pair_text.

def _json_scalar(value) -> str:
    if value is None:
        return "null"
    return encode_basestring_ascii(value) if isinstance(value, str) else str(value)


def _json_list(items: list[str], pad: str) -> str:
    if not items:
        return "[]"
    inner = f",\n{pad}  "
    return f"[\n{pad}  {inner.join(items)}\n{pad}]"


def _write_json_list(out, items, pad: str) -> None:
    """Write _json_list(items, pad) to out, 1024 items at a time."""
    inner, items = f",\n{pad}  ", iter(items)
    chunk = [*islice(items, 1024)]
    if not chunk:
        out.write("[]")
        return
    out.write(f"[\n{pad}  " + inner.join(chunk))
    while chunk := [*islice(items, 1024)]:
        out.write(inner + inner.join(chunk))
    out.write(f"\n{pad}]")


@lru_cache(maxsize=None)
def _pair_text(pad: str):
    """The text of (m, n) as render_json writes a list element at indent
    pad, from one table per pad.

    The table fills as pairs are met, because a single `check` at d = 256
    would spend 44 ms on all 65,536 of them, and at any modulus it reads at
    most k + 1.  A batch or an orbit repeats the few pairs of its modulus:
    at d = 24 the table renders an orbit's 147,456 elements in about half
    the time of one f-string per element.
    """
    inner = pad + "  "
    return LazyTable(lambda pair: f"[\n{inner}{pair[0]},\n{inner}{pair[1]}\n{pad}]").__getitem__


def _open_parameters(d: int, covered: int, inf: bool, inf_text: str):
    """The parameters that decide_with_gap's row leaves open, as text."""
    return chain(map(str, set_bits(covered ^ ((1 << d) - 1))), [] if inf else [inf_text])


def _write_slope_gap_json(out, d: int, covered: int, inf: bool, pad: str) -> None:
    # Each list is written as it is made: at d = 2**22 the three lists can
    # hold 8.4 million parameters, about 120 MB of text.
    inner = pad + "  "
    out.write(f'{{\n{inner}"admissible": ')
    _write_json_list(out, chain(map(str, range(d)), ['"inf"']), inner)
    out.write(f',\n{inner}"excluded": ')
    _write_json_list(out, chain(map(str, set_bits(covered)), ['"inf"'] if inf else []), inner)
    out.write(f',\n{inner}"gap": ')
    _write_json_list(out, _open_parameters(d, covered, inf, '"inf"'), inner)
    out.write(f"\n{pad}}}")


def _write_check_json(out, S: GbsSet, report, gap_row, pad: str = "", elements=None) -> None:
    """Write the JSON report of `check` for S, from decide_with_gap(S).

    elements, where given, is written in place of the text of S's elements:
    batch `check` writes a marker there, and cuts the report at it into
    the frame of every set with the same report.
    """
    p1 = pad + "  "
    if elements is None:
        elements = f",\n{p1}  ".join(map(_pair_text(p1 + "  "), S.elements))
    witness = _pair_text(p1)(report.witness) if report.witness else "null"
    out.write(f'{{\n{p1}"condition": {_json_scalar(report.condition)},\n'
              f'{p1}"d": {S.d},\n'
              f'{p1}"index_cardinality": {_json_scalar(report.index_cardinality)},\n'
              f'{p1}"mode": {_json_scalar(report.mode)},\n'
              f'{p1}"set": [\n{p1}  {elements}\n{p1}],\n{p1}"slope_gap": ')
    if gap_row is None:
        out.write("null")
    else:
        _write_slope_gap_json(out, S.d, *gap_row, p1)
    out.write(f',\n{p1}"verdict": {_json_scalar(report.verdict)},\n'
              f'{p1}"witness": {witness}\n{pad}}}')


def _write_check_text(out, S: GbsSet, report, gap_row) -> None:
    lines = [
        f"set {format_gbs_set(S.elements)} (d = {S.d})",
        f"verdict: {report.verdict}",
        f"mode: {report.mode}",
    ]
    if report.condition:
        lines.append(f"condition: {report.condition}")
    if report.witness:
        m, n = report.witness
        lines.append(f"witness: ({m},{n})")
    if report.index_cardinality is not None:
        lines.append(f"index cardinality: {report.index_cardinality}")
    out.write("\n".join(lines) + "\n")
    if gap_row is None:
        return
    # The open parameters are written 1024 at a time: near d = 2**22 they
    # can be 4.2 million, which as one line held about 470 MB.
    covered, inf = gap_row
    out.write(f"slope gap: {S.d - covered.bit_count() + (not inf)} of {S.d + 1} "
              "parameters open (")
    gap = _open_parameters(S.d, covered, inf, "inf")
    out.write(",".join(islice(gap, 1024)) or "none")
    while chunk := ",".join(islice(gap, 1024)):
        out.write("," + chunk)
    out.write(")\n")


def _cmd_check(args) -> int:
    if args.file is not None and args.set is not None:
        return _fail(EXIT_BAD_INPUT, "give either -s/--set or --file, not both")
    if args.file is None:
        try:
            S = GbsSet.parse(args.set, args.d)
        except SetFormatError as exc:
            return _fail(EXIT_BAD_INPUT, str(exc))
        if args.json:
            _write_check_json(sys.stdout, S, *decide_with_gap(S))
            sys.stdout.write("\n")
        else:
            _write_check_text(sys.stdout, S, *decide_with_gap(S))
        return EXIT_OK

    try:
        lines = read_rows(args.file)
    except (OSError, SetFormatError) as exc:
        return _fail(EXIT_BAD_INPUT, str(exc))
    from .batch import check_batch

    try:
        check_batch(args.file, lines, args.d, args.json)
    except SetFormatError as exc:
        return _fail(EXIT_BAD_INPUT, str(exc))
    return EXIT_OK


def _classify_inputs(args):
    """Representative sets plus display labels, from the catalog or a file."""
    from . import catalog

    if args.reps_file is not None:
        sets = load_set_rows(args.reps_file, args.d)
        return sets, [catalog.set_label(S.elements) for S in sets]
    family = catalog.representatives(args.d, args.k)
    return family.sets(), family.labels()


def _cmd_classify(args) -> int:
    from . import catalog
    from .equivalence import classify

    if args.k >= 1 and comb(args.d ** 2 - 1, args.k - 1) > MAX_CLASSIFY_SETS:
        return _fail(EXIT_UNSUPPORTED,
                     f"classify audits at most {MAX_CLASSIFY_SETS} standard sets, "
                     f"and (d, k) = ({args.d}, {args.k}) has more")
    try:
        sets, labels = _classify_inputs(args)
    except (OSError, SetFormatError) as exc:
        return _fail(EXIT_BAD_INPUT, str(exc))
    except ValueError as exc:
        return _fail(EXIT_UNSUPPORTED, str(exc))
    if refused := _refuse_candidates("classify", args.d, sets):
        return refused
    if args.golden and (args.d, args.k) != (4, 4):
        return _fail(EXIT_UNSUPPORTED, f"no golden tables for (d, k) = ({args.d}, {args.k})")

    try:
        result = classify(args.d, args.k, sets)
    except ValueError as exc:
        return _fail(EXIT_BAD_INPUT, str(exc))

    verdicts = [decide(S) for S in sets]
    classes = [{
        "label": label,
        "representative": rep.representative,
        "size": rep.size,
        "verdict": report.verdict,
        "mode": report.mode,
        "condition": report.condition,
    } for label, rep, report in zip(labels, result.orbits, verdicts)]
    payload = {
        "d": args.d,
        "k": args.k,
        "classes": classes,
        "total_standard": result.total_standard,
        "covered": result.covered,
        "uncovered": result.uncovered,
    }
    indist = [(label, rep) for label, rep, report in zip(labels, result.orbits, verdicts)
              if report.verdict == INDISTINGUISHABLE]

    if args.golden:
        # label-blind comparison, so a user supplied representative file is
        # judged on partition shape and membership, not on naming
        golden = catalog.golden_class_sizes()
        mismatches = []
        want_sizes = sorted(n for _, n in golden.entries)
        have_sizes = sorted(c["size"] for c in classes)
        if have_sizes != want_sizes:
            mismatches.append(f"class sizes {have_sizes} != {want_sizes}")
        if result.uncovered:
            mismatches.append(f"{len(result.uncovered)} standard sets uncovered")
        golden_rows = catalog.golden_indistinguishable().as_set()
        emitted = frozenset(row for _, rep in indist for row in rep.members)
        if emitted != golden_rows:
            mismatches.append(
                f"indistinguishable members differ from the golden table "
                f"({len(emitted)} vs {len(golden_rows)} rows)"
            )
        if mismatches:
            for line in mismatches:
                print(f"golden mismatch: {line}", file=sys.stderr)
            return EXIT_GOLDEN_MISMATCH
        payload["golden"] = "match"

    if args.emit_indist:
        groups = [(label, sorted(rep.members)) for label, rep in indist]
        if args.json:
            payload["indistinguishable_members"] = [
                {"label": label, "members": rows} for label, rows in groups
            ]
            sys.stdout.write(render_json(payload))
        else:
            # Bare rows, so the output doubles as a fixture file.
            for _, rows in groups:
                sys.stdout.write(catalog.dump_set_rows(rows))
        return EXIT_OK

    if args.json:
        sys.stdout.write(render_json(payload))
    else:
        print(f"classification d = {args.d}, k = {args.k}")
        for c in classes:
            rep = format_gbs_set(c["representative"])
            print(f"  {c['label']:<18} size {c['size']:>6}  {c['verdict']}  [{rep}]")
        print(f"covered {result.covered} of {result.total_standard} standard sets, "
              f"{len(result.uncovered)} uncovered")
        if args.golden:
            print("golden tables: match")
    return EXIT_OK


def _member_rows(report, texts: list[str], sep: str):
    """The members of an orbit, ascending, in lists of 1024: each member is
    texts[c] for its codes c (see OrbitReport), code 0 first, joined by sep.

    The codes are read off report.packed one digit column per list.
    """
    D = report.d ** 2
    scales = [D ** e for e in range(len(report.representative) - 2, -1, -1)]
    packed = report.packed
    for start in range(0, len(packed), 1024):
        part = packed[start:start + 1024]
        columns = [[texts[p // scale % D] for p in part] for scale in scales]
        yield [*map(sep.join, zip(repeat(texts[0]), *columns))]


def _write_orbit_json(out, report) -> None:
    """Write render_json of the orbit payload to out, a chunk of members at a time."""
    d = report.d
    texts = [*map(_pair_text("      "), ((m, n) for m in range(d) for n in range(d)))]
    texts[0] = "[\n      " + texts[0]
    chunks = _member_rows(report, texts, ",\n      ")
    certified = "true" if report.generation_certified else "false"
    out.write(f'{{\n  "d": {d},\n  "generation_certified": {certified},\n  "members": ')
    _write_json_list(out, (row + "\n    ]" for rows in chunks for row in rows), "  ")
    representative = _json_list([*map(_pair_text("    "), report.representative)], "  ")
    out.write(f',\n  "representative": {representative},\n'
              f'  "size": {report.size}\n}}\n')


def _cmd_orbit(args) -> int:
    from .equivalence import orbit

    try:
        S = GbsSet.parse(args.set, args.d)
        if refused := _refuse_candidates("orbit", args.d, [S]):
            return refused
        report = orbit(S)
    except (SetFormatError, ValueError) as exc:
        return _fail(EXIT_BAD_INPUT, str(exc))
    if args.json:
        _write_orbit_json(sys.stdout, report)
        return EXIT_OK
    print(f"orbit size {report.size} (d = {args.d})")
    if not report.generation_certified:
        print("note: the input lacks invertible shift and clock powers, so the "
              "listing may be a proper subset of the equivalence class")
    texts = [f"{m},{n}" for m in range(args.d) for n in range(args.d)]
    for rows in _member_rows(report, texts, ";"):
        sys.stdout.write("\n".join(rows) + "\n")
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .numerics import VERIFY_TOL, certify

    try:
        S = GbsSet.parse(args.set, args.d)
    except SetFormatError as exc:
        return _fail(EXIT_BAD_INPUT, str(exc))
    report = decide(S)
    try:
        certificate = certify(S, report)
    except ValueError as exc:
        return _fail(EXIT_UNSUPPORTED, str(exc))
    if certificate is None:
        print(f"nothing to certify: verdict {report.verdict} "
              f"({report.condition or 'no constructive condition'})",
              file=sys.stderr)
        return EXIT_NOTHING_TO_CERTIFY

    check, deviation = certificate
    certified = deviation < VERIFY_TOL
    payload = {
        "d": S.d,
        "set": S.elements,
        "verdict": report.verdict,
        "mode": report.mode,
        "condition": report.condition,
        "witness": report.witness,
        "check": check,
        "deviation": deviation,
        "tolerance": VERIFY_TOL,
        "certified": certified,
    }
    if args.json:
        sys.stdout.write(render_json(payload))
    else:
        print(f"condition {report.condition} certified by {check}: "
              f"max deviation {deviation:.3e} "
              f"({'below' if certified else 'ABOVE'} tolerance {VERIFY_TOL:.0e})")
    return EXIT_OK if certified else EXIT_DEVIATION


def _cmd_tables(args) -> int:
    from . import catalog

    families = [catalog.representatives(d, k) for d, k in ((4, 4), (5, 4), (5, 5))]
    sizes = catalog.golden_class_sizes()
    indist = catalog.golden_indistinguishable()
    if args.json:
        sys.stdout.write(render_json({
            "families": [{**f._asdict(), "entries": [e._asdict() for e in f.entries]}
                         for f in families],
            "class_sizes": {"d": 4, "k": 4, **sizes._asdict()},
            "indistinguishable_rows": {label: len(rows) for label, rows in indist.groups},
        }))
        return EXIT_OK
    for family in families:
        print(f"representatives d = {family.d}, k = {family.k}")
        for e in family.entries:
            card = "" if e.index_cardinality is None else \
                f"  index cardinality {e.index_cardinality}"
            print(f"  {e.label:<18} {e.verdict}{card}")
    print("class sizes (d = 4, k = 4)")
    for label, n in sizes.entries:
        print(f"  {label:<18} {n}")
    print(f"  total{'':<13} {sizes.total}")
    print("indistinguishable fixture rows")
    for label, rows in indist.groups:
        print(f"  {label:<18} {len(rows)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gbslocc",
        description="Local distinguishability of generalized Bell state sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("-d", type=int, required=True, metavar="DIM",
                       help="qudit dimension (modulus)")
        p.add_argument("-s", "--set", metavar="LITERAL",
                       help="set literal, e.g. '0,0;0,1;1,0;1,2'")
        p.add_argument("--json", action="store_true", help="emit a JSON report")

    p = sub.add_parser("check", help="decide distinguishability of a set")
    add_common(p)
    p.add_argument("--file", metavar="PATH",
                   help="batch mode: one set literal per line")
    p.set_defaults(func=_cmd_check, needs_set="unless_file", max_d=MAX_CHECK_D)

    p = sub.add_parser("classify", help="expand a representative family")
    p.add_argument("-d", type=int, required=True, metavar="DIM")
    p.add_argument("-k", type=int, required=True, metavar="SIZE",
                   help="set cardinality")
    p.add_argument("--reps-file", metavar="PATH",
                   help="file of representative sets, one literal per line")
    p.add_argument("--golden", action="store_true",
                   help="compare against the shipped golden tables")
    p.add_argument("--emit-indist", action="store_true",
                   help="print the members of the indistinguishable classes")
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.set_defaults(func=_cmd_classify, needs_set=False, max_d=MAX_ORBIT_D)

    p = sub.add_parser("orbit", help="list one equivalence class")
    add_common(p)
    p.set_defaults(func=_cmd_orbit, needs_set=True, max_d=MAX_ORBIT_D)

    p = sub.add_parser("verify", help="numerically certify a verdict")
    add_common(p)
    p.set_defaults(func=_cmd_verify, needs_set=True, max_d=MAX_CHECK_D)

    p = sub.add_parser("tables", help="print the shipped reference data")
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.set_defaults(func=_cmd_tables, needs_set=False)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse before Python 3.12 drops the value of --set=-- and gives [].
    if getattr(args, "set", None) == []:
        args.set = "--"
    needs_set = getattr(args, "needs_set", False)
    if needs_set == "unless_file":
        needs_set = args.file is None
    if needs_set and args.set is None:
        return _fail(EXIT_BAD_INPUT, f"{args.command} requires -s/--set")
    if getattr(args, "d", 2) < 2:
        return _fail(EXIT_BAD_INPUT, f"dimension must be >= 2, got {args.d}")
    max_d = getattr(args, "max_d", None)
    if max_d is not None and args.d > max_d:
        return _fail(EXIT_UNSUPPORTED, f"{args.command} supports d <= {max_d}, got {args.d}")
    return args.func(args)


def run() -> None:
    # A reader that closes the pipe early (`gbslocc check ... | head -1`)
    # ends the process quietly, as it would `cat`, instead of surfacing a
    # BrokenPipeError as a traceback and exit status 1.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    raise SystemExit(main())


if __name__ == "__main__":
    # batch imports from gbslocc.cli: under `python -m` that is this module,
    # not a second copy to compile.
    sys.modules["gbslocc.cli"] = sys.modules[__name__]
    run()
