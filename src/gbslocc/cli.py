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
from json.encoder import encode_basestring_ascii
from math import comb

from . import catalog
from .clifford import symplectic_order
from .decide import INDISTINGUISHABLE, decide, decide_with_gap
from .equivalence import classify, orbit
from .gpm import GbsSet, SetFormatError, format_gbs_set, load_set_rows
from .modring import set_bits
from .numerics import VERIFY_TOL, certify

EXIT_OK = 0
EXIT_DEVIATION = 1
EXIT_BAD_INPUT = 2
EXIT_UNSUPPORTED = 3
EXIT_GOLDEN_MISMATCH = 4
EXIT_NOTHING_TO_CERTIFY = 5

# Largest moduli served, checked before anything is parsed.  The witness
# scan of `check` (and of `verify`, which decides first) builds d-bit masks,
# linear in d: about 2.4 s and 540 MB near d = 2**22 on a 2-core machine.
# `orbit` and `classify` apply all ~d^3 symplectic matrices: about 1 s for
# a 2-set at d = 64.
MAX_CHECK_D = 2 ** 22
MAX_ORBIT_D = 64
# `classify` audits all C(d^2 - 1, k - 1) standard sets.
MAX_CLASSIFY_SETS = 10 ** 6
# An orbit of N is built from |N| * |SL(2, Z_d)| candidate sets, and
# `classify` builds one orbit per representative: about 1 s per 400,000
# candidates of a 2-set at d = 64.
MAX_ORBIT_CANDIDATES = 10 ** 6


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _refuse_candidates(command: str, d: int, sets) -> int | None:
    """Exit 3 when the orbits of the sets would enumerate too many candidates."""
    count = sum(map(len, sets)) * symplectic_order(d)
    if count > MAX_ORBIT_CANDIDATES:
        return _fail(EXIT_UNSUPPORTED, f"{command} enumerates at most {MAX_ORBIT_CANDIDATES} "
                     f"candidate sets, |N| * |SL(2, Z_d)| per set, and this request has {count}")


def render_json(payload) -> str:
    """The one JSON serialization used everywhere, so output round-trips
    byte-identically through json.loads."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# The report of `check` is written as text directly, because json.dumps
# with indent goes through the pure-Python encoder: at d = 6 that took
# longer than deciding the sets.  _check_json(...) + "\n" is byte for byte
# render_json of the payload
#
#   {"d", "set", "verdict", "mode", "condition", "witness",
#    "index_cardinality", "slope_gap": null or
#    {"admissible", "excluded", "gap"}}
#
# where each slope-gap list holds finite parameters ascending, then "inf".
# Keys are written in sorted order; pad indents every line after the first,
# as render_json does to the elements of a list.

def _json_scalar(value) -> str:
    if value is None:
        return "null"
    return encode_basestring_ascii(value) if isinstance(value, str) else str(value)


def _json_list(items: list[str], pad: str) -> str:
    if not items:
        return "[]"
    inner = f",\n{pad}  "
    return f"[\n{pad}  {inner.join(items)}\n{pad}]"


def _gap_parameters(d: int, covered: int, inf: bool, inf_text: str):
    """The excluded and the open parameters of decide_with_gap's row, as text."""
    excluded = [*map(str, set_bits(covered)), *([inf_text] if inf else [])]
    gap = [*map(str, set_bits(covered ^ ((1 << d) - 1))), *([] if inf else [inf_text])]
    return excluded, gap


def _slope_gap_json(d: int, covered: int, inf: bool, pad: str) -> str:
    excluded, gap = _gap_parameters(d, covered, inf, '"inf"')
    admissible = [*map(str, range(d)), '"inf"']
    inner = pad + "  "
    return (f'{{\n{inner}"admissible": {_json_list(admissible, inner)},\n'
            f'{inner}"excluded": {_json_list(excluded, inner)},\n'
            f'{inner}"gap": {_json_list(gap, inner)}\n{pad}}}')


# A batch at small d repeats a few rows: the 52,360 standard 5-sets at
# d = 6 have 80.  An entry holds O(d) text, so larger moduli are not cached.
_CACHED_GAP_D = 256
_cached_slope_gap_json = lru_cache(maxsize=256)(_slope_gap_json)


def _check_json(S: GbsSet, report, gap_row, pad: str = "") -> str:
    """The JSON report of `check` for S, from decide_with_gap(S)."""
    p1, p2, p3 = pad + "  ", pad + "    ", pad + "      "
    points = f",\n{p2}".join(f"[\n{p3}{m},\n{p3}{n}\n{p2}]" for m, n in S.elements)
    if report.witness:
        x, y = report.witness
        witness = f"[\n{p2}{x},\n{p2}{y}\n{p1}]"
    else:
        witness = "null"
    if gap_row is None:
        gap = "null"
    else:
        gap_json = _cached_slope_gap_json if S.d <= _CACHED_GAP_D else _slope_gap_json
        gap = gap_json(S.d, *gap_row, p1)
    return (f'{{\n{p1}"condition": {_json_scalar(report.condition)},\n'
            f'{p1}"d": {S.d},\n'
            f'{p1}"index_cardinality": {_json_scalar(report.index_cardinality)},\n'
            f'{p1}"mode": {_json_scalar(report.mode)},\n'
            f'{p1}"set": [\n{p2}{points}\n{p1}],\n'
            f'{p1}"slope_gap": {gap},\n'
            f'{p1}"verdict": {_json_scalar(report.verdict)},\n'
            f'{p1}"witness": {witness}\n{pad}}}')


def _check_lines(S: GbsSet, report, gap_row) -> list[str]:
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
    if gap_row is not None:
        _, gap = _gap_parameters(S.d, *gap_row, "inf")
        lines.append(
            f"slope gap: {len(gap)} of {S.d + 1} "
            f"parameters open ({','.join(gap) or 'none'})"
        )
    return lines


def _batch_summary(S: GbsSet) -> str:
    report = decide(S)
    parts = [format_gbs_set(S.elements), report.verdict, report.mode]
    if report.condition:
        parts.append(report.condition)
    if report.witness:
        m, n = report.witness
        parts.append(f"({m},{n})")
    return "  ".join(parts)


def _cmd_check(args) -> int:
    if args.file is not None and args.set is not None:
        return _fail(EXIT_BAD_INPUT, "give either -s/--set or --file, not both")
    if args.file is None:
        try:
            S = GbsSet.parse(args.set, args.d)
        except SetFormatError as exc:
            return _fail(EXIT_BAD_INPUT, str(exc))
        if args.json:
            sys.stdout.write(_check_json(S, *decide_with_gap(S)) + "\n")
        else:
            print("\n".join(_check_lines(S, *decide_with_gap(S))))
        return EXIT_OK

    try:
        sets = load_set_rows(args.file, args.d)
    except (OSError, SetFormatError) as exc:
        return _fail(EXIT_BAD_INPUT, str(exc))
    # The whole file is parsed before the first write, so a bad line leaves
    # stdout empty; then each set is decided and written in turn, and the
    # payloads are never all held at once.
    if not args.json:
        for S in sets:
            print(_batch_summary(S))
        return EXIT_OK
    if not sets:
        sys.stdout.write(render_json([]))
        return EXIT_OK
    # The bytes of render_json(payloads): each element indented one level.
    separator = "[\n  "
    for S in sets:
        sys.stdout.write(separator + _check_json(S, *decide_with_gap(S), "  "))
        separator = ",\n  "
    sys.stdout.write("\n]\n")
    return EXIT_OK


def _classify_inputs(args):
    """Representative sets plus display labels, from the catalog or a file."""
    if args.reps_file is not None:
        sets = load_set_rows(args.reps_file, args.d)
        return sets, [catalog.set_label(S.elements) for S in sets]
    family = catalog.representatives(args.d, args.k)
    return family.sets(), family.labels()


def _cmd_classify(args) -> int:
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
        if (args.d, args.k) != (4, 4):
            return _fail(EXIT_UNSUPPORTED,
                         f"no golden tables for (d, k) = ({args.d}, {args.k})")
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


def _cmd_orbit(args) -> int:
    try:
        S = GbsSet.parse(args.set, args.d)
        if refused := _refuse_candidates("orbit", args.d, [S]):
            return refused
        report = orbit(S)
    except (SetFormatError, ValueError) as exc:
        return _fail(EXIT_BAD_INPUT, str(exc))
    members = sorted(report.members)
    if args.json:
        payload = {
            "d": args.d,
            "representative": report.representative,
            "size": report.size,
            "generation_certified": report.generation_certified,
            "members": members,
        }
        sys.stdout.write(render_json(payload))
        return EXIT_OK
    print(f"orbit size {report.size} (d = {args.d})")
    if not report.generation_certified:
        print("note: the input lacks invertible shift and clock powers, so the "
              "listing may be a proper subset of the equivalence class")
    for row in members:
        print(format_gbs_set(row))
    return EXIT_OK


def _cmd_verify(args) -> int:
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
    run()
