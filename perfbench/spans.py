"""Traced in-process replay: the per-layer metrics.

Each request of a round is replayed through the package's public functions
in the order the CLI subcommand uses them, and builds the same JSON payload,
which the same oracle checks.  Around each call into a layer a span records
(name, start, end, parent, request id); spans stay in memory and are written
out when the run ends.  A layer's self time is its spans' duration minus
the time their child spans cover.

Lru caches of the package are cleared at the start of every request, as a
fresh CLI process starts with them empty.  Inside a request the replay warms
them in layer order (`gpm.all_gpms`, then `modring.solve_weyl_congruence`
over the differences, then `decide`), so each layer's span holds its own
work.  The rungs of the ladder are then timed standalone, each only on the
sets that reach it.

Every request is replayed twice, untraced and traced, through the same
code; `trace.overhead_ratio` is the traced wall time over the untraced one.
Times and counts are reported per round: one main round of the workload
and, for `sweep` and `large_d`, two companion triples.
"""

import importlib
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager

import inputs
import oracle

IMPORT_LAUNCHES = 5
# Companion triples replayed after each main round: a fixed number, so that
# the per-round figures do not depend on how fast the machine is.
COMPANIONS_PER_ROUND = 2
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import gbslocc; "
                "t1 = time.perf_counter(); import gbslocc.numerics; "
                "print(t1 - t0, time.perf_counter() - t1)")

TIMED_LAYERS = (
    "cli.parse", "cli.render", "decide.decide", "decide.discriminant_set",
    "decide.condition_commutative", "decide.condition_invertible", "decide.slope_gap",
    "gpm.difference_set", "gpm.index_set", "gpm.all_gpms_first",
    "modring.solve_weyl_congruence", "clifford.enumerate_symplectic_first",
    "equivalence.orbit", "equivalence.classify", "catalog.representatives",
    "catalog.golden_load", "numerics.one_way_gram_check", "numerics.commuting_witness",
    "numerics.max_abs_expectation",
)
CONDITIONS = ("SMALL_SET", "TOO_MANY", "DISCRIMINANT", "COMMUTATIVE", "INVERTIBLE",
              "COMPLETE_D4", "COMPLETE_D5", "none")
PER_LAYER = {  # name: unit
    "import.gbslocc_s": "s",
    "import.numerics_s": "s",
    **{f"{name}_s": "s" for name in TIMED_LAYERS},
    "decide.calls": "count",
    **{f"decide.fired.{c}": "count" for c in CONDITIONS},
    "decide.resolved_ratio": "ratio",
    "clifford.matrices": "count",
    "equivalence.orbit_members": "count",
    "numerics.max_deviation": "abs",
    "trace.overhead_ratio": "ratio",
}
MODULES = ("cli", "catalog", "clifford", "decide", "equivalence", "gpm", "modring", "numerics")
# Conditions decided before each rung; a set whose condition is listed has
# not reached the rung.
BEFORE_DISCRIMINANT = ("SMALL_SET", "TOO_MANY")
BEFORE_COMMUTATIVE = BEFORE_DISCRIMINANT + ("DISCRIMINANT",)
BEFORE_INVERTIBLE = BEFORE_COMMUTATIVE + ("COMMUTATIVE",)


class Tracer:
    """Span recorder; when disabled, spans cost one generator each and
    record nothing."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.rows = []          # [name, start, end, parent index, request id]
        self.counts = Counter()
        self.max_deviation = 0.0
        self.request = None
        self.requests = 0
        self._stack = []

    @contextmanager
    def span(self, name):
        if not self.enabled:
            yield
            return
        row = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None,
               self.request]
        self.rows.append(row)
        self._stack.append(len(self.rows) - 1)
        try:
            yield
        finally:
            self._stack.pop()
            row[2] = time.perf_counter()

    def count(self, name, n=1):
        if self.enabled:
            self.counts[name] += n

    def count_decisions(self, reports):
        self.count("decide.calls", len(reports))
        for r in reports:
            self.count(f"decide.fired.{r.condition or 'none'}")

    def self_times(self):
        """Total self time per span name."""
        covered = [0.0] * len(self.rows)
        for name, start, end, parent, _ in self.rows:
            if parent is not None:
                covered[parent] += end - start
        totals = Counter()
        for (name, start, end, _, _), child in zip(self.rows, covered):
            totals[name] += end - start - child
        return totals


def _parameters(values, inf):
    return sorted(int(v) for v in values if v != inf) + (["inf"] if inf in values else [])


class Replayer:
    """Replays requests through the package's public functions."""

    def __init__(self, workload, root):
        sys.path.insert(0, str(root / "src"))
        self.m = {name: importlib.import_module(f"gbslocc.{name}") for name in MODULES}
        self.workload = workload

    def clear_caches(self):
        for mod in self.m.values():
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()

    def run(self, reqs, tracer, walls):
        """Replay each request untraced and traced, alternating which goes
        first, and add their wall times to walls[False] and walls[True].
        Returns (request, traced output or the exception it raised) pairs."""
        out = []
        for req in reqs:
            tracer.requests += 1
            order = (Tracer(False), tracer)
            for tr in order if tracer.requests % 2 else order[::-1]:
                tr.request = tracer.requests
                self.clear_caches()
                start = time.perf_counter()
                try:
                    with tr.span(f"cli.{req.kind}"):
                        text = getattr(self, req.kind)(req, tr)
                except Exception as exc:  # noqa: BLE001 - reported as a failed request
                    text = exc
                walls[tr.enabled] += time.perf_counter() - start
                if tr.enabled:
                    out.append((req, text))
        return out

    def _parse(self, tr, lines, d):
        with tr.span("cli.parse"):
            return [self.m["gpm"].GbsSet.parse(line, d) for line in lines]

    def _render(self, tr, payload):
        with tr.span("cli.render"):
            return self.m["cli"].render_json(payload)

    def _decide(self, tr, sets, d, with_gap=True):
        """The decision path of `check`, layer by layer; returns reports
        and slope gaps."""
        gpm, modring, dec = self.m["gpm"], self.m["modring"], self.m["decide"]
        with tr.span("gpm.all_gpms_first"):
            gpm.all_gpms(d)
        with tr.span("gpm.difference_set"):
            diffs = [gpm.difference_set(S) for S in sets]
        with tr.span("modring.solve_weyl_congruence"):
            for delta in diffs:
                for m, n in delta:
                    modring.solve_weyl_congruence(m, n, d)
        with tr.span("decide.decide"):
            reports = [dec.decide(S) for S in sets]
        tr.count_decisions(reports)
        rungs = (("decide.discriminant_set", BEFORE_DISCRIMINANT, dec.discriminant_set),
                 ("decide.condition_commutative", BEFORE_COMMUTATIVE, dec.condition_commutative))
        if not oracle.is_prime(d):
            rungs += (("decide.condition_invertible", BEFORE_INVERTIBLE, dec.condition_invertible),)
        for name, before, rule in rungs:
            reached = [S for S, r in zip(sets, reports) if r.condition not in before]
            if reached:
                with tr.span(name):
                    for S in reached:
                        rule(S)
        gaps = [None] * len(sets)
        if with_gap:
            with tr.span("decide.slope_gap"):
                gaps = [dec.slope_gap(S) if len(S) >= 2 else None for S in sets]
        if oracle.is_prime(d):
            with tr.span("gpm.index_set"):
                for S in sets:
                    if len(S) >= 2:
                        gpm.index_set(S)
        return reports, gaps

    def _check_payloads(self, tr, lines, d):
        sets = self._parse(tr, lines, d)
        reports, gaps = self._decide(tr, sets, d)
        inf = self.m["gpm"].INF
        return [{
            "d": d, "set": [[m, n] for m, n in S.elements], "verdict": r.verdict,
            "mode": r.mode, "condition": r.condition,
            "witness": list(r.witness) if r.witness else None,
            "index_cardinality": r.index_cardinality,
            "slope_gap": None if g is None else {
                "admissible": _parameters(g.admissible, inf),
                "excluded": _parameters(g.excluded, inf),
                "gap": _parameters(g.gap, inf)},
        } for S, r, g in zip(sets, reports, gaps)]

    def check(self, req, tr):
        payload, = self._check_payloads(tr, [inputs.literal(req.elements)], req.d)
        return self._render(tr, payload)

    def batch(self, req, tr):
        lines = [inputs.literal(s) for s in self.workload.batches[req.d].lines]
        return self._render(tr, self._check_payloads(tr, lines, req.d))

    def verify(self, req, tr):
        num = self.m["numerics"]
        d = req.d
        S, = self._parse(tr, [inputs.literal(req.elements)], d)
        (r,), _ = self._decide(tr, [S], d, with_gap=False)
        if r.condition == "DISCRIMINANT":
            with tr.span("numerics.one_way_gram_check"):
                dev = num.one_way_gram_check(S, r.witness)
        else:
            if r.condition == "COMMUTATIVE":
                with tr.span("numerics.commuting_witness"):
                    vec = num.commuting_witness(S)
            else:
                with tr.span("numerics.composite_witness"):
                    vec = num.composite_witness(S)
            with tr.span("numerics.max_abs_expectation"):
                dev = num.max_abs_expectation(vec, self.m["gpm"].difference_set(S), d)
        if tr.enabled:
            tr.max_deviation = max(tr.max_deviation, dev)
        return self._render(tr, {
            "d": d, "set": [[m, n] for m, n in S.elements], "verdict": r.verdict,
            "mode": r.mode, "condition": r.condition,
            "witness": list(r.witness) if r.witness else None,
            "check": oracle.VERIFY_CHECKS.get(r.condition), "deviation": dev,
            "tolerance": num.VERIFY_TOL, "certified": bool(dev < num.VERIFY_TOL)})

    def orbit(self, req, tr):
        d = req.d
        S, = self._parse(tr, [inputs.literal(req.elements)], d)
        with tr.span("clifford.enumerate_symplectic_first"):
            tr.count("clifford.matrices", len(self.m["clifford"].enumerate_symplectic(d)))
        with tr.span("equivalence.orbit"):
            rep = self.m["equivalence"].orbit(S)
        tr.count("equivalence.orbit_members", rep.size)
        return self._render(tr, {
            "d": d, "representative": [list(g) for g in sorted(rep.representative)],
            "size": rep.size, "generation_certified": rep.generation_certified,
            "members": [[list(g) for g in row] for row in sorted(rep.members)]})

    def classify(self, req, tr):
        cat, d, k = self.m["catalog"], req.d, req.k
        with tr.span("catalog.representatives"):
            family = cat.representatives(d, k)
            sets, labels = list(family.sets()), list(family.labels())
        with tr.span("clifford.enumerate_symplectic_first"):
            tr.count("clifford.matrices", len(self.m["clifford"].enumerate_symplectic(d)))
        with tr.span("gpm.all_gpms_first"):
            self.m["gpm"].all_gpms(d)
        with tr.span("equivalence.classify"):
            result = self.m["equivalence"].classify(d, k, sets)
        tr.count("equivalence.orbit_members", sum(o.size for o in result.orbits))
        with tr.span("decide.decide"):
            reports = [self.m["decide"].decide(S) for S in sets]
        tr.count_decisions(reports)
        payload = {
            "d": d, "k": k,
            "classes": [{"label": label, "representative": [list(g) for g in o.representative],
                         "size": o.size, "verdict": r.verdict, "mode": r.mode,
                         "condition": r.condition}
                        for label, o, r in zip(labels, result.orbits, reports)],
            "total_standard": result.total_standard, "covered": result.covered,
            "uncovered": [[list(g) for g in row] for row in result.uncovered]}
        if req.golden:
            with tr.span("catalog.golden_load"):
                sizes = cat.golden_class_sizes()
                rows = cat.golden_indistinguishable().as_set()
            emitted = {row for o, r in zip(result.orbits, reports)
                       if r.verdict == "INDISTINGUISHABLE" for row in o.members}
            if (sorted(n for _, n in sizes.entries) == sorted(o.size for o in result.orbits)
                    and not result.uncovered and emitted == rows):
                payload["golden"] = "match"
        return self._render(tr, payload)


def measure_imports(client):
    """Medians of `import gbslocc`, then `import gbslocc.numerics`, each
    timed inside a fresh interpreter."""
    pkg, num = [], []
    for _ in range(IMPORT_LAUNCHES):
        code, _, _, out = client.python(IMPORT_PROBE)
        if code != 0:
            raise RuntimeError("import probe failed")
        a, b = map(float, out.split())
        pkg.append(a)
        num.append(b)
    return statistics.median(pkg), statistics.median(num)


def traced_run(workload, end, client):
    """Per-layer metrics of the workload; see the module docstring."""
    import_pkg, import_num = measure_imports(client)
    replayer = Replayer(workload, client.root)
    checker = oracle.OutputChecker(workload)
    tracer = Tracer(True)
    walls = {False: 0.0, True: 0.0}
    calls = []

    def replay(reqs):
        for req, text in replayer.run(reqs, tracer, walls):
            if isinstance(text, Exception):
                problems = [f"{type(text).__name__}: {text}"]
            else:
                problems = checker(req, 0, text.encode())
            calls.append({"kind": req.kind, "d": req.d, "argv": req.argv("<batch>"),
                          "problems": problems[:5]})

    rounds = inputs.run_schedule(workload, end, client.deadline, replay,
                                 companions_per_round=COMPANIONS_PER_ROUND)
    self_s = tracer.self_times()
    counts = tracer.counts
    metrics = {"import.gbslocc_s": import_pkg, "import.numerics_s": import_num}
    metrics.update({f"{name}_s": self_s[name] / rounds for name in TIMED_LAYERS})
    metrics["decide.calls"] = counts["decide.calls"] / rounds
    metrics.update({f"decide.fired.{c}": counts[f"decide.fired.{c}"] / rounds
                    for c in CONDITIONS})
    metrics["decide.resolved_ratio"] = \
        1 - counts["decide.fired.none"] / max(1, counts["decide.calls"])
    metrics["clifford.matrices"] = counts["clifford.matrices"] / rounds
    metrics["equivalence.orbit_members"] = counts["equivalence.orbit_members"] / rounds
    metrics["numerics.max_deviation"] = tracer.max_deviation
    metrics["trace.overhead_ratio"] = walls[True] / walls[False]
    rows = [{"name": n, "start": s, "end": e, "parent": p, "request": q}
            for n, s, e, p, q in tracer.rows]
    return metrics, PER_LAYER, calls, rounds, rows
