"""Seeded inputs for the three workloads.

Every workload is one closed-loop client: it sends one CLI request, waits
for the process to exit, then sends the next.  Main requests come in rounds
of fixed composition (the same kinds, moduli and set sizes every round), so
a run that fits two rounds and one that fits three report the same medians.

`sweep` and `large_d` spend the rest of the window on companion triples of
`verify`, `orbit` and `classify`, so that every end-to-end metric is defined
on every workload.  Companions feed only the per-subcommand metrics and peak
RSS; the workload-wide call percentiles leave them out.

The seed picks the concrete sets, their translations, element order and
line order, and the moduli of the small `session` requests.  The same seed
always yields the same requests and the same batch files.
"""

import random
import time
from dataclasses import dataclass, replace
from itertools import combinations

import oracle

WORKLOADS = ("sweep", "large_d", "session")

# Moduli of the random 5-sets of `large_d`, primes and composites.  They are
# fixed so that a run's cost does not depend on the seed.
LARGE_D_MODULI = (509, 640, 811, 900, 1009)
# The half-period grid {0, t}^2 at d = 2t with t odd: its differences
# pairwise anticommute and no rule applies, so the whole ladder runs.
LARGE_D_GRID_T = 501
# Orbit requests translate this one set: its orbit size does not depend on
# the seed, so neither does the cost of listing it.
ORBIT_BASE = ((0, 0), (1, 0), (0, 1), (2, 5))


@dataclass(frozen=True)
class Request:
    """One CLI call.  `group` ties orbit requests that are translates of one
    set, whose orbits must agree."""

    kind: str                  # check, batch, verify, orbit, classify
    d: int
    elements: tuple = ()
    k: int = 0
    golden: bool = False
    group: str = ""
    companion: bool = False

    def argv(self, batch_path=None):
        if self.kind == "batch":
            return ["check", "-d", str(self.d), "--file", str(batch_path), "--json"]
        if self.kind == "classify":
            return ["classify", "-d", str(self.d), "-k", str(self.k), "--json"] + \
                (["--golden"] if self.golden else [])
        return [self.kind, "-d", str(self.d), "-s", literal(self.elements), "--json"]


@dataclass(frozen=True)
class Batch:
    """A sweep file: line i is a translated, reordered copy of the standard
    set originals[i]."""

    d: int
    lines: tuple
    originals: tuple

    def text(self):
        return "".join(literal(s) + "\n" for s in self.lines)


def literal(elements):
    return ";".join(f"{m},{n}" for m, n in elements)


def standard_sets(d, k):
    nonzero = [(m, n) for m in range(d) for n in range(d) if (m, n) != (0, 0)]
    return [((0, 0),) + rest for rest in combinations(nonzero, k - 1)]


def translate(rng, elements, d):
    """A random translate of the set, with its elements shuffled."""
    a, b = rng.randrange(d), rng.randrange(d)
    out = [((m + a) % d, (n + b) % d) for m, n in elements]
    rng.shuffle(out)
    return tuple(out)


def random_set(rng, d, k):
    """A random standard k-set."""
    out = {(0, 0)}
    while len(out) < k:
        out.add((rng.randrange(d), rng.randrange(d)))
    return tuple(sorted(out))


def discriminant_set(rng, d, k=5):
    """A random k-set whose verdict is DISCRIMINANT, translated."""
    while True:
        s = random_set(rng, d, k)
        if oracle.reference_report(s, d)["condition"] == "DISCRIMINANT":
            return translate(rng, s, d)


def grid(rng, t):
    """The half-period grid {0, t}^2 at d = 2t, translated.  COMMUTATIVE
    for even t, INCONCLUSIVE for odd t."""
    return translate(rng, ((0, 0), (0, t), (t, 0), (t, t)), 2 * t)


def random_prime(rng, low, high):
    while True:
        d = rng.randint(low, high)
        if oracle.is_prime(d):
            return d


def classify(d, k, golden):
    return Request("classify", d, k=k, golden=golden)


def invertible_d4():
    return [s for s in standard_sets(4, 4)
            if oracle.reference_report(s, 4)["condition"] == "INVERTIBLE"]


class Workload:
    """The seeded request stream of one workload: `batches` are written once
    per run, `round(r)` lists the requests of main round r and
    `companions(i)` the i-th companion triple."""

    def __init__(self, name, seed):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name, self.seed = name, seed
        rng = random.Random(f"{name}:{seed}")
        self.batches = {}
        if name == "sweep":
            for d in (5, 6):
                originals = standard_sets(d, 5)
                rng.shuffle(originals)
                lines = tuple(translate(rng, s, d) for s in originals)
                self.batches[d] = Batch(d, lines, tuple(originals))
        self.invertible = invertible_d4()
        # Share of the measuring window spent on main rounds; companions
        # fill the rest.  A sweep round is two long calls, so it gets more.
        self.main_share = {"sweep": 0.8, "large_d": 0.6, "session": 1.0}[name]

    def round(self, r):
        rng = random.Random(f"{self.name}:{self.seed}:{r}")
        if self.name == "sweep":
            reqs = [Request("batch", 5), Request("batch", 6)]
        elif self.name == "large_d":
            reqs = [Request("check", d, discriminant_set(rng, d)) for d in LARGE_D_MODULI]
            reqs.append(Request("check", 2 * LARGE_D_GRID_T, grid(rng, LARGE_D_GRID_T)))
        else:
            reqs = []
            for _ in range(5):
                d = rng.randint(4, 12)
                s = random_set(rng, d, rng.choice((3, 4, 5)))
                reqs.append(Request("check", d, translate(rng, s, d)))
            small = random_prime(rng, 5, 16)
            reqs += [Request("verify", small, discriminant_set(rng, small)),
                     self._verify(rng, ("discriminant", "commutative", "invertible")[r % 3]),
                     Request("orbit", 24, translate(rng, ORBIT_BASE, 24), group="orbit-24"),
                     classify(*((4, 4, True), (5, 4, False), (5, 5, False))[r % 3])]
        rng.shuffle(reqs)
        return reqs

    def _verify(self, rng, kind):
        """A session verify request with a certificate of the given kind."""
        if kind == "discriminant":
            d = rng.randint(17, 64)
            return Request("verify", d, discriminant_set(rng, d))
        if kind == "commutative":
            t = rng.randrange(4, 33, 2)
            return Request("verify", 2 * t, grid(rng, t))
        return Request("verify", 4, translate(rng, rng.choice(self.invertible), 4))

    def companions(self, i):
        """One verify, one orbit and one classify request, so that every
        per-subcommand metric is defined on `sweep` and `large_d`.  Verify
        alternates a DISCRIMINANT and a COMMUTATIVE certificate, classify
        the (5, 5) family and the (4, 4) golden audit."""
        rng = random.Random(f"{self.name}:{self.seed}:companion:{i}")
        if self.name == "sweep":
            d_verify, d_orbit = (6, 8)[i % 2], 6
        else:
            d_verify, d_orbit = 64, 18
        elements = discriminant_set(rng, d_verify) if i % 2 == 0 else grid(rng, d_verify // 2)
        reqs = [Request("verify", d_verify, elements),
                Request("orbit", d_orbit, translate(rng, ORBIT_BASE, d_orbit),
                        group=f"orbit-{d_orbit}"),
                classify(*((5, 5, False), (4, 4, True))[i % 2])]
        return [replace(r, companion=True) for r in reqs]


def run_schedule(workload, end, deadline, send, companions_per_round=None):
    """Send main rounds for the workload's main share of the time left
    until `end`, then companion triples until `end`; a round or triple is
    started only if it is expected to finish in time, and there is always
    at least one of each.  With `companions_per_round`, that many triples
    follow each round instead, for a schedule whose shape does not depend
    on speed.  Returns the number of rounds."""
    start = time.monotonic()
    end = min(end, deadline)
    main_end = start + workload.main_share * (end - start)
    r = i = 0
    has_companions = workload.main_share < 1
    while True:
        t0 = time.monotonic()
        send(workload.round(r))
        r += 1
        if companions_per_round and has_companions:
            for _ in range(companions_per_round):
                send(workload.companions(i))
                i += 1
        if 2 * time.monotonic() - t0 > (end if companions_per_round else main_end):
            break
    while has_companions and not companions_per_round:
        t0 = time.monotonic()
        send(workload.companions(i))
        i += 1
        if 2 * time.monotonic() - t0 > end:
            break
    return r
