"""Seeded workloads: the ops each one sends and the check of each answer.

A workload hands out rounds, lists of ops drawn from its own random stream.
The same seed gives the same rounds in the same order, whatever the timing.
An op calls the library through its module attribute at call time, so a
traced run sees the top-level call too, and checks the answer by an
independent route from `checks`.  Warm-up draws come from a separate stream
of the same distribution.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

from wplarcs import braid, cli, exceptional, homext, tilting
from wplarcs.core import (
    Bridging,
    InnerPeripheral,
    LineBundle,
    OuterPeripheral,
    Surface,
    TorsionInf,
    TorsionZero,
    normal_form,
    phi,
    phi_inv,
)

import checks


@dataclass
class Op:
    kind: str
    args: tuple  # the generated inputs, for reports and determinism tests
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    info: Dict[str, int] = field(default_factory=dict)


def _log_uniform(rng: random.Random, lo_exp: float, hi_exp: float) -> int:
    return max(1, round(10 ** rng.uniform(lo_exp, hi_exp)))


def _letters(rng: random.Random, strands: int, n: int) -> List[int]:
    return [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(n)]


class Workload:
    """Rounds of ops from a seeded stream; `setup` builds pools and warms up."""

    name = ""
    warm_rounds = 1
    trace_rounds = 1  # rounds whose spans give the per-layer metrics
    # Collect garbage before each timed op, outside its time, so that an
    # op does not pay for the garbage of the op before it.
    collect_each_op = False
    # Rounds a second on a 2-CPU sandbox with CPython 3.11 at the commit
    # that added this benchmark; a run makes --seconds times this many.
    rounds_per_s = 1.0

    def __init__(self, seed: int, src: str = "", in_process: bool = False) -> None:
        """`src` and `in_process` matter only to the CLI workload."""
        self.rng = random.Random(f"{self.name}:{seed}:timed")
        self.warm_rng = random.Random(f"{self.name}:{seed}:warm")
        self.pool_rng = random.Random(f"{self.name}:{seed}:pool")
        self.rounds_drawn = 0

    def draw_round(self, rng: random.Random, index: int) -> List[Op]:
        """The ops of round `index` of a stream, drawn from `rng`."""
        raise NotImplementedError

    def next_round(self) -> List[Op]:
        self.rounds_drawn += 1
        return self.draw_round(self.rng, self.rounds_drawn - 1)

    def setup(self) -> None:
        for index in range(self.warm_rounds):
            for op in self.draw_round(self.warm_rng, index):
                if not op.check(op.call()):
                    raise RuntimeError(f"warm-up op {op.kind} gave a wrong answer")


# ---------------------------------------------------------------------------
# hom-deep: Hom/Ext counts whose answers reach 1e4 at degrees near 1e18.
# ---------------------------------------------------------------------------

HOM_SURFACES = ((2, 3), (3, 4), (5, 6))
PAIR_SHAPES = ("line-line", "line-tube", "same-tube")
BASE_DEGREE = 10**18
# Sizes (degree gap or tube length) are log-uniform on [1, 1e4]; each round
# takes one draw from each half-decade band, so every round holds the same
# spread of answer sizes and its cost varies little between rounds.
SIZE_BANDS = 8


class HomDeep(Workload):
    name = "hom-deep"
    rounds_per_s = 6.5

    @staticmethod
    def _line(rng: random.Random, s: Surface) -> LineBundle:
        x = normal_form(
            rng.randrange(s.p), rng.randrange(s.q), rng.randint(-BASE_DEGREE, BASE_DEGREE), s
        )
        return LineBundle(s, x)

    @staticmethod
    def _torsion(rng: random.Random, s: Surface, inner: bool, length: int):
        if inner:
            return TorsionInf(s, rng.randrange(s.p), length)
        return TorsionZero(s, rng.randrange(s.q), length)

    def pair(self, rng: random.Random, s: Surface, shape: str, band: int):
        size = lambda: _log_uniform(rng, band / 2, (band + 1) / 2)
        if shape == "line-line":
            X = self._line(rng, s)
            gap = normal_form(rng.randrange(s.p), rng.randrange(s.q), size(), s)
            Y = LineBundle(s, X.x + gap)
        elif shape == "line-tube":
            X = self._line(rng, s)
            Y = self._torsion(rng, s, rng.random() < 0.5, size())
        else:
            inner = rng.random() < 0.5
            X = self._torsion(rng, s, inner, size())
            Y = self._torsion(rng, s, inner, size())
        return (Y, X) if rng.random() < 0.5 else (X, Y)

    def draw_round(self, rng: random.Random, index: int) -> List[Op]:
        ops = []
        for p, q in HOM_SURFACES:
            s = Surface(p, q)
            for shape in PAIR_SHAPES:
                for band in range(SIZE_BANDS):
                    for kind in ("hom_dim", "ext1_dim", "classify_nonzero"):
                        X, Y = self.pair(rng, s, shape, band)
                        ops.append(self._op(kind, X, Y))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _op(kind: str, X, Y) -> Op:
        if kind == "hom_dim":
            return Op(kind, (X, Y), lambda: homext.hom_dim(X, Y), lambda r: r == checks.hom(X, Y))
        if kind == "ext1_dim":
            return Op(
                kind, (X, Y), lambda: homext.ext1_dim(X, Y), lambda r: r == checks.ext1(X, Y)
            )
        return Op(
            kind,
            (X, Y),
            lambda: homext.classify_nonzero(X, Y),
            lambda r: (r.tag, r.same_object) == checks.expected_class(X, Y),
        )


# ---------------------------------------------------------------------------
# collections: completion, the braid action and normalization.
# ---------------------------------------------------------------------------

COLLECTION_SURFACES = ((2, 3), (3, 4), (4, 5))
POOL_SIZE = 24  # maximal collections per surface that seeds and inputs start from
POOL_SCRAMBLE = 6  # letters scrambling each pool collection, at most
SEED_TURNS = 300  # seed windings for completion reach this many turns
# Winding bands, log-evenly spaced on [1, SEED_TURNS].  An odd count, so
# that the traced and untraced rounds of a traced run, which alternate,
# each see every band.
SEED_BANDS = 9
BRAID_LETTERS = (10, 20)
NORMALIZE_SHIFT = 10
NORMALIZE_SCRAMBLE = 4
# States the normalizing search may visit per shift candidate.  An input
# scrambled by at most 4 letters needs a few hundred at the right shift;
# with the default budget of 1e6, an input whose shift estimate is off by
# two runs for minutes on the wrong candidates.
NORMALIZE_BUDGET = 5_000


def _shifted(arcs, k: int) -> tuple:
    return tuple(checks.se_shift(a, k) for a in arcs)


def _pool(rng: random.Random, s: Surface) -> List[tuple]:
    """Maximal ordered collections: the canonical fan under short random words."""
    fan = braid.canonical_theta(s)
    return [
        braid.apply_braid(
            fan, braid.word(s.rank, *_letters(rng, s.rank, rng.randint(0, POOL_SCRAMBLE)))
        )
        for _ in range(POOL_SIZE)
    ]


class Collections(Workload):
    name = "collections"
    warm_rounds = 4  # winding bands 0-3, up to about 13 turns
    trace_rounds = 4
    rounds_per_s = 5.0

    def setup(self) -> None:
        self.pools = {pq: _pool(self.pool_rng, Surface(*pq)) for pq in COLLECTION_SURFACES}
        super().setup()

    def _complete(self, rng: random.Random, s: Surface, band: int, extra: int) -> Op:
        # One step of the se-shift moves the winding by 1/p + 1/q turns; a
        # negative shift moves outer indices up, the direction in which
        # completion scans bridging arcs out to the seed.  Windings stay
        # within a quarter band of the band's centre: completion cost grows
        # with them, and a wide spread in the top band would scatter the
        # tail.  They are never repeated, so the pair cache still misses.
        turns = SEED_TURNS ** ((band + 0.25 + 0.5 * rng.random()) / SEED_BANDS)
        k = -round(turns * s.p * s.q / (s.p + s.q))
        arcs = _shifted(rng.choice(self.pools[s.p, s.q]), k)
        # The seed is one bridging arc and up to two peripheral ones.  With a
        # single bridging arc, completion scans bridging arcs out to the
        # seed's winding, so the cost of every seed grows with its band.
        seed = [rng.choice([a for a in arcs if isinstance(a, Bridging)])]
        peripheral = [a for a in arcs if not isinstance(a, Bridging)]
        seed += rng.sample(peripheral, min(extra, len(peripheral)))

        def check(result) -> bool:
            return (
                len(result) == s.rank
                and set(seed) <= set(result)
                and checks.is_ordered_exceptional(result)
            )

        collection = exceptional.ArcCollection.of(s, seed)
        return Op(
            "complete_to_maximal",
            tuple(seed),
            lambda: exceptional.complete_to_maximal(collection),
            check,
        )

    def _braid(self, rng: random.Random, s: Surface) -> Op:
        start = _shifted(rng.choice(self.pools[s.p, s.q]), rng.randint(-3, 3))
        w = braid.word(s.rank, *_letters(rng, s.rank, rng.randint(*BRAID_LETTERS)))

        def check(result) -> bool:
            return checks.is_ordered_exceptional(result) and tuple(
                braid.apply_braid(result, w.inverse(), validate=False)
            ) == start

        return Op("apply_braid", (start, w), lambda: braid.apply_braid(start, w), check)

    def _normalize(self, rng: random.Random, s: Surface, scramble: int) -> Op:
        shift = rng.randint(-NORMALIZE_SHIFT, NORMALIZE_SHIFT)
        w = braid.word(s.rank, *_letters(rng, s.rank, scramble))
        arcs = braid.apply_braid(_shifted(braid.canonical_theta(s), shift), w)
        goal = braid.canonical_theta(s)
        info = {"scramble": scramble, "shift": abs(shift)}

        def check(result) -> bool:
            info["letters"] = len(result)
            return tuple(braid.apply_braid(arcs, result, validate=False)) == goal

        return Op(
            "normalize_to_theta",
            arcs,
            lambda: braid.normalize_to_theta(arcs, budget=NORMALIZE_BUDGET),
            check,
            info,
        )

    def draw_round(self, rng: random.Random, index: int) -> List[Op]:
        # Winding bands, seed sizes and scramble lengths take turns by
        # round, so every stretch of rounds holds the same mix of inputs.
        band = index % SEED_BANDS
        extra = index // SEED_BANDS % 3
        scramble = index % (NORMALIZE_SCRAMBLE + 1)
        ops = []
        for p, q in COLLECTION_SURFACES:
            s = Surface(p, q)
            ops += [
                self._complete(rng, s, band, extra),
                self._braid(rng, s),
                self._normalize(rng, s, scramble),
            ]
        rng.shuffle(ops)
        return ops


# ---------------------------------------------------------------------------
# census: time to solution of the tilting enumeration.
# ---------------------------------------------------------------------------

# (p, q, ops a round).  census(4, 4) takes about four times as long as
# census(3, 4), which takes about five times census(3, 3).  On a shared
# host the speed of this allocation-heavy code drifts by a quarter over
# tens of seconds, so a median or tail taken from a few long ops follows
# the drift.  With sixteen census(3, 3) ops a round, spread over the run by
# the shuffle, the median and the tail op (two rounds: 38 ops, ten beyond
# the tail) are order statistics of 32 samples, while the two larger sizes
# still take most of a round's time and so set ops_per_s.
CENSUS_MIX = ((3, 3, 16), (3, 4, 2), (4, 4, 1))


class Census(Workload):
    name = "census"
    warm_rounds = 0
    # One census leaves the cyclic collector enough garbage to slow the
    # next by up to a fifth, so an op's time would depend on the seeded order.
    collect_each_op = True
    rounds_per_s = 0.1

    def setup(self) -> None:
        if tilting.census(2, 3) != checks.census_counts(2, 3):
            raise RuntimeError("warm-up census(2, 3) gave wrong counts")

    def draw_round(self, rng: random.Random, index: int) -> List[Op]:
        ops = [
            Op(
                "census",
                (p, q),
                lambda p=p, q=q: tilting.census(p, q),
                lambda r, p=p, q=q: r == checks.census_counts(p, q),
            )
            for p, q, count in CENSUS_MIX
            for _ in range(count)
        ]
        rng.shuffle(ops)
        return ops


# ---------------------------------------------------------------------------
# cli-oneshot: one fresh `wplarcs --json` process per op.
# ---------------------------------------------------------------------------

CLI_SURFACES = ((2, 3), (3, 4))
CLI_TIMEOUT_S = 30


def curve_json(c) -> Dict[str, Any]:
    if isinstance(c, Bridging):
        return {"kind": "bridging", "i": c.i, "j": c.j}
    kind = "inner" if isinstance(c, InnerPeripheral) else "outer"
    return {"kind": kind, "a": c.a, "b": c.b}


def sheaf_json(X) -> Dict[str, Any]:
    if isinstance(X, LineBundle):
        return {"kind": "line", "x": [X.x.l1, X.x.l2, X.x.l]}
    kind = "tinf" if isinstance(X, TorsionInf) else "tzero"
    return {"kind": kind, "i": X.i, "len": X.j}


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


class CliOneshot(Workload):
    """Each op runs `python -m wplarcs.cli --json ...` in a fresh process.

    With `in_process` set (the traced run) the same argv goes to
    `cli.main` in this process instead, so its spans can be recorded.
    """

    name = "cli-oneshot"
    trace_rounds = 2
    rounds_per_s = 1.2

    def __init__(self, seed: int, src: str = "", in_process: bool = False) -> None:
        super().__init__(seed)
        self.in_process = in_process
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def setup(self) -> None:
        self.pools = {pq: _pool(self.pool_rng, Surface(*pq)) for pq in CLI_SURFACES}
        self.census = tilting.census(2, 3)
        super().setup()

    def run(self, argv: List[str]):
        """(exit code, stdout) of one CLI invocation."""
        if self.in_process:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            return code, out.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "wplarcs.cli", *argv],
            capture_output=True,
            text=True,
            env=self.env,
            timeout=CLI_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout

    def _op(self, kind: str, s: Surface, args: List[str], expected: Callable[[], Any]) -> Op:
        """An op whose output must equal the JSON of `expected()`, the library's answer.

        The answer is computed when the op is checked, so that an in-process
        run does not find it in the library's caches beforehand.
        """
        argv = ["--p", str(s.p), "--q", str(s.q), "--json", kind, *args]

        def check(result) -> bool:
            code, out = result
            return code == 0 and out.count("\n") == 1 and json.loads(out) == expected()

        return Op(kind, tuple(argv), lambda: self.run(argv), check)

    def _sheaf(self, rng: random.Random, s: Surface):
        if rng.random() < 0.6:
            x = normal_form(rng.randrange(s.p), rng.randrange(s.q), rng.randint(-3, 3), s)
            return LineBundle(s, x)
        if rng.random() < 0.5:
            return TorsionInf(s, rng.randrange(s.p), rng.randint(1, 2 * s.p))
        return TorsionZero(s, rng.randrange(s.q), rng.randint(1, 2 * s.q))

    def draw_round(self, rng: random.Random, index: int) -> List[Op]:
        ops = []
        s = Surface(*rng.choice(CLI_SURFACES))
        curve = phi_inv(self._sheaf(rng, s))
        if rng.random() < 0.5:
            args = ["--curve", _dumps(curve_json(curve))]
            ops.append(self._op("phi", s, args, lambda: {"sheaf": sheaf_json(phi(curve))}))
        else:
            args = ["--sheaf", _dumps(sheaf_json(phi(curve)))]
            ops.append(self._op("phi", s, args, lambda: {"curve": curve_json(phi_inv(phi(curve)))}))

        s = Surface(*rng.choice(CLI_SURFACES))
        X, Y = self._sheaf(rng, s), self._sheaf(rng, s)
        args = ["--from", _dumps(sheaf_json(X)), "--to", _dumps(sheaf_json(Y))]
        ops.append(self._op("hom", s, args, lambda: {"dim": homext.hom_dim(X, Y)}))

        s = Surface(*rng.choice(CLI_SURFACES))
        base = _shifted(rng.choice(self.pools[s.p, s.q]), rng.randint(-2, 2))
        seed = exceptional.ArcCollection.of(s, rng.sample(base, rng.randint(1, 2)))

        def completed():
            return {"collection": [curve_json(c) for c in exceptional.complete_to_maximal(seed)]}

        args = ["--collection", _dumps([curve_json(c) for c in seed.sorted_arcs()])]
        ops.append(self._op("complete", s, args, completed))

        s = Surface(*rng.choice(CLI_SURFACES))
        w = braid.word(s.rank, *_letters(rng, s.rank, rng.randint(0, 2)))
        arcs = braid.apply_braid(_shifted(braid.canonical_theta(s), rng.randint(-1, 1)), w)

        def normalized():
            return {"word": [i * sg for i, sg in braid.normalize_to_theta(arcs).letters]}

        args = ["--collection", _dumps([curve_json(c) for c in arcs])]
        ops.append(self._op("normalize", s, args, normalized))

        ops.append(self._op("census", Surface(2, 3), [], lambda: self.census))
        rng.shuffle(ops)
        return ops


WORKLOADS = {w.name: w for w in (HomDeep, Collections, Census, CliOneshot)}
