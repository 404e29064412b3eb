"""Seed -> request pool, per workload.

A pool is a list of :class:`Request` objects; the load generator cycles
through it in order.  Everything here is a pure function of the seed
(``random.Random(seed)`` only), so the same seed always gives the same
programs in the same order — the daemon sees nothing but the
generated request bodies.

The programs are the paper's: integer arithmetic, lazy list functions,
``catchEval``/``catchIO`` around a raise (the Section 4.4 IO layer),
and expressions whose denoted exception set has two members (Sections
4.1-4.3), where the daemon may legitimately answer with either.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable, List

#: ``repro serve --cache-capacity`` for the novel-typed daemon; its
#: pool holds 2.5x this many distinct programs so an LRU never hits.
NOVEL_CACHE_CAPACITY = 64
NOVEL_POOL_SIZE = NOVEL_CACHE_CAPACITY * 5 // 2


@dataclass(frozen=True)
class Request:
    """One request body: source, and whether it asks for ``typecheck``."""

    expr: str
    typecheck: bool = False
    #: Request class (fixes the novel-typed shares).
    kind: str = "eval"

    def body(self) -> bytes:
        payload = {"expr": self.expr}
        if self.typecheck:
            payload["typecheck"] = True
        return json.dumps(payload).encode("utf-8")


# -- small-keepalive ------------------------------------------------------


def _small_programs(rng: random.Random) -> List[Request]:
    def n(lo: int = 1, hi: int = 99) -> int:
        return rng.randint(lo, hi)

    progs = [
        # arithmetic
        f"{n()} + {n()} * {n()}",
        f"({n()} - {n()}) * {n()}",
        f"{n(100, 999)} `div` {n(2, 9)} + {n()} `mod` {n(2, 9)}",
        f"max {n()} {n()} * min {n()} {n()}",
        f"abs ({n()} - {n(100, 200)}) + signum {n()}",
        # short list functions
        f"sum [{n()}, {n()}, {n()}, {n()}]",
        f"length (enumFromTo 1 {n(3, 12)})",
        f"reverse [{n()}, {n()}, {n()}]",
        f"map (\\x -> x * {n(2, 9)}) [{n()}, {n()}]",
        f"take 2 (filter even [{n()}, {n()}, {n()}, {n()}, 2, 4])",
        # a caught raise (Section 4.4)
        f"catchEval ({n()} `div` 0) (\\e -> {n()})",
        f'catchIO (ioError (UserError "e{n()}")) (\\e -> returnIO {n()})',
        f"catchEval (head []) (\\e -> {n()})",
        # two-member exception sets (Sections 4.1-4.3)
        f'({n()} `div` 0) + error "Urk"',
        f'error "boom" * ({n()} `div` 0)',
        f"head [] + ({n()} `div` 0)",
    ]
    return [Request(p) for p in progs]


def small_keepalive(seed: int) -> List[Request]:
    rng = random.Random(seed)
    pool = _small_programs(rng)
    rng.shuffle(pool)
    return pool


# -- heavy-cached -------------------------------------------------------


def heavy_cached(seed: int) -> List[Request]:
    """Eight programs of similar cost, each 2-5x10^4 machine steps."""
    rng = random.Random(seed)

    def n(lo: int, hi: int) -> int:
        return rng.randint(lo, hi)

    zip_len = n(215, 235)
    progs = [
        # sums of squares and list pipelines
        f"sum (map (\\x -> x * x) (enumFromTo 1 {n(440, 460)}))",
        f"sum (map (\\x -> x `mod` {n(60, 97)}) (enumFromTo 1 {n(370, 390)}))",
        f"sum (filter odd (enumFromTo 1 {n(410, 430)}))",
        "length (filter even (map (\\x -> x * "
        f"{n(3, 9)} + 1) (enumFromTo 1 {n(380, 400)})))",
        f"sum (zipWith (*) (enumFromTo 1 {zip_len}) "
        f"(reverse (enumFromTo 1 {zip_len})))",
        # tree folds: a doubly-recursive descent of depth 11
        "let { go = \\d -> case d == 0 of { True -> "
        f"{n(1, 9)}; False -> go (d - 1) + go (d - 1) }} }} in go 11",
        "let { t = \\d -> case d == 0 of { True -> 1; False -> "
        f"t (d - 1) + t (d - 1) + {n(1, 9)} }} }} in t 11",
        # raises part-way through the sum, inside catchEval
        "catchEval (sum (map (\\x -> 100 `div` (x - "
        f"{n(410, 430)})) (enumFromTo 1 520))) (\\e -> 0 - {n(1, 9)})",
    ]
    pool = [Request(p) for p in progs]
    rng.shuffle(pool)
    return pool


# -- novel-typed --------------------------------------------------------

#: One block of the novel-typed mix; the pool repeats it, so every
#: window of 20 consecutive requests carries exactly these shares:
#: 11 plain evaluations, 4 typechecked evaluations, 2 parse errors,
#: 2 type errors (typechecked) and 1 unbound name (not typechecked —
#: the daemon drops that connection).
NOVEL_BLOCK = (
    ("eval",) * 11
    + ("typecheck",) * 4
    + ("parse-error",) * 2
    + ("type-error",) * 2
    + ("unbound",)
)


def _novel_eval(rng: random.Random, i: int, choice: int) -> str:
    """A distinct well-typed program of roughly 10^3 machine steps from
    template ``choice``; ``i`` is folded into a literal so no two
    positions collide."""
    k = rng.randint(28, 32)
    a = rng.randint(2, 9)
    if choice == 0:
        return f"sum (map (\\x -> x * x + {i}) (enumFromTo 1 {k}))"
    if choice == 1:
        return (
            f"length (filter even (map (\\x -> x * {a} + {i}) "
            f"(enumFromTo 1 {k})))"
        )
    if choice == 2:
        return (
            f"foldr (\\x acc -> x + acc) {i} (zipWith (*) "
            f"(enumFromTo 1 {k}) (enumFromTo {a} {k + a - 1}))"
        )
    if choice == 3:
        return (
            f"catchEval (sum (map (\\x -> {i} `div` (x - {k // 2})) "
            f"(enumFromTo 1 {k}))) (\\e -> {a})"
        )
    if choice == 4:
        return f"maximum (map (\\x -> x `mod` {a + 10}) (enumFromTo {i} {i + k}))"
    return (
        f"let {{ go = \\d -> case d == 0 of {{ True -> {i}; "
        f"False -> go (d - 1) + {a} }} }} in go {k * 3}"
    )


def _novel_request(
    rng: random.Random, kind: str, i: int, template: int
) -> Request:
    if kind == "eval":
        return Request(_novel_eval(rng, i, template), kind="eval")
    if kind == "typecheck":
        return Request(
            _novel_eval(rng, i, template), typecheck=True, kind="typecheck"
        )
    if kind == "parse-error":
        broken = rng.choice(
            [
                f"let {{ x{i} = in x{i}",
                f"({i} + * {rng.randint(1, 9)})",
                f"case {i} of {{ True -> ",
            ]
        )
        return Request(broken, kind="parse-error")
    if kind == "type-error":
        bad = rng.choice(
            [
                f"{i} + True",
                f"length {i}",
                f"not ({i} * {rng.randint(2, 9)})",
            ]
        )
        return Request(bad, typecheck=True, kind="type-error")
    if kind == "unbound":
        return Request(
            f"undefinedName{i} + {rng.randint(1, 9)}", kind="unbound"
        )
    raise ValueError(kind)


def novel_typed(seed: int) -> List[Request]:
    rng = random.Random(seed)
    pool: List[Request] = []
    for start in range(0, NOVEL_POOL_SIZE, len(NOVEL_BLOCK)):
        block = list(NOVEL_BLOCK)
        rng.shuffle(block)
        for offset, kind in enumerate(block):
            # Templates rotate per kind, not per seed, so every seed's
            # pool carries the same mix of costs.
            template = sum(r.kind == kind for r in pool) % 6
            pool.append(_novel_request(rng, kind, start + offset, template))
    if len({r.expr for r in pool}) != len(pool):
        raise AssertionError("novel-typed pool has duplicate programs")
    return pool


POOLS: dict = {
    "small-keepalive": small_keepalive,
    "heavy-cached": heavy_cached,
    "novel-typed": novel_typed,
}


def pool_for(workload: str, seed: int) -> List[Request]:
    make: Callable[[int], List[Request]] = POOLS[workload]
    return make(seed)


def fuzz_base_seed(seed: int) -> int:
    """``repro fuzz --seed`` for a benchmark seed.  Case ``i`` uses
    generator seed ``base + i``, so nearby benchmark seeds are spread
    apart to keep their case sets disjoint."""
    return (seed * 1_000_003) % (2**31)
