"""Hyperplane processing orders for the incremental enumeration engine.

Static strategies produce a permutation of the equation indices up front; the
dynamic strategy picks the next hyperplane from the current vertex set, one
step at a time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .cone_problem import EnumerationProblem
from .errors import ParseError
from .exact_linalg import dense_row

STATIC_KINDS = ("input", "position", "lexpos", "lexrand")
KINDS = STATIC_KINDS + ("dynamic",)


@dataclass(frozen=True)
class OrderingStrategy:
    kind: str
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown ordering kind: {self.kind!r}")
        if (self.seed is not None) != (self.kind == "lexrand"):
            raise ValueError("a seed is required exactly for lexrand")


def parse_strategy(text: str) -> OrderingStrategy:
    """Parse a CLI ordering flag: input|position|lexpos|lexrand:<seed>|dynamic."""
    if text.startswith("lexrand:"):
        seed_text = text.split(":", 1)[1]
        try:
            seed = int(seed_text)
        except ValueError:
            raise ParseError(f"bad lexrand seed: {seed_text!r}") from None
        return OrderingStrategy("lexrand", seed)
    if text == "lexrand":
        raise ParseError("lexrand requires a seed: lexrand:<seed>")
    try:
        return OrderingStrategy(text)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def strategy_label(s: OrderingStrategy) -> str:
    return f"lexrand:{s.seed}" if s.kind == "lexrand" else s.kind


def order_static(problem: EnumerationProblem, strategy: OrderingStrategy) -> tuple[int, ...]:
    """Permutation of 0..g-1 for a static strategy; sorts are stable.

    `position` sorts the rows by their 0/1 support vectors, lexicographically;
    the key is that vector read as a binary number, bit d-1-j for column j,
    which orders rows, ties included, exactly as the vectors do.  `lexpos`
    sorts the dense rows, each negated if its first non-zero is negative, and
    `lexrand` the dense rows, each times a random sign."""
    if strategy.kind == "dynamic":
        raise ValueError("dynamic ordering has no static permutation; use choose_dynamic")
    d = problem.dim
    rows = problem.equations
    g = len(rows)
    if strategy.kind == "input":
        return tuple(range(g))
    if strategy.kind == "position":
        keys = [sum(1 << (d - 1 - j) for j in row) for row in rows]
    else:
        if strategy.kind == "lexpos":
            signs = [1 if not row or row[min(row)] > 0 else -1 for row in rows]
        else:  # lexrand: one random sign per row
            rng = random.Random(strategy.seed)
            signs = [rng.choice((1, -1)) for _ in range(g)]
        keys = [dense_row({j: s * x for j, x in row.items()}, d) for s, row in zip(signs, rows)]
    return tuple(sorted(range(g), key=keys.__getitem__))


def choose_dynamic(unprocessed: Iterable[int], values_of: Callable[[int], Iterable[int]]) -> int:
    """Unprocessed index k minimizing |S_+| * |S_-|, where `values_of(k)`
    gives the value of each current vertex against hyperplane k.

    Ties break toward the lowest index.
    """
    candidates = sorted(unprocessed)
    if not candidates:
        raise ValueError("no unprocessed hyperplanes")
    best_k = candidates[0]
    best_score: Optional[int] = None
    for k in candidates:
        pos = neg = 0
        for t in values_of(k):
            if t > 0:
                pos += 1
            elif t < 0:
                neg += 1
        score = pos * neg
        if best_score is None or score < best_score:
            best_k, best_score = k, score
            if score == 0:
                break
    return best_k
