"""Greedy exchange clustering over the two-sided class map.

Each iteration sweeps every movable word twice -- once proposing category
moves, once proposing state moves -- applying the single best strictly
improving reassignment per word.  Words with at most ``RARE_EVENTS`` events
in the table being clustered are not visited and keep their initial classes:
leave-one-out holds the map fixed, so it cannot see that such a word's class
would be chosen on exactly the events it is then scored on.  The adaptive
variant chooses the interpolation weight once, on a fixed grid and on the
start map's class counts, and builds its engine at that weight for every
sweep.  Everything is deterministic: fixed visit order, first-best tie
breaking toward low cluster ids, no randomness anywhere.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .classmodel import ClusterMap, class_counts
from .corpus import CountTable, Vocabulary
from .criterion import (
    CATEGORY_SIDE,
    NEG_INF,
    STATE_SIDE,
    AdaptiveObjective,
    StandardObjective,
    clustering_score,
    combine_counts,
)
from .discounting import Discount, bigram_discount
from .errors import ConfigError

if TYPE_CHECKING:
    from .evaluate import SuiteConfig

log = logging.getLogger(__name__)

# Words with at most this many events in the table being clustered keep
# their initial classes.
RARE_EVENTS = 2

# A sweep that raises the score by less than this share of it converges.
REL_THRESHOLD = 1e-6


@dataclass
class IterationStats:
    iteration: int
    moves: int
    score: float


@dataclass
class ExchangeResult:
    """``moves`` holds each applied move, in order, as (iteration, word, side,
    source cluster, target cluster, criterion delta, running score)."""
    cluster_map: ClusterMap
    score: float
    lam: float | None
    iterations: list[IterationStats] = field(default_factory=list)
    moves: list[tuple] = field(default_factory=list)
    converged: bool = False


def optimize_lambda(
    adapt: np.ndarray, back: np.ndarray, grid, b: float
) -> tuple[float, float]:
    """Grid argmax (weight, score) of the criterion of the ``adapt`` class
    counts combined with the ``back`` ones at discount ``b``; ties, and a
    grid whose every point is degenerate (score -inf), go to the largest
    weight."""
    if adapt.shape != back.shape:
        raise ConfigError("class count tables have mismatched cluster ranges")
    grid = sorted(grid)
    if not grid:
        raise ConfigError("empty weight grid")
    best_lam = None
    best_score = NEG_INF
    for lam in grid:
        s = clustering_score(adapt, combine_counts(adapt, back, lam), b)
        if best_lam is None or s >= best_score:
            best_lam, best_score = lam, s
    return float(best_lam), best_score


def criterion_discount(
    train_counts: CountTable, back_counts: CountTable | None, cfg: SuiteConfig
) -> Discount:
    """Discount used inside the objective: forced, or estimated from the
    pooled bigram count-of-count histogram of the training table(s)."""
    tables = [t for t in (train_counts, back_counts) if t is not None]
    return bigram_discount(cfg.discount, *tables)


def _visit_order(
    train_counts: CountTable,
    back_counts: CountTable | None,
    vocab: Vocabulary | None,
) -> list[int]:
    weight = train_counts.unigram.copy()
    if back_counts is not None:
        weight = weight + back_counts.unigram
    name = vocab.word if vocab is not None else int
    return sorted(range(len(weight)), key=lambda w: (-int(weight[w]), name(w)))


def run_exchange(
    train_counts: CountTable,
    back_counts: CountTable | None,
    init: ClusterMap,
    cfg: SuiteConfig,
    vocab: Vocabulary | None = None,
) -> ExchangeResult:
    """Run exchange clustering from ``init`` until convergence or the
    iteration cap.

    With ``back_counts`` the criterion combines the adaptation counts
    ``train_counts`` with the background counts, at the grid weight that
    scores ``init`` best (``result.lam``); without, it is
    leave-one-out over ``train_counts``.  Either way, words with
    at most ``RARE_EVENTS`` events in ``train_counts`` (the table being
    clustered) keep their state and category from ``init``.  The returned
    map is a copy; ``init`` is left untouched.
    """
    cm = init.copy()
    discount = criterion_discount(train_counts, back_counts, cfg)
    if back_counts is not None:
        # the start map's class counts are freed before the engine is built
        start = (class_counts(t, cm) for t in (train_counts, back_counts))
        lam, score = optimize_lambda(*start, cfg.lambda_grid, discount.b)
        engine = AdaptiveObjective(train_counts, back_counts, cm, discount, lam)
        log.info("lambda %.2f, start score %.6f", lam, score)
    else:
        engine = StandardObjective(train_counts, cm, discount)
        lam = None
        score = engine.score()

    events = train_counts.unigram
    order = [
        w for w in _visit_order(train_counts, back_counts, vocab)
        if events[w] > RARE_EVENTS
    ]
    # per side, the words it visits: no move pins or frees a word
    visits = [(side, [w for w in order if not engine.frozen(w, side)])
              for side in (CATEGORY_SIDE, STATE_SIDE)]
    result = ExchangeResult(cm, score, lam)
    prev = running = score
    for it in range(1, cfg.max_iterations + 1):
        moves = 0
        for side, words in visits:
            assign = engine.assignment(side)[0]
            for w in words:
                best = engine.best_move(w, side)
                if best is None:
                    continue
                dst, delta = best
                src = int(assign[w])
                engine.apply_move(w, side, dst)
                moves += 1
                running += delta
                result.moves.append((it, w, side, src, dst, float(delta), float(running)))
        score = running = engine.score()
        result.iterations.append(IterationStats(it, moves, score))
        log.info("iteration %d: %d moves, score %.6f", it, moves, score)
        if moves == 0:
            result.converged = True
            break
        rel = (score - prev) / max(1.0, abs(prev))
        if rel < REL_THRESHOLD:
            result.converged = True
            break
        prev = score

    result.score = score
    return result
