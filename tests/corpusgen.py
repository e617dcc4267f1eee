"""Deterministic synthetic corpora for the tests.

The generator draws sentences from a hidden class-bigram process: a random
walk over word classes, each emitting from its own inventory with a skewed
within-class distribution.  Two domains share function/content classes but
carry disjoint topic inventories and different transition biases, so that
adapting a background model toward target-domain text has real signal to
pick up.  Everything is seeded; same arguments, same corpus.
"""

import random

from clusterlm.corpus import CountTable, Vocabulary, count_events


def _inventory(prefix, n):
    return [f"{prefix}{i:02d}" for i in range(n)]


_SHARED = {
    "f": _inventory("f", 12),   # connective-like, very frequent
    "n": _inventory("n", 60),
    "v": _inventory("v", 40),
    "m": _inventory("m", 30),
}

_START = {"f": 4, "n": 2, "m": 1, "t": 3}


def _transitions(domain):
    table = {
        "f": {"n": 5, "m": 3, "t": 4},
        "n": {"v": 6, "f": 2},
        "v": {"f": 3, "n": 2, "m": 2, "t": 3},
        "m": {"n": 5, "t": 3},
        "t": {"v": 5, "f": 3},
    }
    if domain == "target":
        table["f"]["t"] = 7
        table["m"]["t"] = 6
        table["v"]["t"] = 5
    return table


def _pick(rng, weights):
    names = sorted(weights)
    x = rng.random() * sum(weights[k] for k in names)
    for k in names:
        x -= weights[k]
        if x <= 0:
            return k
    return names[-1]


def domain_corpus(domain, seed, n_words, topic_size=80):
    """Sentences (lists of strings) totalling at least n_words words."""
    if domain not in ("back", "target"):
        raise ValueError(f"unknown domain {domain!r}")
    rng = random.Random(f"{domain}-{seed}")
    classes = dict(_SHARED)
    classes["t"] = _inventory("x" if domain == "back" else "y", topic_size)
    trans = _transitions(domain)
    sentences = []
    total = 0
    while total < n_words:
        cls = _pick(rng, _START)
        sent = []
        for _ in range(rng.randint(6, 13)):
            words = classes[cls]
            sent.append(words[int(rng.random() ** 2.2 * len(words))])
            cls = _pick(rng, trans[cls])
        sentences.append(sent)
        total += len(sent)
    return sentences


def block_corpus(n_sentences=80, seed=7):
    """Tiny corpus with hard two-block structure on six content words.

    Words {p0,p1,p2} are always followed by words from {q0,q1,q2} and vice
    versa, so the best 2x2 clustering is unambiguous.
    """
    rng = random.Random(seed)
    left = ["p0", "p1", "p2"]
    right = ["q0", "q1", "q2"]
    sentences = []
    for _ in range(n_sentences):
        sent = []
        for _ in range(rng.randint(2, 4)):
            sent.append(rng.choice(left))
            sent.append(rng.choice(right))
        sentences.append(sent)
    return sentences


def table_from_sentences(sentences, max_size=100):
    """Vocabulary + counts straight from in-memory sentences."""
    vocab = Vocabulary()
    for sent in sentences:
        for word in sent:
            vocab.add(word)
    if len(vocab) > max_size:
        raise ValueError("corpus vocabulary exceeded the requested cap")
    counts = count_events(sentences, vocab)
    return vocab, counts


def random_table(rng, vocab_size, density=0.25, max_count=9):
    """Random sparse CountTable over the given vocabulary size.

    Draws bigram events over all ids (including the reserved ones, which is
    fine for criterion-level tests: the scoring code only sees cells).
    """
    cells = {}
    n_events = max(3, int(vocab_size * vocab_size * density * 0.15))
    for _ in range(n_events):
        pair = rng.randrange(vocab_size), rng.randrange(vocab_size)
        cells[pair] = cells.get(pair, 0) + rng.randint(1, max_count)
    context, word = zip(*cells)
    return CountTable(vocab_size, context, word, list(cells.values()))

