"""Brute-force BM25 oracle, written from the scoring spec alone.

It shares no code with the engine package.  The spec:

* analysis: NFC normalisation, casefold, tokens are ``\\w+`` runs, the
  frozen English stop list below is dropped; a document's length is its
  token count after stop-word removal;
* scoring: k1 = 1.2, b = 0.75, Lucene idf ``ln(1 + (N - df + 0.5) /
  (df + 0.5))``, per-term contributions summed in query-term order
  (first occurrence, duplicates dropped);
* out-of-vocabulary query terms are dropped in both modes; OR returns docs
  holding any remaining term, AND docs holding all of them;
* ranking: score descending, then doc_id ascending.

Run ``python3 benchmark/oracle.py`` for the self-check on a 3-document
corpus whose scores are worked out by hand below.
"""

from __future__ import annotations

import math
import re
import unicodedata
from collections import Counter

K1 = 1.2
B = 0.75
STOPWORDS = frozenset("""
    a an and are as at be but by for from has have he her his i if in into is
    it its not of on or she so that the their them they this to was we were
    will with you your""".split())
_TOKEN = re.compile(r"\w+")
SCORE_TOL = 1e-6


def analyze(text: str) -> list[str]:
    return [t for t in _TOKEN.findall(unicodedata.normalize("NFC", text)
                                      .casefold()) if t not in STOPWORDS]


class BM25Oracle:
    """Posting lists over ``docs`` (doc_id -> text), held as Python dicts."""

    def __init__(self, docs: dict[int, str]):
        self.n_docs = len(docs)
        self.dl: dict[int, int] = {}
        self.postings: dict[str, dict[int, int]] = {}
        for did, text in docs.items():
            toks = analyze(text)
            self.dl[did] = len(toks)
            for t, tf in Counter(toks).items():
                self.postings.setdefault(t, {})[did] = tf
        self.avg_dl = (sum(self.dl.values()) / self.n_docs
                       if self.n_docs else 0.0)

    def idf(self, term: str) -> float:
        df = len(self.postings.get(term, ()))
        return math.log(1.0 + (self.n_docs - df + 0.5) / (df + 0.5))

    def rank(self, query: str, mode: str = "or",
             dead: frozenset[int] | set[int] = frozenset()
             ) -> list[tuple[int, float]]:
        """Every matching live doc as ``(doc_id, score)``, best first.
        ``dead`` docs are masked out but still count in N, df and avg_dl
        (tombstone semantics)."""
        terms = [t for t in dict.fromkeys(analyze(query))
                 if t in self.postings]
        if not terms:
            return []
        scores: dict[int, float] = {}
        hits: Counter = Counter()
        for t in terms:
            idf = self.idf(t)
            for did, tf in self.postings[t].items():
                norm = tf * (K1 + 1.0) / (
                    tf + K1 * (1.0 - B + B * self.dl[did] / self.avg_dl))
                scores[did] = scores.get(did, 0.0) + idf * norm
                hits[did] += 1
        out = [(d, s) for d, s in scores.items() if d not in dead
               and (mode != "and" or hits[d] == len(terms))]
        out.sort(key=lambda ds: (-ds[1], ds[0]))
        return out


def compare(got: list[tuple[int, float]], ranking: list[tuple[int, float]],
            k: int) -> str | None:
    """None when ``got`` (engine top-k as ``(doc_id, score)``) equals the
    oracle ``ranking`` rank for rank with scores within ``SCORE_TOL``; a
    different doc at a rank is accepted only when the two docs tie within
    the tolerance (the engine and the oracle sum in the same order, so
    only true ties can swap).  Returns a message describing the first
    mismatch otherwise."""
    want = ranking[:k]
    if len(got) != len(want):
        return f"{len(got)} hits, oracle has {len(want)}"
    score_of = dict(ranking)
    seen = set()
    for i, ((gd, gs), (wd, ws)) in enumerate(zip(got, want)):
        if gd in seen:
            return f"rank {i}: doc {gd} repeated"
        seen.add(gd)
        if gd not in score_of:
            return f"rank {i}: doc {gd} is not a live match"
        if abs(gs - ws) > SCORE_TOL or abs(score_of[gd] - gs) > SCORE_TOL:
            return (f"rank {i}: doc {gd} score {gs!r}, oracle rank score "
                    f"{ws!r}, oracle doc score {score_of[gd]!r}")
        if gd != wd and abs(score_of[gd] - ws) > SCORE_TOL:
            return f"rank {i}: doc {gd}, oracle has doc {wd}"
    return None


def self_check() -> None:
    """Scores on a 3-document corpus, worked by hand.

    d1 "apple banana apple"      -> apple x2, banana      dl 3
    d2 "Banana cherry, cherry!"  -> banana, cherry x2     dl 3
    d3 "The date and the apple"  -> date, apple           dl 2
    N = 3, avg_dl = 8/3; df: apple 2, banana 2, cherry 1, date 1
    idf(df=2) = ln(1 + 1.5/2.5) = ln 1.6;  idf(df=1) = ln(1 + 2.5/1.5) = ln(8/3)
    length norm K(dl) = 1.2 * (0.25 + 0.75 * dl / (8/3)):
        K(3) = 1.2 * 1.09375 = 1.3125;  K(2) = 1.2 * 0.8125 = 0.975
    tf_norm = tf * 2.2 / (tf + K):
        d1 apple   2 * 2.2 / 3.3125 = 4.4 / 3.3125
        d1 banana  2.2 / 2.3125
        d2 banana  2.2 / 2.3125
        d2 cherry  4.4 / 3.3125
        d3 apple   2.2 / 1.975
        d3 date    2.2 / 1.975
    """
    o = BM25Oracle({1: "apple banana apple", 2: "Banana cherry, cherry!",
                    3: "The date and the apple"})
    l16, l83 = math.log(1.6), math.log(8.0 / 3.0)
    cases = [
        ("apple", "or", [(1, l16 * 4.4 / 3.3125), (3, l16 * 2.2 / 1.975)]),
        ("cherry OR date", "or", [(2, l83 * 4.4 / 3.3125),
                                  (3, l83 * 2.2 / 1.975)]),
        ("apple banana", "and", [(1, l16 * 4.4 / 3.3125
                                  + l16 * 2.2 / 2.3125)]),
        ("banana the", "or", [(1, l16 * 2.2 / 2.3125),
                              (2, l16 * 2.2 / 2.3125)]),
        ("zzz_unknown apple", "and", [(1, l16 * 4.4 / 3.3125),
                                      (3, l16 * 2.2 / 1.975)]),
        ("the and", "or", []),
    ]
    for q, mode, want in cases:
        got = o.rank(q, mode)
        if [d for d, _ in got] != [d for d, _ in want] or any(
                abs(g - w) > 1e-12 for (_, g), (_, w) in zip(got, want)):
            raise AssertionError(f"oracle self-check {q!r}/{mode}: "
                                 f"got {got}, want {want}")
    masked = o.rank("apple", "or", dead={1})
    if [d for d, _ in masked] != [3] or \
            abs(masked[0][1] - l16 * 2.2 / 1.975) > 1e-12:
        raise AssertionError("oracle self-check: tombstone mask")
    if compare([(3, 0.5235)], [(1, 0.6), (3, 0.5235)], 1) is None:
        raise AssertionError("oracle self-check: compare accepts a wrong doc")


if __name__ == "__main__":
    self_check()
    print("oracle self-check ok")
