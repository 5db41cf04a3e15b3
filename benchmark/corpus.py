"""Seeded corpus and query-stream generator for the benchmark.

Writes pages-schema Parquet (``doc_id, url, warc_ts, html, text, lang``)
in the FIXTURES.md F1 style: ``html`` wraps the page text in a template
with a title, paragraphs, entity escapes, inline markup and script/style
noise; ``text`` is the expected extraction, composed directly from the
parts.  Nothing here imports the engine package, so a change to the
engine's own page generator cannot change the benchmark's inputs.

Corpus make-up:

* a Zipf-Mandelbrot vocabulary of ``VOCAB`` synthetic words
  (``p(rank r) ~ 1 / (r + 2.7)``), so a realistic number of distinct terms
  appears and the per-(term, salt) merge cost of the build is visible;
* log-normal document lengths (median ~90 content words), taken at the
  distribution's quantiles and shuffled, so every seed has the same total
  length and only the words and their order change;
* a few stop words mixed into every page, a few stop-word-only pages,
  occasional capitalised words and a ``caf&#233;`` entity (non-ASCII
  token after extraction).
"""

from __future__ import annotations

import hashlib
import html as html_mod
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

VOCAB = 40_000
ZIPF_SHIFT = 2.7
DL_LOG_MEAN = 4.5        # exp(4.5) ~ 90 content words
DL_LOG_SIGMA = 0.6
STOP_SHARE = 0.15
STOP_MIX = ("the", "of", "and", "to", "in", "is", "for", "with")
BASE_EPOCH_US = 1_577_836_800_000_000  # 2020-01-01T00:00:00Z
TS_STEP_US = 17_000_000

PAGES_SCHEMA = pa.schema([
    ("doc_id", pa.int64()),
    ("url", pa.string()),
    ("warc_ts", pa.timestamp("us")),
    ("html", pa.binary()),
    ("text", pa.string()),
    ("lang", pa.string()),
])

_ONSETS = ("b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r",
           "s", "t", "v", "w", "z", "br", "ch", "dr", "gl", "kr", "pl",
           "sh", "st", "th", "tr")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ea", "io", "ou")
_CODAS = ("", "", "", "n", "r", "s", "l", "m", "x", "nd", "rt", "st")
# the engine's frozen stop list, restated so generated words never
# collide with it (the oracle holds its own copy)
_STOPWORDS = frozenset("""
    a an and are as at be but by for from has have he her his i if in into is
    it its not of on or she so that the their them they this to was we were
    will with you your""".split())


def make_vocab(rng: np.random.Generator, size: int = VOCAB) -> list[str]:
    """``size`` distinct lowercase pseudo-words, rank order = frequency
    order.  Words are 2-4 syllables; nothing here can spell an OOV probe
    (those end in ``q``) or a stop word."""
    seen: set[str] = set()
    words: list[str] = []
    while len(words) < size:
        n = 4096
        nsyl = rng.integers(2, 5, n)
        on = rng.integers(0, len(_ONSETS), (n, 4))
        vo = rng.integers(0, len(_VOWELS), (n, 4))
        co = rng.integers(0, len(_CODAS), n)
        for i in range(n):
            w = "".join(_ONSETS[on[i, j]] + _VOWELS[vo[i, j]]
                        for j in range(nsyl[i])) + _CODAS[co[i]]
            if w not in seen and w not in _STOPWORDS:
                seen.add(w)
                words.append(w)
                if len(words) == size:
                    break
    return words


def zipf_cdf(size: int = VOCAB) -> np.ndarray:
    w = 1.0 / (np.arange(size, dtype=np.float64) + ZIPF_SHIFT)
    c = np.cumsum(w)
    return c / c[-1]


def lognormal_quantiles(n: int) -> np.ndarray:
    """The ``n`` mid-quantiles of the document-length distribution."""
    from statistics import NormalDist
    z = np.array([NormalDist().inv_cdf((i + 0.5) / n) for i in range(n)])
    return np.clip(np.round(np.exp(DL_LOG_MEAN + DL_LOG_SIGMA * z)),
                   5, 1500).astype(int)


def _collapse(s: str) -> str:
    return " ".join(s.split())


def make_page(doc_id: int, words: list[str], rng: np.random.Generator
              ) -> tuple[bytes, str]:
    """(html, expected_text) for one page.  The expected text is built from
    the parts, never by running an extractor."""
    title = " ".join(words[:5]) if words else "untitled"
    paras = [" ".join(words[i:i + 40]) for i in range(0, len(words), 40)]
    blocks = [_collapse(title)]
    out = ["<html><head>",
           f"<title>{html_mod.escape(title)}</title>",
           "<style>body { color: #000; }</style>",
           "</head>\n<body>"]
    r = rng.integers(0, 1 << 30, 4 + len(paras))
    if r[0] % 3 == 0:
        out.append("<script>var x = 1 < 2 && 3 > 2;</script>")
    if r[1] % 4 == 0:
        out.append("<!-- crawler comment &amp; noise -->")
    for pi, para in enumerate(paras):
        esc = html_mod.escape(para)
        rp = int(r[4 + pi])
        if rp % 5 == 0:
            first, _, rest = esc.partition(" ")
            esc = f"<b>{first}</b> {rest}" if rest else f"<b>{first}</b>"
        if rp % 11 == 0:
            esc += " caf&#233;"
            para += " café"
        out.append(f"<p>\n  {esc}\n</p>")
        blocks.append(_collapse(para))
    if r[2] % 2 == 0:
        out.append("<div><span>footer &amp; links</span></div>")
        blocks.append("footer & links")
    out.append("</body></html>")
    return "\n".join(out).encode("utf-8"), "\n".join(b for b in blocks if b)


def url_for(seed: int, doc_id: int) -> str:
    h = hashlib.sha1(f"{seed}:{doc_id}".encode()).hexdigest()[:10]
    return f"https://site{doc_id % 97}.example/{h}"


def generate_pages(seed: int, n_docs: int, vocab: list[str]) -> pa.Table:
    """The pages table for ``seed``: same seed, same bytes."""
    rng = np.random.default_rng([seed, 1])
    cdf = zipf_cdf(len(vocab))
    lens = rng.permutation(lognormal_quantiles(n_docs))
    draws = np.searchsorted(cdf, rng.random(int(lens.sum())), side="right")
    stop_only = rng.random(n_docs) < 0.005
    ids, urls, htmls, texts, langs = [], [], [], [], []
    off = 0
    for i in range(n_docs):
        n = int(lens[i])
        ranks = draws[off:off + n]
        off += n
        if stop_only[i]:
            words = [STOP_MIX[j % len(STOP_MIX)] for j in range(n % 9 + 3)]
        else:
            words = [vocab[j] for j in ranks]
            k = rng.random(n)
            for j in np.flatnonzero(k < STOP_SHARE):
                words[j] = STOP_MIX[int(k[j] * 1000) % len(STOP_MIX)]
            for j in np.flatnonzero(k > 0.98):
                words[j] = words[j].capitalize()
        h, t = make_page(i, words, rng)
        ids.append(i)
        urls.append(url_for(seed, i))
        htmls.append(h)
        texts.append(t)
        langs.append("en" if i % 13 else ("de", "fr", "")[i % 3])
    idarr = np.asarray(ids, dtype=np.int64)
    return pa.table({
        "doc_id": pa.array(idarr, pa.int64()),
        "url": pa.array(urls, pa.string()),
        "warc_ts": pa.array(BASE_EPOCH_US + idarr * TS_STEP_US,
                            pa.timestamp("us")),
        "html": pa.array(htmls, pa.binary()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(langs, pa.string()),
    }, schema=PAGES_SCHEMA)


def canary_token(j: int) -> str:
    return f"xcanary{j:03d}"


def canary_pages(n: int, first_id: int) -> pa.Table:
    """``n`` pages that do not depend on the seed: page ``j`` holds only
    ``canary_token(j)``, a word no query stream draws, so exactly one
    query -- the token itself -- returns it.  Pages are of median length
    so they leave the average document length alone."""
    rng = np.random.default_rng(0)
    n_words = round(np.exp(DL_LOG_MEAN))
    rows = [make_page(first_id + j, [canary_token(j)] * n_words, rng)
            for j in range(n)]
    ids = np.arange(first_id, first_id + n, dtype=np.int64)
    return pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "url": pa.array([f"https://canary.example/{j}" for j in range(n)]),
        "warc_ts": pa.array(BASE_EPOCH_US + ids * TS_STEP_US,
                            pa.timestamp("us")),
        "html": pa.array([h for h, _ in rows], pa.binary()),
        "text": pa.array([t for _, t in rows], pa.string()),
        "lang": pa.array(["en"] * n, pa.string()),
    }, schema=PAGES_SCHEMA)


def write_pages(table: pa.Table, out_dir: str, n_files: int,
                prefix: str = "part") -> list[str]:
    """Split ``table`` into ``n_files`` row-aligned Parquet files."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    bounds = np.linspace(0, table.num_rows, n_files + 1).astype(int)
    for fi in range(n_files):
        p = os.path.join(out_dir, f"{prefix}-{fi:05d}.parquet")
        pq.write_table(table.slice(bounds[fi], bounds[fi + 1] - bounds[fi]),
                       p)
        paths.append(p)
    return paths


def query_stream(seed: int, vocab: list[str], n: int) -> list[dict]:
    """``n`` queries drawn from the corpus vocabulary.

    A pool of ``n // 4`` distinct queries: 1-4 terms (30/35/20/15%), a
    third of the multi-term ones AND (about a quarter overall), 5% with an
    out-of-vocabulary term.  Query terms follow a flattened Zipf over the
    8k most frequent words (exponent 0.7), so the stream mixes head terms
    (dense lists) with mid and tail terms (selective lists).  The stream
    repeats pool entries Zipf-style (exponent 0.6, so the most popular
    query is ~3% of traffic).

    Every count above is exact and every draw is stratified -- the seed
    shuffles which words and which queries land where, not how many -- so
    streams of different seeds cost about the same to serve."""
    rng = np.random.default_rng([seed, 2])
    n_pool = max(1, n // 4)
    nts = np.repeat([1, 2, 3, 4], np.round(
        np.array([0.3, 0.35, 0.2, 0.15]) * n_pool).astype(int))
    nts = rng.permutation(np.resize(nts, n_pool))
    slots = int(nts.sum())
    w = 1.0 / (np.arange(min(len(vocab), 8000)) + 10.0) ** 0.7
    term_cdf = np.cumsum(w) / w.sum()
    u = (np.arange(slots) + rng.random(slots)) / slots
    ranks = rng.permutation(np.searchsorted(term_cdf, u, side="right"))
    multi = np.flatnonzero(nts > 1)
    is_and = np.zeros(n_pool, bool)
    is_and[rng.choice(multi, len(multi) // 3, replace=False)] = True
    oov = np.zeros(n_pool, bool)
    oov[rng.choice(n_pool, round(0.05 * n_pool), replace=False)] = True
    pool, off = [], 0
    for qi in range(n_pool):
        terms = []
        for r in ranks[off:off + nts[qi]]:
            if vocab[r] not in terms:
                terms.append(vocab[r])
        off += nts[qi]
        if oov[qi]:
            terms[-1] = f"zz{qi}q"
        pool.append({"query": " ".join(terms),
                     "mode": "and" if is_and[qi] else "or", "k": 10})
    pw = 1.0 / (np.arange(n_pool) + 1.0) ** 0.6
    reps = np.maximum(1, np.round(pw / pw.sum() * n)).astype(int)
    picks = rng.permutation(np.repeat(np.arange(n_pool), reps))
    return [pool[i] for i in picks[:n]]
