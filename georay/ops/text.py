"""Text-analysis stages for training-data pipelines: language ID, quality
scoring, token stats, document fingerprinting.

All stateful pieces (stopword tables, compiled regexes, n-gram profiles) are
built once per worker process (``runtime.per_process``) and used by
stateless tasks; batches stream through vectorized pandas/pyarrow kernels.
Every stage is schema-stable so they chain.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

# module level: worker-executed code must not import georay lazily
# (foreign-cwd drivers, CLAUDE.md)
from georay.hashing import fingerprint64, fp_powers, splitmix64
from georay.runtime import broadcast, by_key, group_agg, join, per_process

# Tiny per-language stopword profiles (top function words). Enough signal to
# separate the 5 corpus languages; a real deployment would plug a fastText
# model into the same per-process slot.
_STOPWORDS = {
    "en": {"the", "and", "of", "a", "to", "in", "is", "that", "it", "for", "on",
           "with", "as", "was", "at", "by", "from", "this", "be", "are"},
    "de": {"der", "die", "das", "und", "ist", "von", "zu", "den", "mit", "auf",
           "für", "ein", "eine", "im", "nicht", "sich", "des", "dem", "als"},
    "fr": {"le", "la", "les", "et", "de", "des", "un", "une", "est", "dans",
           "que", "pour", "qui", "sur", "avec", "au", "pas", "par", "du"},
    "es": {"el", "la", "los", "las", "y", "de", "un", "una", "es", "en", "que",
           "por", "con", "para", "no", "se", "del", "al", "su", "como"},
    "zh": set(),  # CJK detected by script, not stopwords
}


class LangId:
    """Heuristic language ID: CJK script ratio first, then stopword-profile
    argmax. Output column ``lang_pred`` (one of en/de/fr/es/zh/unk).

    Semantics are INTEGER-EXACT on purpose (SQL-oracle parity):
    ``zh`` iff ``20*cjk_chars > max(len, 1)``; else the first language (in
    en/de/fr/es order) with the maximal stopword-occurrence count wins iff
    ``50*count > n_tokens``; else ``unk``. Fully vectorized: one
    explode→isin pass per language profile, no per-row Python loop."""

    def __init__(self):
        import re

        self.word_re = re.compile(r"[\w']+", re.UNICODE)
        self.cjk_re = re.compile(r"[一-鿿]")
        self.profiles = {k: sorted(v) for k, v in _STOPWORDS.items() if v}
        self.langs = list(self.profiles)

    def __call__(self, df):
        import pandas as pd

        df = df.reset_index(drop=True)
        texts = df["text"]
        n = len(df)
        cjk = texts.str.count(self.cjk_re).to_numpy()
        ln = texts.str.len().clip(lower=1).to_numpy()
        toks = texts.str.findall(self.word_re).explode().dropna().str.lower()
        row = toks.index.to_numpy().astype(np.int64)
        n_words = np.bincount(row, minlength=n)
        counts = np.zeros((n, len(self.langs)), dtype=np.int64)
        for j, lang in enumerate(self.langs):
            hit = toks.isin(self.profiles[lang]).to_numpy()
            np.add.at(counts[:, j], row[hit], 1)
        best_j = counts.argmax(axis=1)  # first max wins, like the CASE chain
        best_c = counts[np.arange(n), best_j] if n else np.zeros(0, np.int64)
        lang_arr = np.asarray(self.langs, dtype=object)
        pred = np.where(best_c * 50 > n_words, lang_arr[best_j], "unk")
        pred = np.where(cjk * 20 > ln, "zh", pred)
        return pd.DataFrame({"doc_id": df["doc_id"], "lang_pred": pred})


def _langid_batch(df):
    return per_process("text.LangId", LangId)(df)


def langid(ds):
    return ds.map_batches(_langid_batch, batch_format="pandas",
                          batch_size=2048)


class QualityScore:
    """Heuristic quality features + a composite score in [0, 1]:
    length band, alpha ratio, stopword ratio, mean word length band,
    repetition (unique-token ratio).

    The base features are INTEGER counts (n_chars_q, n_tokens_q, n_uniq_tok,
    n_stop_tok, n_alpha) so the harness query has an exact relational SQL
    twin; float ratios/score derive from them. Vectorized: pandas string
    kernels + one explode pass for the token-level counts (no per-row
    lambda)."""

    def __init__(self):
        import re

        self.word_re = re.compile(r"[\w']+", re.UNICODE)
        self.stops = sorted(_STOPWORDS["en"])

    def __call__(self, df):
        import pandas as pd

        df = df.reset_index(drop=True)
        texts = df["text"]
        n = len(df)
        n_chars = texts.str.len()
        n_tok_raw = texts.str.count(self.word_re)
        ex = texts.str.findall(self.word_re).explode().dropna()
        row = ex.index.to_numpy().astype(np.int64)
        n_uniq = np.zeros(n, dtype=np.int64)
        if len(ex):
            nun = ex.groupby(level=0).nunique()
            n_uniq[nun.index.to_numpy().astype(np.int64)] = nun.to_numpy()
        hit = ex.str.lower().isin(self.stops).to_numpy()
        n_stop = np.zeros(n, dtype=np.int64)
        np.add.at(n_stop, row[hit], 1)
        n_alpha = texts.str.count(r"[A-Za-z]")
        n_tok = n_tok_raw.clip(lower=1).to_numpy()
        uniq_ratio = n_uniq / n_tok
        stop_ratio = n_stop / n_tok
        mean_wlen = (n_chars.to_numpy() / n_tok).clip(0, 20)
        alpha_ratio = n_alpha / n_chars.clip(lower=1)
        len_score = ((n_chars.clip(50, 2000) - 50) / 1950.0).astype(float)
        wlen_score = 1.0 - np.clip(np.abs(mean_wlen - 5.5), 0, 5) / 5.0
        score = (
            0.25 * len_score
            + 0.25 * alpha_ratio
            + 0.2 * np.clip(stop_ratio, 0, 0.5) * 2
            + 0.15 * uniq_ratio
            + 0.15 * wlen_score
        )
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "n_chars_q": n_chars.astype(np.int64),
                "n_tokens_q": n_tok_raw.astype(np.int64),
                "n_uniq_tok": n_uniq,
                "n_stop_tok": n_stop,
                "n_alpha": n_alpha.astype(np.int64),
                "uniq_ratio": uniq_ratio,
                "stop_ratio": stop_ratio,
                "alpha_ratio": alpha_ratio,
                "quality": score.clip(0, 1),
            }
        )


def _quality_batch(df):
    return per_process("text.QualityScore", QualityScore)(df)


def quality(ds):
    return ds.map_batches(_quality_batch, batch_format="pandas",
                          batch_size=2048)


# ------------------------------------------------------------- fingerprinting

def add_fingerprint(ds, text_col: str = "text", prefix: int | None = None,
                    out_col: str = "fp"):
    def fn(t: pa.Table) -> pa.Table:
        texts = t[text_col].to_numpy(zero_copy_only=False)
        fp = fingerprint64(texts, prefix=prefix)
        return t.append_column(out_col, pa.array(fp.astype(np.int64)))

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def dedup_by_fingerprint(ds, id_col: str = "doc_id", text_col: str = "text",
                         prefix: int | None = None):
    """Exact dedup via hashing: add fingerprint, combine only (fp, id)."""
    with_fp = add_fingerprint(ds, text_col=text_col, prefix=prefix)
    return group_agg(with_fp, "fp", {
        "doc_id_first": ("min", id_col), "n_copies": ("count", None),
    }).select_columns(["doc_id_first", "n_copies"])


def make_gram_hash_rows(k: int, id_col: str, text_col: str):
    """Batch fn: one ``(g, id)`` row per k-token window of every document.

    Fully vectorized via the offsets idiom — tokens factorize per batch,
    only DISTINCT tokens are string-hashed, and the k-gram hash is a k-term
    polynomial combine of consecutive token hashes (k shifted multiply-adds,
    no per-window loop). Each token fingerprint passes through splitmix64
    BEFORE the combine so token boundaries can't alias (see
    ngram_span_stats's docstring for the aliasing example). Shared by
    ngram_span_stats and decontaminate."""
    import pandas as pd

    def gram_rows(df: pd.DataFrame) -> pa.Table:
        df = df.reset_index(drop=True)
        tok_lists = df[text_col].str.split(" ")
        lens = tok_lists.str.len().to_numpy().astype(np.int64)
        flat = np.concatenate([np.asarray(t, dtype=object)
                               for t in tok_lists]) if len(df) else \
            np.empty(0, dtype=object)
        codes, uniq = pd.factorize(flat)
        tok_h = (
            splitmix64(fingerprint64(np.asarray(uniq, dtype=object)))[codes]
            if uniq.size else np.empty(0, dtype=np.uint64)
        )
        n_grams = np.maximum(lens - k + 1, 0)
        offs = np.concatenate([[0], np.cumsum(lens)])[:-1]
        gram_offs = np.concatenate([[0], np.cumsum(n_grams)])[:-1]
        base = np.repeat(offs, n_grams)
        ramp = np.arange(int(n_grams.sum()), dtype=np.int64) - np.repeat(
            gram_offs, n_grams
        )
        starts = base + ramp
        powers = fp_powers(k)
        g = np.zeros(starts.size, dtype=np.uint64)
        with np.errstate(over="ignore"):
            for j in range(k):
                g += tok_h[starts + j] * powers[k - 1 - j]
        doc = np.repeat(df[id_col].to_numpy().astype(np.int64), n_grams)
        return pa.table({"g": g.view(np.int64), id_col: doc})

    return gram_rows


def decontaminate(train, bench, k: int = 8, id_col: str = "doc_id",
                  text_col: str = "text", num_partitions: int | None = None):
    """Benchmark decontamination (the GPT-3 appendix-C / Brown et al. 2020
    shape, at token-k-gram granularity): flag every training document that
    shares ANY k-token span with a held-out benchmark corpus, reporting per
    train doc its total span count and how many spans are contaminated.

    Plan — only 64-bit gram hashes ever shuffle, never text, and the
    benchmark side is a HASH JOIN, never a broadcast (a benchmark can be
    millions of grams; nothing here assumes it fits in one object):

    1. Both corpora tokenize to (gram_hash, id) rows via
       :func:`make_gram_hash_rows`.
    2. The benchmark grams dedup with a count (count_by) — its output is
       the distinct contaminated-gram key set.
    3. Train gram totals come straight off the gram rows; contaminated
       counts come from an inner hash join of the train gram rows against
       the distinct benchmark grams. Both row streams UNION into one
       ``group_agg``, so clean documents (zero contaminated spans) still
       appear — no outer join needed.

    Output: ``id_col, n_grams, n_contam`` for train docs with ≥ k tokens.
    """
    from georay.runtime import adaptive_partitions

    if num_partitions is None:
        num_partitions = adaptive_partitions()

    from georay.ops.tiles import count_by

    gram_rows = make_gram_hash_rows(k, id_col, text_col)

    train_grams = train.select_columns([id_col, text_col]).map_batches(
        gram_rows, batch_format="pandas"
    ).materialize()  # consumed twice: totals + the contamination join

    bench_keys = count_by(
        bench.select_columns([id_col, text_col])
        .map_batches(gram_rows, batch_format="pandas")
        .select_columns(["g"]),
        "g", out_col="_n_bench")

    def flagged(gram: int):
        def fn(t: pa.Table) -> pa.Table:
            n = t.num_rows
            return pa.table({
                id_col: t[id_col],
                "gram": np.full(n, gram, np.int64),
                "contam": np.full(n, 1 - gram, np.int64),
            })
        return fn

    hits = join(train_grams, bench_keys, "inner", on=("g",), right_suffix="_r",
                num_partitions=num_partitions)
    rows = train_grams.map_batches(
        flagged(1), batch_format="pyarrow", zero_copy_batch=True
    ).union(hits.map_batches(
        flagged(0), batch_format="pyarrow", zero_copy_batch=True))
    return group_agg(rows, id_col, {"n_grams": ("sum", "gram"),
                                    "n_contam": ("sum", "contam")})


def ngram_span_stats(ds, k: int = 8, id_col: str = "doc_id",
                     text_col: str = "text", num_partitions: int | None = None):
    """Substring-level duplicate-span detection (the Lee et al. 2022
    "Deduplicating Training Data Makes Language Models Better" exact-
    substring shape, at token-k-gram granularity): for every k-token
    window of every document, count how often that exact span occurs in
    the WHOLE corpus, and report per document how many of its spans are
    duplicated (corpus occurrence ≥ 2, within-doc repeats included).

    Plan — only 64-bit gram hashes ever shuffle, never text:
    1. ``map_batches`` tokenizes (split on ' ', empties kept — identical
       to the SQL twin's ``string_split``) and emits one (gram_hash,
       doc_id) row per window. Fully vectorized via the offsets idiom:
       tokens factorize per batch, only DISTINCT tokens are string-hashed,
       and the k-gram hash is a k-term polynomial combine of consecutive
       token hashes (k shifted multiply-adds, no per-window loop).
       Each token fingerprint passes through splitmix64 BEFORE the
       polynomial combine: the byte-level fingerprint is itself a
       polynomial in the same base, so combining raw fingerprints
       aliases across token boundaries (g("w1","w23") == g("w2","w13") —
       caught by the unit test); the mixer destroys that linear
       structure. Grouping by this hash ≡ grouping by the token tuple ≡
       grouping by the gram string, up to 2^-64 collisions (the
       fingerprint_dedup disclaimer; the oracle groups by the string).
    2. The gram rows MATERIALIZE (consumed twice — occurrence counting
       and the join back; re-tokenizing 100 TB twice costs more than
       spilling the hash rows).
    3. Count by gram hash, hash join back on the gram hash, then a
       per-doc ``group_agg`` rollup.

    Output: ``id_col, n_spans, n_dup_spans`` for docs with ≥ k tokens.
    """
    from georay.runtime import adaptive_partitions

    if num_partitions is None:
        num_partitions = adaptive_partitions()

    from georay.ops.tiles import count_by

    gram_rows = make_gram_hash_rows(k, id_col, text_col)

    grams = ds.select_columns([id_col, text_col]).map_batches(
        gram_rows, batch_format="pandas"
    ).materialize()

    counts = count_by(grams.select_columns(["g"]), "g", out_col="n_occ")

    joined = join(grams, counts, "inner", on=("g",), right_suffix="_r",
                  num_partitions=num_partitions)

    def doc_rows(t: pa.Table) -> pa.Table:
        dup = (t["n_occ"].to_numpy(zero_copy_only=False) >= 2).astype(np.int64)
        return pa.table({id_col: t[id_col], "dup": dup})

    return group_agg(
        joined.map_batches(doc_rows, batch_format="pyarrow",
                           zero_copy_batch=True),
        id_col, {"n_spans": ("count", None), "n_dup_spans": ("sum", "dup")},
    )


def tfidf_topk(ds, k: int = 5, id_col: str = "doc_id", text_col: str = "text",
               num_partitions: int | None = None):
    """Top-k distinctive terms per document, ranked by ``(tf DESC, df ASC,
    term ASC)`` — a deterministic INTEGER-EXACT tf-idf ordering (idf =
    ln(N/df) is strictly decreasing in df, so for equal tf the idf order IS
    the ascending-df order; no float scores cross the oracle boundary).
    Callers wanting the float tf·idf compute it from the emitted (tf, df).

    Plan: tokenize + per-doc term counts inside ``map_batches`` (one
    explode, no per-row loop) and MATERIALIZE the (doc, term, tf) rows —
    they are consumed twice (document frequency + the join) and re-running
    tokenization over 100 TB of text twice costs more than spilling the
    much smaller term rows. df is a count over terms, joined back
    with a hash join on the term, then ONE ``runtime.by_key`` exchange on
    the doc takes the per-doc top-k — O(num_partitions) calls, each
    ranking many docs in one vectorized sort + cumcount, not one call per
    doc. Tokenizer: ``[\\w']+`` lowercased —
    identical to the LangId/simhash SQL twins.

    Output: ``id_col, w, tf, df, rank`` (rank 1..k per doc).
    """
    from georay.runtime import adaptive_partitions

    if num_partitions is None:
        num_partitions = adaptive_partitions()

    import re

    import pandas as pd

    from georay.ops.tiles import count_by
    from georay.runtime import table_from_pandas

    word_re = re.compile(r"[\w']+", re.UNICODE)
    tf_schema = pa.schema(
        [(id_col, pa.int64()), ("w", pa.string()), ("tf", pa.int64())]
    )
    out_schema = tf_schema.append(pa.field("df", pa.int64())).append(
        pa.field("rank", pa.int64())
    )

    def tf_rows(df: pd.DataFrame) -> pa.Table:
        df = df.reset_index(drop=True)
        toks = df[text_col].str.findall(word_re).explode().dropna().str.lower()
        row = toks.index.to_numpy().astype(np.int64)
        out = pd.DataFrame(
            {id_col: df[id_col].to_numpy()[row], "w": toks.to_numpy()}
        ).groupby([id_col, "w"], as_index=False).size()
        return table_from_pandas(
            out.rename(columns={"size": "tf"}), schema=tf_schema
        )

    tf = ds.select_columns([id_col, text_col]).map_batches(
        tf_rows, batch_format="pandas"
    ).materialize()

    df_counts = count_by(tf.select_columns(["w"]), "w", out_col="df")

    joined = join(tf, df_counts, "inner", on=("w",), right_suffix="_r",
                  num_partitions=num_partitions)

    def topk_bucket(t: pa.Table) -> pd.DataFrame:
        g = t.to_pandas().sort_values(
            [id_col, "tf", "df", "w"], ascending=[True, False, True, True],
            kind="quicksort",  # total order: (doc, w) rows are unique
        ).reset_index(drop=True)
        g["rank"] = g.groupby(id_col).cumcount().to_numpy() + 1
        return g[g["rank"] <= k]

    return by_key(joined, id_col, topk_bucket, out_schema,
                  num_partitions=num_partitions)


def cooccur_topk(ds, k: int = 50, id_col: str = "doc_id", text_col: str = "text",
                 num_partitions: int | None = None,
                 broadcast_vocab_max: int = 2_000_000):
    """Top-k co-occurring token pairs by LIFT = P(a,b)/(P(a)·P(b)) =
    n_ab·N / (n_a·n_b) — the pointwise-mutual-information ranking without
    the log (log is monotone, so the order is identical and no float
    transcendental crosses the oracle boundary; the lift itself is ONE
    double expression evaluated the same way on both sides).

    Plan: per batch, each doc's distinct lowered ``[\\w']+`` tokens expand
    to unordered within-doc pairs (offsets idiom over the per-doc triangle
    — no per-doc Python loop); ONE ``group_agg`` counts pairs; per-token
    document frequency is the same count; the two frequency attachments
    use the Zipf-broadcast (sorted-array searchsorted) under
    ``broadcast_vocab_max``,
    falling back to hash joins. A distributed sort + limit takes the top-k
    with (w_a, w_b) tie-break. Pair keys are the token STRINGS (the oracle
    joins on them); pair count rows are Zipf-bounded like the vocabulary.

    Output: ``w_a, w_b, n_ab, n_a, n_b, lift`` (w_a < w_b).
    """
    from georay.runtime import adaptive_partitions

    if num_partitions is None:
        num_partitions = adaptive_partitions()

    import re

    import pandas as pd

    from georay.ops.pairs import grouped_pair_indices
    from georay.ops.tiles import count_by
    from georay.runtime import table_from_pandas

    word_re = re.compile(r"[\w']+", re.UNICODE)
    pair_schema = pa.schema([("w_a", pa.string()), ("w_b", pa.string())])
    n_docs = ds.count()

    def pair_rows(df: pd.DataFrame) -> pa.Table:
        df = df.reset_index(drop=True)
        toks = df[text_col].str.findall(word_re).explode().dropna().str.lower()
        pairs = pd.DataFrame(
            {"r": toks.index.to_numpy().astype(np.int64), "w": toks.to_numpy()}
        ).drop_duplicates().sort_values(["r", "w"], kind="quicksort")
        w = pairs["w"].to_numpy()
        # per-doc unordered pairs: one vectorized segmented triangle decode
        # over all docs of the batch (pairs.grouped_pair_indices — tokens
        # are (doc, w)-sorted so w_a < w_b within each pair)
        _, counts = np.unique(pairs["r"].to_numpy(), return_counts=True)
        ia, ib = grouped_pair_indices(
            counts, None, "(cooccur)", log_prefix="georay.cooccur"
        )
        return pa.table([pa.array(w[ia], pa.string()),
                         pa.array(w[ib], pa.string())], schema=pair_schema)

    toks_ds = ds.select_columns([id_col, text_col])
    pair_counts = group_agg(
        toks_ds.map_batches(pair_rows, batch_format="pandas"),
        ["w_a", "w_b"], {"n_ab": ("count", None)},
    )

    def doc_tokens(df: pd.DataFrame) -> pa.Table:
        df = df.reset_index(drop=True)
        toks = df[text_col].str.findall(word_re).explode().dropna().str.lower()
        pairs = pd.DataFrame(
            {"r": toks.index.to_numpy().astype(np.int64), "w": toks.to_numpy()}
        ).drop_duplicates()
        return table_from_pandas(
            pd.DataFrame({"w": pairs["w"].to_numpy()}),
            schema=pa.schema([("w", pa.string())]),
        )

    dfc = count_by(
        toks_ds.map_batches(doc_tokens, batch_format="pandas"), "w",
        out_col="df",
    ).materialize()

    if dfc.count() <= broadcast_vocab_max:
        dft = pa.concat_tables(list(dfc.iter_batches(batch_format="pyarrow")))
        order = np.argsort(dft["w"].to_numpy(zero_copy_only=False),
                           kind="quicksort")
        df_table = broadcast(
            (dft["w"].to_numpy(zero_copy_only=False)[order],
             dft["df"].to_numpy(zero_copy_only=False)[order].astype(np.int64))
        )

        def attach(t: pa.Table) -> pa.Table:
            keys, vals = df_table()
            na = vals[np.searchsorted(keys, t["w_a"].to_numpy(zero_copy_only=False))]
            nb = vals[np.searchsorted(keys, t["w_b"].to_numpy(zero_copy_only=False))]
            return t.append_column("n_a", pa.array(na)).append_column(
                "n_b", pa.array(nb)
            )

        enriched = pair_counts.map_batches(attach, batch_format="pyarrow")
    else:
        a_side = dfc.map_batches(
            lambda t: pa.table({"w_a": t["w"], "n_a": t["df"]}),
            batch_format="pyarrow",
        )
        b_side = dfc.map_batches(
            lambda t: pa.table({"w_b": t["w"], "n_b": t["df"]}),
            batch_format="pyarrow",
        )
        enriched = join(
            join(pair_counts, a_side,
                 "inner", on=("w_a",), num_partitions=num_partitions),
            b_side, "inner", on=("w_b",), num_partitions=num_partitions,
        )

    def lift(t: pa.Table) -> pa.Table:
        n_ab = t["n_ab"].to_numpy(zero_copy_only=False).astype(np.float64)
        n_a = t["n_a"].to_numpy(zero_copy_only=False)
        n_b = t["n_b"].to_numpy(zero_copy_only=False)
        v = n_ab * np.float64(n_docs) / (n_a * n_b)
        return t.append_column("lift", pa.array(v))

    return (
        enriched.map_batches(lift, batch_format="pyarrow")
        .sort(["lift", "w_a", "w_b"], descending=[True, False, False])
        .limit(k)
    )


def bm25_topk(ds, terms: list[str], k: int = 10, k1: float = 1.2,
              b: float = 0.75, id_col: str = "doc_id", text_col: str = "text"):
    """Global top-k documents for a fixed query by BM25 with a RATIONAL idf
    (``(N - df + 0.5) / (df + 0.5) + 1`` — the Lucene idf without the outer
    ``ln``; a strictly monotone transform per term, chosen so the score is a
    pure {+,*,/} float64 expression that an SQL oracle replays bit-exactly).

    Plan (the retrieval half of an index-free search pipeline): ONE
    tokenize pass emits a wide per-doc row ``(doc, dl, tf_0..tf_{Q-1})``
    restricted to the Q query terms — the only thing that ever shuffles is
    O(docs × Q) integers, never the token stream. The corpus scalars
    (N, Σdl, per-term df) reduce through per-batch partial rows to Q+2
    driver integers (bounded, like the k-means init). Scoring is a second
    map over the materialized wide table with the idf/avgdl constants
    closed over — per-batch local top-k, then a tiny global sort+limit.

    Float contract: every operation appears in the SAME order as the SQL
    twin (ratio → b·ratio → +(1-b) → ·k1 → +tf → divide → ·idf, then a
    left-to-right sum over terms in the given order), all inputs are exact
    integers, so the score is IEEE-identical. Output:
    ``(doc_id, score, rank)`` with rank 1..k by (score DESC, doc ASC).
    """
    import re

    import pandas as pd

    from georay.runtime import table_from_pandas

    word_re = re.compile(r"[\w']+", re.UNICODE)
    terms = list(terms)
    nq = len(terms)
    tf_cols = [f"tf{j}" for j in range(nq)]
    wide_schema = pa.schema(
        [(id_col, pa.int64()), ("dl", pa.int64())]
        + [(c, pa.int64()) for c in tf_cols]
    )

    def wide_rows(df: "pd.DataFrame") -> pa.Table:
        df = df.reset_index(drop=True)
        toks = df[text_col].str.findall(word_re).explode().dropna().str.lower()
        row = toks.index.to_numpy().astype(np.int64)
        n = len(df)
        cols = {id_col: df[id_col].to_numpy(),
                "dl": np.bincount(row, minlength=n).astype(np.int64)}
        tok_arr = toks.to_numpy()
        for j, term in enumerate(terms):
            m = tok_arr == term
            cols[tf_cols[j]] = np.bincount(row[m], minlength=n).astype(np.int64)
        return table_from_pandas(pd.DataFrame(cols), schema=wide_schema)

    wide = ds.select_columns([id_col, text_col]).map_batches(
        wide_rows, batch_format="pandas"
    ).materialize()  # consumed twice: scalar reduce + scoring

    def stat_partial(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        d = {
            "n_docs": [t.num_rows],
            "total_dl": [int(pc.sum(t["dl"]).as_py() or 0)],
        }
        for j in range(nq):
            tf = t[tf_cols[j]].to_numpy(zero_copy_only=False)
            d[f"df{j}"] = [int((tf > 0).sum())]
        return pa.table({kk: pa.array(v, pa.int64()) for kk, v in d.items()})

    # bounded driver pull: one row per input batch (the kmeans-init idiom)
    st = wide.map_batches(
        stat_partial, batch_format="pyarrow", zero_copy_batch=True
    ).to_pandas().sum()
    n_docs = int(st["n_docs"])
    nf = float(n_docs)
    avgdl = float(int(st["total_dl"])) / nf
    idf = [((nf - float(int(st[f"df{j}"]))) + 0.5)
           / (float(int(st[f"df{j}"])) + 0.5) + 1.0 for j in range(nq)]
    k1f, bf = float(k1), float(b)
    omb = 1.0 - bf
    k1p1 = k1f + 1.0

    def score_rows(t: pa.Table) -> pa.Table:
        dl = t["dl"].to_numpy(zero_copy_only=False).astype(np.float64)
        base = k1f * (omb + bf * (dl / avgdl))
        score = np.zeros(t.num_rows, np.float64)
        for j in range(nq):
            tf = t[tf_cols[j]].to_numpy(zero_copy_only=False).astype(np.float64)
            score = score + idf[j] * ((tf * k1p1) / (tf + base))
        order = np.lexsort((t[id_col].to_numpy(zero_copy_only=False), -score))
        keep = order[:k]  # local top-k: only k rows per batch reach the sort
        return pa.table({id_col: t[id_col].take(pa.array(keep)),
                         "score": pa.array(score[keep])})

    top = wide.map_batches(
        score_rows, batch_format="pyarrow", zero_copy_batch=True
    ).sort(["score", id_col], descending=[True, False]).limit(k)

    def add_rank(df: "pd.DataFrame") -> pa.Table:
        df = df.sort_values(["score", id_col],
                            ascending=[False, True]).reset_index(drop=True)
        df["rank"] = np.arange(1, len(df) + 1, dtype=np.int64)
        return table_from_pandas(df)

    return top.repartition(1).map_batches(add_rank, batch_format="pandas")


def chunk_stats(ds, window: int, stride: int, id_col: str = "doc_id",
                text_col: str = "text"):
    """RAG-style overlapping chunking: split every document into
    ``window``-char chunks every ``stride`` chars (chunk starts at
    0, stride, 2·stride, … while start < n_chars; the last chunk may be
    short) and emit per-chunk stats — one row per chunk, never the text.

    Fully vectorized against the Arrow string column's OWN layout: the
    batch's concatenated UTF-8 data buffer and offsets are read zero-copy,
    a single cumulative-sum over the byte buffer answers every chunk's
    space count in O(bytes), and chunk starts come from the segmented
    arange idiom — no per-document Python, no substring materialization.

    Output: ``id_col, chunk_idx, start, clen, n_spaces`` (all int64).
    """

    def fn(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        arr = t[text_col].combine_chunks() if isinstance(
            t[text_col], pa.ChunkedArray) else t[text_col]
        # zero-copy view of the string column's offsets + data buffers
        off_dt = np.int64 if pa.types.is_large_string(arr.type) else np.int32
        offs = np.frombuffer(
            arr.buffers()[1], dtype=off_dt, count=len(arr) + 1,
            offset=arr.offset * np.dtype(off_dt).itemsize,
        ).astype(np.int64)
        data = np.frombuffer(arr.buffers()[2], dtype=np.uint8,
                             count=int(offs[-1]))
        nch = offs[1:] - offs[:-1]
        n_chunks = (np.maximum(nch, 1) - 1) // stride + 1
        total = int(n_chunks.sum())
        row = np.repeat(np.arange(ids.size), n_chunks)
        firsts = np.concatenate(([0], np.cumsum(n_chunks)[:-1]))
        idx = np.arange(total) - firsts[row]
        start = idx * stride
        clen = np.minimum(window, nch[row] - start)
        # one cumsum over the batch's byte buffer answers all space counts
        cs = np.concatenate(([0], np.cumsum(data == 32, dtype=np.int64)))
        b0 = offs[row] + start
        n_spaces = cs[b0 + clen] - cs[b0]
        return pa.table({
            id_col: ids[row],
            "chunk_idx": idx,
            "start": start,
            "clen": clen,
            "n_spaces": n_spaces,
        })

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def rarity_scores(ds, n_docs: int, id_col: str = "doc_id",
                  text_col: str = "text", num_partitions: int | None = None):
    """Per-document RARITY score — the integer surprisal proxy
    Σ_occurrences (N − df(term)): rare terms (low document frequency)
    contribute more, exactly, with no log/float crossing the oracle
    boundary (ln(N/df) is strictly decreasing in df, so corpus-level
    rarity ORDER is preserved). The quality-filter signal next to
    ops.text.quality's shape features.

    Same plan skeleton as tfidf_topk: tokenize once (materialized tf
    rows), df count, hash join on the term, then a per-doc ``group_agg``
    — only (doc, term, tf) rows shuffle, never text.

    Output: ``id_col, n_tokens, rarity``.
    """
    from georay.runtime import adaptive_partitions

    if num_partitions is None:
        num_partitions = adaptive_partitions()

    import re

    import pandas as pd

    from georay.ops.tiles import count_by
    from georay.runtime import table_from_pandas

    word_re = re.compile(r"[\w']+", re.UNICODE)
    tf_schema = pa.schema(
        [(id_col, pa.int64()), ("w", pa.string()), ("tf", pa.int64())]
    )

    def tf_rows(df: pd.DataFrame) -> pa.Table:
        df = df.reset_index(drop=True)
        toks = df[text_col].str.findall(word_re).explode().dropna().str.lower()
        row = toks.index.to_numpy().astype(np.int64)
        out = pd.DataFrame(
            {id_col: df[id_col].to_numpy()[row], "w": toks.to_numpy()}
        ).groupby([id_col, "w"], as_index=False).size()
        return table_from_pandas(
            out.rename(columns={"size": "tf"}), schema=tf_schema
        )

    tf = ds.select_columns([id_col, text_col]).map_batches(
        tf_rows, batch_format="pandas"
    ).materialize()

    df_counts = count_by(tf.select_columns(["w"]), "w", out_col="df")

    joined = join(tf, df_counts, "inner", on=("w",),
                  num_partitions=num_partitions)

    def rows(t: pa.Table) -> pa.Table:
        tf_v = t["tf"].to_numpy(zero_copy_only=False)
        df_v = t["df"].to_numpy(zero_copy_only=False)
        return pa.table({id_col: t[id_col], "tf": tf_v,
                         "ra": tf_v * (n_docs - df_v)})

    return group_agg(
        joined.map_batches(rows, batch_format="pyarrow", zero_copy_batch=True),
        id_col, {"n_tokens": ("sum", "tf"), "rarity": ("sum", "ra")},
    )
