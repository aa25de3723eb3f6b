"""Dictionary application: partition a token stream into known simple
words, compound matches, and unknown forms (the dlf/dlc/err outputs)."""

from __future__ import annotations

import os
from bisect import bisect_right
from collections import Counter
from collections.abc import Iterable
from contextlib import contextmanager, suppress
from itertools import compress, count, repeat
from operator import is_

from .automaton import Lexicon, fold_key
from .delaf import DictEntry, serialize_entry
from .errors import PolicyMismatch
from .preprocess import TokenKind, TokenStream
# read_types is not used here; it stays importable from this module
from .runtable import CaseFoldPolicy, DicoResult, TokenStatus, read_types


def apply_dictionaries(
    lexicons,
    streams: TokenStream | Iterable[TokenStream],
    policy: CaseFoldPolicy = CaseFoldPolicy.UNITEX_LIKE,
    annotations=None,
) -> DicoResult:
    """Annotate every word token of one stream, or of several in order.

    ``lexicons`` is one Lexicon or an ordered list; lookups take the union
    while compound ties follow list order.  Compounds are matched greedily,
    longest first, left to right, within sentence bounds, no overlaps.

    ``streams`` is one TokenStream or an iterable of them, consumed once.
    All streams fill one result: each stream's sentence indices are
    shifted by the ``sentence_count`` of the streams before it, and an
    empty stream adds none.

    The result keeps word-token counts only.  ``annotations``, when
    given, is an open text file: each non-empty stream's annotations.tsv
    rows, one per non-space token, are written to it in order.

    Each distinct text is looked up once per call, and tokens are counted
    by text at C speed; a token's status depends on its position only
    when its text has no analyses and a compound covers it.
    """
    if isinstance(lexicons, Lexicon):
        lexicons = [lexicons]
    if isinstance(streams, TokenStream):
        streams = (streams,)
    dlf, dlc, sentence_count = set(), {}, 0
    # a lookup depends only on the text, the policy and the lexicons, all
    # fixed for this call: text -> sorted analyses, () when nothing matches
    analyses_by_text = {}
    # text -> orders of the lexicons with a compound starting with it
    starters_by_text = {}
    # word tokens by text, the sentence-initial ones by text, and the
    # compound-only ones by (text, sentence_initial): the per-type table is
    # made from these three once every stream is applied
    text_counts = Counter()
    initial_counts = Counter()
    compound_only_counts = Counter()
    rows = _Rows(analyses_by_text)
    for stream in streams:
        kinds, texts = stream.kinds, stream.texts
        if not texts:
            continue
        offset = sentence_count
        words = list(compress(texts, map(is_, kinds, repeat(TokenKind.WORD))))
        text_counts.update(words)
        distinct = set(words)
        for text in distinct.difference(analyses_by_text):
            analyses = _lookup_analyses(lexicons, text, policy)
            analyses_by_text[text] = analyses
            dlf.update(analyses)
        initial = [i for i in stream.initial_positions if kinds[i] is TokenKind.WORD]
        initial_counts.update(texts[i] for i in initial)
        covered = _compound_pass(lexicons, stream, distinct, policy, dlc, starters_by_text)
        compound_only = [
            i for i in covered if kinds[i] is TokenKind.WORD and not analyses_by_text[texts[i]]
        ]
        if compound_only:
            firsts = set(initial)
            compound_only_counts.update((texts[i], i in firsts) for i in compound_only)
        if annotations is not None:
            _write_rows(annotations, rows, stream, offset, compound_only)
        sentence_count = offset + 1 + max(stream.sentence_indices)
    word_counts = Counter()
    for text, n in text_counts.items():
        known = bool(analyses_by_text[text])
        first = initial_counts.get(text, 0)
        for initial, m in ((False, n - first), (True, first)):
            if not m:
                continue
            if known:
                word_counts[text, TokenStatus.KNOWN_SIMPLE, initial] = m
                continue
            in_compound = compound_only_counts[text, initial]
            if in_compound:
                word_counts[text, TokenStatus.IN_COMPOUND_ONLY, initial] = in_compound
            if m > in_compound:
                word_counts[text, TokenStatus.UNKNOWN, initial] = m - in_compound
    return DicoResult(policy, dlf, dlc, word_counts, sentence_count)


def _compound_pass(lexicons, stream, words, policy, dlc, starters_by_text) -> list[int]:
    """Count compound matches into ``dlc``; return the positions they
    cover, ascending.

    Greedy longest match, anchored left to right.  Each anchor's walk
    stops at its sentence's end, or sooner where no compound continues,
    so the pass is linear.  Only lexicons with a compound starting with
    the token are asked; ``starters_by_text`` caches which for each of the
    stream's distinct ``words``.
    """
    if not any(lex.stats.compound_count for lex in lexicons):
        return []
    for text in words.difference(starters_by_text):
        key = fold_key(text)
        starters_by_text[text] = tuple(
            o for o, lex in enumerate(lexicons) if lex.starts_compound(key)
        )
    kinds, texts, sentences = stream.kinds, stream.texts, stream.sentence_indices
    n = len(texts)
    covered = []
    resume = 0  # the first position after the last match
    end = 0  # the end of the anchor's sentence
    # the positions whose text starts a compound in some lexicon
    for i in compress(count(), map(starters_by_text.get, texts)):
        if i < resume or kinds[i] is not TokenKind.WORD:
            continue
        if i >= end:
            # sentence indices ascend, so the anchor's sentence ends at the
            # first position holding a greater one
            end = bisect_right(sentences, sentences[i], i + 1, n)
        best = None  # (span, lex_order, form, ids)
        for order in starters_by_text[texts[i]]:
            for span, form, ids in lexicons[order].match_compounds(
                kinds, texts, policy, i, end
            ):
                if best is None or span > best[0]:
                    best = (span, order, form, ids)
                break  # matches are longest-first per lexicon
        if best is None:
            continue
        span, order, form, ids = best
        lex = lexicons[order]
        for aid in ids:
            entry = lex.entry_for(form, aid)
            dlc[entry] = dlc.get(entry, 0) + 1
        covered.extend(range(i, i + span))
        resume = i + span
    return covered


def _lookup_analyses(lexicons, text, policy) -> tuple[DictEntry, ...]:
    matched = []
    for lex in lexicons:
        for form, ids in lex.lookup_forms(text, policy).items():
            matched += [lex.entry_for(form, aid) for aid in ids]
    if len(matched) < 2:
        return tuple(matched)
    # two lexicons may hold the same entry
    return tuple(sorted(set(matched), key=serialize_entry))


def merge_results(a: DicoResult, b: DicoResult) -> DicoResult:
    """Combine results of two disjoint streams processed identically, ``b``
    after ``a``: the tables add, and ``b``'s sentences follow ``a``'s.
    Not exported: the multi-file path is :func:`apply_dictionaries`."""
    if a.policy is not b.policy:
        raise PolicyMismatch(f"{a.policy.value} vs {b.policy.value}")
    dlc = dict(a.dlc)
    for entry, n in b.dlc.items():
        dlc[entry] = dlc.get(entry, 0) + n
    return DicoResult(
        a.policy,
        a.dlf | b.dlf,
        dlc,
        a.word_counts + b.word_counts,
        a.sentence_count + b.sentence_count,
    )


def _analysis_label(entry: DictEntry) -> str:
    # analysis without the surface form, e.g. "correr.V:I1s"
    lemma = "" if entry.lemma == entry.surface_form else entry.lemma
    label = f"{lemma}.{entry.gram_code}"
    if entry.sem_traits:
        label += "+" + "+".join(entry.sem_traits)
    if entry.flex_codes:
        label += ":" + ":".join(entry.flex_codes)
    return label


def write_outputs(result: DicoResult, outdir) -> None:
    """Write the dlf/dlc/err sub-dictionaries and the types.tsv table."""
    os.makedirs(outdir, exist_ok=True)
    _write_lines(outdir, "dlf", sorted(serialize_entry(e) for e in result.dlf))
    _write_lines(outdir, "dlc", sorted(serialize_entry(e) for e in result.dlc))
    _write_lines(outdir, "err", sorted(result.err))
    rows = [f"{t}\t{s.value}\t{first:d}\t{n}" for (t, s, first), n in result.word_counts.items()]
    _write_lines(outdir, "types.tsv", sorted(rows))


def _write_lines(outdir, name, lines) -> None:
    with open(os.path.join(outdir, name), "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in lines))


@contextmanager
def open_annotations(outdir):
    """Yield a text file for the ``annotations`` of
    :func:`apply_dictionaries`.

    It is a temporary file in ``outdir``, renamed to annotations.tsv when
    the block ends.  If the block raises, the temporary file is removed,
    and so is ``outdir`` if this call created it.
    """
    created = not os.path.exists(outdir)
    os.makedirs(outdir, exist_ok=True)
    partial = os.path.join(outdir, "annotations.tsv.partial")
    try:
        with open(partial, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(partial, os.path.join(outdir, "annotations.tsv"))
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(partial)
        if created:
            os.rmdir(outdir)
        raise


def _write_rows(fh, rows, stream, offset, compound_only) -> None:
    """Write the annotations.tsv rows of ``stream``'s non-space tokens:
    text, kind, sentence index + ``offset``, status and analyses.
    ``compound_only`` holds the positions of the word tokens without
    analyses that a compound covers."""
    texts, kinds = stream.texts, stream.kinds
    # each token's status and label columns, None for a space
    tails = list(map(rows.__getitem__, zip(texts, kinds)))
    for i in compound_only:
        tails[i] = _COMPOUND_ONLY_TAIL
    # one index string per sentence, not one per token
    sentences = stream.sentence_indices
    labels = list(map(str, range(offset, offset + 1 + max(sentences))))
    indices = map(labels.__getitem__, sentences)
    fields = compress(zip(texts, kinds, indices, tails), tails)
    fh.write("".join(map("\t".join, fields)))


# the status and label columns of a row, and its newline
_COMPOUND_ONLY_TAIL = f"{TokenStatus.IN_COMPOUND_ONLY.value}\t\n"
_UNKNOWN_TAIL = f"{TokenStatus.UNKNOWN.value}\t\n"
_NON_WORD_TAIL = "\t\n"


class _Rows(dict):
    """(text, kind) -> the status and label columns of such a token's
    annotations.tsv row, None for a space.  A word's are the ones its
    text has outside compounds, from the analyses table of one
    :func:`apply_dictionaries` call.  Each is made the first time it is
    looked up; only a known word's is a string of its own."""

    def __init__(self, analyses):
        super().__init__()
        self.analyses = analyses

    def __missing__(self, key):
        text, kind = key
        if kind is TokenKind.SPACE:
            tail = None
        elif kind is not TokenKind.WORD:
            tail = _NON_WORD_TAIL
        elif analyses := self.analyses[text]:
            label = ";".join(map(_analysis_label, analyses))
            tail = f"{TokenStatus.KNOWN_SIMPLE.value}\t{label}\n"
        else:
            tail = _UNKNOWN_TAIL
        self[key] = tail
        return tail
