"""In-process measurements of the library, run as a child with ``src`` on
``PYTHONPATH``.

``python3 probe.py setup OUT.json OLD.lex NEW.lex [SAMPLE.json]``
    times ``load_lexicon`` of both files (the set-up every ``apply`` and
    ``classify`` pays) and, given a list of forms, looks each one up
    exactly in the reloaded NEW.lex.
``python3 probe.py micro OUT.json NEW.lex POLICY ABBREV CORPUS...``
    lookup rate per case policy over the corpus's own word tokens, and
    t(2n)/t(n) of segmentation, the compound pass, the multi-file merge and
    apply.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

from lexcov.automaton import CaseFoldPolicy, load_lexicon
from lexcov.dico import DicoResult, apply_dictionaries, merge_results
from lexcov.preprocess import (
    TokenKind,
    TokenStream,
    load_abbreviation_list,
    normalize_delimiters,
    segment_sentences,
    tokenize,
)

REPEATS = 3


def _timed(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def _median_time(make_args, fn):
    """Median of REPEATS timings; arguments are rebuilt outside the timing."""
    times = []
    for _ in range(REPEATS):
        args = make_args()
        times.append(_timed(fn, *args))
    return statistics.median(times)


def setup(out, old_lex, new_lex, sample=None):
    start = time.perf_counter()
    load_lexicon(old_lex)
    lex = load_lexicon(new_lex)
    result = {"load_s": time.perf_counter() - start}
    if sample:
        found = {}
        for form in json.loads(Path(sample).read_text(encoding="utf-8")):
            hits = lex.lookup_forms(form, CaseFoldPolicy.EXACT)
            found[form] = [
                [a.lemma, a.gram_code, list(a.sem_traits), list(a.flex_codes)]
                for a in (lex.analysis(i) for ids in hits.values() for i in ids)
            ]
        result["lookups"] = found
    Path(out).write_text(json.dumps(result), encoding="utf-8")


def _stream(tokens):
    # fresh Token objects: segmentation and apply annotate tokens in place
    return TokenStream(tokens=[type(t)(t.kind, t.text, t.byte_span) for t in tokens])


def micro(out, new_lex, policy, abbrev, corpus):
    lex = load_lexicon(new_lex)
    policy = CaseFoldPolicy(policy)
    abbrevs = load_abbreviation_list(abbrev)
    texts = [normalize_delimiters(Path(p).read_text(encoding="utf-8")) for p in corpus]
    tokens = tokenize("\n".join(texts)).tokens
    words = [t.text for t in tokens if t.kind is TokenKind.WORD]
    # scaling inputs have fixed sizes on every workload: the corpus is
    # repeated where it is shorter
    n_segment, n_apply, n_passage, n_parts, chunk = 20000, 12000, 2000, 100, 200
    repeated = tokens * (1 + 2 * n_segment // len(tokens))
    result = {}

    for pol in CaseFoldPolicy:
        start = time.perf_counter()
        for w in words:
            lex.lookup_forms(w, pol)
        result[f"lookup_per_s.{pol.value}"] = len(words) / (time.perf_counter() - start)

    def ratio(n, prepare, run):
        t1 = _median_time(lambda: prepare(n), run)
        t2 = _median_time(lambda: prepare(2 * n), run)
        return t2 / t1

    def apply(stream):
        apply_dictionaries(lex, stream, policy)

    # segmentation of one stream of n and 2n tokens
    result["segment_scaling"] = ratio(
        n_segment, lambda n: (_stream(repeated[:n]),), lambda s: segment_sentences(s, abbrevs))

    # apply over n and 2n tokens of segmented text
    segmented = segment_sentences(_stream(repeated[: 2 * n_segment]), abbrevs).tokens
    result["apply_scaling"] = ratio(n_apply, lambda n: (_segmented(segmented[:n]),), apply)

    # the compound pass on one sentence with no terminator, n and 2n words
    passage_words = (words * (1 + 2 * n_passage // len(words)))[: 2 * n_passage]
    passage = tokenize(" ".join(passage_words)).tokens
    result["compound_scaling"] = ratio(
        2 * n_passage - 1, lambda n: (segment_sentences(_stream(passage[:n])),), apply)

    # folding merge_results over k and 2k per-file results of 200 tokens
    parts = [
        apply_dictionaries(lex, _segmented(segmented[i:i + chunk]), policy)
        for i in range(0, n_parts * chunk, chunk)
    ]

    def fold(k):
        acc = DicoResult(policy=policy)
        for j in range(k):
            acc = merge_results(acc, parts[j % len(parts)])

    result["merge_scaling"] = ratio(n_parts, lambda k: (k,), fold)
    Path(out).write_text(json.dumps(result), encoding="utf-8")


def _segmented(tokens):
    stream = _stream(tokens)
    for new, old in zip(stream.tokens, tokens):
        new.sentence_index = old.sentence_index
        new.sentence_initial = old.sentence_initial
    return stream


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    if mode == "setup":
        setup(*rest)
    elif mode == "micro":
        micro(rest[0], rest[1], rest[2], rest[3], rest[4:])
    else:
        sys.exit(f"probe: unknown mode {mode!r}")
