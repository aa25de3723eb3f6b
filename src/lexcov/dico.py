"""Dictionary application: partition a token stream into known simple
words, compound matches, and unknown forms (the dlf/dlc/err outputs)."""

from __future__ import annotations

import enum
from collections import Counter
from collections.abc import Callable, Iterable
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from .automaton import CaseFoldPolicy, Lexicon, fold_key
from .delaf import DictEntry, serialize_entry
from .errors import MalformedAnnotations, PolicyMismatch
from .preprocess import TokenKind, TokenStream


class TokenStatus(enum.Enum):
    KNOWN_SIMPLE = "known_simple"
    IN_COMPOUND_ONLY = "in_compound_only"
    UNKNOWN = "unknown"


@dataclass
class TokenAnnotation:
    text: str
    kind: TokenKind
    sentence_index: int
    sentence_initial: bool
    status: TokenStatus | None          # None for number/punct/space tokens
    analyses: tuple[DictEntry, ...] = ()


@dataclass
class DicoResult:
    policy: CaseFoldPolicy
    dlf: set[DictEntry] = field(default_factory=set)
    dlc: dict[DictEntry, int] = field(default_factory=dict)
    # word tokens counted by (text, status, sentence_initial): every
    # per-type measure of a run is read from this one table
    word_counts: Counter[tuple[str, TokenStatus, bool]] = field(default_factory=Counter)
    # 1 + the largest sentence index applied (0 before any token): the
    # offset the next stream's sentence indices start from
    sentence_count: int = 0

    @property
    def err(self) -> set[str]:
        return {
            text for text, status, _ in self.word_counts if status is TokenStatus.UNKNOWN
        }

    def status_counts(self) -> dict[TokenStatus, int]:
        counts = dict.fromkeys(TokenStatus, 0)
        for (_, status, _), n in self.word_counts.items():
            counts[status] += n
        return counts

    @property
    def word_token_count(self) -> int:
        return sum(self.word_counts.values())


def apply_dictionaries(
    lexicons,
    streams: TokenStream | Iterable[TokenStream],
    policy: CaseFoldPolicy = CaseFoldPolicy.UNITEX_LIKE,
    sink: Callable[[TokenAnnotation], object] | None = None,
) -> DicoResult:
    """Annotate every word token of one stream, or of several in order.

    ``lexicons`` is one Lexicon or an ordered list; lookups take the union
    while compound ties follow list order.  Compounds are matched greedily,
    longest first, left to right, within sentence bounds, no overlaps.

    ``streams`` is one TokenStream or an iterable of them, consumed once.
    All streams fill one result, as if folded with :func:`merge_results`:
    each stream's sentence indices are shifted by the result's
    ``sentence_count`` so far, and an empty stream adds none.

    The result keeps word-token counts only.  ``sink``, when given, is
    called with each token's :class:`TokenAnnotation`, in order, as its
    stream is applied.
    """
    if isinstance(lexicons, Lexicon):
        lexicons = [lexicons]
    if isinstance(streams, TokenStream):
        streams = (streams,)
    result = DicoResult(policy=policy)
    word_counts = result.word_counts
    # a lookup depends only on the text, the policy and the lexicons, all
    # fixed for this call: text -> sorted analyses, () when nothing matches
    analyses_by_text = {}
    # text -> orders of the lexicons with a compound starting with it
    starters_by_text = {}
    compound_limit = max((lex.max_compound_tokens for lex in lexicons), default=0)
    for stream in streams:
        tokens = stream.tokens
        if not tokens:
            continue
        offset = result.sentence_count
        covered = _compound_pass(
            lexicons, tokens, policy, result.dlc, compound_limit, starters_by_text
        )
        for i, tok in enumerate(tokens):
            status, analyses = None, ()
            if tok.kind is TokenKind.WORD:
                analyses = analyses_by_text.get(tok.text)
                if analyses is None:
                    analyses = _lookup_analyses(lexicons, tok.text, policy)
                    analyses_by_text[tok.text] = analyses
                    result.dlf.update(analyses)
                if analyses:
                    status = TokenStatus.KNOWN_SIMPLE
                elif covered[i]:
                    status = TokenStatus.IN_COMPOUND_ONLY
                else:
                    status = TokenStatus.UNKNOWN
                word_counts[tok.text, status, tok.sentence_initial] += 1
            if sink is not None:
                sink(TokenAnnotation(
                    tok.text,
                    tok.kind,
                    tok.sentence_index + offset,
                    tok.sentence_initial,
                    status,
                    analyses,
                ))
        result.sentence_count = offset + 1 + max(t.sentence_index for t in tokens)
    return result


def _compound_pass(lexicons, tokens, policy, dlc, limit, starters_by_text) -> list[bool]:
    """Count compound matches into ``dlc``; return which tokens they cover.

    Greedy longest match, anchored left to right.  A window is capped at
    ``limit`` tokens, the longest compound pattern, and at the anchor's
    sentence, so the pass is linear.  Only lexicons with a compound
    starting with the token are asked; ``starters_by_text`` caches which.
    """
    covered = [False] * len(tokens)
    if not limit:
        return covered
    n = len(tokens)
    i = 0
    while i < n:
        tok = tokens[i]
        if tok.kind is not TokenKind.WORD:
            i += 1
            continue
        starting = starters_by_text.get(tok.text)
        if starting is None:
            key = fold_key(tok.text)
            starting = tuple(
                o for o, lex in enumerate(lexicons) if lex.starts_compound(key)
            )
            starters_by_text[tok.text] = starting
        if not starting:
            i += 1
            continue
        end = i + 1
        stop = min(n, i + limit)
        while end < stop and tokens[end].sentence_index == tok.sentence_index:
            end += 1
        window = tokens[i:end]
        best = None  # (span, lex_order, form, ids)
        for order in starting:
            for span, form, ids in lexicons[order].match_compounds(window, policy):
                if span > 1 and (best is None or span > best[0]):
                    best = (span, order, form, ids)
                break  # matches are longest-first per lexicon
        if best is None:
            i += 1
            continue
        span, order, form, ids = best
        for entry in _entries(lexicons[order], form, ids):
            dlc[entry] = dlc.get(entry, 0) + 1
        for k in range(i, i + span):
            covered[k] = True
        i += span
    return covered


def _lookup_analyses(lexicons, text, policy) -> tuple[DictEntry, ...]:
    matched = set()
    for lex in lexicons:
        for form, ids in lex.lookup_forms(text, policy).items():
            matched.update(_entries(lex, form, ids))
    return tuple(sorted(matched, key=serialize_entry))


def _entries(lex: Lexicon, form: str, ids) -> list[DictEntry]:
    return [lex.entry_for(form, i) for i in ids]


def merge_results(a: DicoResult, b: DicoResult) -> DicoResult:
    """Combine results of two disjoint streams processed identically, ``b``
    after ``a``: the tables add, and ``b``'s sentences follow ``a``'s."""
    if a.policy is not b.policy:
        raise PolicyMismatch(f"{a.policy.value} vs {b.policy.value}")
    merged = DicoResult(policy=a.policy)
    merged.dlf = a.dlf | b.dlf
    merged.dlc = dict(a.dlc)
    for entry, count in b.dlc.items():
        merged.dlc[entry] = merged.dlc.get(entry, 0) + count
    merged.word_counts = a.word_counts + b.word_counts
    merged.sentence_count = a.sentence_count + b.sentence_count
    return merged


def _analysis_label(entry: DictEntry) -> str:
    # analysis without the surface form, e.g. "correr.V:I1s"
    lemma = "" if entry.lemma == entry.surface_form else entry.lemma
    parts = [lemma, ".", entry.gram_code]
    parts.extend("+" + t for t in entry.sem_traits)
    parts.extend(":" + c for c in entry.flex_codes)
    return "".join(parts)


def write_outputs(result: DicoResult, outdir) -> None:
    """Write the dlf/dlc/err sub-dictionaries."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_lines(outdir / "dlf", sorted(serialize_entry(e) for e in result.dlf))
    _write_lines(outdir / "dlc", sorted(serialize_entry(e) for e in result.dlc))
    _write_lines(outdir / "err", sorted(result.err))


def _write_lines(path, lines) -> None:
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


@contextmanager
def open_annotations(outdir):
    """Yield a sink for :func:`apply_dictionaries` that writes the
    annotations.tsv row of each non-space token.

    Rows go to a temporary file in ``outdir``, renamed to annotations.tsv
    when the block ends.  If the block raises, the temporary file is
    removed, and so is ``outdir`` if this call created it.
    """
    outdir = Path(outdir)
    created = not outdir.exists()
    outdir.mkdir(parents=True, exist_ok=True)
    partial = outdir / "annotations.tsv.partial"
    # apply shares one analyses tuple between all tokens of a text, so each
    # label is built once; the cache holds each tuple it keys, so no id is
    # reused while it is in use
    labels = {}
    try:
        with open(partial, "w", encoding="utf-8") as fh:
            write = fh.write

            def sink(ann: TokenAnnotation) -> None:
                if ann.kind is TokenKind.SPACE:
                    return
                held = labels.get(id(ann.analyses))
                if held is None:
                    label = ";".join(_analysis_label(e) for e in ann.analyses)
                    held = labels[id(ann.analyses)] = (ann.analyses, label)
                status = ann.status.value if ann.status else ""
                write(
                    f"{ann.text}\t{ann.kind.value}\t{ann.sentence_index}"
                    f"\t{status}\t{held[1]}\n"
                )

            yield sink
        partial.replace(outdir / "annotations.tsv")
    except BaseException:
        partial.unlink(missing_ok=True)
        if created:
            outdir.rmdir()
        raise


_KINDS = frozenset(kind.value for kind in TokenKind)
_STATUSES = {"": None, **{status.value: status for status in TokenStatus}}


def read_annotations(path) -> Counter[tuple[str, TokenStatus, bool]]:
    """Read annotations.tsv back into a ``word_counts`` table; sentence-initial
    flags are recomputed (first word row of each sentence)."""
    word_counts = Counter()
    seen_sentences = set()
    with open(path, encoding="utf-8") as fh:
        for line_number, raw in enumerate(fh, 1):
            row = raw.rstrip("\n").split("\t")
            if len(row) != 5:
                raise _malformed(
                    path, line_number, f"expected 5 tab-separated fields, found {len(row)}"
                )
            text, kind, sentence_index, status, _ = row
            if kind not in _KINDS:
                raise _malformed(path, line_number, f"unknown token kind {kind!r}")
            # a word row has a status and no other row has one
            if status not in _STATUSES or (kind == "word") != bool(status):
                raise _malformed(path, line_number, f"status {status!r} on a {kind} row")
            try:
                sentence_index = int(sentence_index)
            except ValueError:
                raise _malformed(
                    path, line_number, f"sentence index {sentence_index!r} is not an integer"
                ) from None
            if kind == "word":
                initial = sentence_index not in seen_sentences
                if initial:
                    seen_sentences.add(sentence_index)
                word_counts[text, _STATUSES[status], initial] += 1
    return word_counts


def _malformed(path, line_number, problem) -> MalformedAnnotations:
    return MalformedAnnotations(f"{path}, line {line_number}: {problem}")
