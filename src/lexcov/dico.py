"""Dictionary application: partition a token stream into known simple
words, compound matches, and unknown forms (the dlf/dlc/err outputs)."""

from __future__ import annotations

import enum
from collections.abc import Iterable
from dataclasses import dataclass, field, replace
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
    err: set[str] = field(default_factory=set)
    annotations: list[TokenAnnotation] = field(default_factory=list)
    # 1 + the largest sentence index in annotations (0 when there are none):
    # the offset the next merged stream's sentence indices start from.
    # apply_dictionaries and merge_results keep it; it is computed once for
    # a result built from existing annotations.
    sentence_count: int = 0

    def __post_init__(self):
        if self.annotations and not self.sentence_count:
            self.sentence_count = 1 + max(a.sentence_index for a in self.annotations)

    def status_counts(self) -> dict[TokenStatus, int]:
        counts = {status: 0 for status in TokenStatus}
        for ann in self.annotations:
            if ann.status is not None:
                counts[ann.status] += 1
        return counts

    @property
    def word_token_count(self) -> int:
        return sum(1 for a in self.annotations if a.status is not None)


def apply_dictionaries(
    lexicons,
    streams: TokenStream | Iterable[TokenStream],
    policy: CaseFoldPolicy = CaseFoldPolicy.UNITEX_LIKE,
) -> DicoResult:
    """Annotate every word token of one stream, or of several in order.

    ``lexicons`` is one Lexicon or an ordered list; lookups take the union
    while compound ties follow list order.  Compounds are matched greedily,
    longest first, left to right, within sentence bounds, no overlaps.

    ``streams`` is one TokenStream or an iterable of them, consumed once.
    All streams fill one result, as if folded with :func:`merge_results`:
    each stream's sentence indices are shifted by the result's
    ``sentence_count`` so far, and an empty stream adds none.
    """
    if isinstance(lexicons, Lexicon):
        lexicons = [lexicons]
    if isinstance(streams, TokenStream):
        streams = (streams,)
    result = DicoResult(policy=policy)
    annotations = result.annotations
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
            sentence_index = tok.sentence_index + offset
            if tok.kind is not TokenKind.WORD:
                annotations.append(
                    TokenAnnotation(tok.text, tok.kind, sentence_index, False, None)
                )
                continue
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
                result.err.add(tok.text)
            annotations.append(
                TokenAnnotation(
                    tok.text,
                    tok.kind,
                    sentence_index,
                    tok.sentence_initial,
                    status,
                    analyses,
                )
            )
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
    """Combine results of two disjoint streams processed identically.

    ``b``'s sentence indices are shifted by ``a.sentence_count``, so the
    per-annotation work is proportional to ``b`` alone.
    """
    if a.policy is not b.policy:
        raise PolicyMismatch(f"{a.policy.value} vs {b.policy.value}")
    merged = DicoResult(policy=a.policy)
    merged.dlf = a.dlf | b.dlf
    merged.err = a.err | b.err
    merged.dlc = dict(a.dlc)
    for entry, count in b.dlc.items():
        merged.dlc[entry] = merged.dlc.get(entry, 0) + count
    # keep sentence indices unique across the concatenation
    offset = a.sentence_count
    merged.annotations = a.annotations + [
        replace(ann, sentence_index=ann.sentence_index + offset)
        for ann in b.annotations
    ]
    merged.sentence_count = offset + b.sentence_count
    return merged


def _analysis_label(entry: DictEntry) -> str:
    # analysis without the surface form, e.g. "correr.V:I1s"
    lemma = "" if entry.lemma == entry.surface_form else entry.lemma
    parts = [lemma, ".", entry.gram_code]
    parts.extend("+" + t for t in entry.sem_traits)
    parts.extend(":" + c for c in entry.flex_codes)
    return "".join(parts)


def write_outputs(result: DicoResult, outdir) -> None:
    """Write the dlf/dlc/err sub-dictionaries and annotations.tsv."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_lines(outdir / "dlf", sorted(serialize_entry(e) for e in result.dlf))
    _write_lines(outdir / "dlc", sorted(serialize_entry(e) for e in result.dlc))
    _write_lines(outdir / "err", sorted(result.err))
    rows = []
    # apply shares one analyses tuple between all tokens of a text, so each
    # label is built once; the annotations keep every tuple, and its id, alive
    labels = {}
    for ann in result.annotations:
        if ann.kind is TokenKind.SPACE:
            continue
        label = labels.get(id(ann.analyses))
        if label is None:
            label = ";".join(_analysis_label(e) for e in ann.analyses)
            labels[id(ann.analyses)] = label
        rows.append(
            "\t".join(
                (
                    ann.text,
                    ann.kind.value,
                    str(ann.sentence_index),
                    ann.status.value if ann.status else "",
                    label,
                )
            )
        )
    _write_lines(outdir / "annotations.tsv", rows)


def _write_lines(path, lines) -> None:
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def read_annotations(path) -> list[TokenAnnotation]:
    """Read annotations.tsv back; sentence-initial flags are recomputed
    (first word token of each sentence)."""
    annotations = []
    seen_sentences = set()
    with open(path, encoding="utf-8") as fh:
        for line_number, raw in enumerate(fh, 1):
            row = raw.rstrip("\n").split("\t")
            if len(row) != 5:
                raise MalformedAnnotations(
                    f"{path}, line {line_number}: expected 5 tab-separated fields,"
                    f" found {len(row)}"
                )
            text, kind, sentence_index, status, _ = row
            try:
                kind = TokenKind(kind)
                sentence_index = int(sentence_index)
                status = TokenStatus(status) if status else None
            except ValueError as exc:
                raise MalformedAnnotations(f"{path}, line {line_number}: {exc}") from None
            initial = False
            if kind is TokenKind.WORD and sentence_index not in seen_sentences:
                initial = True
                seen_sentences.add(sentence_index)
            annotations.append(
                TokenAnnotation(
                    text,
                    kind,
                    sentence_index,
                    initial,
                    status,
                )
            )
    return annotations
