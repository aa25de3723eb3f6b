"""Independent brute-force oracles used to cross-check the implementation.

Everything here is deliberately naive: hash maps, pairwise comparisons,
O(n*m) dynamic programming.  None of it shares code with the package
internals it checks.
"""

from __future__ import annotations

import re
import unicodedata
from collections import Counter
from dataclasses import dataclass

from lexcov.delaf import DictEntry
from lexcov.dico import DicoResult, TokenStatus
from lexcov.errors import MalformedEntry, PolicyMismatch
from lexcov.preprocess import TokenKind


def oracle_match(token: str, form: str, policy: str) -> bool:
    """Reference token-vs-form matching rule."""
    if token == form:
        return True
    if policy == "exact":
        return False
    if policy == "full_fold":
        return token.casefold() == form.casefold()
    # unitex_like
    if form != form.lower():
        return False
    return token == form[0].upper() + form[1:] or token == form.upper()


def oracle_lookup(token: str, form_map: dict[str, set], policy: str) -> set:
    """Union of analyses over all forms the token matches, by full scan."""
    out = set()
    for form, analyses in form_map.items():
        if oracle_match(token, form, policy):
            out |= analyses
    return out


def oracle_err_and_known(tokens, form_map, policy):
    """Set difference: which token forms have no analyses at all."""
    err = set()
    known = set()
    for token in tokens:
        if oracle_lookup(token, form_map, policy):
            known.add(token)
        else:
            err.add(token)
    return err, known


def hash_oracle_known(token: str, form_set: set, policy: str) -> bool:
    """Hash-set membership oracle: does any form match this token?

    Same matching rule as oracle_match, but probing candidate forms in a
    set instead of scanning; usable on large instances.
    """
    if token in form_set:
        return True
    if policy == "exact":
        return False
    if policy == "full_fold":
        # caller must pass a casefolded form set for this policy
        return token.casefold() in form_set
    # unitex_like: token may be the capitalized or all-upper variant of a
    # lowercase form
    decap = token[0].lower() + token[1:]
    if decap == decap.lower() and token == decap[0].upper() + decap[1:]:
        if decap != token and decap in form_set:
            return True
    lowered = token.lower()
    if len(token) > 0 and token == lowered.upper() and token != lowered:
        if lowered in form_set:
            return True
    return False


def minimal_state_count(words) -> int:
    """States of the minimal acyclic automaton, by building a trie and
    merging equivalent states bottom-up on their canonical signature."""
    trie = {}
    FINAL = object()
    for word in words:
        node = trie
        for ch in word:
            node = node.setdefault(ch, {})
        node[FINAL] = True

    canon = {}

    def signature(node):
        items = []
        for key in sorted((k for k in node if k is not FINAL)):
            items.append((key, signature(node[key])))
        sig = (FINAL in node, tuple(items))
        if sig not in canon:
            canon[sig] = len(canon)
        return canon[sig]

    signature(trie)
    return len(canon)


def right_language_classes(words) -> int:
    """States of the minimal acyclic automaton, by definition: the number
    of distinct right languages of the prefixes of ``words`` (a prefix is
    final if its right language holds the empty word)."""
    words = set(words)
    prefixes = {w[:i] for w in words for i in range(len(w) + 1)} | {""}
    return len(
        {frozenset(w[len(p) :] for w in words if w.startswith(p)) for p in prefixes}
    )


def oracle_build_dafsa(sorted_forms):
    """The columns ``(finals, edge_counts, chars, targets)`` of the minimal
    automaton of ``sorted_forms``, as ``automaton._build_dafsa`` returns
    them, by the sorted incremental construction of Daciuk et al. (2000):
    one character at a time, the last word's states are registered once
    the next word leaves them.  States are numbered in depth-first
    preorder, edges in code-point order."""
    register = {}  # (final, ((char, state id), ...)) -> state id
    keys = []      # state id -> its key
    path = [[False, {}]]  # the last word's states, root first

    def register_down_to(depth):
        while len(path) > depth + 1:
            final, edges = path.pop()
            key = (final, tuple(edges.items()))
            if key not in register:
                register[key] = len(keys)
                keys.append(key)
            parent_edges = path[-1][1]
            parent_edges[next(reversed(parent_edges))] = register[key]

    previous = ""
    for word in sorted_forms:
        common = 0
        while common < min(len(word), len(previous)) and word[common] == previous[common]:
            common += 1
        register_down_to(common)
        for ch in word[common:]:
            path[-1][1][ch] = None
            path.append([False, {}])
        path[-1][0] = True
        previous = word
    register_down_to(0)
    root = len(keys)
    keys.append((path[0][0], tuple(path[0][1].items())))

    number = {root: 0}
    order = [root]
    stack = [root]
    while stack:
        for _, child in reversed(keys[stack.pop()][1]):
            if child not in number:
                number[child] = len(order)
                order.append(child)
                stack.append(child)
    finals, edge_counts, chars, targets = [], [], [], []
    for state in order:
        final, edges = keys[state]
        finals.append(final)
        edge_counts.append(len(edges))
        chars.extend(ord(ch) for ch, _ in edges)
        targets.extend(number[child] for _, child in edges)
    return finals, edge_counts, chars, targets


def _oracle_scan_field(line, start, terminators, line_number):
    out = []
    i = start
    while i < len(line):
        ch = line[i]
        if ch == "\\":
            if i + 1 >= len(line):
                raise MalformedEntry("dangling backslash", line, i, line_number)
            out.append(line[i + 1])
            i += 2
        elif ch in terminators:
            return "".join(out), i
        else:
            out.append(ch)
            i += 1
    return "".join(out), len(line)


def oracle_parse_entry(line: str, line_number=None) -> DictEntry:
    """The DELAF line grammar read by one character scanner for every
    line, escaped or not: the reference for parse_entry's results and
    its MalformedEntry message, column and line number."""
    form, i = _oracle_scan_field(line, 0, ",", line_number)
    if i >= len(line):
        raise MalformedEntry("missing ',' separator", line, len(line), line_number)
    if not form:
        raise MalformedEntry("empty surface form", line, 0, line_number)
    # a space is named as such, other whitespace by its repr
    if form[0].isspace():
        # the form's first character is the line's first, or the one its
        # backslash escapes
        at = 1 if line.startswith("\\") else 0
        what = "a space" if form[0] == " " else f"whitespace {form[0]!r}"
        raise MalformedEntry(f"surface form begins with {what}", line, at, line_number)
    if form[-1].isspace():
        what = "a space" if form[-1] == " " else f"whitespace {form[-1]!r}"
        raise MalformedEntry(f"surface form ends with {what}", line, i - 1, line_number)
    lemma, j = _oracle_scan_field(line, i + 1, ".", line_number)
    if j >= len(line):
        raise MalformedEntry("missing '.' separator", line, len(line), line_number)
    code_part, colon, flex_part = line[j + 1 :].partition(":")
    if colon and not flex_part:
        raise MalformedEntry("empty inflectional code", line, j + 1, line_number)
    pieces = code_part.split("+")
    if not pieces[0]:
        raise MalformedEntry("empty grammatical code", line, j + 1, line_number)
    if any(not s for s in pieces[1:]):
        raise MalformedEntry("empty semantic trait", line, j + 1, line_number)
    flex_codes = flex_part.split(":") if flex_part else []
    if any(not f for f in flex_codes):
        raise MalformedEntry("empty inflectional code", line, j + 1, line_number)
    return DictEntry(form, lemma or form, pieces[0], tuple(pieces[1:]), tuple(flex_codes))


def levenshtein(a: str, b: str) -> int:
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[-1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def oracle_edit_1(probe: str, forms, alphabet) -> list[str]:
    """Forms at Levenshtein distance 1 from ``probe`` whose inserted or
    substituted character is in ``alphabet``, by a scan of every form."""
    out = []
    for form in forms:
        if not form or levenshtein(probe, form) != 1:
            continue
        if len(form) == len(probe) + 1:
            # the inserted character: the one whose removal leaves the probe
            added = next(
                form[j] for j in range(len(form)) if form[:j] + form[j + 1 :] == probe
            )
        elif len(form) == len(probe):
            added = next(a for a, b in zip(form, probe) if a != b)
        else:
            added = None  # a deletion may remove any character
        if added is None or added in alphabet:
            out.append(form)
    return sorted(out)


# -- the reference annotator: one Token object and one OracleAnnotation per
# token, as apply worked before it counted by type.  It uses the lexicons'
# public lookup methods, and its own tokenizer, segmenter and row format.

_ORACLE_CONTROLS = {*range(0x00, 0x09), *range(0x0B, 0x20), *range(0x7F, 0xA0)}


def oracle_normalize(raw: str) -> str:
    """NFC, LF line ends, controls other than tab and LF dropped, runs of
    horizontal space made one space: character by character."""
    text = unicodedata.normalize("NFC", raw).replace("\r\n", "\n").replace("\r", "\n")
    text = "".join(c for c in text if ord(c) not in _ORACLE_CONTROLS)
    out, in_run = [], False
    for c in text:
        hspace = c.isspace() and c != "\n"
        if not (hspace and in_run):
            out.append(" " if hspace else c)
        in_run = hspace
    return "".join(out)


_ORACLE_TOKEN_RE = re.compile(r"([^\W\d_]+)|(\d+)|(\s+)|(.)", re.DOTALL)
_ORACLE_TERMINATORS = {".", "!", "?", "…"}


@dataclass
class OracleToken:
    kind: TokenKind
    text: str
    byte_span: tuple[int, int]
    sentence_index: int = 0
    sentence_initial: bool = False


@dataclass(frozen=True)
class OracleAnnotation:
    """A token's text, kind, sentence index and flag, its status (None for
    a number, punct or space token) and its analyses."""

    text: str
    kind: TokenKind
    sentence_index: int
    sentence_initial: bool
    status: TokenStatus | None
    analyses: tuple[DictEntry, ...]


def oracle_tokenize(text: str) -> list[OracleToken]:
    tokens = []
    byte_pos = 0
    for m in _ORACLE_TOKEN_RE.finditer(text):
        piece = m.group(0)
        if m.group(1) is not None:
            kind = TokenKind.WORD
        elif m.group(2) is not None:
            kind = TokenKind.NUMBER
        elif m.group(3) is not None:
            kind = TokenKind.SPACE
        else:
            kind = TokenKind.PUNCT
        nbytes = len(piece.encode("utf-8"))
        tokens.append(OracleToken(kind, piece, (byte_pos, byte_pos + nbytes)))
        byte_pos += nbytes
    return tokens


def oracle_match_compounds(forms, kinds, texts, policy: str) -> list[tuple[int, str]]:
    """(token span, form) of each compound form that a window anchored at a
    word token starts with, longest first, then in the order of ``forms``:
    every form is tokenized and compared token by token.  A word matches
    by :func:`oracle_match`, a pattern space only a single space, any
    other token only its own kind and text."""
    window = list(zip(kinds, texts))
    if not window or window[0][0] is not TokenKind.WORD:
        return []
    found = []
    for order, form in enumerate(forms):
        pattern = [(t.kind, t.text) for t in oracle_tokenize(form)]
        if len(pattern) > len(window):
            continue
        for (kind, text), (token_kind, token) in zip(pattern, window):
            if kind is not token_kind:
                break
            if kind is TokenKind.WORD and not oracle_match(token, text, policy):
                break
            if kind is TokenKind.SPACE and token != " ":
                break
            if kind not in (TokenKind.WORD, TokenKind.SPACE) and token != text:
                break
        else:
            found.append((-len(pattern), order, form))
    return [(-negative_span, form) for negative_span, _, form in sorted(found)]


def oracle_segment(tokens, abbreviations=()):
    """Sentence indices and initial flags set token by token, in place."""
    abbrevs = {a.strip().rstrip(".").casefold() for a in abbreviations if a.strip()}
    index = 0
    for i, tok in enumerate(tokens):
        tok.sentence_index = index
        tok.sentence_initial = False
        if tok.kind is not TokenKind.PUNCT or tok.text not in _ORACLE_TERMINATORS:
            continue
        if tok.text == "." and i > 0 and tokens[i - 1].kind is TokenKind.WORD:
            prev = tokens[i - 1].text
            if (len(prev) == 1 and prev.isupper()) or prev.casefold() in abbrevs:
                continue
        for nxt in tokens[i + 1 :]:
            if nxt.kind is TokenKind.SPACE:
                continue
            if nxt.kind is TokenKind.WORD and nxt.text[0].isupper():
                index += 1
            break
        else:
            index += 1  # end of text
    seen = set()
    for tok in tokens:
        if tok.kind is TokenKind.WORD and tok.sentence_index not in seen:
            tok.sentence_initial = True
            seen.add(tok.sentence_index)
    return tokens


def _oracle_escape(text):
    return text.replace("\\", "\\\\").replace(",", "\\,")


def oracle_serialize(entry: DictEntry) -> str:
    lemma = ""
    if entry.lemma != entry.surface_form:
        lemma = _oracle_escape(entry.lemma).replace(".", "\\.")
    out = [_oracle_escape(entry.surface_form), ",", lemma, ".", entry.gram_code]
    out.extend("+" + t for t in entry.sem_traits)
    out.extend(":" + c for c in entry.flex_codes)
    return "".join(out)


def _oracle_entries(lex, form, ids):
    return [lex.entry_for(form, i) for i in ids]


def _oracle_compounds(lexicons, tokens, policy, dlc):
    """Greedy longest compound matches, left to right, within a sentence;
    which tokens they cover."""
    covered = [False] * len(tokens)
    i = 0
    while i < len(tokens):
        if tokens[i].kind is not TokenKind.WORD:
            i += 1
            continue
        end = i + 1
        while end < len(tokens) and tokens[end].sentence_index == tokens[i].sentence_index:
            end += 1
        window = tokens[i:end]
        kinds = [t.kind for t in window]
        texts = [t.text for t in window]
        best = None
        for order, lex in enumerate(lexicons):
            for span, form, ids in lex.match_compounds(kinds, texts, policy):
                if span > 1 and (best is None or span > best[0]):
                    best = (span, order, form, ids)
                break
        if best is None:
            i += 1
            continue
        span, order, form, ids = best
        for entry in _oracle_entries(lexicons[order], form, ids):
            dlc[entry] = dlc.get(entry, 0) + 1
        for k in range(i, i + span):
            covered[k] = True
        i += span
    return covered


def oracle_annotate(lexicons, token_lists, policy):
    """One OracleAnnotation per token of each list, in order, with the
    sentence indices of each list shifted past the ones before it; and the
    (dlf, dlc, word_counts, sentence_count) of the run."""
    annotations = []
    dlf, dlc, word_counts = set(), {}, Counter()
    sentence_count = 0
    for tokens in token_lists:
        if not tokens:
            continue
        covered = _oracle_compounds(lexicons, tokens, policy, dlc)
        for i, tok in enumerate(tokens):
            status, analyses = None, ()
            if tok.kind is TokenKind.WORD:
                matched = set()
                for lex in lexicons:
                    for form, ids in lex.lookup_forms(tok.text, policy).items():
                        matched.update(_oracle_entries(lex, form, ids))
                analyses = tuple(sorted(matched, key=oracle_serialize))
                dlf.update(analyses)
                if analyses:
                    status = TokenStatus.KNOWN_SIMPLE
                elif covered[i]:
                    status = TokenStatus.IN_COMPOUND_ONLY
                else:
                    status = TokenStatus.UNKNOWN
                word_counts[tok.text, status, tok.sentence_initial] += 1
            annotations.append(OracleAnnotation(
                tok.text, tok.kind, tok.sentence_index + sentence_count,
                tok.sentence_initial, status, analyses,
            ))
        sentence_count += 1 + max(t.sentence_index for t in tokens)
    return annotations, (dlf, dlc, word_counts, sentence_count)


def merge_results(a: DicoResult, b: DicoResult) -> DicoResult:
    """The reference fold of the results of two disjoint streams applied
    alike, ``b`` after ``a``: the tables add, and ``b``'s sentences follow
    ``a``'s."""
    if a.policy is not b.policy:
        raise PolicyMismatch(f"{a.policy.value} vs {b.policy.value}")
    return DicoResult(
        a.policy,
        a.dlf | b.dlf,
        dict(Counter(a.dlc) + Counter(b.dlc)),
        a.word_counts + b.word_counts,
        a.sentence_count + b.sentence_count,
    )


def _oracle_label(entry: DictEntry) -> str:
    lemma = "" if entry.lemma == entry.surface_form else entry.lemma
    parts = [lemma, ".", entry.gram_code]
    parts.extend("+" + t for t in entry.sem_traits)
    parts.extend(":" + c for c in entry.flex_codes)
    return "".join(parts)


def oracle_read_annotations(path) -> Counter:
    """The ``word_counts`` table of an annotations.tsv, read without
    checks: a word row is sentence-initial when it is the first word row
    of its sentence index."""
    word_counts = Counter()
    seen = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            text, kind, sentence, status, _ = line.rstrip("\n").split("\t")
            if kind == TokenKind.WORD.value:
                word_counts[text, TokenStatus(status), sentence not in seen] += 1
                seen.add(sentence)
    return word_counts


def oracle_annotations_tsv(annotations) -> str:
    """The annotations.tsv text of these annotations: one row per
    non-space token."""
    return "".join(
        f"{a.text}\t{a.kind.value}\t{a.sentence_index}"
        f"\t{a.status.value if a.status else ''}"
        f"\t{';'.join(_oracle_label(e) for e in a.analyses)}\n"
        for a in annotations
        if a.kind is not TokenKind.SPACE
    )
