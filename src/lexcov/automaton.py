"""Compilation of DELAF files into an immutable minimal acyclic automaton.

Single-token surface forms live in a DAFSA built incrementally from the
sorted key set (Daciuk-style: states of the last word are merged into a
register of canonical states as soon as they can no longer change).  Each
accepted form gets a dense index via right-language counts on the edges,
which addresses a per-form table of analysis references.  Multiword forms
are kept out of the automaton and matched by a first-token index.
"""

from __future__ import annotations

import enum
import hashlib
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

from .delaf import DictEntry, DictFile, RoleTag
from .errors import CorruptFile, EmptyLexicon, FormatLimitExceeded, FormatVersionMismatch
from .preprocess import TokenKind, tokenize


class CaseFoldPolicy(enum.Enum):
    EXACT = "exact"
    UNITEX_LIKE = "unitex_like"
    FULL_FOLD = "full_fold"


@dataclass(frozen=True)
class Analysis:
    """A deduplicated (lemma, codes) payload shared by one or more forms."""

    lemma: str
    gram_code: str
    sem_traits: tuple[str, ...]
    flex_codes: tuple[str, ...]


@dataclass
class LexiconStats:
    entry_count: int
    unique_form_count: int
    unique_form_count_folded: int
    state_count: int
    transition_count: int
    analysis_count: int
    compound_count: int


@dataclass(frozen=True)
class _Compound:
    form: str
    analysis_ids: tuple[int, ...]
    pattern: tuple[tuple[TokenKind, str], ...]


class _Node:
    __slots__ = ("final", "edges")

    def __init__(self):
        self.final = False
        self.edges = {}


def token_matches_form(token_text: str, form_text: str, policy: CaseFoldPolicy) -> bool:
    """Whether a corpus token may match a lexicon form under a policy: the
    one case rule, for simple and compound forms alike."""
    if token_text == form_text:
        return True
    if policy is CaseFoldPolicy.EXACT:
        return False
    if policy is CaseFoldPolicy.FULL_FOLD:
        return token_text.casefold() == form_text.casefold()
    # unitex_like: an entirely-lowercase form also matches its
    # first-letter-capitalized and all-uppercase variants
    if form_text != form_text.lower():
        return False
    return (
        token_text == form_text[0].upper() + form_text[1:]
        or token_text == form_text.upper()
    )


def fold_key(text: str) -> str:
    """Lookup key: :func:`token_matches_form` holds only between texts with
    equal keys, under every policy (docs/run-manifest.md, "Case policies").
    Plain ``casefold`` is not such a key: it keeps ``ı`` apart from ``I``."""
    return text.upper().casefold()


class Lexicon:
    """Immutable compiled lexicon.  Build with :func:`compile_lexicon`."""

    def __init__(self, states, analyses, roles, form_analyses, compounds, fold_extra, stats):
        # states[i] = (final, {char: (target, index_offset)})
        self._states = states
        self._analyses = analyses          # list[Analysis]
        self._roles = roles                # list[frozenset[RoleTag]]
        self._form_analyses = form_analyses  # list[tuple[int, ...]] by word index
        self._compounds = compounds        # list[_Compound], file/entry order
        self._fold_extra = fold_extra      # fold_key -> forms other than the key
        self._compound_index = {}          # fold_key of the first token -> compounds
        for ci, comp in enumerate(compounds):
            self._compound_index.setdefault(fold_key(comp.pattern[0][1]), []).append(ci)
        # no match_compounds window needs more tokens than this; 0 when
        # the lexicon has no compounds
        self.max_compound_tokens = max((len(c.pattern) for c in compounds), default=0)
        self.stats = stats

    # -- simple-form lookup ------------------------------------------------

    def _rank_from(self, state: int, text: str) -> int | None:
        """Rank offset gained by reading ``text`` from ``state``, or None
        unless that walk exists and ends in a final state."""
        states = self._states
        idx = 0
        for ch in text:
            hop = states[state][1].get(ch)
            if hop is None:
                return None
            state, offset = hop
            idx += offset
        return idx if states[state][0] else None

    def word_index(self, form: str) -> int | None:
        """Dense index of a form in the sorted key set, or None."""
        return self._rank_from(0, form)

    def __contains__(self, form: str) -> bool:
        return self.word_index(form) is not None

    def within_one_edit(self, form: str, alphabet) -> list[str]:
        """Forms at Levenshtein distance exactly 1 from ``form``, sorted.

        Inserted and substituted characters come from ``alphabet``; a
        deletion may remove any character.  One depth-first walk with one
        edit to spend: the exact prefix ``form[:i]`` is followed state by
        state, and at each state an insertion, a deletion of ``form[i]``
        or a substitution for it is tried, each followed by an exact walk
        of the rest.  The walk ends at the first ``form[i]`` without an
        edge, since no longer exact prefix exists.  The empty form is
        never returned.
        """
        states = self._states
        rank = self._rank_from
        found = set()
        state = 0
        for i in range(len(form) + 1):
            edges = states[state][1]
            prefix, rest = form[:i], form[i:]
            after = form[i + 1 :]
            for ch, (target, _) in edges.items():
                if ch not in alphabet:
                    continue
                if rank(target, rest) is not None:              # insertion
                    found.add(prefix + ch + rest)
                if rest and ch != rest[0] and rank(target, after) is not None:
                    found.add(prefix + ch + after)              # substitution
            if not rest:
                break
            if rank(state, after) is not None:                  # deletion
                found.add(prefix + after)
            hop = edges.get(rest[0])
            if hop is None:
                break
            state = hop[0]
        found.discard("")
        return sorted(found)

    def analysis(self, analysis_id: int) -> Analysis:
        return self._analyses[analysis_id]

    def analysis_roles(self, analysis_id: int) -> frozenset:
        return self._roles[analysis_id]

    def entry_for(self, form: str, analysis_id: int) -> DictEntry:
        a = self._analyses[analysis_id]
        return DictEntry(form, a.lemma, a.gram_code, a.sem_traits, a.flex_codes)

    def lookup_forms(self, token_text: str, policy=CaseFoldPolicy.UNITEX_LIKE):
        """Map of matched lexicon form -> tuple of analysis ids."""
        if not token_text:
            return {}
        result = {}
        key = fold_key(token_text)
        for form in (key, *self._fold_extra.get(key, ())):
            if token_matches_form(token_text, form, policy):
                idx = self.word_index(form)
                if idx is not None:
                    result[form] = self._form_analyses[idx]
        return result

    def lookup(self, token_text: str, policy=CaseFoldPolicy.UNITEX_LIKE) -> frozenset:
        """Union of analysis ids over all forms the token may match."""
        hits = self.lookup_forms(token_text, policy)
        if not hits:
            return frozenset()
        out = set()
        for ids in hits.values():
            out.update(ids)
        return frozenset(out)

    # -- compounds ---------------------------------------------------------

    def starts_compound(self, key: str) -> bool:
        """Whether some compound's first token has the :func:`fold_key`
        ``key``; when not, :meth:`match_compounds` finds nothing for a
        token with that key."""
        return key in self._compound_index

    def match_compounds(self, tokens, policy=CaseFoldPolicy.UNITEX_LIKE):
        """All multiword matches anchored at tokens[0], longest first.

        ``tokens`` is a contiguous token window from one sentence.  Returns
        a list of (token_span, compound_form, analysis_ids).
        """
        if not tokens or tokens[0].kind is not TokenKind.WORD:
            return []
        candidates = self._compound_index.get(fold_key(tokens[0].text), ())
        matches = []
        for ci in candidates:
            comp = self._compounds[ci]
            span = self._match_pattern(comp.pattern, tokens, policy)
            if span is not None:
                matches.append((span, ci))
        matches.sort(key=lambda m: (-m[0], m[1]))  # longest first, then entry order
        return [
            (span, self._compounds[ci].form, self._compounds[ci].analysis_ids)
            for span, ci in matches
        ]

    @staticmethod
    def _match_pattern(pattern, tokens, policy):
        if len(pattern) > len(tokens):
            return None
        for pat, tok in zip(pattern, tokens):
            kind, text = pat
            if kind is TokenKind.WORD:
                if tok.kind is not TokenKind.WORD or not token_matches_form(
                    tok.text, text, policy
                ):
                    return None
            elif kind is TokenKind.SPACE:
                if tok.kind is not TokenKind.SPACE or tok.text != " ":
                    return None
            else:
                if tok.kind is not kind or tok.text != text:
                    return None
        return len(pattern)

    def iter_forms(self):
        """All simple forms in sorted order."""
        states = self._states
        stack = [(0, "")]
        out = []
        while stack:
            state, prefix = stack.pop()
            final, edges = states[state]
            if final:
                out.append(prefix)
            for ch in sorted(edges, reverse=True):
                stack.append((edges[ch][0], prefix + ch))
        # DFS with reversed edge order yields sorted output directly
        return out

    def compound_forms(self):
        return sorted({c.form for c in self._compounds})


def compile_lexicon(dicts: list[DictFile]) -> Lexicon:
    """Compile DictFiles into a Lexicon.

    Identical (form, analysis) pairs are deduplicated.  Entries carrying
    several ':'-groups are expanded into one analysis per inflectional
    reading.
    """
    analysis_ids = {}
    analyses = []
    roles = []
    simple = {}     # form -> set of analysis ids
    compounds = {}  # form -> ordered dict of analysis ids (insertion order)
    entry_count = 0
    for dfile in dicts or []:
        for entry in dfile.entries:
            entry_count += 1
            flex_groups = [(code,) for code in entry.flex_codes] or [()]
            for flex in flex_groups:
                key = (entry.lemma, entry.gram_code, entry.sem_traits, flex)
                aid = analysis_ids.get(key)
                if aid is None:
                    aid = len(analyses)
                    analysis_ids[key] = aid
                    analyses.append(Analysis(*key))
                    roles.append(set())
                roles[aid].add(dfile.role_tag)
                if entry.is_multiword():
                    compounds.setdefault(entry.surface_form, {})[aid] = None
                else:
                    simple.setdefault(entry.surface_form, set()).add(aid)
    if entry_count == 0:
        raise EmptyLexicon("no entries to compile")

    sorted_forms = sorted(simple)
    states, n_transitions = _build_dafsa(sorted_forms)
    form_analyses = [tuple(sorted(simple[f])) for f in sorted_forms]

    compound_list = [
        _Compound(form, tuple(ids), _compound_pattern(form))
        for form, ids in compounds.items()
    ]

    fold_extra = {}
    for form in sorted_forms:
        key = fold_key(form)
        if key != form:
            fold_extra.setdefault(key, []).append(form)
    fold_extra = {k: tuple(v) for k, v in fold_extra.items()}

    all_forms = sorted_forms + list(compounds)
    stats = LexiconStats(
        entry_count=entry_count,
        unique_form_count=len(simple) + len(compounds),
        unique_form_count_folded=len({f.casefold() for f in all_forms}),
        state_count=len(states),
        transition_count=n_transitions,
        analysis_count=len(analyses),
        compound_count=len(compound_list),
    )
    return Lexicon(
        states,
        analyses,
        [frozenset(r) for r in roles],
        form_analyses,
        compound_list,
        fold_extra,
        stats,
    )


def _compound_pattern(form: str):
    return tuple((t.kind, t.text) for t in tokenize(form).tokens)


def _build_dafsa(sorted_forms):
    """Minimal acyclic automaton over a sorted list of unique keys.

    Returns (states, transition_count) where states[i] is
    (final, {char: (target, index_offset)}) and state 0 is the root.
    The index offsets make the automaton a perfect hash: summing them
    along a word's path gives its rank in the sorted key set.
    """
    root = _Node()
    register = {}
    unchecked = []  # (parent, char, child) not yet merged into the register

    def merge(down_to):
        while len(unchecked) > down_to:
            parent, ch, child = unchecked.pop()
            key = (child.final, tuple((c, id(n)) for c, n in child.edges.items()))
            seen = register.get(key)
            if seen is not None:
                parent.edges[ch] = seen
            else:
                register[key] = child

    previous = ""
    for word in sorted_forms:
        common = 0
        limit = min(len(word), len(previous))
        while common < limit and word[common] == previous[common]:
            common += 1
        merge(common)
        node = unchecked[-1][2] if unchecked else root
        for ch in word[common:]:
            nxt = _Node()
            node.edges[ch] = nxt
            unchecked.append((node, ch, nxt))
            node = nxt
        node.final = True
        previous = word
    merge(0)

    # number states (DFS preorder, sorted edges) and count right languages
    ids = {id(root): 0}
    order = [root]
    stack = [root]
    while stack:
        node = stack.pop()
        for ch in sorted(node.edges, reverse=True):
            child = node.edges[ch]
            if id(child) not in ids:
                ids[id(child)] = len(order)
                order.append(child)
                stack.append(child)

    counts = {}

    def word_count(node):
        stack = [(node, False)]
        while stack:
            cur, expanded = stack.pop()
            if id(cur) in counts:
                continue
            if expanded:
                counts[id(cur)] = (1 if cur.final else 0) + sum(
                    counts[id(c)] for c in cur.edges.values()
                )
            else:
                stack.append((cur, True))
                stack.extend((c, False) for c in cur.edges.values())

    word_count(root)

    states = []
    n_transitions = 0
    for node in order:
        edges = {}
        acc = 1 if node.final else 0
        for ch in sorted(node.edges):
            child = node.edges[ch]
            edges[ch] = (ids[id(child)], acc)
            acc += counts[id(child)]
            n_transitions += 1
        states.append((node.final, edges))
    return states, n_transitions


# -- binary format ----------------------------------------------------------

_MAGIC = b"LXCV"
_FORMAT_VERSION = 2
_ROLE_BITS = {RoleTag.GENERAL: 1, RoleTag.ABBREVIATIONS_ACRONYMS: 2, RoleTag.USER: 4}
_ROLE_FROM_BIT = {v: k for k, v in _ROLE_BITS.items()}


def _pack_str(chunks, text):
    data = text.encode("utf-8")
    chunks.append(struct.pack("<I", len(data)))
    chunks.append(data)


class _Reader:
    def __init__(self, data):
        self.data = data
        self.pos = 0

    def take(self, fmt):
        size = struct.calcsize(fmt)
        if self.pos + size > len(self.data):
            raise CorruptFile("unexpected end of payload")
        vals = struct.unpack_from(fmt, self.data, self.pos)
        self.pos += size
        return vals

    def take_str(self):
        (n,) = self.take("<I")
        if self.pos + n > len(self.data):
            raise CorruptFile("unexpected end of payload")
        try:
            out = self.data[self.pos : self.pos + n].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptFile(f"string at payload offset {self.pos}: {exc.reason}") from None
        self.pos += n
        return out


_U16_MAX = 0xFFFF


def _check_u16_counts(lex: Lexicon) -> None:
    """Raise FormatLimitExceeded if a count does not fit its u16 field."""
    for state, (_final, edges) in enumerate(lex._states):
        if len(edges) > _U16_MAX:
            raise _too_many(f"automaton state {state}", len(edges), "edges")
    for word_index, ids in enumerate(lex._form_analyses):
        if len(ids) > _U16_MAX:
            form = lex.iter_forms()[word_index]
            raise _too_many(f"form {form!r}", len(ids), "analyses")
    for comp in lex._compounds:
        if len(comp.analysis_ids) > _U16_MAX:
            raise _too_many(f"compound {comp.form!r}", len(comp.analysis_ids), "analyses")
    for key, forms in lex._fold_extra.items():
        if len(forms) > _U16_MAX:
            raise _too_many(f"fold key {key!r}", len(forms), "forms")


def _too_many(what, count, unit) -> FormatLimitExceeded:
    return FormatLimitExceeded(
        f"{what} has {count} {unit}; the lexicon format allows at most {_U16_MAX}"
    )


def save_lexicon(lex: Lexicon, path) -> None:
    """Write the versioned, checksummed binary form (docs/lexicon-binary.md).

    Raises FormatLimitExceeded, before the file is opened, when a count
    does not fit its u16 field.
    """
    _check_u16_counts(lex)
    chunks = []
    s = lex.stats
    chunks.append(
        struct.pack(
            "<QQQQQIIII",
            s.entry_count,
            len(lex._form_analyses),
            s.unique_form_count_folded,
            len(lex._states),
            s.transition_count,
            len(lex._analyses),
            len(lex._compounds),
            len(lex._fold_extra),
            s.unique_form_count,
        )
    )
    for i, a in enumerate(lex._analyses):
        _pack_str(chunks, a.lemma)
        _pack_str(chunks, a.gram_code)
        _pack_str(chunks, "+".join(a.sem_traits))
        _pack_str(chunks, ":".join(a.flex_codes))
        bits = 0
        for role in lex._roles[i]:
            bits |= _ROLE_BITS[role]
        chunks.append(struct.pack("<B", bits))
    for final, edges in lex._states:
        chunks.append(struct.pack("<BH", 1 if final else 0, len(edges)))
        for ch in sorted(edges):
            target, offset = edges[ch]
            chunks.append(struct.pack("<III", ord(ch), target, offset))
    for ids in lex._form_analyses:
        chunks.append(struct.pack("<H", len(ids)))
        chunks.append(struct.pack(f"<{len(ids)}I", *ids))
    for comp in lex._compounds:
        _pack_str(chunks, comp.form)
        chunks.append(struct.pack("<H", len(comp.analysis_ids)))
        chunks.append(struct.pack(f"<{len(comp.analysis_ids)}I", *comp.analysis_ids))
    for key in sorted(lex._fold_extra):
        _pack_str(chunks, key)
        forms = lex._fold_extra[key]
        chunks.append(struct.pack("<H", len(forms)))
        for form in forms:
            _pack_str(chunks, form)

    payload = zlib.compress(b"".join(chunks), 6)
    digest = hashlib.sha256(payload).digest()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<HQ", _FORMAT_VERSION, len(payload)))
        fh.write(digest)
        fh.write(payload)


def load_lexicon(path) -> Lexicon:
    """Inverse of :func:`save_lexicon`.

    Raises CorruptFile for a file whose payload, checksum aside, is not
    one :func:`save_lexicon` writes, so that no broken file fails later
    in a lookup; and FormatVersionMismatch for any other format version.
    """
    data = Path(path).read_bytes()
    if len(data) < 4 + 10 + 32 or data[:4] != _MAGIC:
        raise CorruptFile(f"{path}: not a lexicon file")
    version, payload_len = struct.unpack_from("<HQ", data, 4)
    if version != _FORMAT_VERSION:
        raise FormatVersionMismatch(
            f"{path}: format version {version}, expected {_FORMAT_VERSION};"
            " re-run `lexcov compile` on its dictionaries to rebuild it"
        )
    digest = data[14:46]
    payload = data[46:]
    if len(payload) != payload_len:
        raise CorruptFile(f"{path}: truncated payload")
    if hashlib.sha256(payload).digest() != digest:
        raise CorruptFile(f"{path}: checksum mismatch")
    try:
        raw = zlib.decompress(payload)
    except zlib.error as exc:
        raise CorruptFile(f"{path}: {exc}") from None
    try:
        return _read_payload(raw)
    except CorruptFile as exc:
        raise CorruptFile(f"{path}: {exc}") from None


def _read_payload(raw) -> Lexicon:
    r = _Reader(raw)
    (
        entry_count,
        n_forms,
        folded_count,
        n_states,
        n_transitions,
        n_analyses,
        n_compounds,
        n_fold_extra,
        unique_form_count,
    ) = r.take("<QQQQQIIII")
    analyses = []
    roles = []
    for _ in range(n_analyses):
        lemma = r.take_str()
        gram = r.take_str()
        sems = r.take_str()
        flex = r.take_str()
        (bits,) = r.take("<B")
        analyses.append(
            Analysis(
                lemma,
                gram,
                tuple(sems.split("+")) if sems else (),
                tuple(flex.split(":")) if flex else (),
            )
        )
        roles.append(
            frozenset(role for bit, role in _ROLE_FROM_BIT.items() if bits & bit)
        )
    if not n_states:
        raise CorruptFile("no root state")
    states = []
    for _ in range(n_states):
        final, n_edges = r.take("<BH")
        edges = {}
        for _ in range(n_edges):
            cp, target, offset = r.take("<III")
            if target >= n_states:
                raise CorruptFile(f"edge to state {target}, but there are {n_states} states")
            if cp > 0x10FFFF or 0xD800 <= cp <= 0xDFFF:
                raise CorruptFile(f"edge labelled with invalid code point {cp:#x}")
            edges[chr(cp)] = (target, offset)
        states.append((bool(final), edges))
    form_analyses = []
    for _ in range(n_forms):
        (n,) = r.take("<H")
        form_analyses.append(r.take(f"<{n}I"))
    compounds = []
    for _ in range(n_compounds):
        form = r.take_str()
        (n,) = r.take("<H")
        ids = r.take(f"<{n}I")
        pattern = _compound_pattern(form)
        if not pattern:
            raise CorruptFile(f"compound {form!r} has no tokens")
        compounds.append(_Compound(form, ids, pattern))
    fold_extra = {}
    for _ in range(n_fold_extra):
        key = r.take_str()
        (n,) = r.take("<H")
        fold_extra[key] = tuple(r.take_str() for _ in range(n))
    if r.pos != len(raw):
        raise CorruptFile(f"{len(raw) - r.pos} unread bytes after the last section")
    id_lists = form_analyses + [c.analysis_ids for c in compounds]
    top = max(map(max, filter(None, id_lists)), default=-1)
    if top >= n_analyses:
        raise CorruptFile(f"analysis id {top}, but there are {n_analyses} analyses")

    stats = LexiconStats(
        entry_count=entry_count,
        unique_form_count=unique_form_count,
        unique_form_count_folded=folded_count,
        state_count=n_states,
        transition_count=n_transitions,
        analysis_count=n_analyses,
        compound_count=n_compounds,
    )
    return Lexicon(states, analyses, roles, form_analyses, compounds, fold_extra, stats)
