"""Compilation of DELAF files into an immutable minimal acyclic automaton.

Single-token surface forms live in a DAFSA built bottom-up from the
sorted key set: the forms sharing a prefix are a range of it, split at
its branch depth, and each state is merged into a register of canonical
states once its children are.  Each accepted form gets a dense index via
right-language counts on the edges, which addresses a per-form table of
analysis references.  Multiword forms are kept out of the automaton and
matched through a token trie per first token, built on first use.
"""

from __future__ import annotations

import hashlib
import os
import struct
import sys
import zlib
from array import array
from bisect import bisect_left
from collections import namedtuple
from contextlib import suppress
from functools import cached_property
from itertools import accumulate, chain, islice
from operator import itemgetter

from .delaf import DictEntry, DictFile, RoleTag
from .errors import CorruptFile, EmptyLexicon, FormatVersionMismatch
from .preprocess import _TOKEN_RE, TokenKind, token_columns
from .runtable import CaseFoldPolicy


class Analysis(namedtuple("Analysis", "lemma gram_code sem_traits flex_codes")):
    """A deduplicated (lemma, codes) payload shared by one or more forms.

    ``sem_traits`` and ``flex_codes`` are tuples of strings.  It is a
    tuple, so it compares equal to the plain 4-tuple of its fields."""

    __slots__ = ()


class LexiconStats(
    namedtuple(
        "LexiconStats",
        "entry_count unique_form_count unique_form_count_folded state_count"
        " transition_count analysis_count compound_count",
    )
):
    """A lexicon's sizes, as :func:`compile_lexicon` reports them."""

    __slots__ = ()


_ROLE_BITS = {RoleTag.GENERAL: 1, RoleTag.ABBREVIATIONS_ACRONYMS: 2, RoleTag.USER: 4}


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
    """Immutable compiled lexicon, read from a ``.lex`` payload: build
    one with :func:`compile_lexicon`, or read a file with
    :func:`load_lexicon`.

    It holds the payload's columns (docs/lexicon-binary.md), checked when
    it is made, and builds a lookup table (the states' edge dicts, the
    strings, the compound index, the fold-extra map), an analysis, a
    form's analysis ids or the trie of the compounds sharing a first word
    only when a lookup first reads it.
    """

    def __init__(self, raw: bytes, payload: bytes):
        """Read ``raw``, an uncompressed payload, and keep ``payload``,
        the same payload compressed, for :func:`save_lexicon`.  Raises
        CorruptFile for a payload that :func:`_pack` does not make, so
        that no broken payload fails later in a lookup."""
        if len(raw) < _HEADER.size:
            raise CorruptFile("unexpected end of payload")
        (
            entry_count,
            n_forms,
            folded_count,
            n_states,
            n_transitions,
            n_analyses,
            n_compounds,
            n_fold_extra,
            n_strings,
            text_size,
        ) = _HEADER.unpack_from(raw)
        if not n_states:
            raise CorruptFile("no root state")
        view = memoryview(raw)
        pos = _HEADER.size

        def read(size):
            nonlocal pos
            if pos + size > len(raw):
                raise CorruptFile("unexpected end of payload")
            pos += size
            return view[pos - size : pos]

        def column(typecode, count, checked=None, searched=None):
            # a u32 column's four byte planes, the least significant first,
            # are interleaved into its little-endian items; ``checked`` gets
            # the planes as the payload holds them, ``searched`` the items
            col = array(typecode)
            if typecode == "B":
                col.frombytes(read(count))
                return col
            planes = read(4 * count)
            data = _interleave(planes)
            col.frombytes(data)
            if _SWAP:
                col.byteswap()
            if checked is not None:
                checked.append(planes)
            if searched is not None:
                searched.append(data)
            return col

        # the little-endian bytes of the string lengths, then of each column
        # of string ids that may not hold the empty string, for its search
        searched = []
        lengths = column(_U32, n_strings, searched=searched)
        text_at = pos
        try:
            text = str(read(text_size), "utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptFile(
                f"string table at payload offset {text_at + exc.start}: {exc.reason}"
            ) from None
        # the byte planes of the columns of string ids, of edge targets
        # and of analysis ids, for their range checks
        string_data, target_data, analysis_data = [], [], []
        # by analysis id, the string ids of its lemma, its code, its
        # '+'-joined traits and its ':'-joined flex codes, and its role bits
        self._lemmas = lemmas = column(_U32, n_analyses, string_data, searched)
        self._grams = grams = column(_U32, n_analyses, string_data, searched)
        self._traits = traits = column(_U32, n_analyses, string_data)
        self._flexes = flexes = column(_U32, n_analyses, string_data)
        self._masks = column("B", n_analyses)
        finals = column("B", n_states)
        edge_counts = column(_U32, n_states)
        chars = column(_U32, n_transitions)
        targets = column(_U32, n_transitions, target_data)
        # word index w has the analysis ids
        # form_ids[form_offsets[w]:form_offsets[w + 1]]
        form_counts = column(_U32, n_forms)
        self._form_ids = form_ids = column(_U32, sum(form_counts), analysis_data)
        self._form_offsets = array(_U32, accumulate(form_counts, initial=0))
        # compound c, in file/entry order, is compound_forms[c] with the
        # analysis ids compound_ids[compound_offsets[c]:compound_offsets[c + 1]]
        compound_forms = column(_U32, n_compounds, string_data, searched)
        compound_counts = column(_U32, n_compounds)
        self._compound_ids = compound_ids = column(_U32, sum(compound_counts), analysis_data)
        self._compound_offsets = array(_U32, accumulate(compound_counts, initial=0))
        fold_keys = column(_U32, n_fold_extra, string_data)
        fold_counts = column(_U32, n_fold_extra)
        fold_forms = column(_U32, sum(fold_counts), string_data, searched)
        if pos != len(raw):
            raise CorruptFile(f"{len(raw) - pos} unread bytes after the last section")

        total = sum(lengths)
        if total != len(text):
            raise CorruptFile(
                f"string lengths add up to {total} characters,"
                f" but the string table holds {len(text)}"
            )
        # each bound is checked over byte planes; max() finds the value to
        # name only when a check fails
        if not all(_all_below(data, n_strings) for data in string_data):
            string_columns = (lemmas, grams, traits, flexes, compound_forms, fold_keys, fold_forms)
            top = max(map(max, filter(None, string_columns)))
            raise CorruptFile(f"string id {top}, but there are {n_strings} strings")
        if sum(edge_counts) != n_transitions:
            raise CorruptFile(
                f"states have {sum(edge_counts)} edges, but the header counts {n_transitions}"
            )
        if not _all_below(*target_data, n_states):
            raise CorruptFile(f"edge to state {max(targets)}, but there are {n_states} states")
        # few distinct labels, so checking each once is cheap
        invalid = [cp for cp in set(chars) if cp > 0x10FFFF or 0xD800 <= cp <= 0xDFFF]
        if invalid:
            raise CorruptFile(f"edge labelled with invalid code point {min(invalid):#x}")
        if not all(_all_below(data, n_analyses) for data in analysis_data):
            top = max(max(form_ids, default=-1), max(compound_ids, default=-1))
            raise CorruptFile(f"analysis id {top}, but there are {n_analyses} analyses")
        self._offsets = _rank_offsets(finals, edge_counts, chars, targets, n_forms)
        self._finals, self._edge_counts, self._chars, self._targets = (
            finals, edge_counts, chars, targets
        )

        # entry_for leaves out DictEntry's checks, so no lemma or code may
        # be empty, and token_matches_form reads a form's first character;
        # _pack writes each string once, so one id is searched
        lengths_data, *searched = searched
        empty = _find_u32(lengths_data, 0)
        if empty >= 0:
            again = _find_u32(lengths_data, 0, empty + 1)
            if again >= 0:
                raise CorruptFile(f"strings {empty} and {again} are both empty")
            for problem, data in zip(
                (
                    "analysis {} has an empty lemma",
                    "analysis {} has an empty grammatical code",
                    # _TOKEN_RE matches every character, so only the empty
                    # form has no tokens
                    "compound '' has no tokens",
                    "fold-extra form {} is empty",
                ),
                searched,
            ):
                found = _find_u32(data, empty)
                if found >= 0:
                    raise CorruptFile(problem.format(found))
        self._text, self._lengths = text, lengths
        self._compound_form_ids = compound_forms
        self._fold_keys, self._fold_counts, self._fold_forms = fold_keys, fold_counts, fold_forms
        self._trait_parts = {}             # traits string id -> its traits
        self._flex_parts = {}              # flex codes string id -> its codes
        self._tries = {}                   # a compound_index key -> the trie of its compounds
        self.stats = LexiconStats(
            entry_count=entry_count,
            unique_form_count=n_forms + n_compounds,
            unique_form_count_folded=folded_count,
            state_count=n_states,
            transition_count=n_transitions,
            analysis_count=n_analyses,
            compound_count=n_compounds,
        )
        self._payload = payload            # the compressed payload, as saved

    # -- tables built from the checked columns when first read --------------

    @cached_property
    def _states(self) -> list:
        """states[i] = (final, {char: (target, index_offset)})"""
        hops = zip(map(chr, self._chars), zip(self._targets, self._offsets))
        return [(bool(f), dict(islice(hops, n))) for f, n in zip(self._finals, self._edge_counts)]

    @cached_property
    def _strings(self) -> list[str]:
        text, ends = self._text, list(accumulate(self._lengths))
        return [text[a:b] for a, b in zip(chain((0,), ends), ends)]

    @cached_property
    def _compound_forms(self) -> list[str]:
        return list(map(self._strings.__getitem__, self._compound_form_ids))

    @cached_property
    def _compound_index(self) -> dict:
        """The fold_key of the first token -> the compounds it starts."""
        index = {}
        for ci, form in enumerate(self._compound_forms):
            index.setdefault(fold_key(_TOKEN_RE.match(form).group()), []).append(ci)
        return index

    @cached_property
    def _fold_extra(self) -> dict:
        """fold_key -> the forms other than the key that have it"""
        strings = self._strings
        forms = map(strings.__getitem__, self._fold_forms)
        return {
            strings[k]: tuple(islice(forms, n))
            for k, n in zip(self._fold_keys, self._fold_counts)
        }

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
        return Analysis(*self._analysis_fields(analysis_id))

    def _analysis_fields(self, analysis_id: int) -> tuple:
        strings = self._strings
        return (
            strings[self._lemmas[analysis_id]],
            strings[self._grams[analysis_id]],
            self._parts(self._trait_parts, self._traits[analysis_id], "+"),
            self._parts(self._flex_parts, self._flexes[analysis_id], ":"),
        )

    def _parts(self, cache, string_id, sep) -> tuple[str, ...]:
        """The parts of a joined string, split on its first use."""
        parts = cache.get(string_id)
        if parts is None:
            joined = self._strings[string_id]
            parts = cache[string_id] = tuple(joined.split(sep)) if joined else ()
        return parts

    def analysis_roles(self, analysis_id: int) -> frozenset:
        """The roles of an analysis; a mask byte's other bits name no role."""
        mask = self._masks[analysis_id]
        return frozenset(role for role, bit in _ROLE_BITS.items() if mask & bit)

    def entry_for(self, form: str, analysis_id: int) -> DictEntry:
        """The entry of ``form``, a form this lexicon matched, with an
        analysis of it.  Load refused every empty lemma and code, so the
        entry is built without DictEntry's checks."""
        return tuple.__new__(DictEntry, (form, *self._analysis_fields(analysis_id)))

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
                    offsets = self._form_offsets
                    result[form] = tuple(self._form_ids[offsets[idx] : offsets[idx + 1]])
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

    def match_compounds(
        self, kinds, texts, policy=CaseFoldPolicy.UNITEX_LIKE, start=0, stop=None
    ):
        """All multiword matches anchored at token ``start``, longest first.

        ``kinds`` and ``texts`` are token columns (see :class:`TokenStream`);
        ``texts[start:stop]`` must lie in one sentence, and ``stop``
        defaults to the columns' end.  Returns a list of (token_span,
        compound_form, analysis_ids).

        The columns are walked from ``start`` down the trie of the
        compounds whose first token shares the anchor's :func:`fold_key`
        (:meth:`_trie`).  The walk decides every token but a word's case:
        a compound ending at a node reached matches when each of its words
        passes :func:`token_matches_form`.
        """
        if stop is None:
            stop = len(texts)
        if start >= stop or kinds[start] is not TokenKind.WORD:
            return []
        key = fold_key(texts[start])
        trie = self._tries.get(key)
        if trie is None:
            if key not in self._compound_index:
                return []
            trie = self._tries[key] = self._trie(self._compound_index[key])
        edges, ends = trie
        matches = []
        node = 0  # the root
        for i in range(start, stop):
            kind, text = kinds[i], texts[i]
            # a space token takes a form's space edge only if it is " "
            node = edges.get((node, kind, fold_key(text) if kind is TokenKind.WORD else text))
            if node is None:
                break
            for ci, words in ends.get(node, ()):
                if all(token_matches_form(texts[start + p], w, policy) for p, w in words):
                    matches.append((i + 1 - start, ci))
        matches.sort(key=lambda m: (-m[0], m[1]))  # longest first, then entry order
        offsets, ids = self._compound_offsets, self._compound_ids
        return [
            (span, self._compound_forms[ci], tuple(ids[offsets[ci] : offsets[ci + 1]]))
            for span, ci in matches
        ]

    def _trie(self, compounds):
        """The trie of these compounds' forms, as two dicts: ``edges`` maps
        (node, token kind, token key) to the child node, and ``ends`` maps
        a node to the compounds whose form ends there, in entry order, as
        (compound, its words as (token position, text) pairs).  Nodes are
        numbers, the root 0.

        A word token's key is its :func:`fold_key`, which two texts share
        whenever :func:`token_matches_form` holds; a space token's is " ",
        so that a form's space matches a single space; any other token's
        key is its text.  So a path decides every token of a match but a
        word's case, which the pairs are kept for.
        """
        edges, ends = {}, {}
        for ci in compounds:
            node = 0
            words = []
            for p, (kind, text) in enumerate(zip(*token_columns(self._compound_forms[ci]))):
                if kind is TokenKind.WORD:
                    words.append((p, text))
                    text = fold_key(text)
                elif kind is TokenKind.SPACE:
                    text = " "
                node = edges.setdefault((node, kind, text), len(edges) + 1)
            ends.setdefault(node, []).append((ci, words))
        return edges, ends


def compile_lexicon(dicts: list[DictFile]) -> Lexicon:
    """Compile DictFiles into a Lexicon.

    Identical (form, analysis) pairs are deduplicated.  Entries carrying
    several ':'-groups are expanded into one analysis per inflectional
    reading.  Each file's entries are read once, by position, so they may
    be an iterator (:func:`lexcov.delaf.iter_dict_entries`) and plain
    5-tuples in :class:`~lexcov.delaf.DictEntry` field order.  The lexicon is
    read from the payload it packs, as :func:`load_lexicon` reads a file,
    so it passes every check a load makes.
    """
    raw = _pack(dicts)
    return Lexicon(raw, zlib.compress(raw, 6))


def _pack(dicts) -> bytes:
    """The uncompressed ``.lex`` payload of DictFiles (docs/lexicon-binary.md)."""
    analysis_ids = {}  # (lemma, gram_code, sem_traits, flex code or "") -> analysis id
    masks = []         # analysis id -> role bits
    simple = {}        # form -> analysis id, or a set of ids once it has two
    compounds = {}     # form -> ordered dict of analysis ids (insertion order)
    entry_count = 0
    for dfile in dicts or []:
        bit = _ROLE_BITS[dfile.role_tag]
        for form, lemma, gram_code, sem_traits, flex_codes in dfile.entries:
            entry_count += 1
            multiword = " " in form  # a form with a space is a compound
            # one analysis per flex code, keyed on the code itself
            for flex in flex_codes or ("",):
                key = (lemma, gram_code, sem_traits, flex)
                aid = analysis_ids.get(key)
                if aid is None:
                    aid = analysis_ids[key] = len(masks)
                    masks.append(bit)
                else:
                    masks[aid] |= bit
                if multiword:
                    compounds.setdefault(form, {})[aid] = None
                    continue
                held = simple.setdefault(form, aid)
                if held == aid:
                    continue
                if type(held) is int:
                    simple[form] = {held, aid}
                else:
                    held.add(aid)
    if entry_count == 0:
        raise EmptyLexicon("no entries to compile")

    sorted_forms = sorted(simple)
    # by rank, each form's analysis count, and its ids back to back
    form_counts, form_ids = array(_U32), array(_U32)
    for held in map(simple.__getitem__, sorted_forms):
        if type(held) is int:
            form_counts.append(1)
            form_ids.append(held)
        else:
            form_counts.append(len(held))
            form_ids.extend(sorted(held))
    folded_count = _folded_count(
        chain(sorted_forms, compounds), lambda f: f in simple or f in compounds
    )
    # not read again; freed here, it is not held through the DAFSA build
    # and the columns, where a 1M-form compile reached its peak RSS
    del simple
    finals, edge_counts, chars, targets = _build_dafsa(sorted_forms)
    fold_extra = {}
    # fold_key of each form, streamed at C speed
    for key, form in zip(map(str.casefold, map(str.upper, sorted_forms)), sorted_forms):
        if key != form:
            fold_extra.setdefault(key, []).append(form)
    fold_keys = sorted(fold_extra)
    fold_forms = list(map(fold_extra.get, fold_keys))

    # the string columns, in column order; the string table numbers each
    # string in order of its first use there
    string_columns = [
        list(map(itemgetter(0), analysis_ids)),
        list(map(itemgetter(1), analysis_ids)),
        list(map("+".join, map(itemgetter(2), analysis_ids))),
        list(map(itemgetter(3), analysis_ids)),
        list(compounds),
        fold_keys,
        list(chain.from_iterable(fold_forms)),
    ]
    first_use = dict.fromkeys(chain.from_iterable(string_columns))
    strings = dict(zip(first_use, range(len(first_use))))  # string -> its id
    lemmas, grams, traits, flexes, compound_forms, key_ids, fold_form_ids = (
        _column(map(strings.__getitem__, col)) for col in string_columns
    )
    sections = [
        lemmas,
        grams,
        traits,
        flexes,
        array("B", masks),
        array("B", finals),
        _column(edge_counts),
        _column(chars),
        _column(targets),
        _column(form_counts),
        _column(form_ids),
        compound_forms,
        _column(map(len, compounds.values())),
        _column(chain.from_iterable(compounds.values())),
        key_ids,
        _column(map(len, fold_forms)),
        fold_form_ids,
    ]
    text = "".join(strings).encode("utf-8")
    header = _HEADER.pack(
        entry_count,
        len(sorted_forms),
        folded_count,
        len(finals),
        len(targets),
        len(masks),
        len(compounds),
        len(fold_keys),
        len(strings),
        len(text),
    )
    return b"".join([header, _column(map(len, strings)), text, *sections])


def _folded_count(forms, is_form) -> int:
    """``len({f.casefold() for f in forms})`` for unique ``forms``, with
    ``is_form`` their membership test, holding only the casefolds that
    differ from their form."""
    unchanged = 0
    recased = set()
    for form in forms:
        folded = form.casefold()
        if folded == form:
            unchanged += 1
        else:
            recased.add(folded)
    # a recased form that is itself an unchanged form is counted already
    return unchanged + sum(1 for f in recased if not (is_form(f) and f.casefold() == f))


def _build_dafsa(sorted_forms):
    """Minimal acyclic automaton over a sorted list of unique keys.

    Returns its columns ``(finals, edge_counts, chars, targets)`` as
    :func:`_rank_offsets` reads them: state 0 is the root, and each state's
    edges are in code-point order.
    """
    # The forms that share a prefix are a range of the sorted list, and
    # the state that prefix reaches accepts their rest.  A range of two
    # or more forms is read down to its branch depth, the common prefix of
    # its first and last form; there, each label's forms are the sub-range
    # up to the first form at or after ``prefix + next label``, and each
    # sub-range's state is built before the branch state.  A range of one
    # form is a chain of states for its rest (its tail), kept per tail.
    # A state is registered under its key, (final, char, state id, char,
    # state id, ...), its edges in code-point order, so states with equal
    # right languages are one state.  Work is done per branch point and
    # per character of a new tail or of a chain above a branch point.
    forms = sorted_forms
    if not forms:  # a lexicon of compounds alone: a root that accepts none
        return [False], [0], [], []
    register = {}
    keys = []  # state id -> key
    tails = {}  # the tail of a one-form range -> its state

    def add(key):
        state = register.get(key)
        if state is None:
            state = register[key] = len(keys)
            keys.append(key)
        return state

    def tail_state(tail):
        state = tails.get(tail)
        if state is None:
            state = add((True,))
            for ch in reversed(tail):
                state = add((False, ch, state))
            tails[tail] = state
        return state

    root = [None]
    # a task builds the state of forms[lo:hi] past their first ``depth``
    # characters into out[at]; a task whose lo is None registers a branch
    # state from its key, whose children are built by then, and the chain
    # of characters above it
    tasks = [(0, len(forms), 0, root, 0)]
    while tasks:
        lo, hi, depth, out, at = tasks.pop()
        if lo is None:
            state = add(tuple(hi))
            for ch in reversed(depth):
                state = add((False, ch, state))
            out[at] = state
            continue
        first = forms[lo]
        if hi - lo == 1:
            out[at] = tail_state(first[depth:])
            continue
        last = forms[hi - 1]
        # no form is a prefix of first but first itself, so first ends at
        # the branch depth or passes it
        branch, end = depth, len(first)
        while branch < end and first[branch] == last[branch]:
            branch += 1
        key = [branch == end]
        tasks.append((None, key, first[depth:branch], out, at))
        if key[0]:
            lo += 1
        prefix = first[:branch]
        while lo < hi:
            label = forms[lo][branch]
            # the last form ends every range its label starts, which is
            # how the top code point's range ends too
            if hi - lo == 1 or last[branch] == label:
                stop = hi
            else:
                stop = bisect_left(forms, prefix + chr(ord(label) + 1), lo + 1, hi)
            if stop - lo == 1:
                key += (label, tail_state(forms[lo][branch + 1 :]))
            else:
                key += (label, None)
                tasks.append((lo, stop, branch + 1, key, len(key) - 1))
            lo = stop
    root = root[0]

    # number states (DFS preorder, sorted edges)
    number = [-1] * len(keys)
    number[root] = 0
    order = [root]
    stack = [root]
    while stack:
        for child in reversed(keys[stack.pop()][2::2]):
            if number[child] < 0:
                number[child] = len(order)
                order.append(child)
                stack.append(child)

    finals, edge_counts, chars, targets = [], [], [], []
    for state in order:
        key = keys[state]
        finals.append(key[0])
        edge_counts.append(len(key) >> 1)
        chars += map(ord, key[1::2])
        targets += map(number.__getitem__, key[2::2])
    return finals, edge_counts, chars, targets


def _rank_offsets(finals, edge_counts, chars, targets, n_forms) -> array:
    """The offset of each edge of the automaton whose columns these are:
    state s is final if ``finals[s]`` and has the next ``edge_counts[s]``
    edges, each a code point and a target state.

    An edge's offset is 1 if its state is final, plus the forms accepted
    below the state's earlier edges (Lucchesi & Kowaltowski 1993), so the
    offsets summed along a form's path give its rank in code-point order.
    One depth-first pass counts each state's forms bottom-up and writes
    the offsets.  Raises CorruptFile if the pass meets a cycle, a state
    whose edge labels do not strictly ascend, a state other than the root
    that accepts no form, or a root that does not accept ``n_forms``
    forms; otherwise every rank a lookup sums lies below ``n_forms``, and
    it is the rank of the form read.
    """
    first = [0, *accumulate(edge_counts)]  # state s's edges: first[s]..first[s+1]
    counts = [-1] * len(finals)            # -1 until the state is counted
    offsets = array(_U32, bytes(4 * len(targets)))
    on_path = bytearray(len(finals))
    # a state's targets mostly have higher numbers, so most are counted
    # before it is reached: such a state is finished here, and only one
    # with an uncounted target enters the stack walk, at that edge
    for start in range(len(finals) - 1, -1, -1):
        if counts[start] >= 0:
            continue
        edge, end = first[start], first[start + 1]
        acc, label = 1 if finals[start] else 0, -1
        while edge < end:
            count = counts[targets[edge]]
            if count < 0:
                break
            char = chars[edge]
            if char <= label:
                raise _misordered(start, label, char)
            label = char
            offsets[edge] = acc
            acc += count
            edge += 1
        else:
            counts[start] = acc
            continue
        on_path[start] = 1
        # (state, its next edge, the forms below its earlier edges, the
        # label of its last edge counted or -1)
        stack = [(start, edge, acc, label)]
        while stack:
            state, edge, acc, label = stack.pop()
            end = first[state + 1]
            while edge < end:
                count = counts[targets[edge]]
                if count < 0:
                    break
                char = chars[edge]
                if char <= label:
                    raise _misordered(state, label, char)
                label = char
                offsets[edge] = acc
                acc += count
                edge += 1
            else:
                counts[state] = acc
                on_path[state] = 0
                continue
            target = targets[edge]
            if on_path[target]:
                raise CorruptFile(f"the automaton has a cycle through state {target}")
            on_path[target] = 1
            stack.append((state, edge, acc, label))
            stack.append((target, first[target], 1 if finals[target] else 0, -1))
    if counts[0] != n_forms:
        raise CorruptFile(
            f"the automaton's form count is {counts[0]}, the form table's {n_forms}"
        )
    # compile keeps no state that leads to no form; only the root of a
    # lexicon of compounds alone accepts none
    if 0 in islice(counts, 1, None):
        raise CorruptFile(f"state {counts.index(0, 1)} accepts no form")
    return offsets


def _misordered(state, label, char) -> CorruptFile:
    """The error for a state's edge labelled ``char`` after one labelled
    ``label``, where labels must strictly ascend."""
    return CorruptFile(
        f"state {state} has two edges labelled {chr(char)!r}"
        if char == label
        else f"state {state}'s edges {chr(label)!r} and {chr(char)!r} are out of code-point order"
    )


# -- binary format ----------------------------------------------------------

_MAGIC = b"LXCV"
_FORMAT_VERSION = 5
# entry, simple-form, folded-form, state and transition counts (u64);
# analysis, compound, fold-extra and string counts (u32);
# string table size in bytes (u64)
_HEADER = struct.Struct("<QQQQQIIIIQ")
# columns are u8 and little-endian u32, a u32 column stored as four byte
# planes; array typecodes name C types, so the u32 code is the one of that
# item size on this platform
_U32 = next(code for code in "IL" if array(code).itemsize == 4)
_SWAP = sys.byteorder == "big"


def _column(values) -> bytes:
    """The values as a u32 column, ready to be joined: the four byte planes
    of its little-endian items, the least significant first, so that
    deflate meets the mostly zero high bytes in runs.  A u32 array is
    taken as it is, not copied."""
    col = values if type(values) is array else array(_U32, values)
    if _SWAP:
        col.byteswap()
    data = col.tobytes()
    return b"".join([data[0::4], data[1::4], data[2::4], data[3::4]])


def _interleave(planes) -> bytearray:
    """The little-endian items of the u32 column whose byte planes, as
    :func:`_column` writes them, are ``planes``."""
    count = len(planes) >> 2
    data = bytearray(len(planes))
    for k in range(4):
        data[k::4] = planes[k * count : (k + 1) * count]
    return data


def _all_below(planes, n: int) -> bool:
    """``max(col, default=-1) < n`` for the u32 column ``col`` whose byte
    planes, as :func:`_column` writes them, are ``planes``, at C speed:
    each plane is compared with that byte of ``n - 1``, the most
    significant first, and only the positions that tie on every higher
    plane are compared on the next, through an ``int`` bit mask once they
    are not all of them."""
    if n > 0xFFFFFFFF:
        return True
    if n <= 0:
        return n == 0 and not planes
    count, top = len(planes) >> 2, n - 1
    tie = None  # the positions tying so far, one bit each; None: all of them
    for shift in (24, 16, 8, 0):
        at = (shift >> 3) * count
        plane = bytes(planes[at : at + count])
        k = (top >> shift) & 255
        if tie is None:
            if plane.translate(None, bytes(range(k + 1))):
                return False  # a byte above k
            ties = plane.count(k)
            if ties == 0:
                return True
            if ties < len(plane):
                tie = int.from_bytes(plane.translate(bytes(k) + b"\1" + bytes(255 - k)), "little")
            continue
        if tie & int.from_bytes(plane.translate(bytes(k + 1) + b"\1" * (255 - k)), "little"):
            return False
        tie &= int.from_bytes(plane.translate(bytes(k) + b"\1" + bytes(255 - k)), "little")
        if not tie:
            return True
    return True  # what still ties equals n - 1


def _find_u32(data, value: int, start: int = 0) -> int:
    """The first position at or after ``start`` that holds ``value`` in
    ``data``, the little-endian bytes of a u32 column, or -1; a search of
    those bytes in place, at C speed."""
    needle = value.to_bytes(4, "little")
    found = data.find(needle, 4 * start)
    while found > 0 and found % 4:  # a match that straddles two items
        found = data.find(needle, found + 1)
    return found if found < 0 else found // 4


def save_lexicon(lex: Lexicon, path) -> None:
    """Write the versioned, checksummed binary form (docs/lexicon-binary.md)
    around the payload the lexicon was read from.  The file is written
    beside ``path`` as ``PATH.partial`` and then renamed over it, so a
    write that fails leaves any earlier file at ``path`` as it was."""
    payload = lex._payload
    partial = f"{os.fspath(path)}.partial"
    try:
        with open(partial, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<HQ", _FORMAT_VERSION, len(payload)))
            fh.write(hashlib.sha256(payload).digest())
            fh.write(payload)
        os.replace(partial, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(partial)
        raise


def load_lexicon(path) -> Lexicon:
    """Inverse of :func:`save_lexicon`.

    Raises CorruptFile for a file whose payload, checksum aside, is not
    one :func:`compile_lexicon` packs, so that no broken file fails later
    in a lookup; and FormatVersionMismatch for any other format version.
    """
    with open(path, "rb") as fh:
        data = fh.read()
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
        return Lexicon(raw, payload)
    except CorruptFile as exc:
        raise CorruptFile(f"{path}: {exc}") from None

