"""Independent brute-force oracles used to cross-check the implementation.

Everything here is deliberately naive: hash maps, pairwise comparisons,
O(n*m) dynamic programming.  None of it shares code with the package
internals it checks.
"""

from __future__ import annotations

from lexcov.delaf import DictEntry
from lexcov.errors import MalformedEntry


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
