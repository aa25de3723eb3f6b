"""DELAF entry model and text-format parsing/serialization.

The accepted line grammar is::

    form ',' lemma '.' gram_code ('+' sem_trait)* (':' flex_code)*

``\\,`` escapes a literal comma inside form/lemma, ``\\.`` a dot inside a
lemma, and ``\\\\`` a backslash; a backslash before any other character
stands for that character.  An empty lemma field means "lemma equals the
surface form".  A form may not begin or end with whitespace.
The normative format description lives in docs/delaf-format.md.
"""

from __future__ import annotations

import enum
import os
from collections import namedtuple
from collections.abc import Iterator

from .errors import MalformedEntry, decoding


class RoleTag(enum.Enum):
    """Which logical dictionary a file plays in a run."""

    GENERAL = "general"
    ABBREVIATIONS_ACRONYMS = "abbreviations_acronyms"
    USER = "user"


class DictEntry(namedtuple("DictEntry", "surface_form lemma gram_code sem_traits flex_codes")):
    """One DELAF line: an inflected form with its analysis.

    It is a tuple, so it compares equal to the plain 5-tuple of its
    fields."""

    __slots__ = ()

    def __new__(
        cls,
        surface_form: str,
        lemma: str,
        gram_code: str,
        sem_traits: tuple[str, ...] = (),
        flex_codes: tuple[str, ...] = (),
    ):
        if not surface_form:
            raise ValueError("surface_form must be non-empty")
        if not lemma:
            raise ValueError("lemma must be non-empty")
        if not gram_code:
            raise ValueError("gram_code must be non-empty")
        return tuple.__new__(cls, (surface_form, lemma, gram_code, sem_traits, flex_codes))


class DictFile(namedtuple("DictFile", "entries role_tag", defaults=(RoleTag.GENERAL,))):
    """An ordered collection of entries loaded from one DELAF file.

    ``entries`` is an iterable of :class:`DictEntry` or of plain 5-tuples
    in its field order: :func:`load_dict_file` gives a list; a reader that
    needs one pass, such as the compiler, may hold :func:`iter_dict_entries`
    instead.  ``role_tag`` is a :class:`RoleTag`."""

    __slots__ = ()


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace(",", "\\,")


def _scan_field(
    line: str, start: int, terminators: str, line_number: int | None
) -> tuple[str, int]:
    """Read an escaped field until one of ``terminators``.

    Returns the unescaped field text and the index of the terminator (or
    end of line).
    """
    out = []
    i = start
    n = len(line)
    while i < n:
        ch = line[i]
        if ch == "\\":
            if i + 1 >= n:
                raise MalformedEntry("dangling backslash", line, i, line_number)
            out.append(line[i + 1])
            i += 2
            continue
        if ch in terminators:
            return "".join(out), i
        out.append(ch)
        i += 1
    return "".join(out), n


def parse_entry(line: str, line_number: int | None = None) -> DictEntry:
    """Parse a single DELAF line into a DictEntry.

    A line with no ``\\`` is split at its first ``,`` and the first ``.``
    after it; any other line, and any line that split does not accept or
    whose form begins or ends with whitespace, is read by the escape-aware
    scanner, which reports what is wrong with it.
    Raises MalformedEntry if the line does not match the grammar.
    """
    form, _, rest = line.partition(",")
    lemma, dot, codes = rest.partition(".")
    if not (form and dot) or "\\" in line or form.strip() != form:
        form, i = _scan_field(line, 0, ",", line_number)
        if i >= len(line):
            raise MalformedEntry("missing ',' separator", line, len(line), line_number)
        if not form:
            raise MalformedEntry("empty surface form", line, 0, line_number)
        # an edge space would make a compound that covers a space, and any
        # edge whitespace a form that never matches (the corpus's tabs
        # become spaces); the column is the first or last character's
        edges = ((form[0], "begins", 1 if line[0] == "\\" else 0), (form[-1], "ends", i - 1))
        for ch, edge, at in edges:
            if ch.isspace():
                what = "a space" if ch == " " else f"whitespace {ch!r}"
                raise MalformedEntry(f"surface form {edge} with {what}", line, at, line_number)
        lemma, j = _scan_field(line, i + 1, ".", line_number)
        if j >= len(line):
            raise MalformedEntry("missing '.' separator", line, len(line), line_number)
        codes = line[j + 1 :]
    gram_code, sem_traits, flex_codes = _parse_codes(codes, line, line_number)
    # what DictEntry's constructor checks holds already
    return tuple.__new__(DictEntry, (form, lemma or form, gram_code, sem_traits, flex_codes))


def _parse_codes(codes: str, line: str, line_number: int | None) -> tuple:
    """The gram code, the traits and the flex codes of ``codes``, the text
    after the ``.`` that ends ``line``'s lemma."""
    at = len(line) - len(codes)  # where the codes start
    code_part, colon, flex_part = codes.partition(":")
    if colon and not flex_part:
        raise MalformedEntry("empty inflectional code", line, at, line_number)
    pieces = code_part.split("+")
    gram_code = pieces[0]
    if not gram_code:
        raise MalformedEntry("empty grammatical code", line, at, line_number)
    sem_traits = pieces[1:]
    if "" in sem_traits:
        raise MalformedEntry("empty semantic trait", line, at, line_number)
    flex_codes = flex_part.split(":") if flex_part else []
    if "" in flex_codes:
        raise MalformedEntry("empty inflectional code", line, at, line_number)
    return gram_code, tuple(sem_traits), tuple(flex_codes)


def serialize_entry(entry: DictEntry) -> str:
    """Emit the canonical DELAF line for an entry."""
    # the lemma field ends at a "."; the form field at a ","
    lemma = "" if entry.lemma == entry.surface_form else _escape(entry.lemma).replace(".", "\\.")
    line = f"{_escape(entry.surface_form)},{lemma}.{entry.gram_code}"
    if entry.sem_traits:
        line += "+" + "+".join(entry.sem_traits)
    if entry.flex_codes:
        line += ":" + ":".join(entry.flex_codes)
    return line


def _read_entries(path: str | os.PathLike, codes_of: dict) -> Iterator[tuple]:
    """The entries of a DELAF text file as plain 5-tuples in
    :class:`DictEntry` field order, read line by line, in file order.

    A leading BOM is dropped, lines end at ``\\n`` (a ``\\r`` before it is
    dropped, a lone ``\\r`` is part of its line) and blank lines are
    skipped; line numbers in errors count every line, and an error
    carries ``path``.

    The lines of a dictionary repeat a few codes texts (the text after the
    lemma's ``.``), so ``codes_of`` maps each one parsed to its gram code,
    traits and flex codes; a text parses the same way on every line, so
    one dict may serve every file a command reads.  A text that fails is
    not kept, so each line that holds it raises its own error.  A line
    that needs the scanner goes to :func:`parse_entry` whole.
    """
    with open(path, encoding="utf-8-sig", newline="\n") as fh, decoding(path):
        try:
            for line_number, raw in enumerate(fh, start=1):
                line = raw.rstrip("\r\n")
                form, _, rest = line.partition(",")
                lemma, dot, codes = rest.partition(".")
                # a blank line has no "." and never passes this split
                if not (form and dot) or "\\" in line or form.strip() != form:
                    if line and not line.isspace():
                        yield parse_entry(line, line_number)
                    continue
                parsed = codes_of.get(codes)
                if parsed is None:
                    parsed = codes_of[codes] = _parse_codes(codes, line, line_number)
                yield (form, lemma or form) + parsed
        except MalformedEntry as exc:
            exc.path = path
            raise


def iter_dict_entries(path: str | os.PathLike) -> Iterator[DictEntry]:
    """The entries of a DELAF text file as :class:`DictEntry`, read as
    :func:`_read_entries` reads them."""
    return map(DictEntry._make, _read_entries(path, {}))


def load_dict_file(path: str | os.PathLike, role_tag: RoleTag = RoleTag.GENERAL) -> DictFile:
    """Load a DELAF text file into a DictFile whose entries are a list."""
    return DictFile(list(iter_dict_entries(path)), role_tag)


def save_dict_file(dict_file: DictFile, path: str | os.PathLike) -> None:
    """Write a DictFile in canonical form: serialized lines sorted by code point."""
    lines = sorted(serialize_entry(e) for e in dict_file.entries)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n" if lines else "")
