import os
import tempfile
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from lexcov.automaton import _pack, compile_lexicon
from lexcov.delaf import (
    DictEntry,
    DictFile,
    RoleTag,
    _read_entries,
    iter_dict_entries,
    load_dict_file,
    parse_entry,
    save_dict_file,
    serialize_entry,
)
from lexcov.errors import MalformedEntry

from oracles import oracle_parse_entry, oracle_serialize


class TestParseEntry:
    def test_verb_form(self):
        entry = parse_entry("sambou,sambar.V:J3s")
        assert entry == DictEntry("sambou", "sambar", "V", (), ("J3s",))

    def test_empty_lemma_means_surface_form(self):
        entry = parse_entry("atrás,.ADV")
        assert entry.surface_form == "atrás"
        assert entry.lemma == "atrás"
        assert entry.gram_code == "ADV"
        assert entry.sem_traits == () and entry.flex_codes == ()

    def test_sem_traits(self):
        entry = parse_entry("do,.PREPXD+Art+Def:ms")
        assert entry.gram_code == "PREPXD"
        assert entry.sem_traits == ("Art", "Def")
        assert entry.flex_codes == ("ms",)

    def test_imperfect(self):
        entry = parse_entry("corria,correr.V:I1s")
        assert entry.lemma == "correr"
        assert entry.flex_codes == ("I1s",)

    def test_multiple_flex_readings(self):
        entry = parse_entry("corria,correr.V:I1s:I3s")
        assert entry.flex_codes == ("I1s", "I3s")

    def test_escaped_comma(self):
        entry = parse_entry(r"bate\,boca,.N:ms")
        assert entry.surface_form == "bate,boca"

    def test_escaped_backslash(self):
        entry = parse_entry(r"a\\b,.N")
        assert entry.surface_form == "a\\b"

    def test_multiword(self):
        # the space stays in the form, and a form with one is a compound
        entries = [parse_entry("por exemplo,.ADV"), parse_entry("exemplo,.N:ms")]
        assert entries[0].surface_form == "por exemplo"
        assert compile_lexicon([DictFile(entries)]).stats.compound_count == 1

    @pytest.mark.parametrize(
        "bad",
        [
            "no separators at all",
            "semcomma.V",
            "form,lemma no dot",
            ",.V",
            "form,lemma.",
            "x,.V+",
            "x,.V:",
            "x,.V:a:",
            "trailing\\",
        ],
    )
    def test_malformed(self, bad):
        with pytest.raises(MalformedEntry):
            parse_entry(bad)

    @pytest.mark.parametrize(
        "line, message, column",
        [
            ("casa ,.N", "ends", 4),
            (" nova,.A", "begins", 0),
            ("por exemplo ,.ADV", "ends", 11),
            ("\\ nova,.A", "begins", 1),
            ("casa\\ ,.N", "ends", 5),
            (" ,.N", "begins", 0),
        ],
    )
    def test_form_with_an_edge_space(self, tmp_path, line, message, column):
        # such a form would be a compound that covers a word and the space
        # after it, or one that never matches
        path = tmp_path / "d.dic"
        path.write_text(f"a,.N\n{line}\n", encoding="utf-8")
        for parse in (lambda: parse_entry(line, 2), lambda: list(iter_dict_entries(path))):
            with pytest.raises(MalformedEntry) as exc:
                parse()
            assert str(exc.value) == (
                f"line 2, col {column}: surface form {message} with a space: {line!r}"
            )
        # a DictEntry built in code is not checked
        assert DictEntry("casa ", "casa", "N").surface_form == "casa "

    @pytest.mark.parametrize(
        "line, message, column",
        [
            ("casa\t,.N", "ends with whitespace '\\t'", 4),
            ("\tnova,.A", "begins with whitespace '\\t'", 0),
            ("\\\tnova,.A", "begins with whitespace '\\t'", 1),
            ("casa\xa0,.N", "ends with whitespace '\\xa0'", 4),
            ("casa\r,.N", "ends with whitespace '\\r'", 4),
            ("de\u3000casa\x0c,.N", "ends with whitespace '\\x0c'", 7),
        ],
    )
    def test_form_with_edge_whitespace(self, tmp_path, line, message, column):
        # the corpus's tabs become spaces, so such a form never matches; a
        # space is named as in the test above, other whitespace by its repr
        path = tmp_path / "d.dic"
        path.write_text(f"a,.N\n{line}\n", encoding="utf-8", newline="")
        for parse in (lambda: parse_entry(line, 2), lambda: list(iter_dict_entries(path))):
            with pytest.raises(MalformedEntry) as exc:
                parse()
            assert str(exc.value) == f"line 2, col {column}: surface form {message}: {line!r}"
        # whitespace inside a form is kept
        assert parse_entry("de\tcasa,.N").surface_form == "de\tcasa"

    def test_error_carries_line_and_column(self):
        with pytest.raises(MalformedEntry) as exc:
            parse_entry("semvirgula.V", line_number=7)
        assert exc.value.line == "semvirgula.V"
        assert exc.value.line_number == 7


def outcome(parse, line, line_number):
    try:
        return ("entry", parse(line, line_number))
    except MalformedEntry as exc:
        return ("MalformedEntry", str(exc), exc.line, exc.column, exc.line_number)


class TestParseMatchesScanner:
    """parse_entry splits unescaped lines itself; on every line it must
    agree with the scanner-only oracle, errors included."""

    @given(
        line=st.text(alphabet="aBç,.+:\\ \t\xa0"), line_number=st.none() | st.integers(1, 9)
    )
    def test_any_line(self, line, line_number):
        assert outcome(parse_entry, line, line_number) == outcome(
            oracle_parse_entry, line, line_number
        )

    @pytest.mark.parametrize(
        "line",
        ["a,b.V+x:y:z", "a,.V", ",.V", "a,b", "a.b,c.V", "a,b.", "a,b.V+", "a,b.V:",
         "a,b.+x", "a,b.V::y", "a\\,b,.V", "a,b\\.c.V", "a,b.V\\", "a,b.c.d:e"],
    )
    def test_examples(self, line):
        assert outcome(parse_entry, line, 3) == outcome(oracle_parse_entry, line, 3)


# well-formed lines repeat a few codes texts after plain and escaped forms
# and lemmas; a few other lines, inserted among them, may hold malformed
# codes, empty or escaped fields, or any text
GOOD_CODES = ["N", "V:J3s", "V+Hum:ms:fs", "ADV", "A.B"]
BAD_CODES = ["N+", "V:", "V::a", ":ms", "+a", ""]
FORMS = ["casa", "ç", "de casa", "a\\,b", "x\\\\y"]
EDGE_FORMS = ["casa\t", "\tcasa", "casa ", "\\\tç"]
GOOD_LINES = st.builds(
    lambda form, lemma, codes: f"{form},{lemma}.{codes}",
    st.sampled_from(FORMS),
    st.sampled_from(["", *FORMS]),
    st.sampled_from(GOOD_CODES),
)
OTHER_LINES = st.builds(
    lambda form, lemma, codes: f"{form},{lemma}.{codes}",
    st.sampled_from(["", "a.b", "a\\", *FORMS, *EDGE_FORMS]),
    st.sampled_from(["", "a.b", "a\\", *FORMS]),
    st.sampled_from(GOOD_CODES + BAD_CODES),
) | st.text(alphabet="aç,.+:\\ \t", max_size=12)


def with_others(lines, others):
    for at, line in others:
        lines.insert(at, line)
    return lines


# a file's lines: well-formed ones with a few others among them
FILE_LINES = st.builds(
    with_others,
    st.lists(GOOD_LINES, max_size=30),
    st.lists(st.tuples(st.integers(0, 30), OTHER_LINES), max_size=3),
)


def read_until_error(entries):
    """The entries an iterable yields before its first MalformedEntry, and
    that error's message, line, column, line number and path (None if
    none)."""
    read = []
    try:
        for entry in entries:
            read.append(entry)
    except MalformedEntry as exc:
        return read, (str(exc), exc.line, exc.column, exc.line_number, exc.path)
    return read, None


def oracle_file(lines, path):
    """The scanner-only oracle over a file's non-blank lines; an error
    carries ``path`` as the reader's does."""
    try:
        for number, line in enumerate(lines, start=1):
            if line.strip():
                yield oracle_parse_entry(line, number)
    except MalformedEntry as exc:
        exc.path = path
        raise


def write_lines(path, lines):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(line + "\n" for line in lines))


class TestStreamMatchesScanner:
    """The reader parses each distinct codes text once per command; read
    line by line, the scanner-only oracle must give the same entries and
    the same first error."""

    @settings(max_examples=300, deadline=None)
    @given(lines=FILE_LINES)
    def test_file(self, lines):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "d.dic")
            write_lines(path, lines)
            got = read_until_error(iter_dict_entries(path))
        assert got == read_until_error(oracle_file(lines, path))

    @settings(max_examples=300, deadline=None)
    @given(first=FILE_LINES, second=FILE_LINES)
    def test_two_files_share_one_codes_cache(self, first, second):
        # a codes text the first file parsed is read from the cache in the
        # second, and an error there names the second file and its line
        with tempfile.TemporaryDirectory() as tmp:
            paths = [os.path.join(tmp, "a.dic"), os.path.join(tmp, "b.dic")]
            for path, lines in zip(paths, (first, second)):
                write_lines(path, lines)
            codes_of = {}
            got = read_until_error(chain.from_iterable(_read_entries(p, codes_of) for p in paths))
        want = read_until_error(
            chain.from_iterable(map(oracle_file, (first, second), paths))
        )
        assert got == want


ESCAPABLE = st.text(alphabet="aç,.\\ +:", min_size=1, max_size=6)


def escape_field(text, ends):
    """``text`` as a DELAF field that ends at one of ``ends``: a backslash
    before each backslash and terminator, and before each ``a``, which it
    stands for too."""
    return "".join("\\" + ch if ch in ends or ch in "\\a" else ch for ch in text)


PACK_LINES = st.builds(
    lambda form, lemma, gram, traits, flex: "".join(
        [escape_field(form, ","), ",", escape_field(lemma, "."), ".", gram]
        + ["+" + t for t in traits]
        + [":" + f for f in flex]
    ),
    ESCAPABLE.filter(lambda s: not (s[0].isspace() or s[-1].isspace())),
    st.just("") | ESCAPABLE,
    st.sampled_from(["N", "V", "A.B"]),
    st.lists(st.sampled_from(["Hum", "z.w"]), max_size=2),
    st.lists(st.sampled_from(["ms", "fs", "J3s"]), max_size=3),
)


class TestReaderPacksAsParseEntry:
    """The compiled payload of the reader's plain tuples equals the one of
    parse_entry's entries, line by line, on files with escapes, traits,
    several ':' groups, blank lines, a BOM and CRLF line ends."""

    @settings(max_examples=200, deadline=None)
    @given(
        lines=st.lists(PACK_LINES | st.sampled_from(["", " ", "\t", " \x0c "]), max_size=25),
        entry=PACK_LINES,
        bom=st.booleans(),
        end=st.sampled_from(["\n", "\r\n"]),
    )
    def test_pack(self, lines, entry, bom, end):
        lines = [*lines, entry]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "d.dic")
            with open(path, "w", encoding="utf-8-sig" if bom else "utf-8", newline="") as fh:
                fh.write("".join(line + end for line in lines))
            got = _pack([DictFile(_read_entries(path, {}))])
        want = _pack([DictFile([parse_entry(line) for line in lines if line.strip()])])
        assert got == want


class TestSerializeEntry:
    def test_lemma_equal_to_form_is_elided(self):
        assert serialize_entry(DictEntry("atrás", "atrás", "ADV")) == "atrás,.ADV"

    def test_minimal(self):
        assert serialize_entry(DictEntry("x", "x", "N")) == "x,.N"

    def test_comma_reescaped(self):
        entry = DictEntry("bate,boca", "bate,boca", "N", (), ("ms",))
        assert serialize_entry(entry) == r"bate\,boca,.N:ms"

    def test_dot_in_lemma_escaped(self, tmp_path):
        # the lemma field ends at its first unescaped "."; the form's at ","
        line = r"Srs,Sr\..N:mp"
        entry = DictEntry("Srs", "Sr.", "N", (), ("mp",))
        assert parse_entry(line) == entry
        assert serialize_entry(entry) == line
        dotted = DictEntry("Sr.", "Sr.", "N")
        assert serialize_entry(dotted) == "Sr.,.N"
        path = tmp_path / "d.dic"
        save_dict_file(DictFile([entry, dotted]), path)
        assert path.read_text(encoding="utf-8") == "Sr.,.N\n" + line + "\n"
        assert load_dict_file(path).entries == [dotted, entry]


ENTRY_CHARS = st.text(
    alphabet="abçõé,. \\",
    min_size=1,
).filter(lambda s: s.strip())
# a form's text begins and ends with a character that is not a space
FORM_CHARS = ENTRY_CHARS.filter(lambda s: s[0] != " " and s[-1] != " ")


class TestRoundTrip:
    def test_fixture_file_round_trips(self, fixtures_dir):
        for name in ("neymar.dic", "sample.dic", "compounds.dic"):
            for line in (fixtures_dir / name).read_text().splitlines():
                if line.strip():
                    # these fixtures are already canonical
                    assert serialize_entry(parse_entry(line)) == line

    @given(
        form=FORM_CHARS,
        lemma=st.one_of(st.just(""), ENTRY_CHARS),
        gram=st.text(alphabet="VNA", min_size=1, max_size=4),
        sems=st.lists(st.text(alphabet="DefArt", min_size=1, max_size=4), max_size=3),
        flexes=st.lists(st.text(alphabet="J3sm", min_size=1, max_size=3), max_size=3),
    )
    def test_serialize_parse_identity(self, form, lemma, gram, sems, flexes):
        entry = DictEntry(form, lemma or form, gram, tuple(sems), tuple(flexes))
        assert parse_entry(serialize_entry(entry)) == entry
        # the reference annotator sorts analyses by the same line
        assert oracle_serialize(entry) == serialize_entry(entry)


class TestDictFile:
    def test_load_fixture(self, fixtures_dir):
        dfile = load_dict_file(fixtures_dir / "neymar.dic")
        assert len(dfile.entries) == 12
        assert dfile.role_tag is RoleTag.GENERAL

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "d.dic"
        path.write_text("a,.N\n\nb,.N\n\n", encoding="utf-8")
        assert len(load_dict_file(path).entries) == 2

    def test_bom_tolerated(self, tmp_path):
        path = tmp_path / "d.dic"
        path.write_bytes("﻿a,.N\n".encode("utf-8"))
        assert load_dict_file(path).entries[0].surface_form == "a"

    def test_crlf_tolerated(self, tmp_path):
        path = tmp_path / "d.dic"
        path.write_bytes(b"a,.N\r\nb,.N\r\n")
        assert len(load_dict_file(path).entries) == 2

    def test_malformed_line_number_reported(self, tmp_path):
        path = tmp_path / "d.dic"
        path.write_text("a,.N\nbad line without dot\n", encoding="utf-8")
        with pytest.raises(MalformedEntry) as exc:
            load_dict_file(path)
        assert exc.value.line_number == 2

    @pytest.mark.parametrize(
        "raw, forms",
        [
            (b"\xef\xbb\xbfa,.N\nb,.N\n", [(1, "a"), (2, "b")]),
            (b"a,.N\r\nb,.N\r\n", [(1, "a"), (2, "b")]),
            (b"\na,.N\n \t\n\nb,.N\n\n", [(2, "a"), (5, "b")]),
            (b"a\rz,.N\nb,.N\n", [(1, "a\rz"), (2, "b")]),
            (b"a,.N\nb,.N", [(1, "a"), (2, "b")]),
        ],
        ids=["bom", "crlf", "blank-lines", "lone-cr", "no-final-newline"],
    )
    def test_stream_and_list_agree(self, tmp_path, raw, forms):
        path = tmp_path / "d.dic"
        path.write_bytes(raw)
        listed = load_dict_file(path).entries
        assert isinstance(listed, list)
        assert list(iter_dict_entries(path)) == listed
        assert [e.surface_form for e in listed] == [form for _, form in forms]
        # the same file with its last entry broken: both report its line
        path.write_bytes(raw.replace(b"b,.N", b"b.N"))
        for read in (lambda p: load_dict_file(p).entries, lambda p: list(iter_dict_entries(p))):
            with pytest.raises(MalformedEntry) as exc:
                read(path)
            assert exc.value.line_number == forms[-1][0]
            assert exc.value.line == "b.N"

    def test_stream_is_lazy(self, tmp_path):
        path = tmp_path / "d.dic"
        path.write_text("a,.N\nbad\n", encoding="utf-8")
        entries = iter_dict_entries(path)
        assert next(entries).surface_form == "a"
        with pytest.raises(MalformedEntry):
            next(entries)

    def test_save_is_canonical_sorted(self, tmp_path, fixtures_dir):
        dfile = load_dict_file(fixtures_dir / "sample.dic")
        out = tmp_path / "out.dic"
        save_dict_file(dfile, out)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines == sorted(lines)
        assert len(lines) == len(dfile.entries)
