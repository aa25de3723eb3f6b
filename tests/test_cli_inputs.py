"""Drawn contents of the files the CLI reads, driven through
``lexcov.cli.main`` in-process: every input ends in exit 0, or in exit 2
with a ``lexcov:`` line that names the file, never in a traceback.

None of the drawn files is unreadable, so none may exit 1 (an OSError).
"""

import json
import struct
import sys
import zlib

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from lexcov import automaton
from lexcov.classify import _CONFIG_DEFAULTS, _WORD_LISTS, DEFAULT_PRECEDENCE
from lexcov.cli import main
from lexcov.dico import TokenStatus

from test_automaton import resign
from test_cli import run_cli

SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def assert_clean_exit(code, err, *files):
    """Exit 0 with nothing on stderr, or exit 2 with a ``lexcov:`` line
    naming one of ``files``."""
    event(f"exit {code}")
    assert "Traceback" not in err
    assert code in (0, 2), err
    if code == 0:
        assert err == ""
    else:
        assert any(
            line.startswith("lexcov: ") and any(str(f) in line for f in files)
            for line in err.splitlines()
        ), err


def mostly(good, other):
    """Draws from ``good`` about three times in four, else from ``other``."""
    return st.one_of(good, good, good, other)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory, fixtures_dir):
    """A directory holding a new and an old lexicon for classify, word
    lists for the drawn configs, three apply runs of a short corpus
    (``types_run`` for the drawn types.tsv files, ``config_run`` for the
    drawn configs and .lex files, ``manifest_run`` for the drawn run.json
    files), and ``base.lex``, whose payload has every section, for the
    drawn .lex files."""
    root = tmp_path_factory.mktemp("cli_inputs")
    corpus = root / "c.txt"
    corpus.write_text(
        "A idéia de Zumbi venceu o jogo em Marte. O time da ONU.\n", encoding="utf-8"
    )
    for dic, lex in (("classifier.dic", "new.lex"), ("neymar.dic", "old.lex")):
        assert main(["compile", str(fixtures_dir / dic), "-o", str(root / lex)]) == 0
    for run in ("types_run", "config_run", "manifest_run"):
        assert main(["apply", str(corpus), "-l", str(root / "new.lex"), "-o", str(root / run)]) == 0
    (root / "words.txt").write_text("ONU\nth\nkm\n", encoding="utf-8")
    (root / "bom.txt").write_bytes(b"\xef\xbb\xbfONU\r\n")
    (root / "latin1.txt").write_bytes("id\xe9ia\n".encode("latin-1"))
    # forms with a second analysis, and forms that a case fold changes
    extra = root / "extra.dic"
    extra.write_text("ONU,.SIGL\nMarte,.N+Top:ms\njogo,jogar.V:P1s\n", encoding="utf-8")
    dics = [str(fixtures_dir / "classifier.dic"), str(fixtures_dir / "compounds.dic"), str(extra)]
    assert main(["compile", *dics, "-o", str(root / "base.lex")]) == 0
    (root / "compounds.txt").write_text(
        "A ONU veio a fim de jogar em Marte, por exemplo.\n", encoding="utf-8"
    )
    return root


# -- types.tsv ---------------------------------------------------------------

TEXT = st.text(st.sampled_from("aAeçÇãIxyZ-'.1 \x00\xa0́"), max_size=8)
VALID_ROW = st.tuples(
    st.text(st.sampled_from("aAeçãIxZ-"), min_size=1, max_size=8),
    st.sampled_from([s.value for s in TokenStatus]),
    st.sampled_from(["0", "1"]),
    st.integers(1, 10**30).map(str),
).map("\t".join)
FIELD = st.one_of(
    TEXT,
    st.sampled_from([s.value for s in TokenStatus] + ["0", "1", "2", "-1", "", "٣", "1" * 5000]),
)
JUNK_ROW = st.lists(FIELD, max_size=6).map("\t".join)


@st.composite
def types_files(draw):
    """The bytes of a types.tsv: well-formed rows with up to two other
    lines among them, and now and then a BOM, CRLF ends or bytes that are
    not UTF-8."""
    rows = draw(st.lists(VALID_ROW, max_size=10, unique_by=lambda row: row.rsplit("\t", 1)[0]))
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), draw(JUNK_ROW))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    data = draw(st.sampled_from([b"", b"\xef\xbb\xbf"])) + "".join(r + end for r in rows).encode()
    if draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + data[at:]
    return data


class TestTypesFile:
    @pytest.mark.parametrize(
        "command",
        [
            ["coverage", "--run", "{run}", "--format", "json"],
            ["coverage", "--run", "{run}", "--cased", "--format", "json"],
            [
                "classify", "{run}", "-l", "{root}/new.lex", "--old", "{root}/old.lex",
                "-o", "{root}/cls.tsv",
            ],
        ],
        ids=["coverage", "coverage-cased", "classify"],
    )
    @SETTINGS
    @given(data=types_files())
    def test_drawn_types_file(self, workdir, capsys, command, data):
        run = workdir / "types_run"
        types = run / "types.tsv"
        types.write_bytes(data)
        code, out, err = run_cli(capsys, *(arg.format(run=run, root=workdir) for arg in command))
        assert_clean_exit(code, err, types)
        if code == 0 and command[0] == "coverage":
            # no figure above its total
            report = json.loads(out)["reports"][0]
            assert 0 <= report["types_unknown"] <= report["types_total"]
            assert 0 <= report["tokens_unknown"] <= report["tokens_total"]


# -- classifier config -------------------------------------------------------

# each part of a config line as (good, bad) strategies; the setting names
# that a word-list key sets are not keys themselves
KEYS = (
    st.sampled_from(sorted(set(_CONFIG_DEFAULTS) - set(_WORD_LISTS.values()) | set(_WORD_LISTS))),
    st.sampled_from(["", "frobnicate", "Precedence", *_WORD_LISTS.values()]),
)
SEPARATORS = st.sampled_from([" = ", "="]), st.sampled_from([" ", " == "])
RULES = (
    st.sampled_from(DEFAULT_PRECEDENCE),
    st.sampled_from(["R-x", "", "r-acr", '"R-old"', "th", "^y", "ed$"]),
)
WORD_LISTS = (
    st.sampled_from(["words.txt", "bom.txt"]),
    st.sampled_from(["latin1.txt", "missing.txt", "."]),
)
# the values of a setting's type, by the type of its default
NUMBERS = {
    int: st.integers(-3, 12).map(str),
    float: st.floats(allow_nan=True, allow_infinity=True).map(repr),
}
BAD_NUMBERS = st.sampled_from(["", "two", "1.5", "1e400", "0x10", "1_000", "٣", "9" * 5000])
OTHER_LINES = st.sampled_from(["", "# comment", "   "]), st.just("[R-acr]")


@st.composite
def config_files(draw):
    """Whether a classifier config holds no bad line (half of them do
    not), and its bytes; word-list values name files of the working
    directory."""
    clean = draw(st.booleans())

    def pick(good, bad):
        return good if clean else mostly(good, bad)

    rule_list = st.lists(pick(*RULES), max_size=7).map(lambda r: "[" + ", ".join(r) + "]")
    lines = []
    for key in draw(st.lists(pick(*KEYS), max_size=6)):
        if key in _WORD_LISTS:
            value = pick(*WORD_LISTS)
        else:
            kind = type(_CONFIG_DEFAULTS.get(key))
            value = pick(NUMBERS.get(kind, rule_list), st.one_of(rule_list, BAD_NUMBERS))
        sep = draw(pick(*SEPARATORS))
        comment = draw(st.sampled_from(["", "", "  # note", "#"]))
        lines.append(f"{key}{sep}{draw(value)}{comment}")
    lines += draw(st.lists(pick(*OTHER_LINES), max_size=2))
    data = "\n".join(draw(st.permutations(lines))).encode()
    if not clean and draw(st.integers(0, 4)) == 0:
        data += b"\xff"
    return clean, data


class TestConfigFile:
    @SETTINGS
    @given(drawn=config_files())
    def test_drawn_config(self, workdir, capsys, monkeypatch, drawn):
        clean, data = drawn
        config = workdir / "drawn.cfg"
        config.write_bytes(data)
        monkeypatch.chdir(workdir)  # word-list values are relative to the working directory
        code, _, err = run_cli(
            capsys, "classify", "config_run", "-l", "new.lex", "--old", "old.lex",
            "--config", str(config), "-o", "cls.tsv",
        )
        assert_clean_exit(code, err, config)
        # known keys with values of their types are a config, whatever the values
        assert code == 0 or not clean

    def test_word_list_that_is_not_utf8_names_the_config_line(self, workdir, capsys, monkeypatch):
        # the word list is named first, as every input that is not UTF-8 is
        config = workdir / "latin1.cfg"
        config.write_text("acr_min_len = 2\nacronym_list = latin1.txt\n", encoding="utf-8")
        monkeypatch.chdir(workdir)
        code, out, err = run_cli(
            capsys, "classify", "config_run", "-l", "new.lex", "--config", str(config),
            "-o", "cls.tsv",
        )
        assert (code, out) == (2, "")
        decode = "'utf-8' codec can't decode byte 0xe9 in position 2: invalid continuation byte"
        assert err == f"lexcov: latin1.txt: {decode} (acronym_list at {config}:2)\n"


# -- run.json and --counts ---------------------------------------------------

# JSON values as text, so that an integer of more digits than int() reads
# can be drawn
COUNTS = st.integers(0, 10**30)
ODD_VALUES = st.one_of(
    st.integers(-(10**30), -1).map(str),
    st.sampled_from(["true", "false", "null", "1.5", "1e400", "NaN", "-Infinity", '"7"', "[]"]),
    st.just("{}"),
)
# an integer of more digits than int() reads makes the whole file unreadable
BAD_VALUES = st.one_of(ODD_VALUES, st.just("9" * 5000))
NEEDS_DIGIT_LIMIT = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="int() reads any number of digits"
)
STRINGS = st.text(st.sampled_from("ab,.é\x00"), max_size=5).map(json.dumps)


def json_object(draw, fields, extra_keys, clean):
    """A JSON object's text holding ``fields``, a dict of key to value
    text, with keys from ``extra_keys`` now and then added; unless
    ``clean``, one of ``fields`` is now and then dropped and an added key
    may hold an integer that cannot be read."""
    items = [(k, v) for k, v in fields.items() if clean or draw(st.integers(0, 9))]
    extra_values = ODD_VALUES if clean else BAD_VALUES
    items += [(k, draw(extra_values)) for k in draw(st.lists(extra_keys, max_size=2))]
    return "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in items) + "}"


@st.composite
def counts_files(draw):
    """Whether a --counts file holds only rows of consistent counts (half
    of them do), and its text; the others have now and then a value of
    another type or a negative or huge one, a key dropped, or a value that
    is no array or no object."""
    clean = draw(st.booleans())

    def pick(good, bad):
        return st.just(good) if clean else mostly(st.just(good), bad)

    rows = []
    for _ in range(draw(st.integers(0, 4))):
        types_unknown, types_known, tokens_unknown, tokens_known = (draw(COUNTS) for _ in range(4))
        fields = {
            "corpus_id": draw(st.sampled_from(['"dg"', '"ma"'])),
            "dict_id": draw(STRINGS),
            "types_total": str(types_unknown + types_known),
            "types_unknown": str(types_unknown),
            "tokens_total": str(tokens_unknown + tokens_known),
            "tokens_unknown": str(tokens_unknown),
        }
        for key in [] if clean else draw(st.lists(st.sampled_from(sorted(fields)), max_size=2)):
            fields[key] = draw(st.one_of(BAD_VALUES, STRINGS))
        rows.append(draw(pick(json_object(draw, fields, st.just("extra"), clean), BAD_VALUES)))
    return clean, draw(pick("[" + ", ".join(rows) + "]", BAD_VALUES))


@st.composite
def manifests(draw, manifest):
    """Whether a run.json drawn from ``manifest``, an apply's, holds its
    values (half of them do), and its text; the others have now and then a
    value replaced by another, a key dropped or repeated, or a value that
    is no object or no array."""
    clean = draw(st.booleans())

    def pick(good, bad):
        return st.just(good) if clean else mostly(st.just(good), bad)

    paths = [draw(pick(json.dumps(lex["path"]), BAD_VALUES)) for lex in manifest["lexicons"]]
    lexicons = [json_object(draw, {"path": path}, st.just("sha256"), clean) for path in paths]
    fields = {key: json.dumps(value) for key, value in manifest.items()}
    fields["lexicons"] = draw(pick("[" + ", ".join(lexicons) + "]", BAD_VALUES))
    for key in [] if clean else draw(st.lists(st.sampled_from(sorted(fields)), max_size=2)):
        fields[key] = draw(st.one_of(BAD_VALUES, STRINGS, st.sampled_from(['"exact"', '"lower"'])))
    extra_keys = st.just("x") if clean else st.sampled_from(["x", "policy"])
    return clean, draw(pick(json_object(draw, fields, extra_keys, clean), BAD_VALUES))


def assert_report_figures(code, out):
    """On exit 0, no coverage figure above its total."""
    if code == 0:
        for report in json.loads(out)["reports"]:
            assert 0 <= report["types_unknown"] <= report["types_total"]
            assert 0 <= report["tokens_unknown"] <= report["tokens_total"]


class TestCountsFile:
    @SETTINGS
    @given(drawn=counts_files())
    def test_drawn_counts_file(self, workdir, capsys, drawn):
        clean, text = drawn
        counts = workdir / "counts.json"
        counts.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "coverage", "--counts", str(counts), "--format", "json")
        assert_clean_exit(code, err, counts)
        assert_report_figures(code, out)
        assert code == 0 or not clean

    # faults the property found: json raises ValueError past int()'s digit
    # limit and RecursionError past its nesting depth, not JSONDecodeError
    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param(
                '[{"types_total": 1' + "0" * 5000 + "}]",
                "Exceeds the limit (",
                marks=NEEDS_DIGIT_LIMIT,
            ),
            ("[" * 100_000, "maximum recursion depth exceeded"),
        ],
        ids=["long integer", "deep nesting"],
    )
    def test_unreadable_json(self, workdir, capsys, text, message):
        counts = workdir / "unreadable.json"
        counts.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "coverage", "--counts", str(counts))
        assert (code, out) == (2, "")
        assert err.startswith(f"lexcov: {counts}: {message}")
        assert err.count("\n") == 1


class TestManifest:
    @SETTINGS
    @given(data=st.data())
    def test_drawn_run_json(self, workdir, capsys, data):
        run = workdir / "manifest_run"
        manifest = run / "run.json"
        applied = json.loads((workdir / "config_run" / "run.json").read_text(encoding="utf-8"))
        clean, text = data.draw(manifests(applied))
        manifest.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "coverage", "--run", str(run), "--format", "json")
        assert_clean_exit(code, err, manifest)
        assert_report_figures(code, out)
        assert code == 0 or not clean

    @NEEDS_DIGIT_LIMIT
    def test_long_integer(self, workdir, capsys):
        run = workdir / "manifest_run"
        manifest = run / "run.json"
        manifest.write_text('{"policy": "exact", "n": ' + "9" * 5000 + "}", encoding="utf-8")
        code, out, err = run_cli(capsys, "coverage", "--run", str(run))
        assert (code, out) == (2, "")
        assert err.startswith(f"lexcov: {manifest}: Exceeds the limit (")


# -- .lex --------------------------------------------------------------------


def u32_offsets(raw):
    """The byte offset of each u32 of a .lex payload: the header's four
    and every item of its u32 columns (docs/lexicon-binary.md)."""
    header = automaton._HEADER.unpack_from(raw)
    _, n_forms, _, n_states, n_transitions, n_analyses, n_compounds, n_fold_extra = header[:8]
    n_strings, size = header[8:]
    offsets = list(range(40, 56, 4))  # the u32 counts follow five u64s
    at = automaton._HEADER.size

    def u32s(count):
        """The next ``count`` u32s; their offsets are kept."""
        nonlocal at
        offsets.extend(range(at, at + 4 * count, 4))
        at += 4 * count
        return struct.unpack_from(f"<{count}I", raw, at - 4 * count)

    u32s(n_strings)
    at += size
    u32s(4 * n_analyses)
    at += n_analyses + n_states  # the u8 role masks and final flags
    u32s(n_states + 2 * n_transitions)
    u32s(sum(u32s(n_forms)))
    u32s(n_compounds)
    u32s(sum(u32s(n_compounds)))
    u32s(n_fold_extra)
    u32s(sum(u32s(n_fold_extra)))
    assert at == len(raw)
    return offsets


@st.composite
def payload_edits(draw, raw):
    """A payload edit: one u32 set to a value about a byte-plane boundary,
    counted from one of the header's counts or not, or one byte set to any
    value."""
    if draw(st.integers(0, 3)):
        at = draw(st.sampled_from(u32_offsets(raw)))
        near = st.sampled_from(automaton._HEADER.unpack_from(raw)).flatmap(
            lambda n: st.sampled_from([n - 1, n, n + 255, n + 256])
        )
        value = draw(st.one_of(near, st.sampled_from([2**16, 2**24, 2**32 - 1])))
        item = struct.pack("<I", min(max(value, 0), 2**32 - 1))
    else:
        at = draw(st.integers(0, len(raw) - 1))
        item = bytes([draw(st.integers(0, 255))])
    event("u32" if len(item) == 4 else "byte")
    return lambda raw: raw[:at] + item + raw[at + len(item) :]


class TestLexFile:
    @pytest.mark.parametrize(
        "command",
        [
            ["apply", "{root}/compounds.txt", "-l", "{lex}", "-o", "{root}/lex_run"],
            [
                "classify", "{root}/config_run", "-l", "{lex}", "--old", "{lex}",
                "-o", "{root}/cls.tsv",
            ],
        ],
        ids=["apply", "classify"],
    )
    @SETTINGS
    @given(data=st.data())
    def test_drawn_payload(self, workdir, capsys, command, data):
        compiled = (workdir / "base.lex").read_bytes()
        lex = workdir / "drawn.lex"
        lex.write_bytes(compiled)
        resign(lex, data.draw(payload_edits(zlib.decompress(compiled[46:]))))
        code, _, err = run_cli(capsys, *(arg.format(root=workdir, lex=lex) for arg in command))
        assert_clean_exit(code, err, lex)
