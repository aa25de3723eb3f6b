"""Drawn contents of the files the CLI reads, driven through
``lexcov.cli.main`` in-process: every input ends in exit 0, or in exit 2
with a ``lexcov:`` line that names the file, never in a traceback.

None of the drawn files is unreadable, so none may exit 1 (an OSError).
"""

import json

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from lexcov.classify import _CONFIG_DEFAULTS, _WORD_LISTS, DEFAULT_PRECEDENCE
from lexcov.cli import main
from lexcov.dico import TokenStatus

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
    lists for the drawn configs, and two apply runs of a short corpus:
    ``types_run`` for the drawn types.tsv files, ``config_run`` for the
    drawn configs."""
    root = tmp_path_factory.mktemp("cli_inputs")
    corpus = root / "c.txt"
    corpus.write_text(
        "A idéia de Zumbi venceu o jogo em Marte. O time da ONU.\n", encoding="utf-8"
    )
    for dic, lex in (("classifier.dic", "new.lex"), ("neymar.dic", "old.lex")):
        assert main(["compile", str(fixtures_dir / dic), "-o", str(root / lex)]) == 0
    for run in ("types_run", "config_run"):
        assert main(["apply", str(corpus), "-l", str(root / "new.lex"), "-o", str(root / run)]) == 0
    (root / "words.txt").write_text("ONU\nth\nkm\n", encoding="utf-8")
    (root / "bom.txt").write_bytes(b"\xef\xbb\xbfONU\r\n")
    (root / "latin1.txt").write_bytes("id\xe9ia\n".encode("latin-1"))
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
        # a word list that is not UTF-8 is named itself
        assert_clean_exit(code, err, config, "latin1.txt")
        # known keys with values of their types are a config, whatever the values
        assert code == 0 or not clean
