import errno
import functools
import hashlib
import itertools
import os
import random
import struct
import subprocess
import sys
import tempfile
import zlib
from collections import namedtuple
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from lexcov import automaton
from lexcov.automaton import (
    CaseFoldPolicy,
    compile_lexicon,
    fold_key,
    load_lexicon,
    save_lexicon,
    token_matches_form,
)
from lexcov.classify import PORTUGUESE_ALPHABET
from lexcov.delaf import (
    DictEntry,
    DictFile,
    RoleTag,
    load_dict_file,
    parse_entry,
    serialize_entry,
)
from lexcov.errors import CorruptFile, EmptyLexicon, FormatVersionMismatch
from lexcov.preprocess import TokenKind, tokenize

from oracles import (
    minimal_state_count,
    oracle_build_dafsa,
    oracle_lookup,
    oracle_match,
    oracle_match_compounds,
    right_language_classes,
)


def lex_from_lines(lines, role=RoleTag.GENERAL):
    return compile_lexicon([DictFile([parse_entry(l) for l in lines], role)])


def columns(text):
    """The kinds and texts columns of ``text``'s tokens, a match_compounds window."""
    stream = tokenize(text)
    return stream.kinds, stream.texts


def lex_from_forms(forms):
    return lex_from_lines([f"{f},.N" for f in forms])


def assert_holds_exactly(lex, forms):
    """``lex``'s automaton accepts exactly the sorted simple ``forms``: they
    rank 0…n−1, and load checks that the root accepts as many forms as the
    lexicon has simple forms."""
    assert [lex.word_index(f) for f in forms] == list(range(len(forms)))
    assert lex.stats.unique_form_count - lex.stats.compound_count == len(forms)


class TestCompile:
    def test_neymar_subset(self, neymar_lexicon):
        lex = neymar_lexicon
        assert lex.stats.entry_count == 12
        # o x4, do x2, corria x2 collapse: 7 distinct surface forms
        assert lex.stats.unique_form_count == 7
        assert len(lex.lookup("corria")) == 2
        assert len(lex.lookup("do")) == 2
        assert len(lex.lookup("o")) == 4

    def test_single_entry_two_states(self):
        lex = lex_from_lines(["a,.N"])
        assert lex.stats.unique_form_count == 1
        assert lex.stats.analysis_count == 1
        assert lex.stats.state_count == 2

    def test_duplicate_lines_deduplicated(self):
        lex = lex_from_lines(["casa,.N:fs", "casa,.N:fs"])
        assert lex.stats.unique_form_count == 1
        assert len(lex.lookup("casa")) == 1

    def test_flex_alternatives_expand_to_separate_analyses(self):
        one_line = lex_from_lines(["corria,correr.V:I1s:I3s"])
        two_lines = lex_from_lines(["corria,correr.V:I1s", "corria,correr.V:I3s"])
        as_text = lambda lex: sorted(
            serialize_entry(lex.entry_for("corria", i)) for i in lex.lookup("corria")
        )
        assert as_text(one_line) == as_text(two_lines)

    def test_empty_raises(self):
        with pytest.raises(EmptyLexicon):
            compile_lexicon([DictFile([])])

    def test_unique_form_count_bounds(self):
        lex = lex_from_forms(["a", "b", "a"])
        assert lex.stats.unique_form_count <= lex.stats.entry_count
        assert lex.stats.unique_form_count == 2

    def test_role_tags_kept_per_analysis(self):
        general = DictFile([parse_entry("abs,.N")], RoleTag.GENERAL)
        abbrev = DictFile([parse_entry("abs,.N")], RoleTag.ABBREVIATIONS_ACRONYMS)
        lex = compile_lexicon([general, abbrev])
        (aid,) = lex.lookup("abs")
        assert lex.analysis_roles(aid) == {
            RoleTag.GENERAL,
            RoleTag.ABBREVIATIONS_ACRONYMS,
        }

    def test_1000_generated_forms_match_hash_map_oracle(self):
        rng = random.Random(7)
        forms = {
            "".join(rng.choice("abcdeãé") for _ in range(rng.randint(1, 9)))
            for _ in range(1400)
        }
        forms = sorted(forms)[:1000]
        lex = lex_from_forms(forms)
        member = set(forms)
        for form in forms:
            assert form in lex
            assert len(lex.lookup(form, CaseFoldPolicy.EXACT)) == 1
        probes = 0
        while probes < 1000:
            probe = "".join(rng.choice("abcdeãéx") for _ in range(rng.randint(1, 10)))
            if probe in member:
                continue
            probes += 1
            assert probe not in lex
            assert lex.lookup(probe, CaseFoldPolicy.EXACT) == frozenset()


class TestLookupPolicies:
    def test_exact_refuses_folding(self):
        lex = lex_from_forms(["time"])
        assert lex.lookup("TIME", CaseFoldPolicy.EXACT) == frozenset()
        assert lex.lookup("time", CaseFoldPolicy.EXACT) != frozenset()

    def test_unitex_like_sentence_initial_capital(self, neymar_lexicon):
        assert len(neymar_lexicon.lookup("O", CaseFoldPolicy.UNITEX_LIKE)) == 4
        assert neymar_lexicon.lookup("Neymar") == frozenset()

    def test_unitex_like_all_upper(self):
        lex = lex_from_forms(["time"])
        assert lex.lookup("TIME", CaseFoldPolicy.UNITEX_LIKE) != frozenset()

    def test_unitex_like_uppercase_form_matches_only_exactly(self):
        lex = lex_from_forms(["Brasil"])
        assert lex.lookup("Brasil") != frozenset()
        assert lex.lookup("brasil") == frozenset()
        assert lex.lookup("BRASIL") == frozenset()

    def test_full_fold(self):
        lex = lex_from_forms(["São", "paulo"])
        assert lex.lookup("são", CaseFoldPolicy.FULL_FOLD) != frozenset()
        assert lex.lookup("SÃO", CaseFoldPolicy.FULL_FOLD) != frozenset()
        assert lex.lookup("PAULO", CaseFoldPolicy.FULL_FOLD) != frozenset()

    def test_empty_token(self):
        lex = lex_from_forms(["a"])
        assert lex.lookup("") == frozenset()


ALPHABET = "abcdeoãéA BCO"
# letters whose case maps are not one-to-one: ß→SS, ı→I, İ→i̇, ﬁ→FI, ς→Σ;
# S and F let random text spell some of those upper cases
CASE_ALPHABET = "abcoãéABCOSFßıIİﬁΣσς"
# unitex_like folds only forms that are entirely lowercase, so draw half
# the forms from the lowercase letters alone
CASE_WORDS = st.text(alphabet=CASE_ALPHABET, min_size=1, max_size=4) | st.text(
    alphabet="abcoãéßıﬁσς", min_size=1, max_size=4
)


def upper_variants(form):
    """The texts unitex_like lets match a lowercase ``form``."""
    return [form.upper(), form[0].upper() + form[1:]]


@settings(max_examples=200, deadline=None)
@given(
    forms=st.sets(st.text(alphabet=CASE_ALPHABET, min_size=1, max_size=8), min_size=1, max_size=60),
    probes=st.lists(st.text(alphabet=CASE_ALPHABET, min_size=1, max_size=8), max_size=30),
    policy=st.sampled_from(list(CaseFoldPolicy)),
)
def test_lookup_matches_oracle(forms, probes, policy):
    lex = lex_from_forms(sorted(forms))
    form_map = {f: {f} for f in forms}
    variants = [v for f in forms for v in upper_variants(f) + [f.casefold()]]
    for probe in list(forms) + probes + variants:
        got = {lex.entry_for(f, i).surface_form for f, ids in
               lex.lookup_forms(probe, policy).items() for i in ids}
        want = oracle_lookup(probe, form_map, policy.value)
        assert got == want, (probe, policy)


@settings(max_examples=100, deadline=None)
@given(
    token=st.text(alphabet="abÃçASß", min_size=1, max_size=6),
    form=st.text(alphabet="abÃçASß", min_size=1, max_size=6),
    policy=st.sampled_from(["exact", "unitex_like", "full_fold"]),
)
def test_token_matches_form_agrees_with_oracle(token, form, policy):
    assert token_matches_form(token, form, CaseFoldPolicy(policy)) == oracle_match(
        token, form, policy
    )


@settings(max_examples=300, deadline=None)
@given(
    form=CASE_WORDS,
    other=CASE_WORDS,
    policy=st.sampled_from(["exact", "unitex_like", "full_fold"]),
)
def test_matching_texts_share_fold_key(form, other, policy):
    for token in [form, *upper_variants(form), form.casefold(), other]:
        if oracle_match(token, form, policy):
            assert fold_key(token) == fold_key(form), (token, form)


@settings(max_examples=300, deadline=None)
@given(
    words=st.lists(CASE_WORDS, min_size=2, max_size=3),
    other=CASE_WORDS,
    policy=st.sampled_from(list(CaseFoldPolicy)),
)
def test_match_compounds_matches_oracle(words, other, policy):
    lex = lex_from_lines([" ".join(words) + ",.N"])
    for token_words in itertools.product(*([w, *upper_variants(w), other] for w in words)):
        got = bool(lex.match_compounds(*columns(" ".join(token_words)), policy))
        want = all(oracle_match(t, w, policy.value) for t, w in zip(token_words, words))
        assert got == want, (token_words, policy)


# compound forms crowd onto a few first words, in several cases, and hold
# numbers, punctuation and double spaces; pieces join with no separator
# too, so forms share prefixes inside words as well
COMPOUND_FIRSTS = ["de", "De", "DE", "a", "A", "ß", "ı", "2", "-"]
COMPOUND_PIECES = [
    "de", "De", "DE", "a", "A", "casa", "Casa", "CASA", "ß", "SS", "ı", "I",
    "fim", "2", "10", ",", "-", ".", " ", " ", " ", "  ",
]
COMPOUND_FORMS = st.builds(
    lambda first, rest: first + " " + "".join(rest),
    st.sampled_from(COMPOUND_FIRSTS),
    st.lists(st.sampled_from(COMPOUND_PIECES), max_size=6),
)


@settings(max_examples=150, deadline=None)
@given(
    forms=st.lists(COMPOUND_FORMS, min_size=1, max_size=30),
    grams=st.lists(st.sampled_from(["N", "ADV"]), min_size=1),
    windows=st.lists(st.lists(st.sampled_from(COMPOUND_PIECES), max_size=8), max_size=5),
    cuts=st.lists(st.tuples(st.integers(0, 999), st.integers(0, 999)), max_size=8),
)
def test_match_compounds_equals_brute_force_oracle(forms, grams, windows, cuts):
    entries = [DictEntry(f, f, grams[i % len(grams)]) for i, f in enumerate(forms)]
    lex = compile_lexicon([DictFile(entries)])
    distinct = list(dict.fromkeys(forms))
    texts = [v for f in distinct for v in (f, f.upper(), f[0].upper() + f[1:], f + " casa")]
    texts += ["".join(pieces) for pieces in windows]
    # windows that start and stop cut out of one longer stream, in place
    kinds, stream = columns(" ".join(texts))
    bounds = []
    for a, b in cuts:
        start = a % len(stream)
        bounds.append((start, start + b % (len(stream) + 1 - start)))
    for policy in CaseFoldPolicy:
        for text in texts:
            window = columns(text)
            got = lex.match_compounds(*window, policy)
            want = oracle_match_compounds(distinct, *window, policy.value)
            assert [(span, form) for span, form, _ in got] == want, (text, policy)
            for _, form, ids in got:
                held = dict.fromkeys(e for e in entries if e.surface_form == form)
                assert [lex.entry_for(form, i) for i in ids] == list(held)
        for start, stop in bounds:
            got = lex.match_compounds(kinds, stream, policy, start, stop)
            want = oracle_match_compounds(
                distinct, kinds[start:stop], stream[start:stop], policy.value
            )
            assert [(span, form) for span, form, _ in got] == want, (start, stop, policy)


class TestMinimality:
    @pytest.mark.parametrize("seed", range(5))
    def test_state_count_is_minimal(self, seed):
        rng = random.Random(seed)
        forms = sorted(
            {
                "".join(rng.choice("abc") for _ in range(rng.randint(1, 7)))
                for _ in range(rng.randint(1, 800))
            }
        )[:1000]
        lex = lex_from_forms(forms)
        assert lex.stats.state_count == minimal_state_count(forms)

    @given(
        forms=st.sets(st.text(alphabet="abßıﬁI", min_size=1, max_size=6), min_size=1, max_size=60)
    )
    def test_states_are_right_language_classes(self, forms):
        forms = sorted(forms)
        lex = lex_from_forms(forms)
        assert lex.stats.state_count == right_language_classes(forms)
        assert [lex.word_index(f) for f in forms] == list(range(len(forms)))
        assert lex.stats.unique_form_count_folded == len({f.casefold() for f in forms})

    def test_determinism_and_acyclicity(self):
        forms = ["ab", "abc", "b", "bc"]
        lex = lex_from_forms(forms)
        states = lex._states
        # deterministic by construction (dict edges); check acyclicity by DFS
        seen = set()

        def visit(s, path):
            assert s not in path
            if s in seen:
                return
            seen.add(s)
            for target, _ in states[s][1].values():
                visit(target, path | {s})

        visit(0, frozenset())

    def test_perfect_hash_indexes_are_sorted_ranks(self, tmp_path):
        # the loader derives the offsets again from the saved automaton
        forms = sorted({"a", "ab", "abc", "ba", "c", "ça"})
        lex = lex_from_forms(forms)
        save_lexicon(lex, tmp_path / "lex.bin")
        for copy in (lex, load_lexicon(tmp_path / "lex.bin")):
            assert_holds_exactly(copy, forms)


# labels whose case maps are not one-to-one, one outside the BMP, and the
# top code point, after which no label follows
DAFSA_LABELS = "abßı\U0001F600\U0010FFFF"


@st.composite
def sorted_form_sets(draw):
    words = draw(st.sets(st.text(alphabet=DAFSA_LABELS, min_size=1, max_size=6), max_size=40))
    # some words bring every prefix: chains of forms, each a prefix of the next
    chained = draw(st.sets(st.sampled_from(sorted(words)))) if words else set()
    return sorted(words | {w[:i] for w in chained for i in range(1, len(w))})


class TestBuild:
    @given(forms=sorted_form_sets())
    def test_build_dafsa_matches_oracle(self, forms):
        # the four columns, numbering included, are the per-character
        # construction's, so the .lex bytes are too
        assert [list(col) for col in automaton._build_dafsa(forms)] == [*oracle_build_dafsa(forms)]

    def test_prefix_chain_of_3000_forms(self):
        # each form's range holds the next: 3000 nested ranges
        forms = ["a" * n for n in range(1, 3001)]
        lex = lex_from_forms(forms)
        assert lex.stats.state_count == 3001
        assert [lex.word_index(f) for f in forms] == list(range(3000))
        assert "a" * 3001 not in lex

    def test_compile_and_save_build_no_lookup_table(self, fixtures_dir, tmp_path):
        tables = {
            name
            for name, attr in vars(automaton.Lexicon).items()
            if isinstance(attr, functools.cached_property)
        }
        assert tables == {"_states", "_strings", "_compound_forms", "_compound_index", "_fold_extra"}
        lex = compile_lexicon([load_dict_file(fixtures_dir / "compounds.dic")])
        save_lexicon(lex, tmp_path / "compounds.lex")
        assert tables.isdisjoint(vars(lex))
        assert tables.isdisjoint(vars(load_lexicon(tmp_path / "compounds.lex")))
        # a lookup builds what it reads
        assert lex.word_index("por") is not None and "_states" in vars(lex)

    def test_loaded_lexicon_answers_like_compiled(self, fixtures_dir, tmp_path):
        dicts = [
            DictFile(load_dict_file(fixtures_dir / f"{name}.dic").entries, role)
            for name, role in [
                ("neymar", RoleTag.GENERAL),
                ("compounds", RoleTag.GENERAL),
                ("classifier", RoleTag.USER),
            ]
        ]
        lex = compile_lexicon(dicts)
        save_lexicon(lex, tmp_path / "all.lex")
        loaded = load_lexicon(tmp_path / "all.lex")
        forms = sorted({e.surface_form for d in dicts for e in d.entries})
        simple = sorted(set(forms) - set(lex._compound_forms))
        for copy in (lex, loaded):
            assert_holds_exactly(copy, simple)
        texts = {
            variant
            for form in forms
            for variant in (form, form.upper(), form.capitalize(), form[1:], form + "s")
        }
        for text in sorted(texts):
            assert loaded.word_index(text) == lex.word_index(text), text
            edits = lex.within_one_edit(text, PORTUGUESE_ALPHABET)
            assert loaded.within_one_edit(text, PORTUGUESE_ALPHABET) == edits, text
            for policy in CaseFoldPolicy:
                assert loaded.lookup_forms(text, policy) == lex.lookup_forms(text, policy)
                window = columns(f"{text} de mais")
                for start in range(len(window[1])):
                    matches = lex.match_compounds(*window, policy, start)
                    assert loaded.match_compounds(*window, policy, start) == matches


class TestCompounds:
    def test_single_compound_match(self):
        lex = lex_from_lines(["por exemplo,.ADV"])
        matches = lex.match_compounds(*columns("por exemplo vale"))
        assert len(matches) == 1
        span, form, ids = matches[0]
        assert span == 3 and form == "por exemplo"

    def test_no_compounds(self):
        lex = lex_from_forms(["por"])
        assert lex.match_compounds(*columns("por exemplo")) == []

    def test_overlapping_compounds_longest_first(self):
        lex = lex_from_lines(["a fim de,.PREP", "a fim,.ADJ"])
        kinds, texts = columns("a fim de tudo")
        matches = lex.match_compounds(kinds, texts)
        assert [m[0] for m in matches] == [5, 3]
        assert [m[1] for m in matches] == ["a fim de", "a fim"]
        # brute-force over the entry list agrees
        brute = []
        for entry_form in ["a fim de", "a fim"]:
            words = entry_form.split(" ")
            window = [t for t in texts if t != " "][: len(words)]
            if window == words:
                brute.append(entry_form)
        assert set(brute) == {m[1] for m in matches}

    def test_case_policy_applies_to_compounds(self):
        lex = lex_from_lines(["por exemplo,.ADV"])
        kinds, texts = columns("Por exemplo sim")
        assert lex.match_compounds(kinds, texts, CaseFoldPolicy.UNITEX_LIKE)
        assert not lex.match_compounds(kinds, texts, CaseFoldPolicy.EXACT)


class TestSaveLoad:
    def test_round_trip_neymar(self, neymar_lexicon, fixtures_dir, tmp_path):
        path = tmp_path / "lex.bin"
        save_lexicon(neymar_lexicon, path)
        loaded = load_lexicon(path)
        entries = load_dict_file(fixtures_dir / "neymar.dic").entries
        forms = sorted({e.surface_form for e in entries})
        assert_holds_exactly(loaded, forms)
        for form in forms:
            got = {serialize_entry(loaded.entry_for(form, i)) for i in loaded.lookup(form)}
            want = {
                serialize_entry(neymar_lexicon.entry_for(form, i))
                for i in neymar_lexicon.lookup(form)
            }
            assert got == want
        assert loaded.stats == neymar_lexicon.stats

    def test_compounds_survive_round_trip(self, tmp_path):
        lex = lex_from_lines(["por exemplo,.ADV", "por,.PREP"])
        path = tmp_path / "lex.bin"
        save_lexicon(lex, path)
        loaded = load_lexicon(path)
        assert loaded.match_compounds(*columns("por exemplo"))

    def test_truncated_file_is_corrupt(self, neymar_lexicon, tmp_path):
        path = tmp_path / "lex.bin"
        save_lexicon(neymar_lexicon, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 7])
        with pytest.raises(CorruptFile):
            load_lexicon(path)

    def test_flipped_payload_byte_is_corrupt(self, neymar_lexicon, tmp_path):
        path = tmp_path / "lex.bin"
        save_lexicon(neymar_lexicon, path)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptFile):
            load_lexicon(path)

    def test_bumped_version_is_mismatch(self, neymar_lexicon, tmp_path):
        path = tmp_path / "lex.bin"
        save_lexicon(neymar_lexicon, path)
        data = bytearray(path.read_bytes())
        data[4] += 1  # low byte of the little-endian version
        path.write_bytes(bytes(data))
        with pytest.raises(FormatVersionMismatch):
            load_lexicon(path)

    def test_failed_save_keeps_the_old_file(self, neymar_lexicon, tmp_path, monkeypatch):
        path = tmp_path / "lex.bin"
        save_lexicon(neymar_lexicon, path)
        old = path.read_bytes()

        class DiskFull:
            """A file whose first write stores one byte and then fails."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[:1])
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(automaton, "open", lambda *args: DiskFull(open(*args)), raising=False)
        other = lex_from_lines(["zê,.N"])
        with pytest.raises(OSError, match="No space left"):
            save_lexicon(other, path)
        assert path.read_bytes() == old
        assert list(tmp_path.iterdir()) == [path]
        # a save that succeeds replaces the file and leaves no partial file
        monkeypatch.undo()
        save_lexicon(other, path)
        assert load_lexicon(path).stats == other.stats
        assert list(tmp_path.iterdir()) == [path]

    def test_not_a_lexicon_file(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"junk")
        with pytest.raises(CorruptFile):
            load_lexicon(path)

    def test_build_is_byte_deterministic(self, fixtures_dir, tmp_path):
        from lexcov.delaf import load_dict_file

        for i in (1, 2):
            dicts = [load_dict_file(fixtures_dir / "neymar.dic")]
            save_lexicon(compile_lexicon(dicts), tmp_path / f"lex{i}.bin")
        assert (tmp_path / "lex1.bin").read_bytes() == (tmp_path / "lex2.bin").read_bytes()

    @pytest.mark.parametrize("name", ["neymar", "compounds"])
    def test_build_matches_golden_file(self, fixtures_dir, tmp_path, name):
        # the committed .lex files pin format v5 byte for byte
        from lexcov.delaf import load_dict_file

        path = tmp_path / f"{name}.lex"
        save_lexicon(compile_lexicon([load_dict_file(fixtures_dir / f"{name}.dic")]), path)
        assert path.read_bytes() == (fixtures_dir / f"{name}.lex").read_bytes()

    def test_broken_pack_fails_at_compile(self, monkeypatch):
        pack = automaton._pack
        monkeypatch.setattr(automaton, "_pack", lambda dicts: pack(dicts) + b"\0")
        with pytest.raises(CorruptFile, match="1 unread bytes"):
            lex_from_lines(["zê,.N"])

    def test_build_is_byte_identical_across_hash_seeds(self, fixtures_dir, tmp_path):
        # the string table's order must not follow set or hash order
        src = Path(automaton.__file__).parents[1]
        outputs = []
        for seed in ("1", "2"):
            out = tmp_path / f"lex{seed}.bin"
            subprocess.run(
                [sys.executable, "-m", "lexcov.cli", "compile",
                 str(fixtures_dir / "neymar.dic"), "-o", str(out)],
                env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(src)},
                check=True,
                capture_output=True,
            )
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


# words of forms and lemmas: letters whose case maps are not one-to-one, and
# a comma, which DELAF escapes
ENTRY_WORDS = st.text(alphabet="abßıİﬁ,", min_size=1, max_size=4)


@st.composite
def delaf_line(draw):
    def escaped(words):
        return " ".join(words).replace(",", "\\,")

    form = escaped(draw(st.lists(ENTRY_WORDS, min_size=1, max_size=3)))
    lemma = draw(st.just("") | ENTRY_WORDS.map(lambda w: escaped([w])))
    gram = draw(st.sampled_from(["N", "V", "ADV"]))
    traits = draw(st.lists(st.sampled_from(["Hum", "Conc", "Abs"]), max_size=2))
    flexes = draw(st.lists(st.sampled_from(["ms", "fp", "I1s"]), max_size=2))
    return f"{form},{lemma}.{gram}" + "".join("+" + t for t in traits) + "".join(
        ":" + f for f in flexes
    )


@settings(max_examples=150, deadline=None)
@given(
    files=st.lists(
        st.tuples(st.lists(delaf_line(), min_size=1, max_size=12), st.sampled_from(list(RoleTag))),
        min_size=1,
        max_size=3,
    )
)
def test_save_load_round_trip(files):
    entries = [[parse_entry(l) for l in lines] for lines, _ in files]
    lex = compile_lexicon([DictFile(e, role) for e, (_, role) in zip(entries, files)])
    with tempfile.TemporaryDirectory() as tmp:
        path, again = Path(tmp) / "lex.bin", Path(tmp) / "again.bin"
        save_lexicon(lex, path)
        loaded = load_lexicon(path)
        save_lexicon(loaded, again)
        assert again.read_bytes() == path.read_bytes()
    assert loaded.stats == lex.stats
    # the loaded lexicon holds each input entry, one analysis per flex
    # code, with the roles of every file that has the analysis
    expected, roles = {}, {}
    for file_entries, (_, role) in zip(entries, files):
        for e in file_entries:
            for flex in zip(e.flex_codes) if e.flex_codes else ((),):
                expected.setdefault(e.surface_form, set()).add(e._replace(flex_codes=flex))
                roles.setdefault((e.lemma, e.gram_code, e.sem_traits, flex), set()).add(role)
    for form, held in expected.items():
        if " " not in form:
            ids = loaded.lookup_forms(form, CaseFoldPolicy.EXACT)[form]
        elif columns(form)[0][0] is TokenKind.WORD:  # a compound match starts with a word
            matches = loaded.match_compounds(*columns(form), CaseFoldPolicy.EXACT)
            ids = next(ids for _, matched, ids in matches if matched == form)
        else:
            continue
        assert {loaded.entry_for(form, i) for i in ids} == held
    for i in range(lex.stats.analysis_count):
        assert loaded.analysis(i) == lex.analysis(i)
        assert loaded.analysis_roles(i) == lex.analysis_roles(i) == roles[loaded.analysis(i)]
    # compiled and loaded agree on every simple and compound form, and on
    # its capitalized and upper-case variants for the case policies
    for form in sorted(expected):
        for text in {form, form.upper(), form[0].upper() + form[1:]}:
            window = columns(text)
            key = fold_key(window[1][0])
            assert loaded.starts_compound(key) == lex.starts_compound(key)
            for policy in CaseFoldPolicy:
                hits = lex.lookup_forms(text, policy)
                assert loaded.lookup_forms(text, policy) == hits
                matches = lex.match_compounds(*window, policy)
                assert loaded.match_compounds(*window, policy) == matches
                found = [*hits.items(), *((matched, ids) for _, matched, ids in matches)]
                for matched, ids in found:
                    for i in ids:
                        assert loaded.entry_for(matched, i) == lex.entry_for(matched, i)


def resign(path, edit):
    """Rewrite a saved lexicon with ``edit`` applied to its decompressed
    payload, and a length and checksum that match the new payload."""
    data = path.read_bytes()
    payload = zlib.compress(edit(zlib.decompress(data[46:])))
    path.write_bytes(
        data[:6] + struct.pack("<Q", len(payload)) + hashlib.sha256(payload).digest() + payload
    )


# the columns of a .lex payload in order (docs/lexicon-binary.md): each a
# name, its item size, and its item count, a header field or the sum of an
# earlier count column
HEADER_FIELDS = (
    "entries n_forms folded n_states n_transitions n_analyses n_compounds n_fold_extra"
    " n_strings text_size"
).split()
PAYLOAD_COLUMNS = [
    ("lengths", 4, "n_strings"),
    ("text", 1, "text_size"),
    ("lemmas", 4, "n_analyses"),
    ("grams", 4, "n_analyses"),
    ("traits", 4, "n_analyses"),
    ("flexes", 4, "n_analyses"),
    ("masks", 1, "n_analyses"),
    ("finals", 1, "n_states"),
    ("edge_counts", 4, "n_states"),
    ("labels", 4, "n_transitions"),
    ("targets", 4, "n_transitions"),
    ("form_counts", 4, "n_forms"),
    ("form_ids", 4, "form_counts"),
    ("compound_forms", 4, "n_compounds"),
    ("compound_counts", 4, "n_compounds"),
    ("compound_ids", 4, "compound_counts"),
    ("fold_keys", 4, "n_fold_extra"),
    ("fold_counts", 4, "n_fold_extra"),
    ("fold_forms", 4, "fold_counts"),
]


class Column(namedtuple("Column", "at count size")):
    """A payload column: its byte offset, item count and item size."""

    def offsets(self, i):
        """The byte offsets of item ``i``: one for a u8; for a u32, one in
        each of the column's four byte planes, the least significant first."""
        return [self.at + i] if self.size == 1 else [self.at + k * self.count + i for k in range(4)]


def payload_columns(raw):
    """The columns of a .lex payload, by name; its header is read as it
    is, and each count column's items summed to size the next column."""
    counts = dict(zip(HEADER_FIELDS, automaton._HEADER.unpack_from(raw)))
    columns, at = {}, automaton._HEADER.size
    for name, size, count in PAYLOAD_COLUMNS:
        if count in columns:
            n = sum(read(raw, columns[count].offsets(i)) for i in range(columns[count].count))
        else:
            n = counts[count]
        columns[name] = Column(at, n, size)
        at += n * size
    assert at == len(raw)
    return columns


def read(raw, offsets):
    """The little-endian integer whose bytes are at these byte offsets."""
    return int.from_bytes(bytes(raw[at] for at in offsets), "little")


def write(raw, offsets, value):
    """``raw`` with ``value``'s little-endian bytes at these byte offsets."""
    out = bytearray(raw)
    for at, byte in zip(offsets, value.to_bytes(len(offsets), "little")):
        out[at] = byte
    return bytes(out)


def put(raw, name, i, value):
    """``raw`` with item ``i`` of the named column set to ``value``."""
    return write(raw, payload_columns(raw)[name].offsets(i), value)


def set_item(name, i, value):
    """The edit that sets item ``i`` of the named column to ``value``."""

    def edit(raw):
        return put(raw, name, i, value)

    return edit


def root_edges(*labels):
    """Give the root of "zê" both edges, to states 1 and 2, with these
    labels, and state 1 none; in code-point order, the payload loads."""

    def edit(raw):
        raw = put(put(raw, "edge_counts", 0, 2), "edge_counts", 1, 0)
        for i, label in enumerate(labels):
            raw = put(raw, "labels", i, ord(label))
        return raw

    return edit


class TestBrokenPayload:
    """Payloads that pass the checksum but that compile_lexicon never packs."""

    @pytest.fixture
    def saved(self, tmp_path):
        # "zê" is state 0 -z-> state 1 -ê-> state 2; analyses 0 (N) and 1
        # (ADV); strings "zê", "zê ca", "N", "ADV" and "" are ids 0 to 4
        path = tmp_path / "broken.lex"
        save_lexicon(lex_from_lines(["zê,.N", "zê ca,.ADV"]), path)
        return path

    @pytest.mark.parametrize(
        "edit, message",
        [
            # an edge whose target is not a state
            (set_item("targets", 0, 999), "edge to state 999"),
            # the root's one edge, "z", is the first label
            (set_item("labels", 0, 0x110000), "code point 0x110000"),
            (set_item("labels", 0, 0xFFFFFFFF), "code point 0xffffffff"),
            (set_item("labels", 0, 0xD800), "code point 0xd800"),
            # the root's two edges out of code-point order, or with one label
            (root_edges("z", "a"), "state 0's edges 'z' and 'a' are out of code-point order"),
            (root_edges("z", "z"), "state 0 has two edges labelled 'z'"),
            # in order, but state 1, with no edge and not final, accepts no
            # form, and "ê" would read the analyses of "zê"
            (root_edges("z", "ê"), "state 1 accepts no form"),
            (lambda raw: raw.replace("zê".encode(), b"z\xc3(", 1), "invalid continuation byte"),
            (lambda raw: raw + b"\0", "1 unread bytes"),
            (lambda raw: raw[:-1], "unexpected end of payload"),
            # "zê" is the first string: 2 characters, now 3
            (
                set_item("lengths", 0, 3),
                "string lengths add up to 12 characters, but the string table holds 11",
            ),
            (set_item("lemmas", 0, 5), "string id 5, but there are 5 strings"),
            # traits and flex codes are split only when a lookup reads
            # them, but their ids are checked at load
            (set_item("traits", 0, 6), "string id 6, but there are 5 strings"),
            (set_item("flexes", 0, 7), "string id 7, but there are 5 strings"),
            # string 4 is "": entries are built without DictEntry's checks
            (set_item("lemmas", 0, 4), "analysis 0 has an empty lemma"),
            (set_item("grams", 0, 4), "analysis 0 has an empty grammatical code"),
            (set_item("grams", 1, 4), "analysis 1 has an empty grammatical code"),
            # "zê" is now empty and "zê ca" two characters longer: two empty strings
            (
                lambda raw: put(put(raw, "lengths", 0, 0), "lengths", 1, 7),
                "strings 0 and 4 are both empty",
            ),
        ],
    )
    def test_resigned_payload_is_corrupt(self, saved, edit, message):
        self.check(saved, edit, message)

    @pytest.mark.parametrize(
        "edit, message",
        [
            # the header's state count is its fourth u64
            (lambda raw: write(raw, range(24, 32), 0), "no root state"),
            # the edge from state 1 now leads past the last state
            (lambda raw: put(raw, "targets", 1, 999), "edge to state 999"),
            # the edge from state 1 now leads back to the root
            (lambda raw: put(raw, "targets", 1, 0), "cycle through state"),
            # state 1 is now final: the automaton accepts "z" too
            (
                lambda raw: put(raw, "finals", 1, 1),
                "the automaton's form count is 2, the form table's 1",
            ),
            (lambda raw: put(raw, "form_ids", 0, 7), "analysis id 7, but there are 2"),
            (lambda raw: put(raw, "compound_ids", 0, 2), "analysis id 2, but there are 2"),
            # compounds are tokenized only when a match reaches them, but
            # an empty form fails at load
            (lambda raw: put(raw, "compound_forms", 0, 4), "compound '' has no tokens"),
        ],
    )
    def test_saved_broken_lexicon_is_corrupt(self, saved, edit, message):
        # the automaton's and the analysis tables' checks
        self.check(saved, edit, message)

    def test_empty_fold_extra_form_is_corrupt(self, tmp_path):
        # "Ab" is the fold-extra form of "ab"; string 2 is "", which a
        # unitex_like lookup of "ab" would have indexed
        path = tmp_path / "fold.lex"
        save_lexicon(lex_from_lines(["Ab,.N"]), path)
        self.check(path, set_item("fold_forms", 0, 2), "fold-extra form 0 is empty")

    @staticmethod
    def check(path, edit, message):
        load_lexicon(path)
        resign(path, edit)
        with pytest.raises(CorruptFile, match=message):
            load_lexicon(path)


# u32 values and bounds at and about the byte-plane boundaries, where the
# planes of a value and of the bound tie or part
PLANE_EDGES = [0, 1, 255, 256, 257, 65535, 65536, 2**24 - 1, 2**24, 2**24 + 1, 2**32 - 1]
U32_VALUES = st.one_of(
    st.sampled_from(PLANE_EDGES),
    st.sampled_from(PLANE_EDGES).flatmap(
        lambda edge: st.integers(max(0, edge - 2), min(2**32 - 1, edge + 2))
    ),
    st.integers(0, 2**32 - 1),
)


@st.composite
def columns_and_bounds(draw):
    """A u32 column and a bound: a plane edge, a value of the column give
    or take a plane's width, or a bound no u32 reaches; or a bound and a
    column whose values take each byte from about the bound's, so that
    they tie with it on some planes and part on others."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 2**32 - 1))
        near = [st.sampled_from([b - 1, b, b + 1, 0, 255]) for b in (n - 1).to_bytes(4, "little")]
        value = st.tuples(*near).map(lambda bs: bytes(min(max(b, 0), 255) for b in bs))
        return draw(st.lists(value.map(lambda b: int.from_bytes(b, "little")), max_size=12)), n
    col = draw(st.lists(U32_VALUES, max_size=12))
    near = st.sampled_from(col or [0]).flatmap(
        lambda v: st.sampled_from([v - 256, v - 255, v - 1, v, v + 1, v + 255, v + 256])
    )
    n = draw(st.one_of(U32_VALUES, near, st.integers(2**32, 2**40)))
    return col, max(n, 0)


def planes_of(col):
    """The byte planes of a u32 column, the least significant first."""
    data = struct.pack(f"<{len(col)}I", *col)
    return b"".join(data[k::4] for k in range(4))


class TestColumnCodec:
    @settings(max_examples=500)
    @given(drawn=columns_and_bounds())
    @example(drawn=([], 0))
    @example(drawn=([0, 255, 256, 2**16, 2**24, 2**32 - 1], 2**24))
    def test_round_trip(self, drawn):
        # a u32 column is written as its byte planes and read back as its
        # items; its bound is checked on the planes as written
        col, n = drawn
        planes = automaton._column(col)
        assert planes == planes_of(col)
        assert list(struct.unpack(f"<{len(col)}I", automaton._interleave(planes))) == col
        assert automaton._all_below(planes, n) == (max(col, default=-1) < n)


class TestAllBelow:
    @settings(max_examples=500)
    @given(drawn=columns_and_bounds(), as_view=st.booleans())
    def test_matches_max(self, drawn, as_view):
        col, n = drawn
        planes = planes_of(col)
        if as_view:  # load passes slices of the payload's memoryview
            planes = memoryview(b"\xff" + planes)[1:]
        assert automaton._all_below(planes, n) == (max(col, default=-1) < n)

    @pytest.mark.parametrize(
        "col, n, below",
        [
            ([], 0, True),
            ([0], 0, False),
            ([255], 256, True),
            ([256], 256, False),
            # above in the second plane
            ([0x0100, 0x01FF, 0x0200], 0x01FF, False),
            # a low byte above n - 1's, of a value that ties in the second
            # plane, or of one below there, which the tie mask leaves out
            ([0x00FF, 0x01FF], 0x01FF, False),
            ([0x0100, 0x01FE, 0x00FF], 0x01FF, True),
            # the second value ties in the third plane only, after it parted
            ([0x050400, 0x0405FF], 0x050506, True),
            ([2**32 - 1], 2**32 - 1, False),
            ([2**32 - 1], 2**32, True),
        ],
    )
    def test_cases(self, col, n, below):
        assert automaton._all_below(planes_of(col), n) is below


class TestFindU32:
    @settings(max_examples=500)
    @given(
        col=st.lists(st.sampled_from([0, 1, 0x100, 0x01000000, 0x00010000, 2**32 - 1]), max_size=8),
        value=st.sampled_from([0, 1, 0x100, 0x01000000]),
        start=st.integers(0, 9),
    )
    def test_matches_index(self, col, value, start):
        # the column's own bytes are searched: matches that straddle two of
        # its items are not found
        data = struct.pack(f"<{len(col)}I", *col)
        expected = col.index(value, start) if value in col[start:] else -1
        assert automaton._find_u32(data, value, start) == expected

    @pytest.mark.parametrize(
        "col, start, found",
        [
            # 0 straddles the items 1 and 0x100 at byte 1, and is found at item 2
            pytest.param([1, 0x100, 0], 0, 2, id="straddle-then-item-2"),
            pytest.param([1, 0x01000000], 0, -1, id="straddle-only"),
            # a 0 in the first or the last item is found, and one before
            # the start is not, nor a match straddling the start
            pytest.param([0, 1], 0, 0, id="first-item"),
            pytest.param([2**32 - 1, 0], 0, 1, id="last-item"),
            pytest.param([0, 1], 1, -1, id="before-start"),
            pytest.param([0, 0x100], 1, -1, id="straddles-start"),
        ],
    )
    def test_cases(self, col, start, found):
        data = struct.pack(f"<{len(col)}I", *col)
        assert automaton._find_u32(data, 0, start) == found
