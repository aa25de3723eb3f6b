import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lexcov.automaton import compile_lexicon
from lexcov.classify import (
    Category,
    ClassifierConfig,
    CasingProfile,
    DEFAULT_PRECEDENCE,
    PORTUGUESE_ALPHABET,
    RULE_CATEGORY,
    UnknownRecord,
    build_unknown_records,
    category_histogram,
    classify,
    load_classifier_config,
    write_classification_tsv,
)
from lexcov.delaf import DictFile, load_dict_file, parse_entry
from lexcov.dico import apply_dictionaries
from lexcov.errors import ConfigError
from lexcov.preprocess import normalize_delimiters, segment_sentences, tokenize

from oracles import levenshtein, oracle_edit_1


def load_records(path):
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            form, freq, *counts = line.rstrip("\n").split("\t")
            lower, cap, upper, mixed, noninit, noninit_cap = map(int, counts)
            records.append(
                UnknownRecord(
                    form=form,
                    frequency=int(freq),
                    profile=CasingProfile(
                        all_lower=lower,
                        capitalized=cap,
                        all_upper=upper,
                        mixed=mixed,
                        non_initial=noninit,
                        non_initial_cap=noninit_cap,
                    ),
                )
            )
    return records


@pytest.fixture(scope="module")
def table_records(fixtures_dir):
    return load_records(fixtures_dir / "unknowns_tables.tsv")


@pytest.fixture(scope="module")
def classifier_lexicon(fixtures_dir):
    return compile_lexicon([load_dict_file(fixtures_dir / "classifier.dic")])


@pytest.fixture(scope="module")
def classified(table_records, classifier_lexicon):
    return classify(table_records, classifier_lexicon)


LABELED = {
    "umchorão": Category.TYPING_ERROR,
    "idéia": Category.OLD_SPELLING,
    "uanderson": Category.PROPER_NAME,
    "ufrj": Category.ABBREVIATION_ACRONYM,
    "united": Category.FOREIGN_OR_SLANG,
    "umidificador": Category.OTHER_NOUN,
    "aboubacar": Category.OTHER,
}


class TestLabeledExamples:
    @pytest.mark.parametrize("form,category", sorted(LABELED.items()))
    def test_routing(self, classified, form, category):
        record = next(r for r in classified if r.form == form)
        assert record.category is category

    def test_split_evidence_for_umchorao(self, classified):
        record = next(r for r in classified if r.form == "umchorão")
        assert record.winning_rule == "R-typo"
        assert any("'um'" in d and "'chorão'" in d for _, d in record.evidence)

    def test_old_spelling_evidence(self, classified):
        record = next(r for r in classified if r.form == "idéia")
        assert record.winning_rule == "R-old"
        assert any("ideia" in d for _, d in record.evidence)

    def test_other_has_no_evidence(self, classified):
        record = next(r for r in classified if r.form == "aboubacar")
        assert record.winning_rule is None and record.evidence == []


class TestInvariants:
    def test_totality(self, classified):
        assert len(classified) == 120
        for r in classified:
            assert isinstance(r.category, Category)

    def test_evidence_nonempty_unless_other(self, classified):
        for r in classified:
            if r.category is Category.OTHER:
                assert r.winning_rule is None and r.evidence == []
            else:
                assert r.winning_rule in r.firing_rules
                assert r.evidence

    def test_winner_matches_category(self, classified):
        for r in classified:
            if r.winning_rule is not None:
                assert RULE_CATEGORY[r.winning_rule] is r.category

    def test_profile_sums_to_frequency(self, table_records):
        for r in table_records:
            assert r.profile.total == r.frequency

    def test_histogram_totals(self, classified):
        hist = category_histogram(classified)
        assert sum(hist.values()) == 120
        assert set(hist) == {c.value for c in Category}

    def test_precedence_permutation_only_moves_multifire(
        self, table_records, classifier_lexicon
    ):
        base = classify(table_records, classifier_lexicon)
        permuted = ClassifierConfig(precedence=tuple(reversed(DEFAULT_PRECEDENCE)))
        alt = classify(table_records, classifier_lexicon, config=permuted)
        for x, y in zip(base, alt):
            assert set(x.firing_rules) == set(y.firing_rules)
            if len(x.firing_rules) <= 1:
                assert x.category is y.category


class TestEditDistance:
    def test_abdomem(self, classifier_lexicon):
        assert classifier_lexicon.within_one_edit("abdômem", PORTUGUESE_ALPHABET) == ["abdômen"]

    def test_no_candidates(self, classifier_lexicon):
        assert classifier_lexicon.within_one_edit("xqzj", PORTUGUESE_ALPHABET) == []

    def test_never_returns_input(self, classifier_lexicon):
        assert "casa" not in classifier_lexicon.within_one_edit("casa", PORTUGUESE_ALPHABET)

    def test_against_levenshtein_oracle(self):
        rng = random.Random(71)
        alphabet = "abcdefghijáéó"
        forms = sorted(
            {
                "".join(rng.choice(alphabet) for _ in range(rng.randint(2, 8)))
                for _ in range(600)
            }
        )[:500]
        lex = compile_lexicon([DictFile([parse_entry(f"{f},.N") for f in forms])])
        for _ in range(100):
            probe = "".join(
                rng.choice(alphabet) for _ in range(rng.randint(1, 9))
            )
            expected = sorted(
                f for f in forms if f != probe and levenshtein(probe, f) == 1
            )
            assert lex.within_one_edit(probe, PORTUGUESE_ALPHABET) == expected

    # forms and probes with characters outside PORTUGUESE_ALPHABET
    WIDE = "abcáçXYñ-1"

    def test_wide_chars_against_oracle(self):
        rng = random.Random(73)
        forms = sorted(
            {
                "".join(rng.choice(self.WIDE) for _ in range(rng.randint(1, 5)))
                for _ in range(400)
            }
        )
        lex = _simple_lexicon(forms)
        probes = ["", *forms[:40]]
        probes += ["".join(rng.choice(self.WIDE) for _ in range(rng.randint(1, 6)))
                   for _ in range(300)]
        for probe in probes:
            for alphabet in (PORTUGUESE_ALPHABET, "aX-"):
                assert lex.within_one_edit(probe, alphabet) == oracle_edit_1(
                    probe, forms, alphabet
                ), (probe, alphabet)

    def test_alphabet_limits_insertion_and_substitution_only(self):
        lex = _simple_lexicon(["Casa", "casa", "guarda-chuva", "niño", "p2p"])
        assert lex.within_one_edit("Xasa", PORTUGUESE_ALPHABET) == ["casa"]
        assert lex.within_one_edit("guardachuva", PORTUGUESE_ALPHABET) == []
        assert lex.within_one_edit("guarda--chuva", PORTUGUESE_ALPHABET) == ["guarda-chuva"]
        assert lex.within_one_edit("nio", PORTUGUESE_ALPHABET) == []
        assert lex.within_one_edit("nino", PORTUGUESE_ALPHABET) == []
        assert lex.within_one_edit("niñoo", PORTUGUESE_ALPHABET) == ["niño"]
        assert lex.within_one_edit("pp", PORTUGUESE_ALPHABET) == []
        assert lex.within_one_edit("p2pX", PORTUGUESE_ALPHABET) == ["p2p"]

    def test_empty_and_one_char_probes(self):
        lex = _simple_lexicon(["a", "b", "X", "ab"])
        assert lex.within_one_edit("", PORTUGUESE_ALPHABET) == ["a", "b"]
        assert lex.within_one_edit("a", PORTUGUESE_ALPHABET) == ["ab", "b"]
        assert lex.within_one_edit("X", PORTUGUESE_ALPHABET) == ["a", "b"]
        assert lex.within_one_edit("ñ", PORTUGUESE_ALPHABET) == ["a", "b"]

    def test_probe_in_lexicon_gives_its_neighbours(self):
        lex = _simple_lexicon(["casa", "casas", "caso", "cas"])
        assert lex.within_one_edit("casa", PORTUGUESE_ALPHABET) == ["cas", "casas", "caso"]

    @settings(max_examples=300, deadline=None)
    @given(
        forms=st.lists(st.text(alphabet=WIDE, min_size=1, max_size=5), max_size=30),
        probe=st.text(alphabet=WIDE, max_size=6),
        alphabet=st.sampled_from([PORTUGUESE_ALPHABET, "aX-", ""]),
    )
    def test_property_against_oracle(self, forms, probe, alphabet):
        forms = sorted(set(forms) | {"a"})
        lex = _simple_lexicon(forms)
        assert lex.within_one_edit(probe, alphabet) == oracle_edit_1(
            probe, forms, alphabet
        )


def _simple_lexicon(forms):
    return compile_lexicon([DictFile([parse_entry(f"{f},.N") for f in forms])])


class TestBuildRecords:
    def test_from_dico(self, fixtures_dir):
        lex = compile_lexicon([load_dict_file(fixtures_dir / "classifier.dic")])
        stream = segment_sentences(
            tokenize(normalize_delimiters("Zumbi dança. O povo viu Zumbi e zumbi."))
        )
        records = build_unknown_records(apply_dictionaries(lex, stream))
        by_form = {r.form: r for r in records}
        zumbi = by_form["zumbi"]
        assert zumbi.frequency == 3
        assert zumbi.profile.capitalized == 2 and zumbi.profile.all_lower == 1
        assert zumbi.profile.non_initial == 2 and zumbi.profile.non_initial_cap == 1

    def test_sorted_by_form(self, classified):
        forms = [r.form for r in classified]
        assert forms == sorted(forms)


# each key docs/classifier.md names: a value for it ({words} is a word
# list file), the ClassifierConfig field it sets and what it sets it to
CONFIG_KEYS = {
    "acr_min_len": ("3", "acr_min_len", 3),
    "acr_max_len": ("8", "acr_max_len", 8),
    "typo_min_form_len": ("6", "typo_min_form_len", 6),
    "typo_split_min_part": ("3", "typo_split_min_part", 3),
    "noun_min_len": ("5", "noun_min_len", 5),
    "upper_ratio": ("0.75", "upper_ratio", 0.75),
    "prop_ratio": ("0.5", "prop_ratio", 0.5),
    "noun_ratio": ("0.8", "noun_ratio", 0.8),
    "precedence": ('["R-noun", "R-acr"]', "precedence", ("R-noun", "R-acr")),
    "foreign_bigrams": ("[th, ^y]", "foreign_bigrams", ("th", "^y")),
    "acronym_list": ("{words}", "acronyms", {"puc", "ufrgs"}),
    "bigram_list": ("{words}", "foreign_bigrams", ("puc", "ufrgs")),
    "exception_list": ("{words}", "foreign_exceptions", {"puc", "ufrgs"}),
}


class TestConfig:
    def test_defaults_roundtrip(self, tmp_path):
        cfg_path = tmp_path / "cls.conf"
        cfg_path.write_text(
            "# thresholds\n"
            "acr_max_len = 8\n"
            "upper_ratio = 0.75\n"
            'precedence = ["R-prop", "R-acr"]\n',
            encoding="utf-8",
        )
        cfg = load_classifier_config(cfg_path)
        assert cfg.acr_max_len == 8
        assert cfg.upper_ratio == 0.75
        assert cfg.precedence == ("R-prop", "R-acr")
        assert cfg.noun_min_len == 4  # untouched default

    def test_word_list_value(self, tmp_path):
        words = tmp_path / "acr.txt"
        words.write_text("PUC\nufrgs\n", encoding="utf-8")
        cfg_path = tmp_path / "cls.conf"
        cfg_path.write_text(f"acronym_list = {words}\n", encoding="utf-8")
        cfg = load_classifier_config(cfg_path)
        assert cfg.acronyms == {"puc", "ufrgs"}

    def test_unknown_rule_id(self):
        with pytest.raises(ConfigError):
            ClassifierConfig(precedence=("R-bogus",))

    def test_bad_line_reports_location(self, tmp_path):
        cfg_path = tmp_path / "cls.conf"
        cfg_path.write_text("acr_min_len 2\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=":1:"):
            load_classifier_config(cfg_path)

    def test_bad_value(self, tmp_path):
        cfg_path = tmp_path / "cls.conf"
        cfg_path.write_text("acr_min_len = two\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_classifier_config(cfg_path)

    def test_unknown_key(self, tmp_path):
        cfg_path = tmp_path / "cls.conf"
        cfg_path.write_text("frobnicate = 1\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_classifier_config(cfg_path)

    # a setting's own name is not a key when a word-list key sets it
    @pytest.mark.parametrize("key", ["acronyms", "foreign_exceptions"])
    def test_word_list_setting_is_not_a_key(self, tmp_path, key):
        cfg_path = tmp_path / "cls.conf"
        cfg_path.write_text(f"{key} = [puc, ufrgs]\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=f":1: unknown key '{key}'"):
            load_classifier_config(cfg_path)

    def test_docs_name_every_key(self):
        doc = Path(__file__).resolve().parents[1] / "docs" / "classifier.md"
        section = doc.read_text(encoding="utf-8").split("## Config file", 1)[1]
        section = section.split("\n## ", 1)[0]
        assert set(re.findall(r"`(\w+)`", section)) == set(CONFIG_KEYS)

    @pytest.mark.parametrize("key", CONFIG_KEYS)
    def test_key_loads_into_its_field(self, tmp_path, key):
        value, field, expected = CONFIG_KEYS[key]
        words = tmp_path / "words.txt"
        words.write_text("ufrgs\nPUC\n\n", encoding="utf-8")
        cfg_path = tmp_path / "cls.conf"
        cfg_path.write_text(f"{key} = {value.format(words=words)}\n", encoding="utf-8")
        cfg = load_classifier_config(cfg_path)
        default = getattr(ClassifierConfig(), field)
        assert getattr(cfg, field) == expected != default
        assert type(getattr(cfg, field)) is type(default)
        assert cfg._replace(**{field: default}) == ClassifierConfig()

    def test_rule_table_order_is_the_default_precedence(self):
        assert tuple(RULE_CATEGORY) == DEFAULT_PRECEDENCE


class TestOutput:
    def test_tsv_writer(self, classified, tmp_path):
        out = tmp_path / "cls.tsv"
        write_classification_tsv(classified, out)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 120
        row = next(l for l in lines if l.startswith("ufrj\t"))
        fields = row.split("\t")
        assert fields[2] == "abbreviation_acronym"
        assert fields[3] == "R-acr"
