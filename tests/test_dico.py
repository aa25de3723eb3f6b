import random

import pytest

from lexcov.automaton import CaseFoldPolicy, compile_lexicon
from lexcov.delaf import DictFile, load_dict_file, parse_entry, serialize_entry
from lexcov.dico import (
    DicoResult,
    TokenStatus,
    apply_dictionaries,
    merge_results,
    read_annotations,
    write_outputs,
)
from lexcov.errors import PolicyMismatch
from lexcov.preprocess import normalize_delimiters, segment_sentences, tokenize

from oracles import oracle_err_and_known

NEYMAR_SENTENCE = "O time de Neymar corria atrás do prejuízo"


def run(text, lexicons, policy=CaseFoldPolicy.UNITEX_LIKE):
    stream = segment_sentences(tokenize(normalize_delimiters(text)))
    return apply_dictionaries(lexicons, stream, policy)


def lex_from_lines(lines):
    return compile_lexicon([DictFile([parse_entry(l) for l in lines])])


class TestApplyDictionaries:
    def test_neymar_worked_example(self, neymar_lexicon, fixtures_dir):
        result = run(NEYMAR_SENTENCE, neymar_lexicon)
        expected_dlf = set(
            (fixtures_dir / "neymar.dic").read_text(encoding="utf-8").split()
        )
        assert {serialize_entry(e) for e in result.dlf} == expected_dlf
        assert len(result.dlf) == 12
        assert result.err == {"Neymar"}
        assert result.dlc == {}
        counts = result.status_counts()
        assert counts[TokenStatus.KNOWN_SIMPLE] == 7
        assert counts[TokenStatus.UNKNOWN] == 1
        assert counts[TokenStatus.IN_COMPOUND_ONLY] == 0

    def test_nothing_matches(self):
        lex = lex_from_lines(["zzz,.N"])
        result = run("uma frase qualquer", lex)
        assert result.err == {"uma", "frase", "qualquer"}
        assert result.dlf == set()

    def test_full_coverage(self):
        lex = lex_from_lines(["uma,.DET", "frase,.N", "qualquer,.ADJ"])
        result = run("uma frase qualquer", lex)
        assert result.err == set()
        assert result.status_counts()[TokenStatus.UNKNOWN] == 0

    def test_numbers_and_punct_never_in_err(self):
        lex = lex_from_lines(["ano,.N"])
        result = run("70 anos!", lex)
        assert "70" not in result.err
        assert "!" not in result.err
        assert result.err == {"anos"}

    def test_partition_counts_sum_to_word_tokens(self):
        lex = lex_from_lines(["por exemplo,.ADV", "caso,.N"])
        result = run("Por exemplo, um caso raro.", lex)
        counts = result.status_counts()
        assert sum(counts.values()) == result.word_token_count == 5

    def test_compound_only_tokens(self):
        lex = lex_from_lines(["por exemplo,.ADV"])
        result = run("por exemplo", lex)
        counts = result.status_counts()
        assert counts[TokenStatus.IN_COMPOUND_ONLY] == 2
        assert result.err == set()
        assert list(result.dlc.values()) == [1]

    def test_compound_with_simple_analyses_stays_known_simple(self):
        lex = lex_from_lines(["por exemplo,.ADV", "por,.PREP"])
        result = run("por exemplo", lex)
        counts = result.status_counts()
        assert counts[TokenStatus.KNOWN_SIMPLE] == 1  # "por"
        assert counts[TokenStatus.IN_COMPOUND_ONLY] == 1  # "exemplo"

    def test_greedy_longest_compound(self):
        lex = lex_from_lines(["a fim de,.PREP", "a fim,.ADJ"])
        result = run("a fim de tudo", lex)
        (entry,) = result.dlc
        assert entry.surface_form == "a fim de"

    def test_compounds_do_not_cross_sentences(self):
        lex = lex_from_lines(["por exemplo,.ADV"])
        result = run("Acabou por. Exemplo disso.", lex)
        assert result.dlc == {}

    def test_err_keeps_original_casing(self, neymar_lexicon):
        result = run("Neymar neymar NEYMAR", neymar_lexicon)
        assert result.err == {"Neymar", "neymar", "NEYMAR"}

    def test_union_of_two_lexicons(self):
        a = lex_from_lines(["uma,.DET"])
        b = lex_from_lines(["frase,.N"])
        result = run("uma frase", [a, b])
        assert result.err == set()

    def test_oracle_equivalence_generated(self):
        rng = random.Random(13)
        alphabet = "abcoé"
        for _ in range(10):
            forms = {
                "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 6)))
                for _ in range(rng.randint(1, 120))
            }
            words = [
                "".join(rng.choice(alphabet + "ABC") for _ in range(rng.randint(1, 6)))
                for _ in range(rng.randint(1, 300))
            ]
            text = " ".join(words)
            for policy in (CaseFoldPolicy.EXACT, CaseFoldPolicy.UNITEX_LIKE):
                lex = lex_from_lines([f"{f},.N" for f in sorted(forms)])
                result = run(text, lex, policy)
                form_map = {f: {f} for f in forms}
                err, _known = oracle_err_and_known(words, form_map, policy.value)
                assert result.err == err


class TestOneCaseRule:
    """A simple form and a compound word accept the same tokens."""

    def statuses(self, result):
        return [(a.text, a.status) for a in result.annotations if a.status]

    def test_sharp_s_upper_case(self):
        lex = lex_from_lines(["straße,.N", "straße larga,.N"])
        result = run("STRASSE LARGA. STRASSE.", lex)
        assert self.statuses(result) == [
            ("STRASSE", TokenStatus.KNOWN_SIMPLE),
            ("LARGA", TokenStatus.IN_COMPOUND_ONLY),
            ("STRASSE", TokenStatus.KNOWN_SIMPLE),
        ]
        assert {serialize_entry(e): n for e, n in result.dlc.items()} == {"straße larga,.N": 1}
        assert result.err == set()

    def test_dotless_i_compound(self):
        result = run("I LARGA.", lex_from_lines(["ı larga,.N"]))
        assert self.statuses(result) == [
            ("I", TokenStatus.IN_COMPOUND_ONLY),
            ("LARGA", TokenStatus.IN_COMPOUND_ONLY),
        ]
        assert {serialize_entry(e): n for e, n in result.dlc.items()} == {"ı larga,.N": 1}

    def test_ligature_upper_case(self):
        result = run("FI.", lex_from_lines(["ﬁ,.N"]))
        assert self.statuses(result) == [("FI", TokenStatus.KNOWN_SIMPLE)]
        assert {serialize_entry(e) for e in result.dlf} == {"ﬁ,.N"}


class TestMergeResults:
    def test_identity(self, neymar_lexicon):
        x = run(NEYMAR_SENTENCE, neymar_lexicon)
        empty = DicoResult(policy=CaseFoldPolicy.UNITEX_LIKE)
        merged = merge_results(x, empty)
        assert merged.dlf == x.dlf and merged.err == x.err

    def test_commutative_on_sets(self, neymar_lexicon):
        a = run("O time corria", neymar_lexicon)
        b = run("Neymar corria atrás", neymar_lexicon)
        ab, ba = merge_results(a, b), merge_results(b, a)
        assert ab.dlf == ba.dlf and ab.err == ba.err and ab.dlc == ba.dlc

    def test_policy_mismatch(self, neymar_lexicon):
        a = run("time", neymar_lexicon, CaseFoldPolicy.EXACT)
        b = run("time", neymar_lexicon, CaseFoldPolicy.UNITEX_LIKE)
        with pytest.raises(PolicyMismatch):
            merge_results(a, b)

    def test_sharded_equals_whole(self, neymar_lexicon):
        text = "O time de Neymar corria. Corria atrás do prejuízo. O time venceu."
        whole = run(text, neymar_lexicon)
        sentences = [s.strip() + "." for s in text.split(".") if s.strip()]
        merged = DicoResult(policy=CaseFoldPolicy.UNITEX_LIKE)
        for sentence in sentences:
            merged = merge_results(merged, run(sentence, neymar_lexicon))
        assert merged.dlf == whole.dlf
        assert merged.err == whole.err

    def test_offset_of_result_built_from_annotations(self, neymar_lexicon):
        a = run("Fui lá. O time corria.", neymar_lexicon)
        b = run("O time venceu.", neymar_lexicon)
        rebuilt = DicoResult(policy=a.policy, annotations=list(a.annotations))
        assert rebuilt.sentence_count == a.sentence_count == 2
        assert merge_results(rebuilt, b).annotations == merge_results(a, b).annotations


class TestOutputs:
    def test_files_written_sorted(self, neymar_lexicon, tmp_path):
        result = run(NEYMAR_SENTENCE, neymar_lexicon)
        write_outputs(result, tmp_path)
        for name in ("dlf", "dlc", "err", "annotations.tsv"):
            assert (tmp_path / name).exists()
        dlf_lines = (tmp_path / "dlf").read_text(encoding="utf-8").splitlines()
        assert dlf_lines == sorted(dlf_lines) and len(dlf_lines) == 12
        assert (tmp_path / "err").read_text(encoding="utf-8") == "Neymar\n"

    def test_outputs_deterministic(self, neymar_lexicon, tmp_path):
        for sub in ("one", "two"):
            write_outputs(run(NEYMAR_SENTENCE, neymar_lexicon), tmp_path / sub)
        for name in ("dlf", "dlc", "err", "annotations.tsv"):
            assert (tmp_path / "one" / name).read_bytes() == (
                tmp_path / "two" / name
            ).read_bytes()

    def test_annotations_round_trip(self, neymar_lexicon, tmp_path):
        result = run("Fui lá. O time corria.", neymar_lexicon)
        write_outputs(result, tmp_path)
        annotations = read_annotations(tmp_path / "annotations.tsv")
        original_words = [a for a in result.annotations if a.status is not None]
        read_words = [a for a in annotations if a.status is not None]
        assert [(a.text, a.sentence_index, a.sentence_initial, a.status) for a in original_words] == [
            (a.text, a.sentence_index, a.sentence_initial, a.status) for a in read_words
        ]
