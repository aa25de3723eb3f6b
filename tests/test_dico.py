import random

import pytest

from lexcov.automaton import CaseFoldPolicy, compile_lexicon
from lexcov.delaf import DictFile, load_dict_file, parse_entry, serialize_entry
from lexcov.dico import (
    DicoResult,
    TokenStatus,
    apply_dictionaries,
    merge_results,
    open_annotations,
    read_annotations,
    write_outputs,
)
from lexcov.errors import MalformedAnnotations, PolicyMismatch
from lexcov.preprocess import normalize_delimiters, segment_sentences, tokenize

from oracles import oracle_err_and_known

NEYMAR_SENTENCE = "O time de Neymar corria atrás do prejuízo"


def run(text, lexicons, policy=CaseFoldPolicy.UNITEX_LIKE, sink=None):
    stream = segment_sentences(tokenize(normalize_delimiters(text)))
    return apply_dictionaries(lexicons, stream, policy, sink)


def write_run(text, lexicons, outdir):
    """Apply as `lexcov apply` does: rows written as the text is applied."""
    with open_annotations(outdir) as sink:
        result = run(text, lexicons, sink=sink)
        write_outputs(result, outdir)
    return result


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

    def run(self, text, lex):
        """The result and the (text, status) of each word token, in order."""
        annotations = []
        result = run(text, lex, sink=annotations.append)
        return result, [(a.text, a.status) for a in annotations if a.status]

    def test_sharp_s_upper_case(self):
        lex = lex_from_lines(["straße,.N", "straße larga,.N"])
        result, statuses = self.run("STRASSE LARGA. STRASSE.", lex)
        assert statuses == [
            ("STRASSE", TokenStatus.KNOWN_SIMPLE),
            ("LARGA", TokenStatus.IN_COMPOUND_ONLY),
            ("STRASSE", TokenStatus.KNOWN_SIMPLE),
        ]
        assert {serialize_entry(e): n for e, n in result.dlc.items()} == {"straße larga,.N": 1}
        assert result.err == set()

    def test_dotless_i_compound(self):
        result, statuses = self.run("I LARGA.", lex_from_lines(["ı larga,.N"]))
        assert statuses == [
            ("I", TokenStatus.IN_COMPOUND_ONLY),
            ("LARGA", TokenStatus.IN_COMPOUND_ONLY),
        ]
        assert {serialize_entry(e): n for e, n in result.dlc.items()} == {"ı larga,.N": 1}

    def test_ligature_upper_case(self):
        result, statuses = self.run("FI.", lex_from_lines(["ﬁ,.N"]))
        assert statuses == [("FI", TokenStatus.KNOWN_SIMPLE)]
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
        assert merged.word_counts == whole.word_counts
        assert merged.sentence_count == whole.sentence_count == 3


class TestOutputs:
    def test_files_written_sorted(self, neymar_lexicon, tmp_path):
        write_run(NEYMAR_SENTENCE, neymar_lexicon, tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "annotations.tsv", "dlc", "dlf", "err"
        ]
        dlf_lines = (tmp_path / "dlf").read_text(encoding="utf-8").splitlines()
        assert dlf_lines == sorted(dlf_lines) and len(dlf_lines) == 12
        assert (tmp_path / "err").read_text(encoding="utf-8") == "Neymar\n"

    def test_outputs_deterministic(self, neymar_lexicon, tmp_path):
        for sub in ("one", "two"):
            write_run(NEYMAR_SENTENCE, neymar_lexicon, tmp_path / sub)
        for name in ("dlf", "dlc", "err", "annotations.tsv"):
            assert (tmp_path / "one" / name).read_bytes() == (
                tmp_path / "two" / name
            ).read_bytes()

    def test_annotations_round_trip(self, tmp_path):
        lex = lex_from_lines(["por exemplo,.ADV", "o,.DET", "time,.N", "venceu,vencer.V"])
        # unknown words at a sentence start (Neymar, Zico) and inside one
        # (Zico, jogos), a number, and a compound over two words that have
        # no simple entry
        text = "Neymar venceu 2 jogos, por exemplo. Zico venceu. O time de Zico venceu."
        result = write_run(text, lex, tmp_path)
        keys = set(result.word_counts)
        assert ("Zico", TokenStatus.UNKNOWN, True) in keys
        assert ("Zico", TokenStatus.UNKNOWN, False) in keys
        assert ("exemplo", TokenStatus.IN_COMPOUND_ONLY, False) in keys
        assert read_annotations(tmp_path / "annotations.tsv") == result.word_counts

    @pytest.mark.parametrize(
        "row, problem",
        [
            ("time\twrd\t0\tknown_simple\t.N", "unknown token kind 'wrd'"),
            ("time\tword\t0\tknown\t.N", "status 'known' on a word row"),
            ("time\tword\t0\t\t", "status '' on a word row"),
            (".\tpunct\t0\tunknown\t", "status 'unknown' on a punct row"),
            ("time\tword\tzero\tknown_simple\t.N", "sentence index 'zero' is not an integer"),
        ],
    )
    def test_malformed_row(self, tmp_path, row, problem):
        path = tmp_path / "annotations.tsv"
        path.write_text(f"O\tword\t0\tknown_simple\t.DET\n{row}\n", encoding="utf-8")
        with pytest.raises(MalformedAnnotations, match=f"line 2: {problem}"):
            read_annotations(path)

    def test_failed_block_leaves_no_trace(self, neymar_lexicon, tmp_path):
        outdir = tmp_path / "new"
        with pytest.raises(RuntimeError):
            with open_annotations(outdir) as sink:
                run(NEYMAR_SENTENCE, neymar_lexicon, sink=sink)
                raise RuntimeError("stop")
        assert not outdir.exists()
