import random
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lexcov.automaton import CaseFoldPolicy, compile_lexicon
from lexcov.delaf import DictFile, load_dict_file, parse_entry, serialize_entry
from lexcov.dico import (
    DicoResult,
    TokenStatus,
    apply_dictionaries,
    open_annotations,
    read_types,
    token_annotations,
    write_outputs,
)
from lexcov.errors import MalformedAnnotations, PolicyMismatch
from lexcov.preprocess import (
    Token,
    TokenKind,
    TokenStream,
    apply_replacements,
    normalize_delimiters,
    segment_sentences,
    tokenize,
)

from oracles import (
    merge_results,
    oracle_annotate,
    oracle_annotations_tsv,
    oracle_err_and_known,
    oracle_normalize,
    oracle_read_annotations,
    oracle_segment,
    oracle_tokenize,
)

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
        result = run(text, lex, sink=lambda a: annotations.extend(token_annotations(a)))
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
            "annotations.tsv", "dlc", "dlf", "err", "types.tsv"
        ]
        dlf_lines = (tmp_path / "dlf").read_text(encoding="utf-8").splitlines()
        assert dlf_lines == sorted(dlf_lines) and len(dlf_lines) == 12
        assert (tmp_path / "err").read_text(encoding="utf-8") == "Neymar\n"
        # one row per (text, status, sentence-initial), sorted
        assert (tmp_path / "types.tsv").read_text(encoding="utf-8") == (
            "Neymar\tunknown\t0\t1\n"
            "O\tknown_simple\t1\t1\n"
            "atrás\tknown_simple\t0\t1\n"
            "corria\tknown_simple\t0\t1\n"
            "de\tknown_simple\t0\t1\n"
            "do\tknown_simple\t0\t1\n"
            "prejuízo\tknown_simple\t0\t1\n"
            "time\tknown_simple\t0\t1\n"
        )

    def test_outputs_deterministic(self, neymar_lexicon, tmp_path):
        for sub in ("one", "two"):
            write_run(NEYMAR_SENTENCE, neymar_lexicon, tmp_path / sub)
        for name in ("dlf", "dlc", "err", "annotations.tsv", "types.tsv"):
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
        word_counts = read_types(tmp_path / "types.tsv")
        assert word_counts == oracle_read_annotations(tmp_path / "annotations.tsv")
        assert word_counts == result.word_counts

    @pytest.mark.parametrize(
        "row, problem",
        [
            ("time\tknown_simple\t0", "expected 4 tab-separated fields, found 3"),
            ("time\tknown_simple\t0\t1\t.N", "expected 4 tab-separated fields, found 5"),
            ("", "expected 4 tab-separated fields, found 1"),
            ("\tknown_simple\t0\t1", "empty text"),
            ("time\tknown\t0\t1", "unknown status 'known'"),
            ("time\t\t0\t1", "unknown status ''"),
            ("time\tknown_simple\t2\t1", "sentence-initial flag '2' is not 0 or 1"),
            ("time\tknown_simple\tTrue\t1", "sentence-initial flag 'True' is not 0 or 1"),
            ("time\tknown_simple\t0\t0", "count '0' is not a positive integer"),
            ("time\tknown_simple\t0\t-1", "count '-1' is not a positive integer"),
            ("time\tknown_simple\t0\t+1", r"count '\+1' is not a positive integer"),
            ("time\tknown_simple\t0\t1.5", r"count '1\.5' is not a positive integer"),
            ("time\tknown_simple\t0\t", "count '' is not a positive integer"),
            # digits that int() reads but that are not ASCII
            ("time\tknown_simple\t0\t\u0661", "count '\u0661' is not a positive integer"),
            # more digits than int() converts
            ("time\tknown_simple\t0\t" + "9" * 5000, "count '9{5000}' is not a positive integer"),
            ("O\tknown_simple\t1\t2", "repeats the key 'O', known_simple, 1 of an earlier row"),
        ],
        ids=[
            "3 fields", "5 fields", "blank line", "empty text", "unknown status",
            "empty status", "flag 2", "flag True", "count 0", "count -1", "count +1",
            "count 1.5", "empty count", "non-ASCII digit", "5000 digits", "repeated key",
        ],
    )
    def test_malformed_row(self, tmp_path, row, problem):
        path = tmp_path / "types.tsv"
        path.write_text(f"O\tknown_simple\t1\t1\n{row}\n", encoding="utf-8")
        where = re.escape(f"{path}, line 2: ")
        with pytest.raises(MalformedAnnotations, match=f"^{where}{problem}$"):
            read_types(path)

    def test_failed_block_leaves_no_trace(self, neymar_lexicon, tmp_path):
        outdir = tmp_path / "new"
        with pytest.raises(RuntimeError):
            with open_annotations(outdir) as sink:
                run(NEYMAR_SENTENCE, neymar_lexicon, sink=sink)
                raise RuntimeError("stop")
        assert not outdir.exists()


class TestAgainstReferenceAnnotator:
    """The column path (tokenize, replace, segment, apply by type, the
    cached-row writer) against ``oracles.oracle_annotate``: one Token
    object and one TokenAnnotation per token."""

    LEXICONS = {
        "a": lex_from_lines([
            "o,.DET", "time,.N", "de,.PREP", "casa,.N", "venceu,vencer.V:J3s",
            "por,.PREP", "por exemplo,.ADV", "a fim de,.PREP", "a fim,.ADJ",
            "de casa em casa,.ADV", "guarda-chuva,.N", "sr. silva,.N+Hum",
            "straße,.N", "straße larga,.N", "ı larga,.N", "anos 70,.N",
        ]),
        "b": lex_from_lines(["fim,.N", "fim,.V:W", "a fim,.ADV", "exemplo,.N:ms", "casa,.V:P3s"]),
    }
    # "qq" and "xx" become word tokens that look like a number and a
    # terminator; "Zico" becomes a word token holding a space
    REPLACEMENTS = {"tyme": "time", "qq": "70", "xx": ".", "Zico": "por exemplo"}
    ABBREVIATIONS = ["Sr", "etc."]
    WORDS = [
        "o", "O", "time", "Time", "TIME", "de", "casa", "Casa", "venceu", "por", "Por",
        "exemplo", "a", "A", "fim", "em", "guarda", "chuva", "Sr", "Silva", "STRASSE",
        "straße", "I", "LARGA", "larga", "anos", "Zico", "neymar", "J", "etc", "tyme",
        "qq", "xx",
    ]
    MARKS = [".", ",", "!", "?", "…", "...", "?!", "-", "70", "2"]
    # compounds and abbreviations as whole pieces, so that most texts hold some
    PHRASES = [
        "por exemplo", "Por exemplo", "a fim de", "a fim", "de casa em casa", "guarda-chuva",
        "Sr. Silva", "sr. silva", "STRASSE LARGA", "I LARGA", "anos 70", "J. Silva", "etc.",
    ]

    def column_run(self, files, lexicons, policy, outdir):
        annotations = []
        with open_annotations(outdir) as sink:

            def both(annotated):
                sink(annotated)
                annotations.extend(token_annotations(annotated))

            streams = (
                segment_sentences(
                    apply_replacements(tokenize(normalize_delimiters(text)), self.REPLACEMENTS),
                    self.ABBREVIATIONS,
                )
                for text in files
            )
            result = apply_dictionaries(lexicons, streams, policy, both)
            write_outputs(result, outdir)
        return (outdir / "annotations.tsv").read_bytes(), annotations, result

    def reference_run(self, files, lexicons, policy):
        token_lists = []
        for text in files:
            tokens = oracle_tokenize(oracle_normalize(text))
            for tok in tokens:
                if tok.kind is TokenKind.WORD and tok.text in self.REPLACEMENTS:
                    tok.text = self.REPLACEMENTS[tok.text]
            token_lists.append(oracle_segment(tokens, self.ABBREVIATIONS))
        annotations, tables = oracle_annotate(lexicons, token_lists, policy)
        return oracle_annotations_tsv(annotations).encode("utf-8"), annotations, tables

    def check(self, files, names, policy):
        lexicons = [self.LEXICONS[name] for name in names]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run"
            tsv, annotations, result = self.column_run(files, lexicons, policy, path)
            # the run's type table read back is the annotations read back
            word_counts = read_types(path / "types.tsv")
            assert word_counts == oracle_read_annotations(path / "annotations.tsv")
            assert word_counts == result.word_counts
        want_tsv, want_annotations, (dlf, dlc, word_counts, sentence_count) = (
            self.reference_run(files, lexicons, policy)
        )
        assert tsv == want_tsv
        assert annotations == want_annotations
        assert result.word_counts == word_counts
        assert (result.dlf, result.dlc, result.sentence_count) == (dlf, dlc, sentence_count)

    def test_fixed_corpus(self):
        files = [
            "Por exemplo, o time venceu a fim de casa em casa?! Sr. Silva venceu...",
            "",
            "o time de casa em casa venceu por exemplo tyme a fim de STRASSE LARGA",
            "J. Silva e etc. casa. Zico venceu qq xx. Xx I LARGA anos 70 guarda-chuva…",
            "guarda-\x85chuva - de\x7f casa\r\nem\t casa",
            "",
        ]
        for policy in CaseFoldPolicy:
            for names in (["a"], ["a", "b"], ["b", "a"]):
                self.check(files, names, policy)

    def test_sentence_offsets_past_ten(self):
        # five, four and six sentences: two-digit indices, each file's
        # shifted by the sentences of the files before it
        files = [
            "O time venceu. Por exemplo, a casa! Sr. Silva venceu? Casa de casa. A fim",
            "Time de casa em casa venceu… O time. Zico venceu qq. Xx I LARGA",
            "A fim de casa. O time! Venceu. Por exemplo venceu. Casa em casa? Anos 70 casa.",
        ]
        for policy in CaseFoldPolicy:
            self.check(files, ["a", "b"], policy)
        assert apply_dictionaries(
            self.LEXICONS["a"],
            (segment_sentences(tokenize(text), self.ABBREVIATIONS) for text in files),
        ).sentence_count == 15

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_reference(self, data):
        piece = st.sampled_from(self.WORDS + self.MARKS + self.PHRASES)
        # with controls the normalizer drops, and a tab and CR it rewrites
        separator = st.sampled_from([" ", " ", " ", "\n", "", "\x85", "\x7f", "\x01", " \t", "\r\n"])
        mixed = st.lists(st.tuples(piece, separator), max_size=40).map(
            lambda pairs: "".join(p + s for p, s in pairs)
        )
        # a passage with no terminator at all
        passage = st.lists(st.sampled_from(self.WORDS + self.PHRASES), max_size=60).map(" ".join)
        files = data.draw(st.lists(st.one_of(mixed, passage, st.just("")), max_size=5))
        names = data.draw(st.sampled_from([["a"], ["b"], ["a", "b"], ["b", "a"]]))
        policy = data.draw(st.sampled_from(list(CaseFoldPolicy)))
        self.check(files, names, policy)


class TestTokenConstructionPath:
    """A stream built from Token objects, as perfbench/probe.py builds its
    micro inputs, segments and applies as the stream tokenize gives."""

    TEXTS = [
        "Por exemplo, o Sr. Silva venceu a fim de casa. J. Silva?! Não…",
        "o time de casa em casa sem ponto final",
        "",
        "70 anos. ...O time!\nA fim de tudo",
    ]
    LEX = lex_from_lines(["o,.DET", "time,.N", "por exemplo,.ADV", "a fim de,.PREP", "casa,.N"])

    def annotate(self, stream):
        annotations = []
        result = apply_dictionaries(
            self.LEX, stream, sink=lambda a: annotations.extend(token_annotations(a))
        )
        return annotations, result

    @pytest.mark.parametrize("text", TEXTS)
    def test_built_stream_segments_and_applies_alike(self, text):
        direct = tokenize(text)
        built = TokenStream(tokens=[Token(t.kind, t.text, t.byte_span) for t in tokenize(text).tokens])
        assert built.tokens == direct.tokens
        for stream in (direct, built):
            segment_sentences(stream, ["Sr"])
        assert built.tokens == direct.tokens
        assert (built.sentence_indices, built.initial_positions) == (
            direct.sentence_indices, direct.initial_positions
        )
        (got, got_result), (want, want_result) = self.annotate(built), self.annotate(direct)
        assert got == want
        assert got_result.word_counts == want_result.word_counts
        assert (got_result.dlf, got_result.dlc) == (want_result.dlf, want_result.dlc)

    @pytest.mark.parametrize("text", TEXTS)
    def test_probe_copy_of_a_segmented_stream(self, text):
        # probe.py's _segmented: fresh tokens, then each view given the
        # sentence fields of the segmented original
        segmented = segment_sentences(tokenize(text), ["Sr"])
        tokens = segmented.tokens[:]
        copy = TokenStream(tokens=[type(t)(t.kind, t.text, t.byte_span) for t in tokens])
        for new, old in zip(copy.tokens, tokens):
            new.sentence_index = old.sentence_index
            new.sentence_initial = old.sentence_initial
        assert copy.tokens == segmented.tokens
        assert copy.initial_positions == segmented.initial_positions
        assert self.annotate(copy)[0] == self.annotate(segmented)[0]

    def test_tokens_become_views_of_the_stream(self):
        tokens = [Token(TokenKind.WORD, "time", (0, 4)), Token(TokenKind.SPACE, " ", (4, 5))]
        stream = TokenStream(tokens=tokens)
        tokens[0].text = "casa"
        tokens[0].sentence_initial = True
        assert stream.texts == ["casa", " "]
        assert stream.initial_positions == [0]
        stream.tokens[1].sentence_index = 3
        assert tokens[1].sentence_index == 3
        assert [t.byte_span for t in stream.tokens] == [(0, 4), (4, 5)]
