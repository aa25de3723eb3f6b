import unicodedata

from hypothesis import given, settings, strategies as st

from lexcov.dico import TokenStatus
from lexcov.preprocess import (
    Token,
    TokenKind,
    TokenStream,
    apply_replacements,
    load_replacement_table,
    normalize_delimiters,
    reform_normalize,
    segment_sentences,
    tokenize,
)

from oracles import oracle_normalize, oracle_tokenize


def words_of(text):
    return [t.text for t in tokenize(text).tokens if t.kind is TokenKind.WORD]


class TestNormalizeDelimiters:
    def test_crlf(self):
        assert normalize_delimiters("a\r\nb") == "a\nb"
        assert normalize_delimiters("a\rb") == "a\nb"

    def test_space_runs_collapse(self):
        assert normalize_delimiters("a   b") == "a b"
        assert normalize_delimiters("a\t b") == "a b"

    def test_nfc(self):
        decomposed = "é"
        assert normalize_delimiters(decomposed) == "é"
        assert unicodedata.is_normalized("NFC", normalize_delimiters("açaí"))

    def test_control_chars_removed(self):
        assert normalize_delimiters("a\x00b\x1fc") == "abc"
        assert normalize_delimiters("a\nb") == "a\nb"
        assert normalize_delimiters("a\x85b\x9fc\x80d\x7fe") == "abcde"

    def test_hyphens_kept(self):
        assert normalize_delimiters("guarda-chuva") == "guarda-chuva"
        assert normalize_delimiters("abordá-lo - sim") == "abordá-lo - sim"

    @given(st.text(max_size=200))
    def test_matches_reference(self, text):
        assert normalize_delimiters(text) == oracle_normalize(text)

    @given(st.text(max_size=200))
    def test_idempotent(self, text):
        once = normalize_delimiters(text)
        assert normalize_delimiters(once) == once


class TestTokenize:
    def test_example_sentence(self):
        assert words_of("O time de Neymar corria atrás do prejuízo") == [
            "O", "time", "de", "Neymar", "corria", "atrás", "do", "prejuízo",
        ]

    def test_hyphenated_clitic_splits(self):
        tokens = tokenize("abordá-lo").tokens
        assert [(t.kind, t.text) for t in tokens] == [
            (TokenKind.WORD, "abordá"),
            (TokenKind.PUNCT, "-"),
            (TokenKind.WORD, "lo"),
        ]

    def test_numbers(self):
        kinds = [(t.kind, t.text) for t in tokenize("70 anos").tokens]
        assert kinds == [
            (TokenKind.NUMBER, "70"),
            (TokenKind.SPACE, " "),
            (TokenKind.WORD, "anos"),
        ]

    def test_empty(self):
        stream = tokenize("")
        assert stream.tokens == []

    def test_word_tokens_have_no_digits(self):
        for tok in tokenize("covid19 x2y").tokens:
            if tok.kind is TokenKind.WORD:
                assert not any(ch.isdigit() for ch in tok.text)

    def test_byte_spans_partition_the_text(self):
        text = "Olá, 70 anos…"
        stream = tokenize(text)
        pos = 0
        data = text.encode("utf-8")
        for tok in stream.tokens:
            start, end = tok.byte_span
            assert start == pos
            assert data[start:end].decode("utf-8") == tok.text
            pos = end
        assert pos == len(data)

    @settings(max_examples=300)
    @given(st.text(max_size=300))
    def test_lossless_on_arbitrary_text(self, text):
        assert "".join(t.text for t in tokenize(text).tokens) == text

    # Latin letters and a combining acute; Greek and CJK letters; decimal
    # digits, ASCII and not; a superscript two and a Roman numeral, letters
    # to the word pattern but no decimal digits; "_"; ASCII and Unicode
    # spaces; punctuation; an astral symbol
    TOKEN_CHARS = "aZçÉ\u0301αΩ中文09\u0663\uff11²Ⅻ_ \t\n\xa0\u2028\u3000.,-…!?'\U0001f600"

    @settings(max_examples=300)
    @given(st.text(alphabet=TOKEN_CHARS, max_size=60) | st.text(max_size=60))
    def test_matches_reference(self, text):
        # each token's kind follows from its first character
        stream = tokenize(text)
        want = oracle_tokenize(text)
        assert stream.kinds == [t.kind for t in want]
        assert stream.texts == [t.text for t in want]
        assert stream.byte_spans() == [t.byte_span for t in want]


class TestTokenStream:
    def test_equal_streams(self):
        direct = tokenize("O time. Venceu")
        built = TokenStream(tokens=[Token(t.kind, t.text, t.byte_span) for t in direct.tokens])
        assert built == direct
        segment_sentences(direct)
        assert built != direct
        segment_sentences(built)
        assert built == direct

    def test_unequal_streams(self):
        stream = tokenize("O time.")
        assert stream != tokenize("O tim.")
        spans = [t.byte_span for t in stream.tokens]
        spans[0] = (0, 2)
        moved = TokenStream(
            tokens=[Token(t.kind, t.text, span) for t, span in zip(stream.tokens, spans)]
        )
        assert moved != stream

    def test_repr_lists_tokens(self):
        assert repr(tokenize("O")) == (
            "TokenStream(tokens=[Token(kind=<TokenKind.WORD: 'word'>, text='O',"
            " byte_span=(0, 1), sentence_index=0, sentence_initial=False)])"
        )


def test_enum_members_are_their_values_and_print_by_name():
    assert TokenKind.WORD == "word" and TokenStatus.UNKNOWN == "unknown"
    assert str(TokenKind.WORD) == f"{TokenKind.WORD}" == "TokenKind.WORD"
    assert f"{TokenStatus.UNKNOWN:>22}" == "   TokenStatus.UNKNOWN"
    assert "\t".join([TokenKind.WORD, TokenStatus.KNOWN_SIMPLE]) == "word\tknown_simple"


class TestSegmentSentences:
    def segment(self, text, abbrevs=()):
        return segment_sentences(tokenize(normalize_delimiters(text)), abbrevs)

    def test_two_sentences(self):
        stream = self.segment("Fui lá. Voltei.")
        words = stream.word_tokens()
        assert [t.sentence_index for t in words] == [0, 0, 1]
        assert [t.sentence_initial for t in words] == [True, False, True]

    def test_abbreviation_suppresses_boundary(self):
        stream = self.segment("Sr. Silva chegou.", abbrevs=["Sr."])
        assert {t.sentence_index for t in stream.word_tokens()} == {0}

    def test_single_initial_suppresses_boundary(self):
        stream = self.segment("J. Silva chegou.")
        assert {t.sentence_index for t in stream.word_tokens()} == {0}

    def test_lowercase_continuation_is_not_boundary(self):
        stream = self.segment("www.exemplo.com caiu")
        assert {t.sentence_index for t in stream.word_tokens()} == {0}

    def test_excerpt_boundaries(self):
        # three sentences: "...com abadá. A proposta aqui é incluir. É ter mais..."
        text = (
            "Desfilará sem cordas, mas com os foliões devidamente trajados "
            "com abadá. A proposta aqui é incluir. É ter mais pessoas "
            "brincando nas ruas."
        )
        stream = self.segment(text)
        words = stream.word_tokens()
        assert max(t.sentence_index for t in words) == 2
        initials = [t.text for t in words if t.sentence_initial]
        assert initials == ["Desfilará", "A", "É"]

    def test_exactly_one_initial_word_per_sentence(self):
        stream = self.segment("Um dois. Três! Quatro? Cinco…")
        per_sentence = {}
        for tok in stream.word_tokens():
            per_sentence.setdefault(tok.sentence_index, 0)
            per_sentence[tok.sentence_index] += tok.sentence_initial
        assert all(n == 1 for n in per_sentence.values())


def strip_marks(text):
    return "".join(
        ch
        for ch in unicodedata.normalize("NFD", text)
        if not unicodedata.combining(ch)
    )


class TestReformNormalize:
    def test_trema(self):
        assert reform_normalize("agüentar") == "aguentar"
        assert reform_normalize("freqüência") == "frequência"

    def test_open_diphthong_paroxytone(self):
        assert reform_normalize("idéia") == "ideia"
        assert reform_normalize("jibóia") == "jiboia"
        assert reform_normalize("assembléia") == "assembleia"
        assert reform_normalize("heróico") == "heroico"

    def test_final_syllable_diphthong_keeps_accent(self):
        assert reform_normalize("herói") == "herói"
        assert reform_normalize("anéis") == "anéis"
        assert reform_normalize("papéis") == "papéis"
        assert reform_normalize("dói") == "dói"

    def test_double_vowel_circumflex(self):
        assert reform_normalize("vôo") == "voo"
        assert reform_normalize("enjôo") == "enjoo"
        assert reform_normalize("crêem") == "creem"
        assert reform_normalize("vêem") == "veem"

    def test_i_u_after_diphthong(self):
        assert reform_normalize("feiúra") == "feiura"
        assert reform_normalize("baiúca") == "baiuca"
        # no diphthong before the accent: accent stays
        assert reform_normalize("saúde") == "saúde"
        assert reform_normalize("país") == "país"

    def test_fixed_points(self):
        for word in ("aguentar", "ideia", "voo", "creem", "feiura", "maçã", "você"):
            assert reform_normalize(word) == word

    @settings(max_examples=500)
    @given(st.text(alphabet="abcdefgilmnorstuvéóôêüúí", min_size=1, max_size=12))
    def test_idempotent_and_skeleton_preserving(self, word):
        once = reform_normalize(word)
        assert reform_normalize(once) == once
        assert strip_marks(once) == strip_marks(word)


def test_replacement_table_replaces_word_tokens(tmp_path):
    path = tmp_path / "replacements.tsv"
    path.write_text("time\tequipe\n\n  \nvenceu\tganhou\n", encoding="utf-8")
    table = load_replacement_table(path)
    assert table == {"time": "equipe", "venceu": "ganhou"}
    stream = apply_replacements(tokenize("O time venceu."), table)
    assert [t.text for t in stream.tokens if t.kind is TokenKind.WORD] == [
        "O", "equipe", "ganhou"
    ]
