from decimal import Decimal

import pytest

from lexcov.automaton import CaseFoldPolicy, compile_lexicon
from lexcov.coverage import (
    CoverageReport,
    compare_versions,
    coverage_from_dico,
    diff_dictionaries,
    format_int,
    format_pct,
    mean_delta,
    pct,
    render_coverage_text,
)
from lexcov.delaf import DictFile, parse_entry
from lexcov.dico import apply_dictionaries
from lexcov.errors import MismatchedCorpus
from lexcov.preprocess import normalize_delimiters, segment_sentences, tokenize


def stream_of(text):
    return segment_sentences(tokenize(normalize_delimiters(text)))


def lex_from_forms(forms):
    return compile_lexicon([DictFile([parse_entry(f"{f},.N") for f in forms])])


# (types_total, types_unknown, pct) and (tokens_total, tokens_unknown, pct)
# for both newspapers and both dictionary versions
PUBLISHED_PAIRS = [
    (53966, 10512, "19.48"),
    (984465, 36190, "3.68"),
    (53966, 9967, "18.47"),
    (984465, 34611, "3.52"),
    (22414, 3048, "13.60"),
    (215776, 11624, "5.39"),
    (22414, 2769, "12.35"),
    (215776, 10870, "5.04"),
]


class TestPct:
    @pytest.mark.parametrize("total,unknown,expected", PUBLISHED_PAIRS)
    def test_published_pairs(self, total, unknown, expected):
        assert pct(unknown, total) == Decimal(expected)

    def test_zero_unknown(self):
        assert pct(0, 100) == Decimal("0.00")

    def test_zero_total(self):
        assert pct(0, 0) == Decimal("0.00")

    def test_half_up(self):
        assert pct(125, 1000) == Decimal("12.50")
        assert pct(1, 16) == Decimal("6.25")
        assert pct(5, 800) == Decimal("0.63")  # 0.625 rounds up


class TestCoverage:
    def test_from_counts_table_values(self):
        report = CoverageReport("DG", "2004", 53966, 10512, 984465, 36190)
        assert report.pct_types_unknown == Decimal("19.48")
        assert report.pct_tokens_unknown == Decimal("3.68")

    def test_from_dico(self):
        lex = lex_from_forms(["rosa", "a"])
        stream = stream_of("a rosa é a rosa")
        report = coverage_from_dico(apply_dictionaries(lex, stream), "folded")
        assert report.types_total == 3 and report.types_unknown == 1
        assert report.tokens_total == 5 and report.tokens_unknown == 1

    def test_monotone_in_lexicon(self):
        stream = stream_of("a rosa é a rosa azul")
        small = coverage_from_dico(apply_dictionaries(lex_from_forms(["rosa"]), stream))
        large = coverage_from_dico(
            apply_dictionaries(lex_from_forms(["rosa", "a", "azul"]), stream)
        )
        assert large.types_unknown <= small.types_unknown
        assert large.tokens_unknown <= small.tokens_unknown

    @pytest.mark.parametrize("fold_mode", ["folded", "cased"])
    def test_totals_against_independent_count(self, fold_mode):
        text = "O rato roeu a roupa do Rei de Roma o rato fugiu do rei"
        report = coverage_from_dico(
            apply_dictionaries(lex_from_forms(["rato"]), stream_of(text)), fold_mode
        )
        # shell-style oracle: split on whitespace and tally
        tally = {}
        for word in text.split():
            form = word.casefold() if fold_mode == "folded" else word
            tally[form] = tally.get(form, 0) + 1
        assert report.types_total == len(tally)
        assert report.tokens_total == sum(tally.values())

    def test_folded_not_more_unknown_than_cased(self):
        lex = lex_from_forms(["rosa"])
        stream = stream_of("Rosa rosa ROSA azul")
        dico = apply_dictionaries(lex, stream)
        folded = coverage_from_dico(dico, "folded")
        cased = coverage_from_dico(dico, "cased")
        assert folded.types_unknown <= cased.types_unknown


class TestVersionDelta:
    def test_published_deltas(self):
        dg_old = CoverageReport("DG", "2004", 53966, 10512, 984465, 36190)
        dg_new = CoverageReport("DG", "2015", 53966, 9967, 984465, 34611)
        ma_old = CoverageReport("MA", "2004", 22414, 3048, 215776, 11624)
        ma_new = CoverageReport("MA", "2015", 22414, 2769, 215776, 10870)
        dg = compare_versions(dg_old, dg_new)
        ma = compare_versions(ma_old, ma_new)
        assert dg.delta_types_pp == Decimal("1.01")
        assert ma.delta_types_pp == Decimal("1.25")
        assert mean_delta([dg.delta_types_pp, ma.delta_types_pp]) == Decimal("1.13")

    def test_identical_reports_zero_delta(self):
        r = CoverageReport("X", "d", 100, 10, 1000, 20)
        delta = compare_versions(r, r)
        assert delta.delta_types_pp == Decimal("0.00")
        assert delta.delta_tokens_pp == Decimal("0.00")

    def test_hand_computed_subtraction(self):
        old = CoverageReport("X", "a", 200, 50, 1000, 100)  # 25.00 / 10.00
        new = CoverageReport("X", "b", 200, 30, 1000, 80)   # 15.00 / 8.00
        delta = compare_versions(old, new)
        assert delta.delta_types_pp == Decimal("10.00")
        assert delta.delta_tokens_pp == Decimal("2.00")

    def test_mismatched_corpus(self):
        a = CoverageReport("DG", "d", 10, 1, 10, 1)
        b = CoverageReport("MA", "d", 10, 1, 10, 1)
        with pytest.raises(MismatchedCorpus):
            compare_versions(a, b)


class TestDictDiff:
    def dfile(self, forms):
        return DictFile([parse_entry(f"{f},.N") for f in forms])

    def test_basic(self):
        diff = diff_dictionaries([self.dfile(["x", "y"])], [self.dfile(["y", "z"])])
        assert diff.only_in_a == ["x"]
        assert diff.only_in_b == ["z"]
        assert diff.common == 1

    def test_equal_dictionaries(self):
        a = [self.dfile(["x", "y"])]
        diff = diff_dictionaries(a, a)
        assert diff.only_in_a == [] and diff.only_in_b == []

    def test_fold_mode(self):
        diff = diff_dictionaries(
            [self.dfile(["Uva"])], [self.dfile(["uva"])], "folded"
        )
        assert diff.common == 1 and not diff.only_in_a and not diff.only_in_b
        cased = diff_dictionaries(
            [self.dfile(["Uva"])], [self.dfile(["uva"])], "cased"
        )
        assert cased.common == 0

    def test_antisymmetric(self):
        a, b = [self.dfile(["x", "y"])], [self.dfile(["y", "z"])]
        ab = diff_dictionaries(a, b)
        ba = diff_dictionaries(b, a)
        assert ab.only_in_a == ba.only_in_b and ab.only_in_b == ba.only_in_a

    def test_size_invariant(self):
        a, b = [self.dfile(["x", "y", "Y"])], [self.dfile(["y"])]
        diff = diff_dictionaries(a, b, "folded")
        unique_a = {"x", "y"}
        assert len(diff.only_in_a) + diff.common == len(unique_a)


class TestRendering:
    def test_pt_br_locale(self):
        assert format_int(984465, "pt-BR") == "984.465"
        assert format_pct(Decimal("19.48"), "pt-BR") == "19,48%"
        assert format_pct(Decimal("19.48"), "plain") == "19.48%"

    def test_text_report_contains_percentages(self):
        report = CoverageReport("DG", "2004", 53966, 10512, 984465, 36190)
        text = render_coverage_text(report, "pt-BR")
        assert "19,48%" in text and "984.465" in text
