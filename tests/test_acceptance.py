"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line on success so the run log doubles as a
checklist; timing-bounded tests measure wall-clock with time.perf_counter.
"""

import random
import time
from decimal import Decimal
from pathlib import Path

import pytest

from lexcov.automaton import CaseFoldPolicy, compile_lexicon, load_lexicon, save_lexicon
from lexcov.classify import Category, build_unknown_records, classify
from lexcov.cli import main
from lexcov.coverage import CoverageReport, compare_versions, mean_delta
from lexcov.delaf import DictFile, load_dict_file, parse_entry
from lexcov.dico import TokenStatus, apply_dictionaries
from lexcov.preprocess import (
    normalize_delimiters,
    reform_normalize,
    segment_sentences,
    tokenize,
)

from oracles import hash_oracle_known, oracle_err_and_known
from test_classifier import LABELED, load_records

FIXTURES = Path(__file__).parent / "fixtures"


def report(name):
    print(f"ACCEPTANCE PASS: {name}")


def test_criterion_1_coverage_replay():
    """Published coverage table replays exactly at 2 decimals."""
    start = time.perf_counter()
    rows = [
        ("DG", "2004", 53966, 10512, 984465, 36190, "19.48", "3.68"),
        ("DG", "2015", 53966, 9967, 984465, 34611, "18.47", "3.52"),
        ("MA", "2004", 22414, 3048, 215776, 11624, "13.60", "5.39"),
        ("MA", "2015", 22414, 2769, 215776, 10870, "12.35", "5.04"),
    ]
    reports = {}
    for corpus, vers, tt, tu, kt, ku, p_types, p_tokens in rows:
        r = CoverageReport(corpus, vers, tt, tu, kt, ku)
        assert r.pct_types_unknown == Decimal(p_types)
        assert r.pct_tokens_unknown == Decimal(p_tokens)
        reports[corpus, vers] = r
    deltas = [
        compare_versions(reports["DG", "2004"], reports["DG", "2015"]),
        compare_versions(reports["MA", "2004"], reports["MA", "2015"]),
    ]
    assert [d.delta_types_pp for d in deltas] == [Decimal("1.01"), Decimal("1.25")]
    assert mean_delta([d.delta_types_pp for d in deltas]) == Decimal("1.13")
    assert time.perf_counter() - start < 1.0
    report("coverage table replay (8 percentages, deltas 1.01/1.25, mean 1.13)")


def test_criterion_2_worked_example():
    """12-entry dictionary + one sentence: 12 dlf analyses, 1 unknown."""
    start = time.perf_counter()
    lex = compile_lexicon([load_dict_file(FIXTURES / "neymar.dic")])
    text = Path(FIXTURES / "neymar.txt").read_text(encoding="utf-8")
    stream = segment_sentences(tokenize(normalize_delimiters(text)))
    result = apply_dictionaries(lex, stream)
    assert len(result.dlf) == 12
    assert result.err == {"Neymar"}
    assert not result.dlc
    counts = result.status_counts()
    assert counts[TokenStatus.KNOWN_SIMPLE] == 7
    assert counts[TokenStatus.UNKNOWN] == 1
    assert time.perf_counter() - start < 1.0
    report("worked example (12 dlf analyses, err={Neymar}, 7 known + 1 unknown)")


def test_criterion_3_oracle_equivalence():
    """Randomized instances agree with the brute-force oracle; 20k probes."""
    start = time.perf_counter()
    rng = random.Random(20260826)
    alphabet = "abcdefghijklmnoparstuváéíóúãõç"

    def word():
        w = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 10)))
        return w.capitalize() if rng.random() < 0.2 else w

    # the hash-set oracle itself is cross-checked against the full-scan
    # oracle on a small instance before carrying the large ones
    small_forms = sorted({word() for _ in range(200)})
    small_map = {f: {f} for f in small_forms}
    for policy in (CaseFoldPolicy.EXACT, CaseFoldPolicy.UNITEX_LIKE):
        _, scan_known = oracle_err_and_known(
            [word() for _ in range(500)] + small_forms, small_map, policy.value
        )
        for token in scan_known:
            assert hash_oracle_known(token, set(small_forms), policy.value)

    for trial in range(100):
        policy = (
            CaseFoldPolicy.EXACT if trial % 2 else CaseFoldPolicy.UNITEX_LIKE
        )
        forms = sorted({word() for _ in range(rng.randint(1, 10_000))})
        form_set = set(forms)
        lex = compile_lexicon([DictFile([parse_entry(f"{f},.N") for f in forms])])
        tokens = [word() for _ in range(rng.randint(1, 10_000))]
        stream = segment_sentences(tokenize(" ".join(tokens)))
        result = apply_dictionaries(lex, stream, policy)
        want_err = {
            t for t in tokens if not hash_oracle_known(t, form_set, policy.value)
        }
        want_known = {
            t for t in tokens if hash_oracle_known(t, form_set, policy.value)
        }
        got_known = {
            text
            for text, status, _ in result.word_counts
            if status is TokenStatus.KNOWN_SIMPLE
        }
        assert result.err == want_err
        assert got_known == want_known

    forms = sorted({word() for _ in range(12_000)})
    lex = compile_lexicon([DictFile([parse_entry(f"{f},.N") for f in forms])])
    form_set = set(forms)
    members = [rng.choice(forms) for _ in range(10_000)]
    nonmembers = []
    while len(nonmembers) < 10_000:
        w = word()
        if w not in form_set:
            nonmembers.append(w)
    for probe in members + nonmembers:
        assert (probe in lex) == (probe in form_set)
        assert bool(lex.lookup(probe, CaseFoldPolicy.EXACT)) == (probe in form_set)
        assert bool(lex.lookup(probe, CaseFoldPolicy.UNITEX_LIKE)) == (
            hash_oracle_known(probe, form_set, "unitex_like")
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(
        "oracle equivalence (100 randomized instances, 20k probes, "
        f"{elapsed:.1f}s)"
    )


def test_criterion_4_tokenization_losslessness():
    """Fuzzed inputs round-trip byte-exactly with full span coverage."""
    rng = random.Random(404)
    pools = [
        "abc áéõç ABC",
        "0123456789",
        " \t\n\r",
        ".,;:!?-«»\"'()",
        "日本語한글привет",
        "  ⁠\U0001f600",
    ]
    for _ in range(10_000):
        text = "".join(
            rng.choice(rng.choice(pools)) for _ in range(rng.randint(0, 60))
        )
        stream = tokenize(text)
        assert "".join(t.text for t in stream.tokens) == text
        data = text.encode("utf-8")
        cursor = 0
        for t in stream.tokens:
            lo, hi = t.byte_span
            assert lo == cursor and data[lo:hi].decode("utf-8") == t.text
            cursor = hi
        assert cursor == len(data)
    report("tokenization losslessness (10k fuzzed round trips, spans cover)")


REFORM_CHECKLIST = [
    ("agüentar", "aguentar"),
    ("idéia", "ideia"),
    ("freqüência", "frequencia".replace("quen", "quên")),  # frequência
    ("lingüiça", "linguiça"),
    ("tranqüilo", "tranquilo"),
    ("assembléia", "assembleia"),
    ("jibóia", "jiboia"),
    ("heróico", "heroico"),
    ("platéia", "plateia"),
    ("apóia", "apoia"),
    ("vôo", "voo"),
    ("enjôo", "enjoo"),
    ("crêem", "creem"),
    ("vêem", "veem"),
    ("feiúra", "feiura"),
    ("baiúca", "baiuca"),
    ("aguentar", "aguentar"),
    ("herói", "herói"),
    ("anéis", "anéis"),
    ("país", "país"),
]


def test_criterion_5_reform_normalizer():
    """Spelling-reform rules hold on the checklist; idempotent under fuzz."""
    for old, new in REFORM_CHECKLIST:
        assert reform_normalize(old) == new, (old, new)
    rng = random.Random(1990)
    alphabet = "abcdefghijlmnopqrstuvxzáâãàéêíóôõúüç"
    for _ in range(10_000):
        w = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
        once = reform_normalize(w)
        assert reform_normalize(once) == once
    report("reform normalizer (20-word checklist + 10k idempotence fuzz)")


def test_criterion_6_classifier_fixture():
    """Labeled examples route correctly; classification is total."""
    records = load_records(FIXTURES / "unknowns_tables.tsv")
    lex = compile_lexicon([load_dict_file(FIXTURES / "classifier.dic")])
    classified = classify(records, lex)
    by_form = {r.form: r for r in classified}
    for form, category in LABELED.items():
        assert by_form[form].category is category, form
    assert len(classified) == 120
    for r in classified:
        assert isinstance(r.category, Category)
        if r.category is not Category.OTHER:
            assert r.evidence
        assert r.profile.total == r.frequency
    report("classifier fixture (7 labeled routings, totality on 120 forms)")


def test_criterion_7_reproducibility(tmp_path, monkeypatch, capsys):
    """Identical manifests produce byte-identical output trees."""
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    lex_bin = tmp_path / "neymar.lex"
    assert main(["compile", str(FIXTURES / "neymar.dic"), "-o", str(lex_bin)]) == 0
    trees = []
    for name in ("first", "second"):
        outdir = tmp_path / name
        assert main([
            "apply", str(FIXTURES / "neymar.txt"),
            "-l", str(lex_bin), "-o", str(outdir),
        ]) == 0
        assert main([
            "classify", str(outdir), "-l", str(lex_bin)
        ]) == 0
        trees.append(outdir)
    capsys.readouterr()
    names = sorted(p.name for p in trees[0].iterdir())
    assert names == sorted(p.name for p in trees[1].iterdir())
    for name in names:
        assert (trees[0] / name).read_bytes() == (trees[1] / name).read_bytes(), name
    with capsys.disabled():
        report("reproducibility (two byte-identical pipeline output trees)")


def test_criterion_8_scale(tmp_path):
    """1M-entry dictionary compiles and sustains >= 50k lookups/second."""
    rng = random.Random(1_000_000)
    alphabet = "abcdefghilmnoprstuv"
    stems = sorted(
        {
            "".join(rng.choice(alphabet) for _ in range(rng.randint(4, 9)))
            for _ in range(21_000)
        }
    )[:20_000]
    suffixes = [
        "a", "as", "o", "os", "e", "es", "ar", "er", "ir", "ou",
        "am", "em", "ia", "iam", "ado", "ada", "ados", "adas", "ando", "endo",
        "asse", "assem", "ará", "arão", "aria", "ariam", "ei", "aste", "amos", "armos",
        "or", "ora", "oras", "ores", "inho", "inha", "zinho", "zinha", "mente", "ção",
        "ções", "dor", "dora", "dores", "al", "ais", "oso", "osa", "osos", "osas",
    ]
    entries = [
        parse_entry(f"{stem}{suffix},{stem}ar.V")
        for stem in stems
        for suffix in suffixes
    ]
    assert len(entries) == 1_000_000
    t0 = time.perf_counter()
    lex = compile_lexicon([DictFile(entries)])
    compile_s = time.perf_counter() - t0
    assert lex.stats.entry_count == 1_000_000

    path = tmp_path / "big.lex"
    save_lexicon(lex, path)
    reloaded = load_lexicon(path)
    assert reloaded.stats.unique_form_count == lex.stats.unique_form_count

    probes = [
        rng.choice(stems) + rng.choice(suffixes) if rng.random() < 0.8
        else "".join(rng.choice(alphabet) for _ in range(rng.randint(3, 12)))
        for _ in range(1_000_000)
    ]
    t0 = time.perf_counter()
    hits = 0
    for probe in probes:
        if reloaded.lookup(probe):
            hits += 1
    lookup_s = time.perf_counter() - t0
    rate = len(probes) / lookup_s
    assert hits > 0
    assert rate >= 50_000, f"lookup rate {rate:,.0f}/s below 50k/s gate"
    report(
        "scale smoke test (1M entries compiled in "
        f"{compile_s:.1f}s, {rate:,.0f} lookups/s, 100k/s target "
        f"{'met' if rate >= 100_000 else 'missed (non-gating)'})"
    )
