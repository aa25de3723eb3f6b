"""Growth checks: doubling the input of a linear stage about doubles its time.

Each check times the stage at 2n and then at n, 3 times (5 for
segmentation, compile, apply over files and compounds sharing a first
word), with the collector off, in
CPU time of this process so that load from other processes does not
count, and bounds the median t(2n)/t(n) below 3.0.  A stage that is
quadratic in its input reads about 4.

On a shared machine the same run is sometimes a third faster for a spell
of a few runs, in wall time as well as CPU time.  A best-of-k time at each
size picks such a run when a spell covers one size and not the other, and
then reads t(2n)/t(n) near 3.1 for linear code; timing the two sizes back
to back puts each pair in one spell, and the median drops the pairs that
straddle two.

Apply's memory grows with the types of a corpus, not its tokens: doubling
the files of one vocabulary keeps its peak below 1.5 times.
"""

import gc
import random
import statistics
import time
import tracemalloc

from lexcov.automaton import CaseFoldPolicy, compile_lexicon, load_lexicon, save_lexicon
from lexcov.delaf import DictFile, iter_dict_entries, parse_entry
from lexcov.dico import apply_dictionaries
from lexcov.preprocess import segment_sentences, tokenize

BOUND = 3.0
REPEATS = 3

WORDS = ["por", "exemplo", "a", "fim", "de", "casa", "time", "corria", "longe", "mar"]
LEXICON = [
    "por exemplo,.ADV",
    "a fim de,.PREP",
    "a fim,.ADJ",
    "de casa em casa,.ADV",
    "casa,.N",
    "time,.N",
    "corria,correr.V",
    "de,.PREP",
]


def growth(make_args, run, n, repeats=REPEATS):
    """Median over ``repeats`` pairs of t(2n)/t(n), each pair timed back to
    back; arguments are built outside the timing."""

    def timed(size):
        args = make_args(size)
        gc.collect()
        gc.disable()
        try:
            start = time.process_time()
            run(*args)
            return time.process_time() - start
        finally:
            gc.enable()

    return statistics.median(timed(2 * n) / timed(n) for _ in range(repeats))


def words(n, seed=7):
    rng = random.Random(seed)
    return [rng.choice(WORDS) for _ in range(n)]


def sentences_text(n_words, seed=7):
    """Capitalised 12-word sentences, every one ended by a period."""
    ws = words(n_words, seed)
    return " ".join(
        " ".join(ws[i : i + 12]).capitalize() + "." for i in range(0, n_words, 12)
    )


def test_segmentation_is_linear():
    # one segmentation takes tens of milliseconds, short enough for
    # scheduling noise to move the ratio: a longer text and more repeats
    # than the other checks keep it steady
    text = sentences_text(60_000)
    ratio = growth(
        lambda n: (tokenize(text[:n]),),
        segment_sentences,
        len(text) // 2,
        repeats=5,
    )
    assert ratio < BOUND, ratio


def test_compile_is_linear(tmp_path):
    # each entry has its own lemma and four flex codes, so the analysis
    # table grows four rows per entry: work per analysis weighs as much as
    # work per entry, and a pass over the table per analysis reads 4 or more
    rng = random.Random(7)
    stems = sorted({"".join(rng.choice("abcdeilmnoprstu") for _ in range(7)) for _ in range(600)})
    suffixes = ["a", "as", "o", "os", "ar", "ando", "ado", "ção", "mente", "inho"]
    paths = {}
    for n_stems in (250, 500):
        lines = [
            f"{stem}{suffix},{stem}{suffix}.V+Hum:ms:fs:mp:fp"
            for stem in stems[:n_stems]
            for suffix in suffixes
        ]
        lines += [f"{stem} de casa,.ADV" for stem in stems[:n_stems:10]]
        paths[n_stems] = tmp_path / f"{n_stems}.dic"
        paths[n_stems].write_text("\n".join(lines) + "\n", encoding="utf-8")

    def compile_file(path):
        # the entries are parsed as the build reads them, as in lexcov compile
        compile_lexicon([DictFile(iter_dict_entries(path))])

    ratio = growth(lambda n: (paths[n],), compile_file, 250, repeats=5)
    assert ratio < BOUND, ratio


def test_compound_pass_is_linear_in_one_long_sentence():
    lex = compile_lexicon([DictFile([parse_entry(line) for line in LEXICON])])
    text = " ".join(words(20_000))  # no terminator: one sentence

    def stream(n_chars):
        return (segment_sentences(tokenize(text[:n_chars])),)

    ratio = growth(
        stream,
        lambda s: apply_dictionaries(lex, s, CaseFoldPolicy.UNITEX_LIKE),
        len(text) // 2,
    )
    assert ratio < BOUND, ratio


def test_compound_pass_is_linear_in_compounds_sharing_a_first_word():
    # n compounds "de <word>", and a corpus of 40n words from those words in
    # which "de" is one token in ten: a pass that tried every compound
    # starting with "de" at each "de" read about 4 when both double
    rng = random.Random(7)
    seconds = sorted(
        {"".join(rng.choice("abcdefgilmnoprstuv") for _ in range(8)) for _ in range(600)}
    )

    def make_args(n):
        entries = [parse_entry("de,.PREP")]
        entries += [parse_entry(f"de {word},.N") for word in seconds[:n]]
        lex = compile_lexicon([DictFile(entries)])
        ws = [("de" if rng.random() < 0.1 else rng.choice(seconds[:n])) for _ in range(40 * n)]
        text = " ".join(" ".join(ws[i : i + 12]) + "." for i in range(0, len(ws), 12))
        return lex, segment_sentences(tokenize(text))

    ratio = growth(
        make_args,
        lambda lex, s: apply_dictionaries(lex, s, CaseFoldPolicy.UNITEX_LIKE),
        250,
        repeats=5,
    )
    assert ratio < BOUND, ratio


def test_apply_over_files_is_linear_in_file_count():
    lex = compile_lexicon([DictFile([parse_entry(line) for line in LEXICON])])
    # short runs, steadied as in test_segmentation_is_linear
    files = [segment_sentences(tokenize(sentences_text(24, seed))) for seed in range(2400)]

    def run(k):
        # a generator of streams, the form lexcov apply passes
        apply_dictionaries(lex, (f for f in files[:k]), CaseFoldPolicy.UNITEX_LIKE)

    ratio = growth(lambda k: (k,), run, len(files) // 2, repeats=5)
    assert ratio < BOUND, ratio


def test_load_is_linear(tmp_path):
    rng = random.Random(7)
    stems = sorted({"".join(rng.choice("abcdeilmnoprstu") for _ in range(7)) for _ in range(1_300)})
    suffixes = ["a", "as", "o", "os", "ar", "ando", "ado", "ção", "mente", "inho"]
    paths = {}
    for n_stems in (600, 1_200):
        entries = [
            parse_entry(f"{stem}{suffix},{stem}ar.V+Hum:{rng.choice(['ms', 'fs'])}")
            for stem in stems[:n_stems]
            for suffix in suffixes
        ]
        entries += [parse_entry(f"{stem} de casa,.ADV") for stem in stems[:n_stems:10]]
        paths[n_stems] = tmp_path / f"{n_stems}.lex"
        save_lexicon(compile_lexicon([DictFile(entries)]), paths[n_stems])
    ratio = growth(lambda n: (paths[n],), load_lexicon, 600)
    assert ratio < BOUND, ratio


def test_apply_memory_does_not_grow_with_tokens():
    lex = compile_lexicon([DictFile([parse_entry(line) for line in LEXICON])])

    def peak(k):
        # files made one at a time, as lexcov apply reads them
        files = (segment_sentences(tokenize(sentences_text(24, seed))) for seed in range(k))
        tracemalloc.start()
        try:
            apply_dictionaries(lex, files, CaseFoldPolicy.UNITEX_LIKE)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # the first traced call also pays one-time allocations; measuring it
    # would put them in one side of the ratio
    peak(800)
    ratio = peak(1600) / peak(800)
    assert ratio < 1.5, ratio
