"""Seeded synthetic inputs for the benchmark workloads.

``generate(workload, seed, outdir)`` writes two DELAF versions (``old.dic``,
``new.dic``), an abbreviation list and the corpus files, and returns a
``Record``: the generator's own account of what it wrote (form -> analyses
of each version, the compounds, every sentence as a word list, the planted
unknown forms with their intended classifier category).  The checks in
``check.py`` work from this record, never from a stored program output.

Dictionary forms follow the stems x suffixes shape of the 1M-entry
acceptance test.  Stems draw from ``STEM_LETTERS``, which has no
h/j/k/q/w/x/y/z.  A planted unknown that carries two of the missing letters
is at edit distance >= 2 from every dictionary form, cannot be split into
two dictionary forms and has none of the foreign bigrams unless meant to:
that is what makes its intended category the only one that can win.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

STEM_LETTERS = "abcdefgilmnoprstuv"
VOWELS = "aeiou"
# (suffix, grammatical code, inflection codes, lemma ending)
SUFFIXES = [
    ("a", "N", ("fs",), "o"), ("as", "N", ("fp",), "o"), ("o", "N", ("ms",), "o"),
    ("os", "N", ("mp",), "o"), ("e", "V", ("S1s", "S3s"), "ar"),
    ("es", "V", ("S2s",), "ar"), ("ar", "V", ("W", "U1s", "U3s"), "ar"),
    ("er", "V", ("W",), "er"), ("ir", "V", ("W",), "ir"), ("ou", "V", ("J3s",), "ar"),
    ("am", "V", ("P3p", "J3p"), "ar"), ("em", "V", ("S3p",), "ar"),
    ("ia", "V", ("I1s", "I3s"), "er"), ("iam", "V", ("I3p",), "er"),
    ("ado", "V", ("Kms",), "ar"), ("ada", "V", ("Kfs",), "ar"),
    ("ados", "V", ("Kmp",), "ar"), ("adas", "V", ("Kfp",), "ar"),
    ("ando", "V", ("G",), "ar"), ("endo", "V", ("G",), "er"),
    ("asse", "V", ("T1s", "T3s"), "ar"), ("assem", "V", ("T3p",), "ar"),
    ("ará", "V", ("F3s",), "ar"), ("arão", "V", ("F3p",), "ar"),
    ("aria", "V", ("C1s", "C3s"), "ar"), ("ariam", "V", ("C3p",), "ar"),
    ("ei", "V", ("J1s",), "ar"), ("aste", "V", ("J2s",), "ar"),
    ("amos", "V", ("P1p", "J1p"), "ar"), ("armos", "V", ("U1p", "T1p"), "ar"),
    ("or", "N", ("ms",), "or"), ("ora", "N", ("fs",), "or"),
    ("oras", "N", ("fp",), "or"), ("ores", "N", ("mp",), "or"),
    ("inho", "N", ("Dms",), "o"), ("inha", "N", ("Dfs",), "o"),
    ("zinho", "N", ("Dms",), "o"), ("zinha", "N", ("Dfs",), "o"),
    ("mente", "ADV", (), "mente"), ("ção", "N", ("fs",), "ção"),
    ("ções", "N", ("fp",), "ção"), ("dor", "N", ("ms",), "dor"),
    ("dora", "N", ("fs",), "dor"), ("dores", "N", ("mp",), "dor"),
    ("al", "A", ("ms", "fs"), "al"), ("ais", "A", ("mp", "fp"), "al"),
    ("oso", "A", ("ms",), "oso"), ("osa", "A", ("fs",), "oso"),
    ("osos", "A", ("mp",), "oso"), ("osas", "A", ("fp",), "oso"),
]

ABBREVIATIONS = ("Sr", "Sra", "Dr", "etc", "pág", "cf")

# Workload shapes.  Every size is a fixed count, so all seeds give inputs of
# exactly the same size; only the words differ.
WORKLOADS = {
    # hundreds of short files, Zipf words, few compounds, many unknowns
    "newspaper": dict(
        policy="unitex_like", stems=400, suffixes_per_stem=24, compounds=40,
        compound_first_words=30, files=150, words_per_file=60, sentence=(12, 28),
        compound_rate=0.004, planted_per_category=25, continuation_rate=0.0,
        abbrev_rate=0.0, long_passage=0, mixed_case=0, escaped=0, extra_flex=0,
        upper_rate=0.01,
    ),
    # a few long files, long sentences, a passage with no terminator,
    # thousands of compounds sharing first words
    "book": dict(
        policy="full_fold", stems=300, suffixes_per_stem=20, compounds=2000,
        compound_first_words=40, files=4, words_per_file=2500, sentence=(25, 60),
        compound_rate=0.05, planted_per_category=30, continuation_rate=0.15,
        abbrev_rate=0.03, long_passage=1200, mixed_case=0, escaped=0, extra_flex=0,
        upper_rate=0.002,
    ),
    # a large DELAF in two versions against a small corpus
    "dictionary": dict(
        policy="exact", stems=400, suffixes_per_stem=25, compounds=500,
        compound_first_words=200, files=4, words_per_file=300, sentence=(12, 28),
        compound_rate=0.01, planted_per_category=20, continuation_rate=0.0,
        abbrev_rate=0.0, long_passage=0, mixed_case=400, escaped=100, extra_flex=3,
        upper_rate=0.01,
    ),
}


@dataclass
class Sentence:
    words: list[str]
    commas: set = field(default_factory=set)   # word positions followed by ","
    dots: set = field(default_factory=set)     # abbreviation dots after a word
    end: str = "."                             # terminator; "" for none
    compound_spans: list = field(default_factory=list)  # (start, length)


@dataclass
class Version:
    lines: list[str] = field(default_factory=list)    # DELAF lines as written
    simple: dict = field(default_factory=dict)        # form -> set of analyses
    compounds: dict = field(default_factory=dict)     # form -> tuple of words

    def add(self, form, lemma, gram, sems=(), flex=()):
        self.lines.append(delaf_line(form, lemma, gram, sems, flex))
        if " " in form:
            self.compounds[form] = tuple(form.split(" "))
            return
        analyses = {(lemma, gram, tuple(sems), (code,)) for code in flex}
        self.simple.setdefault(form, set()).update(
            analyses or {(lemma, gram, tuple(sems), ())})

    @property
    def entry_count(self) -> int:
        return len(self.lines)


@dataclass
class Record:
    workload: str
    seed: int
    policy: str
    old: Version
    new: Version
    files: list                 # per corpus file, a list of Sentence
    file_names: list
    planted: dict               # casefolded form -> intended category
    compound_occurrences: int
    word_count: int
    abbrevs: tuple = ()


def escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace(",", "\\,")


def delaf_line(form, lemma, gram, sems=(), flex=()) -> str:
    lemma_field = "" if lemma == form else escape(lemma)
    return (escape(form) + "," + lemma_field + "." + gram
            + "".join("+" + s for s in sems) + "".join(":" + f for f in flex))


def _word(rng, letters, lo, hi) -> str:
    while True:
        w = "".join(rng.choice(letters) for _ in range(rng.randint(lo, hi)))
        if any(ch in VOWELS for ch in w):
            return w


def render(sentences) -> str:
    out = []
    for n, s in enumerate(sentences):
        pieces = []
        for i, w in enumerate(s.words):
            pieces.append(w + ("." if i in s.dots else "") + ("," if i in s.commas else ""))
        out.append(" ".join(pieces) + s.end)
        out.append("\n" if n % 6 == 5 else " ")
    return "".join(out).rstrip(" ") + "\n"


def _plant(rng, n, old, new, old_targets, typo_sources):
    """n unknown forms per category, keyed by casefolded form."""
    known = {f.casefold() for f in old.simple} | {f.casefold() for f in new.simple}
    planted = {}

    def take(form, category):
        if form.casefold() in known or form.casefold() in planted:
            return False
        planted[form.casefold()] = category
        return True

    for form in old_targets:
        take(form, "old_spelling")
    count = 0
    while count < n:
        src = rng.choice(typo_sources)
        i = rng.randrange(1, len(src) - 1)
        typo = src[:i] + rng.choice(STEM_LETTERS) + src[i + 1:]
        if typo != src and any(c in VOWELS for c in typo) and take(typo, "typing_error"):
            count += 1
    makers = {
        "proper_name": lambda: "z" + _word(rng, STEM_LETTERS, 4, 7),
        "abbreviation_acronym": lambda: "x" + _word(rng, STEM_LETTERS, 1, 3),
        "foreign_or_slang": lambda: "k" + _word(rng, STEM_LETTERS, 3, 6) + "w",
        "other_noun": lambda: "j" + _word(rng, STEM_LETTERS, 3, 6) + "x",
        "other": lambda: rng.choice("jxz") + rng.choice(VOWELS)
        + rng.choice("abcefgilmnoprstuvjxz"),
    }
    for category, make in makers.items():
        count = 0
        while count < n:
            count += take(make(), category)
    return planted


def surface(form: str, category: str) -> str:
    """How a planted form is written in the corpus."""
    if category == "proper_name":
        return form.capitalize()
    if category == "abbreviation_acronym":
        return form.upper()
    return form


def generate(workload: str, seed: int, outdir) -> Record:
    shape = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    stems = set()
    while len(stems) < shape["stems"]:
        stems.add(_word(rng, STEM_LETTERS, 4, 8))
    stems = sorted(stems)
    rng.shuffle(stems)
    n_new_only = len(stems) // 12      # stems the old version lacks
    n_old_only = len(stems) // 30      # stems the new version dropped
    old, new = Version(), Version()
    for k, stem in enumerate(stems):
        versions = [v for v, present in (
            (old, k >= n_new_only), (new, k < len(stems) - n_old_only)) if present]
        for suffix, gram, flex, lemma_end in rng.sample(SUFFIXES, shape["suffixes_per_stem"]):
            flex = flex + tuple(
                f"X{rng.randint(1, 9)}" for _ in range(rng.randint(0, shape["extra_flex"])))
            for version in versions:
                version.add(stem + suffix, stem + lemma_end, gram, (), flex)

    # new-spelling forms whose pre-1990 spelling is planted
    # (ideia <- idéia, aguentem <- agüentem)
    old_targets = []
    shared = stems[n_new_only:len(stems) - n_old_only]
    for k in range(shape["planted_per_category"]):
        stem = shared[k]
        form, planted_form = (stem + "eia", stem + "éia") if k % 2 else (
            stem + "guem", stem + "güem")
        for version in (old, new):
            version.add(form, stem + "o", "N", (), ("fs",))
        old_targets.append(planted_form)

    # mixed-case forms (proper nouns, acronyms) and escaped commas
    for k in range(shape["mixed_case"]):
        stem = rng.choice(stems)
        form = stem.upper() if k % 3 == 0 else stem.capitalize()
        for version in (old, new):
            version.add(form, form, "N", ("Sigl",) if k % 3 == 0 else ("Pr",))
    for k in range(shape["escaped"]):
        stem = rng.choice(stems)
        for version in (old, new):
            version.add(f"{stem},{k}", f"{stem},{k % 7}", "NUM", (), ("ms",))
    if shape["abbrev_rate"]:
        for abbrev in ABBREVIATIONS:
            for version in (old, new):
                version.add(abbrev.lower(), abbrev.lower(), "ABREV")

    abbrevs = {a.lower() for a in ABBREVIATIONS}
    plain = sorted(f for f in set(old.simple) | set(new.simple)
                   if f == f.lower() and "," not in f and f not in abbrevs)
    common = sorted(f for f in set(old.simple) & set(new.simple)
                    if f == f.lower() and "," not in f and f not in abbrevs)
    # compounds: many share a few first words; one part in five is no
    # simple form of either version ("q..z" shape, used nowhere else)
    first_words = rng.sample(common, shape["compound_first_words"])
    compound_forms = set()
    while len(compound_forms) < shape["compounds"]:
        parts = [rng.choice(first_words)]
        for _ in range(rng.randint(1, 3)):
            parts.append("q" + _word(rng, VOWELS + "z", 3, 5)
                         if rng.random() < 0.2 else rng.choice(common))
        compound_forms.add(" ".join(parts))
        if len(parts) > 2 and len(compound_forms) % 5 == 0:
            # a prefix that is itself a compound tests longest-first matching
            compound_forms.add(" ".join(parts[:2]))
    compounds = sorted(compound_forms)
    for form in compounds:
        for version in (old, new):
            version.add(form, form, "N", ("Comp",), ("ms",))

    typo_sources = [f for f in common if len(f) >= 6]
    planted = _plant(rng, shape["planted_per_category"], old, new, old_targets,
                     typo_sources)

    # Zipf over the forms of both versions, so each run meets forms the
    # other version lacks
    vocab = list(plain)
    rng.shuffle(vocab)
    cum, acc = [], 0.0
    for r in range(len(vocab)):
        acc += 1.0 / (r + 1) ** 1.05
        cum.append(acc)

    def sentence(n, end):
        words = rng.choices(vocab, cum_weights=cum, k=n)
        s = Sentence(words, end=end)
        k = 1
        while k < n - 1:
            r = rng.random()
            if r < shape["compound_rate"]:
                parts = rng.choice(compounds).split(" ")
                if k + len(parts) < n:
                    words[k:k + len(parts)] = parts
                    s.compound_spans.append((k, len(parts)))
                    k += len(parts) + 1
                    continue
            elif r < shape["compound_rate"] + shape["abbrev_rate"]:
                words[k] = rng.choice(ABBREVIATIONS)
                s.dots.add(k)
                words[k + 1] = words[k + 1].capitalize()
                k += 2
                continue
            elif r > 0.93:
                s.commas.add(k)
            elif r > 0.93 - shape["upper_rate"]:
                words[k] = words[k].upper()
            k += 1
        return s

    files = []
    compound_occurrences = 0
    lo, hi = shape["sentence"]
    for fi in range(shape["files"]):
        long_passage = shape["long_passage"] if fi == shape["files"] - 1 else 0
        budget = shape["words_per_file"] - long_passage
        sentences = []
        while budget > 0:
            n = min(budget, rng.randint(lo, hi))
            if budget - n < lo:
                n = budget
            s = sentence(n, rng.choice(".....!?"))
            continuation = sentences and sentences[-1].end == "." and (
                rng.random() < shape["continuation_rate"])
            if not continuation:
                s.words[0] = s.words[0].capitalize()
            sentences.append(s)
            budget -= n
        if long_passage:
            s = sentence(long_passage, "")
            s.words[0] = s.words[0].capitalize()
            sentences.append(s)
        compound_occurrences += sum(len(s.compound_spans) for s in sentences)
        files.append(sentences)

    # planted unknowns replace words at mid-sentence positions outside
    # compounds and abbreviations, spread evenly over the corpus
    slots = []
    for sentences in files:
        for s in sentences:
            taken = {k + j for k, n in s.compound_spans for j in range(n)}
            taken |= {k + d for k in s.dots for d in (0, 1)}
            slots.extend((s, i) for i in range(2, len(s.words) - 1) if i not in taken)
    uses = [f for f in sorted(planted) for _ in range(1 + rng.randrange(3))]
    rng.shuffle(uses)
    for (s, i) in rng.sample(slots, len(uses)):
        form = uses.pop()
        s.words[i] = surface(form, planted[form])

    file_names = [f"{workload}_{fi:04d}.txt" for fi in range(shape["files"])]
    (outdir / "old.dic").write_text("\n".join(old.lines) + "\n", encoding="utf-8")
    (outdir / "new.dic").write_text("\n".join(new.lines) + "\n", encoding="utf-8")
    (outdir / "abbrev.txt").write_text(
        "".join(a + ".\n" for a in ABBREVIATIONS), encoding="utf-8")
    corpus = outdir / "corpus"
    corpus.mkdir(exist_ok=True)
    for name, sentences in zip(file_names, files):
        (corpus / name).write_text(render(sentences), encoding="utf-8")
    word_count = sum(len(s.words) for sentences in files for s in sentences)
    if word_count != shape["files"] * shape["words_per_file"]:
        raise AssertionError(f"generator wrote {word_count} words")
    return Record(
        workload=workload, seed=seed, policy=shape["policy"], old=old, new=new,
        files=files, file_names=file_names, planted=planted,
        compound_occurrences=compound_occurrences, word_count=word_count,
        abbrevs=ABBREVIATIONS if shape["abbrev_rate"] else (),
    )
