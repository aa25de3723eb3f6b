"""Output checks made apart from the program.

Every expected value here is computed from the generator's record with the
benchmark's own code: its own case rule, its own greedy compound matcher,
exact fractions for percentages and a plain dynamic-programming edit
distance.  Nothing is compared with a stored copy of an earlier output.
Each ``check_*`` function returns a list of problems; empty means correct.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path


def matches(token: str, form: str, policy: str) -> bool:
    """Whether a corpus token may stand for a dictionary form."""
    if token == form:
        return True
    if policy == "exact":
        return False
    if policy == "full_fold":
        return token.casefold() == form.casefold()
    # unitex_like: a lowercase form also stands for its capitalised and
    # all-uppercase spellings
    return form == form.lower() and (
        token == form[:1].upper() + form[1:] or token == form.upper())


def _is_known(token, simple, folded, policy) -> bool:
    if policy == "full_fold":
        return token.casefold() in folded
    candidates = (token, token[:1].lower() + token[1:], token.lower())
    return any(f in simple and matches(token, f, policy) for f in candidates)


def _covered(sentence, index, policy) -> set:
    """Word positions covered by greedy, longest-first compound matches."""
    words = sentence.words
    breaks = sentence.commas | sentence.dots
    covered = set()
    i = 0
    while i < len(words):
        best = 0
        for parts in index.get(words[i].casefold(), ()):
            k = len(parts)
            if (k > best and i + k <= len(words)
                    and not any(i + j in breaks for j in range(k - 1))
                    and all(matches(words[i + j], parts[j], policy) for j in range(k))):
                best = k
        if best:
            covered.update(range(i, i + best))
            i += best
        else:
            i += 1
    return covered


def expect_run(record, version) -> dict:
    """What ``lexcov apply`` must report for the corpus against one version."""
    policy = record.policy
    simple = version.simple
    folded = {f.casefold() for f in simple}
    index = {}
    for parts in version.compounds.values():
        index.setdefault(parts[0].casefold(), []).append(parts)
    counts = {"known_simple": 0, "in_compound_only": 0, "unknown": 0}
    err = set()
    types = {}           # casefolded form -> frequency
    known_types = set()
    unknown = {}         # casefolded form -> unknown occurrences
    rows = []            # (text, sentence index, status) of each word token
    sentence_index = 0
    for sentences in record.files:
        for n, sentence in enumerate(sentences):
            covered = _covered(sentence, index, policy)
            for i, word in enumerate(sentence.words):
                form = word.casefold()
                types[form] = types.get(form, 0) + 1
                if _is_known(word, simple, folded, policy):
                    status = "known_simple"
                elif i in covered:
                    status = "in_compound_only"
                else:
                    status = "unknown"
                    err.add(word)
                    unknown[form] = unknown.get(form, 0) + 1
                counts[status] += 1
                rows.append((word, sentence_index, status))
                if status != "unknown":
                    known_types.add(form)
            # a terminator ends a sentence when the next word is capitalised
            # or the text ends; an abbreviation's dot never does
            following = sentences[n + 1].words[0] if n + 1 < len(sentences) else None
            if sentence.end and (following is None or following[0].isupper()):
                sentence_index += 1
        # merging files keeps indices apart: the next file starts one past
        # the last index used, which the file's final newline holds
        sentence_index += 1
    counts["word_tokens"] = sum(types.values())
    counts["err_forms"] = len(err)
    types_unknown = [f for f in types if f not in known_types]
    return {
        "counts": counts,
        "err": sorted(err),
        "types_total": len(types),
        "types_unknown": len(types_unknown),
        "tokens_total": counts["word_tokens"],
        "tokens_unknown": sum(types[f] for f in types_unknown),
        "unknown_forms": unknown,
        "rows": rows,
    }


def pct_hundredths(part: int, total: int) -> int:
    """100*part/total in hundredths, rounded half up."""
    if total == 0:
        return 0
    scaled = Fraction(part * 10000, total) + Fraction(1, 2)
    return scaled.numerator // scaled.denominator


def hundredths_str(n: int) -> str:
    sign = "-" if n < 0 else ""
    return f"{sign}{abs(n) // 100}.{abs(n) % 100:02d}"


def expect_diff(record) -> dict:
    def forms(version):
        return {f.casefold() for f in version.simple} | {
            f.casefold() for f in version.compounds}
    a, b = forms(record.old), forms(record.new)
    return {"only_in_a": sorted(a - b), "only_in_b": sorted(b - a),
            "common": len(a & b), "fold_mode": "folded"}


def levenshtein(a: str, b: str) -> int:
    row = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        prev, row[0] = row[0], i
        for j, cb in enumerate(b, 1):
            prev, row[j] = row[j], min(row[j] + 1, row[j - 1] + 1, prev + (ca != cb))
    return row[-1]


# -- checks on program outputs ----------------------------------------------

def check_run_dir(run_dir, expected) -> list:
    run_dir = Path(run_dir)
    problems = []
    counts = json.loads((run_dir / "run.json").read_text(encoding="utf-8"))["counts"]
    for key, value in expected["counts"].items():
        if counts.get(key) != value:
            problems.append(f"{run_dir.name}/run.json {key}: {counts.get(key)} != {value}")
    rows = []
    for line in (run_dir / "annotations.tsv").read_text(encoding="utf-8").splitlines():
        text, kind, sentence, status, _ = line.split("\t")
        if kind == "word":
            rows.append((text, int(sentence), status))
    want = expected["rows"]
    if rows != want:
        at = next((i for i, (a, b) in enumerate(zip(rows, want)) if a != b), None)
        problems.append(
            f"{run_dir.name}/annotations.tsv: {len(rows)} word rows, want {len(want)}"
            if at is None else
            f"{run_dir.name}/annotations.tsv word row {at}: {rows[at]} != {want[at]}")
    err = (run_dir / "err").read_text(encoding="utf-8").splitlines()
    if err != expected["err"]:
        problems.append(f"{run_dir.name}/err differs: {len(err)} vs {len(expected['err'])} forms")
    return problems


def check_coverage(payload, exp_old, exp_new, corpus_id) -> list:
    problems = []
    reports = payload.get("reports", [])
    hundredths = []
    for report, exp, name in zip(reports, (exp_old, exp_new), ("old", "new")):
        for key in ("types_total", "types_unknown", "tokens_total", "tokens_unknown"):
            if report.get(key) != exp[key]:
                problems.append(f"coverage {name} {key}: {report.get(key)} != {exp[key]}")
        t = pct_hundredths(exp["types_unknown"], exp["types_total"])
        k = pct_hundredths(exp["tokens_unknown"], exp["tokens_total"])
        hundredths.append((t, k))
        for key, value in (("pct_types_unknown", t), ("pct_tokens_unknown", k)):
            want = hundredths_str(value)
            if report.get(key) != want:
                problems.append(f"coverage {name} {key}: {report.get(key)} != {want}")
        if report.get("corpus_id") != corpus_id:
            problems.append(f"coverage {name} corpus_id {report.get('corpus_id')!r}")
    if len(reports) != 2:
        return problems + [f"coverage: {len(reports)} reports"]
    (t_old, k_old), (t_new, k_new) = hundredths
    deltas = payload.get("deltas", [])
    want = {"corpus_id": corpus_id, "delta_types_pp": hundredths_str(t_old - t_new),
            "delta_tokens_pp": hundredths_str(k_old - k_new)}
    if deltas != [want]:
        problems.append(f"coverage deltas {deltas} != {[want]}")
    if payload.get("mean_delta_types_pp") != want["delta_types_pp"]:
        problems.append(f"coverage mean delta {payload.get('mean_delta_types_pp')}")
    return problems


def check_diff(payload, expected) -> list:
    return [f"diff {key} differs" for key, value in expected.items()
            if payload.get(key) != value]


_TYPO_DISTANCE = re.compile(r"R-typo: edit distance 1 to '([^']*)'")
_TYPO_SPLIT = re.compile(r"R-typo: splits into '([^']*)' \+ '([^']*)'")


def check_classify(tsv_path, histogram, record, exp_new) -> list:
    problems = []
    unknown = exp_new["unknown_forms"]
    if sum(histogram.values()) != len(unknown):
        problems.append(f"classify histogram sums to {sum(histogram.values())}, "
                        f"want {len(unknown)}")
    forms = set(record.old.simple) | set(record.new.simple)
    rows = {}
    for line in Path(tsv_path).read_text(encoding="utf-8").splitlines():
        form, freq, category, _winner, _fired, evidence = line.split("\t")
        rows[form] = category
        if unknown.get(form) != int(freq):
            problems.append(f"classify {form!r} frequency {freq}, want {unknown.get(form)}")
        for m in _TYPO_DISTANCE.finditer(evidence):
            cand = m.group(1)
            if cand not in forms or levenshtein(form, cand) != 1:
                problems.append(f"classify {form!r}: R-typo names {cand!r}")
        for m in _TYPO_SPLIT.finditer(evidence):
            left, right = m.groups()
            if left + right != form or left not in forms or right not in forms:
                problems.append(f"classify {form!r}: R-typo split {left!r}+{right!r}")
    if set(rows) != set(unknown):
        problems.append(f"classify rows {len(rows)} != unknown types {len(unknown)}")
    for form, category in record.planted.items():
        if rows.get(form) != category:
            problems.append(f"classify planted {form!r}: {rows.get(form)} != {category}")
    return problems[:20]


def check_lookups(found, record) -> list:
    """``found`` maps form -> list of [lemma, gram, sems, flex] from the
    reloaded new lexicon, as the probe child printed it."""
    problems = []
    for form, analyses in found.items():
        got = {(a[0], a[1], tuple(a[2]), tuple(a[3])) for a in analyses}
        want = record.new.simple.get(form, set())
        if got != want:
            problems.append(f"lookup {form!r}: {sorted(got)} != {sorted(want)}")
    return problems[:20]


def lookup_sample(record, rng, n=300) -> list:
    forms = sorted(record.new.simple)
    sample = rng.sample(forms, min(n, len(forms)))
    sample += [f for f in forms if f != f.lower() or "," in f][:50]
    sample += sorted(record.planted)[:50]
    return sample


def check_same_tree(a, b) -> list:
    """Two output files or directories must hold the same bytes."""
    a, b = Path(a), Path(b)
    if a.is_file():
        return [] if b.is_file() and a.read_bytes() == b.read_bytes() else [f"{b} differs from {a}"]
    names_a = sorted(p.relative_to(a).as_posix() for p in a.rglob("*") if p.is_file())
    names_b = sorted(p.relative_to(b).as_posix() for p in b.rglob("*") if p.is_file())
    if names_a != names_b:
        return [f"{b} lists other files than {a}"]
    return [f"{b / n} differs from {a / n}" for n in names_a
            if (a / n).read_bytes() != (b / n).read_bytes()]
