"""Benchmark of the lexcov workflow: compile -> apply -> coverage -> classify -> diff.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload newspaper --seed 1 --seconds 36 --trace 0

It generates the workload's inputs from the seed (untimed), then repeats
rounds of the same command sequence until ``--seconds`` are used:

1. ``lexcov compile`` the old and the new DELAF version;
2. ``lexcov apply`` the corpus with each version;
3. ``lexcov coverage --run old --run new``;
4. ``lexcov classify`` the new run with ``--old``;
5. ``lexcov diff -a old -b new``.

Every command is a fresh interpreter running ``src/`` of the checkout, with
``PYTHONHASHSEED`` and ``SOURCE_DATE_EPOCH`` fixed, and its time is scaled
by a reference task timed right before it.  Round 0's outputs are checked
against values computed apart from the program (``check.py``); later rounds
must repeat them byte for byte.  Each metric is the median over the rounds.
``--trace 1`` alternates untraced and traced rounds, adds in-process layer
probes and prints the per-layer metrics instead.  The last line of stdout
is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import check
import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
CHILD_TIMEOUT_S = 150
MIN_ROUNDS = 2

# Fixed, seed-independent inputs for the one operation kept although it
# fails: direct coverage (`coverage CORPUS -l LEX`) must equal `coverage
# --run` on the same inputs, but today it skips compounds, so "por",
# "exemplo", "de" and "facto" count as unknown there and not after apply.
DIRECT_DIC = [
    "o,.DET:ms", "a,.DET:fs", "brasil,.N+Top:ms", "venceu,vencer.V:J3s",
    "disse,dizer.V:J3s", "que,.CONJ", "ufrj,.SIGL", "jogo,.N:ms",
    "por exemplo,.ADV", "de facto,.ADV",
]
DIRECT_TEXT = ("O Brasil venceu. A UFRJ disse que por exemplo o Brasil venceu "
               "o jogo de facto.\n")


# The machine's speed drifts by up to 30 % over tens of seconds, and a run
# is too short to average that out.  So each timed child is paired with this
# fixed pure-Python task, which does not touch lexcov, run in a fresh
# interpreter right before it.  A command's seconds are reported as
# wall * REFERENCE_S / (the reference's wall time): the time the command
# would take on a machine where the reference takes REFERENCE_S.
REFERENCE_TASK = r"""
import re
words = [f"Palavra{i % 3001}ção{i % 17}" for i in range(25000)]
counts = {}
for w in words:
    key = w.casefold()
    counts[key] = counts.get(key, 0) + 1
rows = sorted((w[:4].lower(), w[1:], counts[w.casefold()]) for w in words)
re.findall(r"(\w+)|(\s+)", " ".join(r[1] for r in rows))
"""
REFERENCE_S = 0.12


def metric_units(kind):
    """Metric name -> unit, as BENCHMARK.json lists them under ``kind``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def run_child(argv, cwd, env, log):
    """Run one child to its end; return (wall seconds, peak RSS MiB, exit code)."""
    with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024, proc.returncode


class Bench:
    def __init__(self, workload, seed, work):
        self.work = work
        (work / "logs").mkdir(parents=True)
        (work / "lex").mkdir()
        self.record = gen.generate(workload, seed, work / "inputs")
        self.rng = random.Random(f"check:{workload}:{seed}")
        # -S keeps site-packages (and any .pth imports found there) out of
        # the children: lexcov needs only the standard library.  Bytecode
        # is cached under _work so no command pays compilation.
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.env.update(
            PYTHONPATH=str(ROOT / "src"),
            PYTHONHASHSEED="0",
            SOURCE_DATE_EPOCH="1700000000",
            PYTHONPYCACHEPREFIX=str(WORK / "pycache"),
        )
        rec = self.record
        self.exp_old = check.expect_run(rec, rec.old)
        self.exp_new = check.expect_run(rec, rec.new)
        self.exp_diff = check.expect_diff(rec)
        self.corpus_id = ",".join(rec.file_names)
        self.entries = rec.old.entry_count + rec.new.entry_count
        self.unknown_types = len(self.exp_new["unknown_forms"])
        self.apply_opts = ["--case-policy", rec.policy]
        if rec.abbrevs:
            self.apply_opts += ["--abbrev", "inputs/abbrev.txt"]
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self.direct = workload == "book"
        self.direct_report = None
        self.absent = set()      # traced names the program no longer has
        # fills the bytecode cache before any timed command
        self.child([sys.executable, "-S", "-m", "lexcov.cli", "--version"], "warmup")
        if self.direct:
            self.prepare_direct()

    # -- children -----------------------------------------------------------

    def child(self, argv, log):
        wall, rss, status = run_child(argv, self.work, self.env, self.work / "logs" / log)
        if status != 0:
            tail = (self.work / "logs" / f"{log}.err").read_text(errors="replace")[-400:]
            self.problems.append(f"{log}: exit {status}: {tail.strip()}")
        return wall, rss, status

    def speed(self, log):
        """REFERENCE_S over the reference task's wall time right now."""
        wall, _, _ = self.child([sys.executable, "-S", "-c", REFERENCE_TASK], f"{log}_ref")
        return REFERENCE_S / wall

    def lexcov(self, args, log, trace=None):
        """One operation of a round: attempted, and failed if it exits non-zero.
        Returns its reference-scaled seconds and its peak RSS."""
        if trace:
            argv = [sys.executable, "-S", str(HERE / "trace_cli.py"), trace, *args]
        else:
            argv = [sys.executable, "-S", "-m", "lexcov.cli", *args]
        speed = self.speed(log)
        wall, rss, status = self.child(argv, log)
        self.attempted += 1
        self.failed += status != 0
        return wall * speed, rss

    def output(self, log):
        return (self.work / "logs" / f"{log}.out").read_text(encoding="utf-8")

    def output_json(self, log):
        try:
            return json.loads(self.output(log))
        except ValueError:
            self.problems.append(f"{log}: output is not JSON")
            return {}

    def prepare_direct(self):
        d = self.work / "direct"
        (d / "corpus").mkdir(parents=True)
        (d / "direct.dic").write_text("\n".join(DIRECT_DIC) + "\n", encoding="utf-8")
        (d / "corpus" / "direct.txt").write_text(DIRECT_TEXT, encoding="utf-8")
        lx = [sys.executable, "-S", "-m", "lexcov.cli"]
        self.child(lx + ["compile", "direct/direct.dic", "-o", "direct/direct.lex"],
                   "direct_compile")
        self.child(lx + ["apply", "direct/corpus/direct.txt", "-l", "direct/direct.lex",
                         "-o", "direct/run", "--case-policy", "full_fold"], "direct_apply")
        self.child(lx + ["coverage", "--run", "direct/run", "--format", "json"],
                   "direct_run_coverage")
        self.direct_report = self.output_json("direct_run_coverage").get("reports")
        if not self.direct_report:
            self.problems.append("direct_run_coverage: no report")

    def direct_coverage(self, log):
        """The kept failing operation: counted failed when the direct report
        differs from the one made from the apply run."""
        self.attempted += 1
        _, _, status = run_child(
            [sys.executable, "-S", "-m", "lexcov.cli", "coverage", "direct/corpus/direct.txt",
             "-l", "direct/direct.lex", "--case-policy", "full_fold", "--format", "json"],
            self.work, self.env, self.work / "logs" / log)
        report = self.output_json(log).get("reports") if status == 0 else None
        self.failed += report != self.direct_report

    # -- one round ------------------------------------------------------------

    def round(self, r, traced=False):
        d = self.work / f"r{r}"
        d.mkdir()
        rd = f"r{r}"
        tr = (lambda name: str(d / f"trace_{name}.json")) if traced else (lambda name: None)
        t = {}
        rss = {}
        for v in ("old", "new"):
            t[f"compile_{v}"], rss[f"compile_{v}"] = self.lexcov(
                ["compile", f"inputs/{v}.dic", "-o", f"lex/{v}.lex", "--json"],
                f"{rd}_compile_{v}", tr(f"compile_{v}"))
        setup = self.setup_probe(rd, sample=(r == 0))
        for v in ("old", "new"):
            t[f"apply_{v}"], rss[f"apply_{v}"] = self.lexcov(
                ["apply", "inputs/corpus/*.txt", "-l", f"lex/{v}.lex", "-o", f"{rd}/run_{v}",
                 *self.apply_opts], f"{rd}_apply_{v}", tr(f"apply_{v}"))
        t["coverage"], _ = self.lexcov(
            ["coverage", "--run", f"{rd}/run_old", "--run", f"{rd}/run_new", "--format", "json"],
            f"{rd}_coverage", tr("coverage"))
        t["classify"], _ = self.lexcov(
            ["classify", f"{rd}/run_new", "-l", "lex/new.lex", "--old", "lex/old.lex",
             "-o", f"{rd}/classification.tsv"], f"{rd}_classify", tr("classify"))
        t["diff"], _ = self.lexcov(
            ["diff", "-a", "inputs/old.dic", "-b", "inputs/new.dic", "--format", "json"],
            f"{rd}_diff", tr("diff"))
        if self.direct:
            self.direct_coverage(f"{rd}_direct_coverage")
        self.check_round(r, rd)

        rec = self.record
        return {
            "setup_s": setup,
            "compile_entries_per_s": self.entries / (t["compile_old"] + t["compile_new"]),
            "apply_words_per_s": 2 * rec.word_count / (t["apply_old"] + t["apply_new"]),
            "coverage_words_per_s": rec.word_count / t["coverage"],
            "classify_forms_per_s": self.unknown_types / t["classify"],
            "diff_entries_per_s": self.entries / t["diff"],
            "workflow_s": sum(t.values()),
            "apply_peak_rss_mib": max(rss["apply_old"], rss["apply_new"]),
            "compile_peak_rss_mib": max(rss["compile_old"], rss["compile_new"]),
            "lex_bytes": (self.work / "lex" / "new.lex").stat().st_size,
        }

    def setup_probe(self, rd, sample):
        """Reference-scaled seconds to load both lexicons, the set-up that
        apply and classify pay."""
        args = [sys.executable, "-S", str(HERE / "probe.py"), "setup", f"{rd}/setup.json",
                "lex/old.lex", "lex/new.lex"]
        if sample:
            forms = check.lookup_sample(self.record, self.rng)
            (self.work / "sample.json").write_text(json.dumps(forms), encoding="utf-8")
            args.append("sample.json")
        speed = self.speed(f"{rd}_setup")
        _, _, status = self.child(args, f"{rd}_setup")
        if status != 0:
            return float("nan")
        result = json.loads((self.work / rd / "setup.json").read_text(encoding="utf-8"))
        if sample:
            self.problems += check.check_lookups(result["lookups"], self.record)
        return result["load_s"] * speed

    def check_round(self, r, rd):
        """Round 0 is checked against the record; later rounds must repeat
        round 0 byte for byte, which also shows that two applies of the same
        inputs under SOURCE_DATE_EPOCH give identical trees."""
        w = self.work
        if r > 0:
            for name in ("run_old", "run_new", "classification.tsv"):
                self.problems += check.check_same_tree(w / "r0" / name, w / rd / name)
            for log in ("compile_old", "compile_new", "coverage", "classify", "diff"):
                if self.output(f"r0_{log}") != self.output(f"{rd}_{log}"):
                    self.problems.append(f"{rd}_{log}: output differs from round 0")
            return
        rec = self.record
        for v, version in (("old", rec.old), ("new", rec.new)):
            stats = self.output_json(f"{rd}_compile_{v}")
            if stats.get("entries") != version.entry_count:
                self.problems.append(f"{rd} compile {v}: {stats.get('entries')} entries, "
                                     f"want {version.entry_count}")
        self.problems += check.check_run_dir(w / rd / "run_old", self.exp_old)
        self.problems += check.check_run_dir(w / rd / "run_new", self.exp_new)
        self.problems += check.check_coverage(
            self.output_json(f"{rd}_coverage"), self.exp_old, self.exp_new, self.corpus_id)
        self.problems += check.check_classify(
            w / rd / "classification.tsv", self.output_json(f"{rd}_classify"), rec, self.exp_new)
        self.problems += check.check_diff(self.output_json(f"{rd}_diff"), self.exp_diff)

    # -- traced run ----------------------------------------------------------------

    def micro(self):
        """Lookup rates per policy and t(2n)/t(n) ratios, measured in-process."""
        files = sorted(str(p.relative_to(self.work))
                       for p in (self.work / "inputs" / "corpus").glob("*.txt"))
        _, _, status = self.child(
            [sys.executable, "-S", str(HERE / "probe.py"), "micro", "micro.json",
             "lex/new.lex", self.record.policy, "inputs/abbrev.txt", *files], "micro")
        result = {}
        if status == 0:
            result = json.loads((self.work / "micro.json").read_text(encoding="utf-8"))
        m = {f"automaton.lookup_per_s.{p}": result.get(f"lookup_per_s.{p}", 0.0)
             for p in ("exact", "unitex_like", "full_fold")}
        m["preprocess.segment_scaling"] = result.get("segment_scaling", 0.0)
        for name in ("compound_scaling", "merge_scaling", "apply_scaling"):
            m[f"dico.{name}"] = result.get(name, 0.0)
        return m

    def layer_metrics(self, rd):
        """Per-layer metrics from the traces of one traced round."""
        calls, total, self_s, items, layer_self, cli_self = (Counter() for _ in range(6))
        for path in sorted((self.work / rd).glob("trace_*.json")):
            payload = json.loads(path.read_text(encoding="utf-8"))
            self.absent.update(payload["absent"])
            for _sid, _parent, name, layer, start, end, own, n in payload["spans"]:
                calls[name] += 1
                total[name] += end - start
                self_s[name] += own
                items[name] += n
                layer_self[layer] += own
                if name == "main":
                    cli_self[payload["command"]] += own
            for name, (layer, n_calls, tot, own) in payload["hot"].items():
                calls[name] += n_calls
                total[name] += tot
                self_s[name] += own
                layer_self[layer] += own

        def rate(n, seconds):
            return n / seconds if seconds > 0 else 0.0

        words = 2 * self.record.word_count
        rows = sum(
            len((self.work / rd / f"run_{v}" / "annotations.tsv").read_bytes().splitlines())
            for v in ("old", "new"))
        m = {
            "delaf.parse_entries_per_s": rate(items["load_dict_file"], total["load_dict_file"]),
            "automaton.compile_entries_per_s":
                rate(items["compile_lexicon"], total["compile_lexicon"]),
            "automaton.save_s": total["Lexicon.save"] + total["save_lexicon"],
            "automaton.load_s": total["load_lexicon"],
            "automaton.lookup_forms_calls": calls["Lexicon.lookup_forms"],
            "automaton.entry_for_calls": calls["Lexicon.entry_for"],
            "automaton.match_compounds_calls": calls["Lexicon.match_compounds"],
            "automaton.match_compounds_s": total["Lexicon.match_compounds"],
            "automaton.contains_calls": calls["Lexicon.__contains__"],
            "preprocess.normalize_s": total["normalize_delimiters"],
            "preprocess.tokenize_tokens_per_s": rate(items["tokenize"], total["tokenize"]),
            "preprocess.segment_tokens_per_s":
                rate(items["segment_sentences"], total["segment_sentences"]),
            "dico.apply_words_per_s": rate(words, self_s["apply_dictionaries"]),
            "dico.lookup_forms_per_word": calls["Lexicon.lookup_forms"] / words,
            "dico.merge_s": total["merge_results"],
            "dico.merge_calls": calls["merge_results"],
            "dico.write_rows_per_s": rate(rows, total["write_outputs"]),
            "dico.read_annotations_rows_per_s":
                rate(items["read_annotations"], total["read_annotations"]),
            "coverage.word_list_s": total["build_word_list"],
            "coverage.from_dico_s": total["coverage_from_dico"],
            "coverage.diff_s": total["diff_dictionaries"],
            "classify.records_s": total["build_unknown_records"],
            "classify.classify_forms_per_s": rate(self.unknown_types, total["classify"]),
            "classify.probes_per_form": calls["Lexicon.__contains__"] / self.unknown_types,
        }
        for command in ("compile", "apply", "coverage", "classify"):
            m[f"cli.{command}_self_s"] = cli_self[command]
        for layer in ("delaf", "automaton", "preprocess", "dico", "coverage", "classify", "cli"):
            m[f"self.{layer}_s"] = layer_self[layer]
        return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(gen.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops and reaps the command it is waiting for
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "lexcov" / "cli.py").is_file():
        print(f"perfbench: no lexcov sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    bench = Bench(args.workload, args.seed, work)

    if args.trace:
        # untraced and traced rounds alternate, so the overhead compares
        # rounds taken close in time
        rounds = [bench.round(r, traced=r % 2 == 1) for r in range(4)]
        traced = [bench.layer_metrics(f"r{r}") for r in (1, 3)]
        values = {name: statistics.median(m[name] for m in traced) for name in traced[0]}
        values.update(bench.micro())
        values["trace.overhead_ratio"] = (
            statistics.median(r["workflow_s"] for r in rounds[1::2])
            / statistics.median(r["workflow_s"] for r in rounds[0::2]))
        units = metric_units("per_layer")
        if bench.absent:
            print(f"perfbench: absent from the program: {sorted(bench.absent)}", file=sys.stderr)
    else:
        rounds = []
        deadline = time.perf_counter() + args.seconds
        while True:
            start = time.perf_counter()
            rounds.append(bench.round(len(rounds)))
            took = time.perf_counter() - start
            if len(rounds) >= MIN_ROUNDS and time.perf_counter() + took > deadline:
                break
        units = metric_units("end_to_end")
        values = {name: statistics.median(r[name] for r in rounds) for name in units}
        print(f"rounds: {len(rounds)}")

    for problem in bench.problems:
        print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)
    correct = not bench.problems
    for name, unit in units.items():
        print(f"{name:36s} {values[name]:>16.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
