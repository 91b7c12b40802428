#!/usr/bin/env python3
"""Integration tests for pathsched_fuzz (docs/fuzzing.md).

Drives the real fuzz binary end to end:

  1. determinism: --print-ir for the same spec is byte-identical
     across two separate processes, and --threads is an unknown option
     (exit 1);
  2. a clean sweep exits 0 and leaves a journal whose records carry
     the crc field the reader checks on resume;
  3. the mutation drill: with PATHSCHED_MUTATION=compact-drop-memdep a
     one-seed sweep at the known repro catches the planted compaction
     bug (exit 2), auto-reduces it into the corpus directory with the
     mutation recorded, and the reduced spec replays clean once the
     mutation is disarmed;
  4. pathsched_cli --gen runs a generated workload through the normal
     reporting path.

Usage: fuzz_driver_test.py <pathsched_fuzz> <pathsched_cli>
"""

import json
import os
import subprocess
import sys
import tempfile

FUZZ = sys.argv[1]
CLI = sys.argv[2]

MEMDEP_SPEC = ("mem=2,stores=0.3,loads=0.3,calls=0,"
               "emits=0.1,ifs=0.15,loops=0.1")

failures = []


def check(cond, what):
    tag = "ok" if cond else "FAIL"
    print(f"  [{tag}] {what}")
    if not cond:
        failures.append(what)


def run(args, env_extra=None, cwd=None):
    env = dict(os.environ)
    env.pop("PATHSCHED_MUTATION", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=env, cwd=cwd, timeout=600)


def read_journal(path):
    events = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


print("[1] --print-ir determinism across processes")
spec = "seed=77,procs=4,ifs=0.2,loops=0.12,calls=0.15"
a = run([FUZZ, "--print-ir", spec])
b = run([FUZZ, "--print-ir", spec])
c = run([FUZZ, "--print-ir", spec, "--threads", "1"])
check(a.returncode == 0, "print-ir exits 0")
check(len(a.stdout) > 100, "print-ir emits the program")
check(a.stdout == b.stdout, "two processes produce identical IR")
check(c.returncode == 1 and "unknown option '--threads'" in c.stderr,
      f"--threads is an unknown option (exit {c.returncode})")

with tempfile.TemporaryDirectory() as td:
    print("[2] clean sweep exits 0 with a checksummed journal")
    journal = os.path.join(td, "journal.jsonl")
    corpus = os.path.join(td, "corpus")
    r = run([FUZZ, "--count", "5", "--seed-base", "1000",
             "--jobs", "2", "--journal", journal,
             "--corpus-dir", corpus])
    check(r.returncode == 0, f"clean sweep exits 0 (got {r.returncode})")
    events = read_journal(journal)
    kinds = [e.get("event") for e in events]
    check(kinds.count("seed") == 5, "journal has one record per seed")
    check("suite-start" in kinds and "suite-end" in kinds,
          "journal brackets the suite")
    check(all("crc" in e for e in events), "every record is checksummed")
    check(not os.path.isdir(corpus) or not os.listdir(corpus),
          "clean sweep writes no corpus files")

    print("[3] mutation drill: catch, classify, reduce, clean replay")
    journal2 = os.path.join(td, "drill.jsonl")
    r = run([FUZZ, "--count", "1", "--seed-base", "19",
             "--spec", MEMDEP_SPEC, "--journal", journal2,
             "--corpus-dir", corpus],
            env_extra={"PATHSCHED_MUTATION": "compact-drop-memdep"})
    check(r.returncode == 2, f"drill sweep exits 2 (got {r.returncode})")
    reduced = os.path.join(corpus, "seed-19.spec")
    check(os.path.isfile(reduced), "reduced repro landed in the corpus")
    if os.path.isfile(reduced):
        text = open(reduced).read()
        check("# mutation: compact-drop-memdep" in text,
              "repro records the armed mutation")
        check("# class: " in text, "repro records the classification")
        check("drop=" in text, "reduction actually shrank the workload")
        rr = run([FUZZ, "--replay", reduced])
        check(rr.returncode == 0,
              f"reduced spec replays clean unmutated (got {rr.returncode})")
        rm = run([FUZZ, "--replay", reduced],
                 env_extra={"PATHSCHED_MUTATION": "compact-drop-memdep"})
        check(rm.returncode == 2,
              f"reduced spec still fails mutated (got {rm.returncode})")
    evs = read_journal(journal2)
    kinds = [e.get("event") for e in evs]
    check("reduce-done" in kinds, "journal records the reduction")

    print("[4] pathsched_cli --gen smoke")
    r = run([CLI, "--gen", "seed=3,procs=2", "--config", "P4"])
    check(r.returncode == 0, f"cli --gen exits 0 (got {r.returncode})")
    check("gen-3" in r.stdout, "table names the generated workload")

print()
if failures:
    print(f"FAILED: {len(failures)} check(s)")
    for f in failures:
        print(f"  - {f}")
    sys.exit(1)
print("all checks passed")
