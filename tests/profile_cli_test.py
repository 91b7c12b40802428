#!/usr/bin/env python3
"""Profile admission through the real CLI (docs/robustness.md).

Exercises the externally visible contract of the admission layer:

  1. dump/load round trip: a v2 profile dumped from a workload admits
     cleanly back into the same workload (exit 0, identical cycles);
  2. --validate-profile exit codes: 0 clean, 2 admissible with
     degradations (corrupted counts), 3 rejected (checksum/garbage);
  3. staleness: a profile trained on one workload fed to another is
     quarantined per procedure and the run degrades (exit 2), it
     never crashes (exit 3) the driver;
  4. a corpus of malformed profile files: whatever the mutation, the
     CLI must exit 0, 1 or 2 — never 3 (panic) and never a signal;
  5. --profile-check=off trusts a parseable file without auditing;
  6. --profile-check=strict rejects a bad file once, before any run,
     and only when some selected config reads that profile kind;
  7. --dump-paths writes the pipeline's own training profile, so a
     training run stopped by --step-budget exits 1 and writes no file.

Usage: profile_cli_test.py <pathsched_cli>
"""

import os
import subprocess
import sys
import tempfile

CLI = sys.argv[1]

failures = []


def check(cond, what):
    tag = "ok" if cond else "FAIL"
    print(f"  [{tag}] {what}")
    if not cond:
        failures.append(what)


def run_cli(args, **kw):
    return subprocess.run(
        [CLI] + args,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        **kw,
    )


def cycles_of(stdout):
    """Sum every cycle count in the result table (crude but stable)."""
    total = 0
    for line in stdout.splitlines():
        parts = line.split()
        for p in parts:
            if p.isdigit():
                total += int(p)
    return total


def test_round_trip(tmp):
    print("round trip: dump v2, load back, validate")
    paths = os.path.join(tmp, "wc.paths")
    r = run_cli(["--workload", "wc", "--config", "P4",
                 "--profile-version", "2", "--dump-paths", paths])
    check(r.returncode == 0, f"dump run exits 0 (got {r.returncode})")
    with open(paths) as f:
        text = f.read()
    check(text.startswith("pathprofile v2 "), "dump is v2")
    check("fingerprint 0 " in text, "dump carries fingerprints")

    base = run_cli(["--workload", "wc", "--config", "P4"])
    loaded = run_cli(["--workload", "wc", "--config", "P4",
                      "--load-paths", paths])
    check(loaded.returncode == 0,
          f"clean load exits 0 (got {loaded.returncode})")
    check(cycles_of(loaded.stdout) == cycles_of(base.stdout),
          "clean external profile reproduces the training run")

    v = run_cli(["--workload", "wc", "--load-paths", paths,
                 "--validate-profile"])
    check(v.returncode == 0,
          f"--validate-profile clean exits 0 (got {v.returncode})")
    check("clean" in v.stdout, "validation report says clean")


def test_validate_exit_codes(tmp):
    print("--validate-profile: 2 on degradations, 3 on rejection")
    paths = os.path.join(tmp, "corr.paths")
    run_cli(["--workload", "corr", "--config", "P4",
             "--dump-paths", paths])
    with open(paths) as f:
        lines = f.read().splitlines(keepends=True)

    # Inflate one long window's count: admissible but degraded.
    bad = os.path.join(tmp, "corr-inflated.paths")
    out = []
    done = False
    for line in lines:
        tok = line.split()
        if not done and len(tok) >= 4 and tok[0] == "path" \
                and int(tok[3]) >= 3:
            tok[2] = tok[2] + "000000"
            line = " ".join(tok) + "\n"
            done = True
        out.append(line)
    check(done, "found a window to corrupt")
    with open(bad, "w") as f:
        f.writelines(out)
    v = run_cli(["--workload", "corr", "--load-paths", bad,
                 "--validate-profile"])
    check(v.returncode == 2,
          f"corrupt counts validate as 2 (got {v.returncode})")

    # Garbage never validates: exit 3.
    junk = os.path.join(tmp, "junk.paths")
    with open(junk, "w") as f:
        f.write("this is not a profile\n")
    v = run_cli(["--workload", "corr", "--load-paths", junk,
                 "--validate-profile"])
    check(v.returncode == 3,
          f"garbage validates as 3 (got {v.returncode})")

    # A tampered v2 body fails the checksum: exit 3.
    v2 = os.path.join(tmp, "corr-v2.paths")
    run_cli(["--workload", "corr", "--config", "P4",
             "--profile-version", "2", "--dump-paths", v2])
    with open(v2) as f:
        text = f.read()
    body = text.index("\n") + 1
    tampered = text[:-2] + ("1" if text[-2] != "1" else "2") + "\n"
    check(len(tampered) == len(text) and tampered != text,
          "tamper changed one body byte")
    with open(v2, "w") as f:
        f.write(tampered)
    v = run_cli(["--workload", "corr", "--load-paths", v2,
                 "--validate-profile"])
    check(v.returncode == 3,
          f"checksum mismatch validates as 3 (got {v.returncode})")


def test_stale_profile(tmp):
    print("stale: wc profile against com degrades, never crashes")
    paths = os.path.join(tmp, "wc-v2.paths")
    run_cli(["--workload", "wc", "--config", "P4",
             "--profile-version", "2", "--dump-paths", paths])
    r = run_cli(["--workload", "com", "--config", "P4",
                 "--load-paths", paths])
    check(r.returncode == 2,
          f"stale profile degrades the run, exit 2 (got {r.returncode})")
    check("quarantined" in r.stderr or "rejected" in r.stderr,
          "stderr names the degradation")

    v = run_cli(["--workload", "com", "--load-paths", paths,
                 "--validate-profile"])
    check(v.returncode in (2, 3),
          f"cross-workload validation is not clean (got {v.returncode})")


def test_malformed_corpus(tmp):
    print("malformed corpus: CLI never panics, never crashes")
    paths = os.path.join(tmp, "alt.paths")
    run_cli(["--workload", "alt", "--config", "P4",
             "--dump-paths", paths])
    with open(paths) as f:
        good = f.read()

    corpus = {
        "empty": "",
        "garbage": "not a profile at all\n",
        "truncated-header": "pathprofile",
        "bad-params": "pathprofile v1 15 64\n",
        "negative-count": "pathprofile v1 15 64 0\npath 0 -5 1 0\n",
        "overflow-count": "pathprofile v1 15 64 0\n"
                          "path 0 99999999999999999999999 1 0\n",
        "out-of-range-block": "pathprofile v1 15 64 0\n"
                              "path 0 5 2 0 99\n",
        "huge-declared-len": "pathprofile v1 15 64 0\n"
                             "path 0 5 99999999999 0\n",
        "truncated-body": good[: max(1, len(good) // 2)],
        "spliced": good + good,
        "binary": "pathprofile v1 15 64 0\npath \x00\x01\xff 1 0\n",
    }
    for name, text in corpus.items():
        f = os.path.join(tmp, f"corpus-{name}.paths")
        with open(f, "w") as fh:
            fh.write(text)
        for extra in ([], ["--validate-profile"]):
            r = run_cli(["--workload", "alt", "--config", "P4",
                         "--load-paths", f] + extra)
            mode = "validate" if extra else "run"
            check(r.returncode >= 0 and (extra or r.returncode != 3),
                  f"{name}/{mode}: no crash/panic "
                  f"(exit {r.returncode})")


def test_profile_check_off(tmp):
    print("--profile-check=off: parseable files are trusted")
    paths = os.path.join(tmp, "wc.paths")
    run_cli(["--workload", "wc", "--config", "P4",
             "--dump-paths", paths])
    r = run_cli(["--workload", "wc", "--config", "P4",
                 "--load-paths", paths, "--profile-check=off"])
    check(r.returncode == 0,
          f"off-mode clean load exits 0 (got {r.returncode})")
    check("profile:" not in r.stderr, "off mode reports nothing")


def test_strict_rejects_before_any_run(tmp):
    print("--profile-check strict: a rejected file stops before any run")
    junk = os.path.join(tmp, "strict-junk.paths")
    with open(junk, "w") as f:
        f.write("this is not a profile\n")
    r = run_cli(["--workload", "wc", "--config", "all",
                 "--load-paths", junk, "--profile-check", "strict"])
    check(r.returncode == 1,
          f"strict rejection exits 1 (got {r.returncode})")
    rows = [l for l in r.stdout.splitlines() if l.startswith("wc ")]
    check(not rows, f"no table row is printed (got {rows})")

    # No selected backend reads paths, so the file is never admitted.
    r = run_cli(["--workload", "wc", "--config", "M4",
                 "--load-paths", junk, "--profile-check", "strict"])
    check(r.returncode == 0,
          f"M4 ignores the path file, exit 0 (got {r.returncode})")


def test_dump_obeys_step_budget(tmp):
    print("--dump-paths: a budget-stopped training run writes nothing")
    paths = os.path.join(tmp, "budget.paths")
    r = run_cli(["--workload", "wc", "--config", "P4",
                 "--step-budget", "100", "--dump-paths", paths])
    check(r.returncode == 1,
          f"budget-stopped training exits 1 (got {r.returncode})")
    check("training run exceeded the 100-step budget" in r.stderr,
          "stderr names the training budget")
    check(not os.path.exists(paths), "no profile file is written")


def main():
    with tempfile.TemporaryDirectory() as tmp:
        test_round_trip(tmp)
        test_validate_exit_codes(tmp)
        test_stale_profile(tmp)
        test_malformed_corpus(tmp)
        test_profile_check_off(tmp)
        test_strict_rejects_before_any_run(tmp)
        test_dump_obeys_step_budget(tmp)
    if failures:
        print(f"\n{len(failures)} check(s) FAILED")
        return 1
    print("\nall checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
