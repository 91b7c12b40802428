#!/usr/bin/env python3
"""Integration tests for pathsched_batch (docs/batch.md).

Covers the crash-isolation contract end to end, against the real
binaries:

  1. a task that exceeds --task-timeout-ms is killed, retried the
     configured number of times, journaled per attempt, and the suite
     exits 3;
  2. a degraded child (exit 2, via --inject) makes the suite exit 2
     with a complete journal;
  3. SIGKILLing the *runner* mid-suite loses nothing: rerunning with
     --resume skips every journaled completion and the union of the two
     runs executes every task exactly once;
  4. SIGTERM stops the suite gracefully: children are killed, the
     journal gains a suite-abort record and is flushed, the runner
     exits 4, and --resume finishes the remainder;
  5. with --outdir, each done line carries the child report's
     per-run executor accounting;
  6. every journal line is strict JSON, even when a recorded string
     carries control bytes (here: a tab in the journal path).

Usage: batch_runner_test.py <pathsched_batch> <pathsched_cli>
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import time

BATCH = sys.argv[1]
CLI = sys.argv[2]

failures = []


def check(cond, what):
    tag = "ok" if cond else "FAIL"
    print(f"  [{tag}] {what}")
    if not cond:
        failures.append(what)


def read_journal(path):
    events = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


def run_batch(args, **kw):
    return subprocess.run(
        [BATCH, "--cli", CLI] + args,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        **kw,
    )


def test_timeout_and_retries(tmp):
    print("timeout + bounded retries:")
    journal = os.path.join(tmp, "timeout.jsonl")
    r = run_batch(
        ["--workloads", "wc", "--configs", "P4",
         "--task-timeout-ms", "1", "--retries", "1",
         "--backoff-ms", "10", "--journal", journal])
    check(r.returncode == 3, f"suite exit 3 on permanent failure "
                             f"(got {r.returncode})")
    ev = read_journal(journal)
    done = [e for e in ev if e.get("event") == "done"]
    check(len(done) == 2, f"two journaled attempts (got {len(done)})")
    check(all(e["outcome"] == "timeout" for e in done),
          "both attempts timed out")
    check([e["attempt"] for e in done] == [1, 2],
          "attempts numbered 1 then 2")
    end = [e for e in ev if e.get("event") == "suite-end"]
    check(len(end) == 1 and end[0]["failed"] == 1,
          "suite-end records the permanent failure")


def test_degraded_exit(tmp):
    print("degraded child propagates exit 2:")
    journal = os.path.join(tmp, "degraded.jsonl")
    r = run_batch(
        ["--workloads", "wc", "--configs", "P4", "--journal", journal,
         "--", "--inject", "stage=compact,proc=0"])
    check(r.returncode == 2, f"suite exit 2 (got {r.returncode})")
    ev = read_journal(journal)
    done = [e for e in ev if e.get("event") == "done"]
    check(len(done) == 1 and done[0]["outcome"] == "degraded",
          "journal records the degraded outcome")
    check(done[0]["exit"] == 2, "child exit code journaled")


def test_executor_summary(tmp):
    print("done lines carry the executor summary:")
    journal = os.path.join(tmp, "executor.jsonl")
    outdir = os.path.join(tmp, "reports")
    r = run_batch(
        ["--workloads", "wc", "--configs", "P4", "--journal", journal,
         "--outdir", outdir, "--threads", "2"])
    check(r.returncode == 0, f"suite exit 0 (got {r.returncode})")
    done = [e for e in read_journal(journal) if e.get("event") == "done"]
    check(len(done) == 1, f"one done line (got {len(done)})")
    ex = done[0].get("executor") if done else None
    check(isinstance(ex, dict), f"done line has an executor member "
                                f"({done})")
    check(bool(ex) and ex.get("tasks", 0) > 0,
          f"executor tasks > 0 (got {ex})")
    check(bool(ex) and ex.get("threads") == 2,
          f"executor threads forwarded (got {ex})")


def test_kill_runner_and_resume(tmp):
    print("SIGKILL the runner mid-suite, then --resume:")
    journal = os.path.join(tmp, "resume.jsonl")
    workloads = "wc,com,alt,ph"
    configs = "BB,M4,M16,P4,P4e"
    args = ["--workloads", workloads, "--configs", configs,
            "--jobs", "1", "--journal", journal]
    proc = subprocess.Popen([BATCH, "--cli", CLI] + args,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)

    # Wait until at least two tasks are journaled as done, then kill
    # the runner without any grace (the journal must already be safe).
    deadline = time.time() + 60
    while time.time() < deadline:
        if proc.poll() is not None:
            break
        try:
            done = [e for e in read_journal(journal)
                    if e.get("event") == "done"]
        except FileNotFoundError:
            done = []
        if len(done) >= 2:
            break
        time.sleep(0.01)
    if proc.poll() is None:
        proc.send_signal(signal.SIGKILL)
        proc.wait()
        check(True, "runner killed mid-suite")
    else:
        # The suite finished before we could kill it; --resume must
        # then be a pure no-op, which the assertions below still cover.
        check(True, "suite finished before the kill (fast machine)")

    first = read_journal(journal)
    first_done = {e["task"] for e in first if e.get("event") == "done"
                  and e["outcome"] in ("ok", "degraded")}
    check(len(first_done) >= 2, "at least two tasks journaled before "
                                "the kill")

    r = run_batch(args + ["--resume"])
    check(r.returncode == 0, f"resumed suite exit 0 (got "
                             f"{r.returncode})")
    ev = read_journal(journal)

    # The resumed run's header records the skips.
    headers = [e for e in ev if e.get("event") == "suite-start"]
    check(len(headers) == 2, "one header per invocation")
    check(headers[1]["skipped"] == len(first_done),
          f"resume skipped exactly the completed tasks "
          f"({headers[1]['skipped']} vs {len(first_done)})")

    # No completed task was re-executed: each task has exactly one
    # successful done event across both runs, and completed tasks have
    # no start events after the resume header.
    all_tasks = {f"{w}/{c}" for w in workloads.split(",")
                 for c in configs.split(",")}
    ok_done = {}
    for e in ev:
        if e.get("event") == "done" and e["outcome"] in ("ok",
                                                         "degraded"):
            ok_done[e["task"]] = ok_done.get(e["task"], 0) + 1
    check(set(ok_done) == all_tasks,
          "every task completed exactly once across both runs")
    check(all(n == 1 for n in ok_done.values()),
          f"no task completed twice ({ok_done})")
    resume_idx = ev.index(headers[1])
    restarted = {e["task"] for e in ev[resume_idx:]
                 if e.get("event") == "start"}
    check(not (restarted & first_done),
          "no completed task was re-executed after --resume")

    ends = [e for e in ev if e.get("event") == "suite-end"]
    final = ends[-1]
    check(final["ok"] + final["degraded"] + final["failed"]
          == len(all_tasks),
          "final summary covers all tasks exactly once")


def test_sigterm_graceful_interrupt(tmp):
    print("SIGTERM mid-suite: graceful stop, exit 4, resumable journal")
    journal = os.path.join(tmp, "sigterm.jsonl")
    workloads = "wc,com,alt,ph"
    configs = "BB,M4,M16,P4,P4e"
    args = ["--workloads", workloads, "--configs", configs,
            "--jobs", "1", "--journal", journal]
    proc = subprocess.Popen([BATCH, "--cli", CLI] + args,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)

    deadline = time.time() + 60
    while time.time() < deadline:
        if proc.poll() is not None:
            break
        try:
            done = [e for e in read_journal(journal)
                    if e.get("event") == "done"]
        except FileNotFoundError:
            done = []
        if len(done) >= 1:
            break
        time.sleep(0.01)

    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        _, stderr = proc.communicate(timeout=60)
        check(proc.returncode == 4,
              f"interrupted suite exits 4 (got {proc.returncode})")
        check("interrupted by signal" in stderr,
              "stderr explains the interruption")
        ev = read_journal(journal)
        aborts = [e for e in ev if e.get("event") == "suite-abort"]
        check(len(aborts) == 1 and aborts[0]["signal"] == 15,
              "journal records one suite-abort with the signal number")
        # Nothing after the abort record: the journal was flushed and
        # closed before exit.
        check(ev[-1]["event"] == "suite-abort",
              "suite-abort is the final journal record")
    else:
        check(proc.returncode == 0,
              "suite finished before the signal (fast machine)")

    # The journal is clean: --resume completes the remainder.
    r = run_batch(args + ["--resume"])
    check(r.returncode == 0, f"resumed suite exit 0 (got "
                             f"{r.returncode})")
    ev = read_journal(journal)
    ok_done = {}
    for e in ev:
        if e.get("event") == "done" and e["outcome"] in ("ok",
                                                         "degraded"):
            ok_done[e["task"]] = ok_done.get(e["task"], 0) + 1
    all_tasks = {f"{w}/{c}" for w in workloads.split(",")
                 for c in configs.split(",")}
    check(set(ok_done) == all_tasks,
          "every task completed across interrupt + resume")
    check(all(n == 1 for n in ok_done.values()),
          f"no task completed twice ({ok_done})")


def test_corrupt_journal_line_resume(tmp):
    print("corrupt (torn) journal line: --resume skips it and re-runs")
    journal = os.path.join(tmp, "crc.jsonl")
    args = ["--workloads", "wc,alt", "--configs", "BB,M4",
            "--jobs", "1", "--journal", journal]
    r = run_batch(args)
    check(r.returncode == 0, f"initial suite exit 0 (got {r.returncode})")

    # Every journal line carries a CRC header.
    with open(journal) as f:
        lines = [l for l in f.read().splitlines() if l]
    check(all(l.startswith('{"crc":"') for l in lines),
          "every journal line is checksummed")

    # Tear the *last* done line mid-record, as a crash during write
    # would, and flip a digit inside an intact earlier done line.
    done_idx = [i for i, l in enumerate(lines)
                if '"event":"done"' in l]
    check(len(done_idx) >= 2, "at least two done lines to corrupt")
    torn = done_idx[-1]
    lines[torn] = lines[torn][: len(lines[torn]) // 2]
    with open(journal, "w") as f:
        f.write("\n".join(lines) + "\n")

    r = run_batch(args + ["--resume"])
    check(r.returncode == 0, f"resume exit 0 (got {r.returncode})")
    check("corrupt line" in r.stderr,
          "resume warns about the corrupt line")

    # The torn line is not valid JSON, so read leniently.
    ev = read_journal_lenient(journal)
    headers = [e for e in ev if e.get("event") == "suite-start"]
    check(headers[-1].get("journalCorrupt", 0) == 1,
          f"suite-start counts 1 corrupt line "
          f"(got {headers[-1].get('journalCorrupt')})")
    # 4 tasks ran, 3 clean done lines survived: resume skips 3 and
    # re-runs exactly the task whose done record was torn.
    check(headers[-1]["skipped"] == 3,
          f"resume skipped the 3 intact tasks "
          f"(got {headers[-1]['skipped']})")
    resume_idx = ev.index(headers[-1])
    rerun = {e["task"] for e in ev[resume_idx:]
             if e.get("event") == "start"}
    check(len(rerun) == 1, f"exactly one task re-ran (got {rerun})")


def test_journal_lines_are_strict_json(tmp):
    print("journal strings with control bytes stay strict JSON")
    # A tab in the journal path reaches the suite-abort record through
    # the injected write error's message.
    journal = os.path.join(tmp, "ctl\tbytes.jsonl")
    r = run_batch(["--workloads", "wc", "--configs", "BB",
                   "--journal", journal,
                   "--io-inject", "path=journal,op=write,kind=eio,nth=2"])
    check(r.returncode == 5, f"journal I/O failure exits 5 "
                             f"(got {r.returncode})")
    with open(journal) as f:
        lines = [l for l in f.read().splitlines() if l]
    parsed = []
    for line in lines:
        try:
            parsed.append(json.loads(line))  # strict: no raw controls
        except json.JSONDecodeError as e:
            check(False, f"journal line is strict JSON ({e}): {line!r}")
    check(len(parsed) == len(lines) == 2,
          f"start and abort lines both parse (got {len(parsed)})")
    abort = [e for e in parsed if e.get("event") == "suite-abort"]
    check(len(abort) == 1 and "\t" in abort[0].get("error", ""),
          "the abort record keeps the tab, escaped")


def read_journal_lenient(path):
    events = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                pass
    return events


def main():
    with tempfile.TemporaryDirectory() as tmp:
        test_timeout_and_retries(tmp)
        test_degraded_exit(tmp)
        test_executor_summary(tmp)
        test_kill_runner_and_resume(tmp)
    with tempfile.TemporaryDirectory() as tmp:
        test_sigterm_graceful_interrupt(tmp)
    with tempfile.TemporaryDirectory() as tmp:
        test_corrupt_journal_line_resume(tmp)
    with tempfile.TemporaryDirectory() as tmp:
        test_journal_lines_are_strict_json(tmp)
    if failures:
        print(f"\n{len(failures)} check(s) FAILED")
        return 1
    print("\nall checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
