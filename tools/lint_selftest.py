#!/usr/bin/env python3
"""Self-test for tools/pegasus_lint.py — the `lint_selftest` ctest entry.

Two halves:

1. Static fixtures (tests/lint_fixtures/*.cc, *.cmake): every line tagged
   `expect-lint: <rule>` must be reported with exactly that rule at
   exactly that line, and nothing else may be reported. The second
   condition is what pins reasoned suppressions (they must silence) and
   bare suppressions (they must not).

2. Versioning lifecycle (tests/lint_fixtures/versioning/): the miniature
   format-header tree is copied to a temp dir and driven through the full
   protocol — missing lock flagged, lock written, enum edited without a
   version bump (must fail at the enum's line), version bumped with a
   stale lock (must still fail), lock refreshed (clean). The
   edit-without-bump refusal of --update-version-lock itself is also
   asserted.

Usage: lint_selftest.py [REPO_ROOT]
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

EXPECT_RE = re.compile(r"expect-lint:\s*([a-z-]+(?:\s*,\s*[a-z-]+)*)")
SCANNED_EXTS = (".h", ".hpp", ".cc", ".cpp", ".cmake")


def run_lint(repo, args):
    cmd = [sys.executable, os.path.join(repo, "tools", "pegasus_lint.py")]
    return subprocess.run(cmd + args, capture_output=True, text=True)


def lint_json(repo, args):
    proc = run_lint(repo, args + ["--format", "json"])
    try:
        return proc.returncode, json.loads(proc.stdout)
    except ValueError:
        print("unparseable lint output for %s:\n%s\n%s"
              % (args, proc.stdout, proc.stderr), file=sys.stderr)
        sys.exit(1)


def collect_expectations(fixtures):
    expected = set()
    for dirpath, _, filenames in os.walk(fixtures):
        for fn in sorted(filenames):
            if not fn.endswith(SCANNED_EXTS):
                continue
            path = os.path.join(dirpath, fn)
            rel = os.path.relpath(path, fixtures).replace(os.sep, "/")
            with open(path, encoding="utf-8") as f:
                for lineno, line in enumerate(f, 1):
                    m = EXPECT_RE.search(line)
                    if not m:
                        continue
                    for rule in m.group(1).split(","):
                        expected.add((rel, lineno, rule.strip()))
    return expected


def check_static_fixtures(repo, fixtures, failures):
    rc, reported = lint_json(
        repo, ["--root", fixtures,
               "--rules", "hash-order,nondet,status-discard,reassoc,"
                          "hot-snapshot,sort-order",
               fixtures])
    got = {(v["file"], v["line"], v["rule"]) for v in reported}
    expected = collect_expectations(fixtures)
    if not expected:
        failures.append("no expect-lint tags found under %s" % fixtures)
    for path, line, rule in sorted(expected - got):
        failures.append("missed violation: %s:%d [%s]" % (path, line, rule))
    for path, line, rule in sorted(got - expected):
        failures.append("false positive: %s:%d [%s]" % (path, line, rule))
    want_rc = 1 if expected else 0
    if rc != want_rc:
        failures.append("fixture scan exit code %d, want %d" % (rc, want_rc))


def versioning_violations(repo, root):
    rc, reported = lint_json(repo, ["--root", root, "--rules", "versioning"])
    return rc, [v for v in reported if v["rule"] == "versioning"]


def expect(failures, cond, what):
    if not cond:
        failures.append(what)


def check_versioning_lifecycle(repo, fixtures, failures):
    psb_rel = os.path.join("src", "core", "psb_format.h")
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(os.path.join(fixtures, "versioning"), tmp,
                        dirs_exist_ok=True)
        os.makedirs(os.path.join(tmp, "tools"), exist_ok=True)

        # 1. No lock yet: flagged as missing.
        rc, vs = versioning_violations(repo, tmp)
        expect(failures, rc == 1 and len(vs) == 1
               and "missing version lock" in vs[0]["message"],
               "missing lock not flagged: rc=%d %s" % (rc, vs))

        # 2. Write the lock; the tree is now clean.
        proc = run_lint(repo, ["--root", tmp, "--update-version-lock"])
        expect(failures, proc.returncode == 0,
               "--update-version-lock failed: %s" % proc.stderr)
        rc, vs = versioning_violations(repo, tmp)
        expect(failures, rc == 0 and not vs,
               "locked tree not clean: rc=%d %s" % (rc, vs))

        # 3. Edit the enum without bumping kPsbVersion: must fail, naming
        # the header, the enum's line, and the constant to bump.
        psb = os.path.join(tmp, psb_rel)
        with open(psb, encoding="utf-8") as f:
            text = f.read()
        enum_line = text[:text.index("enum class SectionId")].count("\n") + 1
        mutated = text.replace("  kAdjacency = 2,",
                               "  kAdjacency = 2,\n  kExtra = 3,")
        with open(psb, "w", encoding="utf-8") as f:
            f.write(mutated)
        rc, vs = versioning_violations(repo, tmp)
        expect(failures, rc == 1 and len(vs) == 1
               and vs[0]["file"] == psb_rel.replace(os.sep, "/")
               and vs[0]["line"] == enum_line
               and "kPsbVersion" in vs[0]["message"],
               "enum edit without bump not flagged at %s:%d: rc=%d %s"
               % (psb_rel, enum_line, rc, vs))

        # 3b. --update-version-lock must refuse to paper over it.
        proc = run_lint(repo, ["--root", tmp, "--update-version-lock"])
        expect(failures, proc.returncode == 2,
               "--update-version-lock accepted an unbumped enum change")

        # 4. Bump the version: the stale lock must still fail the check.
        with open(psb, encoding="utf-8") as f:
            text = f.read()
        with open(psb, "w", encoding="utf-8") as f:
            f.write(text.replace("kPsbVersion = 1", "kPsbVersion = 2"))
        rc, vs = versioning_violations(repo, tmp)
        expect(failures, rc == 1 and len(vs) == 1
               and "--update-version-lock" in vs[0]["message"],
               "stale lock after bump not flagged: rc=%d %s" % (rc, vs))

        # 5. Refresh the lock: clean again.
        proc = run_lint(repo, ["--root", tmp, "--update-version-lock"])
        expect(failures, proc.returncode == 0,
               "lock refresh after bump failed: %s" % proc.stderr)
        rc, vs = versioning_violations(repo, tmp)
        expect(failures, rc == 0 and not vs,
               "refreshed tree not clean: rc=%d %s" % (rc, vs))


def main():
    repo = os.path.abspath(sys.argv[1] if len(sys.argv) > 1
                           else os.path.join(os.path.dirname(__file__), ".."))
    fixtures = os.path.join(repo, "tests", "lint_fixtures")
    if not os.path.isdir(fixtures):
        print("FAIL: %s not found" % fixtures, file=sys.stderr)
        return 1

    failures = []
    check_static_fixtures(repo, fixtures, failures)
    check_versioning_lifecycle(repo, fixtures, failures)

    if failures:
        for f in failures:
            print("FAIL: %s" % f)
        return 1
    print("lint_selftest: all fixture expectations and the versioning "
          "lifecycle hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
