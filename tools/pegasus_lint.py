#!/usr/bin/env python3
"""pegasus-lint — determinism & invariant static analysis for the PeGaSus tree.

The repo's core promise is that summaries, query scores, wire frames, and
PSB bytes are a function of the input data alone — byte-identical across
thread counts, machines, and standard libraries. Golden-hash tests catch a
violation *after* it ships; this lint catches the patterns that cause them
at review time, before a golden ever moves.

Rules
-----
  hash-order      No iteration over std::unordered_{map,set}: no range-for
                  over a hash-typed expression, no .begin() walks or
                  (first, last) copies out of one, and no public accessor
                  returning a reference to one from a header. Iterate a
                  canonical-order container or a sorted snapshot
                  instead, or suppress with a reasoned
                  // lint: hash-order-ok(<why order cannot reach output
                  bytes>).
  nondet          No std::rand/srand, std::random_device, or raw <chrono>
                  clocks outside src/util/rng.*, src/util/timer.*, and
                  bench/. All randomness flows through the seeded Rng; all
                  timing through util/timer. Suppress with
                  // lint: nondet-ok(<reason>).
  status-discard  No discarded Status/StatusOr: a call to a function
                  returning one must be consumed (assigned, returned,
                  tested). (void)-casts count as discards. Suppress with
                  // lint: status-ignored-ok(<reason>). Also guards that
                  src/util/status.h keeps the [[nodiscard]] attributes
                  that make the compiler enforce the same contract.
  reassoc         No float-reduction reassociation: -ffast-math (and
                  friends) in any CMake file, and no `#pragma omp ...
                  reduction` / fast-math pragmas in src/. Reassociated
                  summation changes golden bytes per-architecture.
                  Suppress with // lint: reassoc-ok(<reason>).
  hot-snapshot    No snapshot-building expressions (the
                  HOT_SNAPSHOT_CALLS registry: SummaryView construction)
                  in a loop body: each one copies the whole summary into
                  a fresh view, so building it per iteration turns an
                  O(|V| + |P|) prologue into an O(iters * (|V| + |P|))
                  hot loop. Build the view once before the loop, or
                  suppress with // lint: hot-snapshot-ok(<why the loop is
                  cold or the receiver changes per iteration>).
  versioning      The PSB1 section-id table (src/core/psb_format.h) and
                  the wire frame-kind table (src/serve/wire.h) are
                  fingerprinted into tools/format_versions.lock. Editing
                  either table without bumping kPsbVersion/kWireVersion
                  (and refreshing the lock via --update-version-lock)
                  fails this rule — the wire-layer extension of the PR-7
                  format_spec_guard idea.
  sort-order      No std::sort / stable_sort / partial_sort / nth_element
                  with a custom comparator unless the comparator is one of
                  the total orders of src/util/ranking.h (ScoreRank,
                  HopRank): a comparator without a tie-break leaves the
                  order of tied elements to the standard library's
                  algorithm, so ranked output differs between libstdc++
                  and libc++. Suppress with
                  // lint: sort-order-ok(<why ties cannot reach output, or
                  the follow-up that fixes them>).

Suppressions must carry a non-empty reason; a bare marker is itself a
violation. A marker suppresses its own line, or — when the marker's line
holds no code — the next line that does.

Engine: a token-stream analyzer (comments and string literals stripped
with line numbers preserved) plus a small project index of hash-typed
names: aliases of unordered containers, variables/members declared with
them (a .cc shares its same-stem header's index), sequence containers *of*
them (flagged when indexed), and functions returning them. When the
python libclang bindings are importable, an AST pass additionally
resolves declarations whose canonical type is an unordered container and
feeds them into the same index (strictly additive — it can only widen
what the token scan sees); everywhere the bindings are absent, the token
path alone is the tested baseline, so the lint runs anywhere python3
exists.

Exit codes: 0 clean, 1 violations, 2 usage/internal error.
"""

import argparse
import hashlib
import json
import os
import re
import sys

ALL_RULES = ("hash-order", "nondet", "status-discard", "reassoc",
             "hot-snapshot", "versioning", "sort-order")

SUPPRESS_MARKERS = {
    "hash-order": "hash-order-ok",
    "nondet": "nondet-ok",
    "status-discard": "status-ignored-ok",
    "reassoc": "reassoc-ok",
    "hot-snapshot": "hot-snapshot-ok",
    "sort-order": "sort-order-ok",
}

# hot-snapshot registry: expressions that copy a whole summary into a
# fresh snapshot on every evaluation, as regexes over comment- and
# string-stripped code. Extend here (with a comment) when a new one
# appears.
HOT_SNAPSHOT_CALLS = (
    # A SummaryView temporary or `new SummaryView(...)`, and a named
    # declaration (`SummaryView view(summary);`, `... view{summary};`).
    r"\bSummaryView(?:\s+[A-Za-z_]\w*)?\s*[({]",
    # A shared or owned view: make_shared/make_unique<[const ]SummaryView>.
    r"\bmake_(?:shared|unique)\s*<\s*(?:const\s+)?SummaryView\s*>\s*\(",
)

# sort-order registry: the comparators that are total orders by
# construction (src/util/ranking.h), and how many leading iterator
# arguments each sort call takes before its optional comparator.
RANK_ORDER_HELPERS = ("ScoreRank", "HopRank")
SORT_CALLS = {"sort": 2, "stable_sort": 2, "partial_sort": 3,
              "nth_element": 3}

# Paths (relative to --root, '/'-separated) where raw clocks/randomness are
# the implementation of the sanctioned abstraction rather than a leak
# around it.
NONDET_ALLOWED_PREFIXES = ("src/util/rng.", "src/util/timer.", "bench/")

# status-discard registry: function names that are Status-returning in some
# scope but collide with common non-Status idioms are never worth the false
# positives (none today; extend here, with a comment, if one appears).
STATUS_REGISTRY_BLOCKLIST = set()

VERSION_LOCK_RELPATH = "tools/format_versions.lock"
PSB_HEADER_RELPATH = "src/core/psb_format.h"
WIRE_HEADER_RELPATH = "src/serve/wire.h"


class Violation:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def to_dict(self):
        return {"file": self.path, "line": self.line, "rule": self.rule,
                "message": self.message}

    def __str__(self):
        return "%s:%d: error: [%s] %s" % (self.path, self.line, self.rule,
                                          self.message)


# --------------------------------------------------------------------------
# Source model: raw lines, comment text per line, and code with comments
# and string/char literals blanked (newlines kept, so offsets map to the
# same line numbers as the raw file).

class SourceFile:
    def __init__(self, relpath, text):
        self.relpath = relpath
        self.text = text
        self.lines = text.split("\n")
        self.code = _strip_comments_and_strings(text)
        self.code_lines = self.code.split("\n")

    def line_of(self, offset):
        return self.code.count("\n", 0, offset) + 1


def _strip_comments_and_strings(text):
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            seg = text[i:j + 2]
            out.append(re.sub(r"[^\n]", " ", seg))
            i = j + 2
        elif c == "R" and text[i:i + 2] == 'R"':
            m = re.match(r'R"([^()\\ ]{0,16})\(', text[i:])
            if not m:
                out.append(c)
                i += 1
                continue
            close = ")" + m.group(1) + '"'
            j = text.find(close, i + m.end())
            j = n - len(close) if j == -1 else j
            seg = text[i:j + len(close)]
            out.append(re.sub(r"[^\n]", " ", seg))
            i = j + len(close)
        elif c == '"' or c == "'":
            q = c
            j = i + 1
            while j < n and text[j] != q:
                j += 2 if text[j] == "\\" else 1
            out.append(q + " " * (j - i - 1) + q if j < n else " " * (n - i))
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


# --------------------------------------------------------------------------
# Suppressions

_MARKER_RE = re.compile(r"lint:\s*([a-z-]+-ok)\s*\(([^)]*)\)")


class Suppressions:
    """Marker lines -> the code line each marker governs."""

    def __init__(self, src):
        self.by_line = {}   # code line -> set of marker names
        self.errors = []    # Violations for bare markers
        pending = []        # markers from comment-only lines
        for idx, raw in enumerate(src.lines):
            lineno = idx + 1
            markers = _MARKER_RE.findall(raw)
            code = src.code_lines[idx] if idx < len(src.code_lines) else ""
            has_code = bool(code.strip())
            for name, reason in markers:
                if not reason.strip():
                    self.errors.append(Violation(
                        src.relpath, lineno, _rule_of_marker(name),
                        "suppression '%s' needs a reason: "
                        "// lint: %s(<why>)" % (name, name)))
                    continue
                if has_code:
                    self.by_line.setdefault(lineno, set()).add(name)
                else:
                    pending.append(name)
            if has_code and pending:
                for name in pending:
                    self.by_line.setdefault(lineno, set()).add(name)
                pending = []

    def covers(self, lineno, marker):
        return marker in self.by_line.get(lineno, ())


def _rule_of_marker(name):
    for rule, marker in SUPPRESS_MARKERS.items():
        if marker == name:
            return rule
    return "hash-order"


# --------------------------------------------------------------------------
# Project index: names whose iteration order is a hash-table artifact.

TEMPLATE_HASH = r"(?:std::)?unordered_(?:map|set)\s*<"
SEQ_OF = r"std::(?:vector|array|deque)\s*<\s*"


def _spans_balanced(code, start):
    """Given offset of '<', return offset just past its matching '>'."""
    depth = 0
    i = start
    while i < len(code):
        c = code[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        elif c in ";{}":
            return i  # malformed / not a template argument list
        i += 1
    return i


class HashIndex:
    """Per-project registry of hash-ordered names.

    direct[file]    variable/member names of unordered type
    indexed[file]   names of sequence containers holding unordered types
                    (hash-ordered only when indexed: acc[c], adjacency_[a])
    accessors       project-wide function names returning an unordered
                    type (by value or reference): summary.superedges(a)
    aliases         type alias names that denote an unordered type
    """

    def __init__(self):
        self.direct = {}
        self.indexed = {}
        self.accessors = set()
        self.aliases = set()
        self.alias_lines = {}

    def scan_aliases(self, src):
        for m in re.finditer(
                r"(?:using\s+(\w+)\s*=\s*|typedef\s+)" + TEMPLATE_HASH,
                src.code):
            if m.group(1):
                self.aliases.add(m.group(1))
            else:
                # typedef std::unordered_map<...> Name;
                end = _spans_balanced(src.code, m.end() - 1)
                m2 = re.match(r"\s*(\w+)\s*;", src.code[end:])
                if m2:
                    self.aliases.add(m2.group(1))

    def _hash_type_re(self):
        alias_alt = ""
        if self.aliases:
            alias_alt = "|(?:\\w+::)*(?:%s)\\b" % "|".join(
                sorted(re.escape(a) for a in self.aliases))
        return re.compile("(?:%s%s)" % (TEMPLATE_HASH[:-1] + r"\s*<",
                                        alias_alt))

    def scan_file(self, src):
        direct = set()
        indexed = set()
        code = src.code
        hash_ty = self._hash_type_re()

        # Sequence-of-hash declarations: std::vector<std::unordered_map<..>>
        # name  /  std::vector<AdjacencyMap> name.
        for m in re.finditer(SEQ_OF, code):
            end = _spans_balanced(code, m.end() - 1)
            inner = code[m.end():end - 1]
            if not hash_ty.search(inner):
                continue
            m2 = re.match(r"[&\s]*(\w+)\s*[;={(\[]", code[end:])
            if m2:
                indexed.add(m2.group(1))

        # Direct declarations: std::unordered_map<...> name  /  Alias name.
        # A name followed by '(' that parses as a parameter list is a
        # function returning the hash type (an accessor); otherwise it is a
        # declared variable/member.
        for m in re.finditer(TEMPLATE_HASH, code):
            end = _spans_balanced(code, m.end() - 1)
            after = code[end:]
            m3 = re.match(r"[&\s]*(\w+)\s*[;={(\[]", after)
            if m3:
                name = m3.group(1)
                if re.match(r"[&\s]*\w+\s*\(", after) and _looks_like_function(
                        code, end, name):
                    self.accessors.add(name)
                else:
                    direct.add(name)
        if self.aliases:
            alias_names = "|".join(sorted(re.escape(a) for a in self.aliases))
            for m in re.finditer(
                    r"\b(?:const\s+)?(?:\w+::)*(?:%s)\s*(&?)\s*(\w+)\s*([;={(\[])"
                    % alias_names, code):
                name = m.group(2)
                if m.group(3) == "(" and _looks_like_function(
                        code, m.start(2), name):
                    self.accessors.add(name)
                elif m.group(3) != "(":
                    direct.add(name)
        self.direct[src.relpath] = direct
        self.indexed[src.relpath] = indexed

    def names_for(self, relpath):
        """Direct and indexed names visible in `relpath` (its own plus its
        same-stem sibling header/source — class members declared in the .h
        are used in the .cc)."""
        stems = {relpath}
        base, ext = os.path.splitext(relpath)
        for other in (".h", ".hpp", ".cc", ".cpp"):
            if other != ext:
                stems.add(base + other)
        direct = set()
        indexed = set()
        for s in stems:
            direct |= self.direct.get(s, set())
            indexed |= self.indexed.get(s, set())
        return direct, indexed


def augment_index_with_libclang(root, sources, index):
    """Opportunistic AST pass: when the python libclang bindings are
    importable and libclang loads, resolve every variable/field whose
    *canonical* type is an unordered container — through typedefs, auto,
    and template arguments the token scan can't chase — and feed it into
    the same index. Strictly additive (it can only widen what the token
    scan already found); any failure at any stage silently falls back to
    the token index alone. Returns True when the pass ran."""
    try:
        from clang import cindex
    except ImportError:
        return False
    try:
        clang_index = cindex.Index.create()
    except Exception:  # bindings installed but no loadable libclang.so
        return False
    decl_kinds = (cindex.CursorKind.VAR_DECL, cindex.CursorKind.FIELD_DECL)
    ran = False
    for src in sources:
        if not src.relpath.endswith((".cc", ".cpp")):
            continue
        try:
            tu = clang_index.parse(os.path.join(root, src.relpath),
                                   args=["-std=c++20", "-I" + root])
        except Exception:
            continue
        ran = True
        for cur in tu.cursor.walk_preorder():
            try:
                if cur.kind not in decl_kinds or not cur.location.file:
                    continue
                rel = os.path.relpath(str(cur.location.file), root)
                rel = rel.replace(os.sep, "/")
                if rel.startswith(".."):
                    continue  # system/third-party header
                spelling = cur.type.get_canonical().spelling
                if spelling.startswith(("std::unordered_map<",
                                        "std::unordered_set<")):
                    index.direct.setdefault(rel, set()).add(cur.spelling)
                elif ("std::unordered_map<" in spelling
                      or "std::unordered_set<" in spelling):
                    # A sequence *of* hash containers is hash-ordered only
                    # when indexed (acc[c]), same as the token scan.
                    index.indexed.setdefault(rel, set()).add(cur.spelling)
            except Exception:
                continue
    return ran


def _looks_like_function(code, name_offset, name):
    """True when `name(` at name_offset opens a parameter list (a
    declaration), not an initializer: the paren group is followed by
    tokens a variable initializer can't be followed by."""
    m = re.compile(re.escape(name) + r"\s*\(").search(code, name_offset)
    if not m:
        return False
    depth = 0
    i = m.end() - 1
    while i < len(code):
        if code[i] == "(":
            depth += 1
        elif code[i] == ")":
            depth -= 1
            if depth == 0:
                break
        i += 1
    tail = code[i + 1:i + 40]
    return bool(re.match(r"\s*(const\b)?\s*(noexcept\b)?\s*[{;]", tail))


# --------------------------------------------------------------------------
# Rule: hash-order

def _terminal_of(expr):
    """Terminal name of a postfix expression, and what trailed it.

    'summary.superedges(a)' -> ('superedges', 'call')
    'wg.adjacency[u]'       -> ('adjacency', 'index')
    'links'                 -> ('links', 'plain')
    """
    expr = expr.strip()
    trailer = "plain"
    while expr and expr[-1] in ")]":
        close = expr[-1]
        op = "(" if close == ")" else "["
        depth = 0
        i = len(expr) - 1
        while i >= 0:
            if expr[i] == close:
                depth += 1
            elif expr[i] == op:
                depth -= 1
                if depth == 0:
                    break
            i -= 1
        if i < 0:
            return None, None
        trailer = "call" if close == ")" else "index"
        expr = expr[:i].rstrip()
    m = re.search(r"([A-Za-z_]\w*)$", expr)
    return (m.group(1) if m else None), trailer


def check_hash_order(src, index, suppressions, violations):
    marker = SUPPRESS_MARKERS["hash-order"]
    direct, indexed = index.names_for(src.relpath)
    code = src.code

    def flag(offset, message):
        line = src.line_of(offset)
        if not suppressions.covers(line, marker):
            violations.append(Violation(src.relpath, line, "hash-order",
                                        message))

    def is_hash_expr(name, trailer):
        if name is None:
            return False
        if trailer == "call":
            return name in index.accessors
        if trailer == "index":
            return name in indexed
        return name in direct

    # Range-for over a hash-typed expression.
    for m in re.finditer(r"\bfor\s*\(", code):
        end = _paren_end(code, m.end() - 1)
        if end is None:
            continue
        inner = code[m.end():end]
        if ";" in inner:
            continue  # classic for
        colon = _top_level_colon(inner)
        if colon is None:
            continue
        name, trailer = _terminal_of(inner[colon + 1:])
        if is_hash_expr(name, trailer):
            flag(m.start(),
                 "range-for over hash-ordered '%s' — enumeration order is a "
                 "standard-library artifact; iterate a canonical/sorted "
                 "snapshot or suppress with "
                 "// lint: hash-order-ok(<reason>)" % name)

    # .begin()/.end()/.cbegin() walks and (first, last) copies.
    for m in re.finditer(r"([A-Za-z_][\w.\[\]()>-]*?)\s*\.\s*c?begin\s*\(",
                         code):
        name, trailer = _terminal_of(m.group(1))
        if is_hash_expr(name, trailer):
            flag(m.start(),
                 "iterator walk/copy out of hash-ordered '%s' — the element "
                 "order is a standard-library artifact; sort the result or "
                 "suppress with // lint: hash-order-ok(<reason>)" % name)

    # Header-exposed accessors returning references to hash containers.
    if src.relpath.endswith((".h", ".hpp")):
        hash_ty = index._hash_type_re()
        for m in re.finditer(r"\bconst\s+", code):
            m2 = hash_ty.match(code, m.end())
            if not m2:
                continue
            if code[m2.end() - 1] == "<":
                end = _spans_balanced(code, m2.end() - 1)
            else:
                end = m2.end()
            m3 = re.match(r"\s*&\s*(\w+)\s*\(", code[end:])
            if m3 and _looks_like_function(code, end, m3.group(1)):
                flag(m.start(),
                     "accessor '%s' returns a reference to a hash-ordered "
                     "container — every caller inherits the iteration-order "
                     "hazard; prefer a canonical-order accessor, or "
                     "suppress with // lint: hash-order-ok(<contract>)"
                     % m3.group(1))


def _paren_end(code, open_offset):
    depth = 0
    for i in range(open_offset, len(code)):
        if code[i] == "(":
            depth += 1
        elif code[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    return None


def _top_level_colon(inner):
    depth = 0
    i = 0
    while i < len(inner):
        c = inner[i]
        if c in "([{<":
            depth += 1
        elif c in ")]}>":
            depth -= 1
        elif c == ":" and depth == 0:
            if i + 1 < len(inner) and inner[i + 1] == ":":
                i += 2
                continue
            if i > 0 and inner[i - 1] == ":":
                i += 1
                continue
            return i
        i += 1
    return None


# --------------------------------------------------------------------------
# Rule: nondet

_NONDET_PATTERNS = (
    (re.compile(r"\bstd::rand\b|\bsrand\s*\("), "std::rand/srand"),
    (re.compile(r"\bstd::random_device\b|\brandom_device\s+\w+"),
     "std::random_device"),
    (re.compile(r"\bstd::chrono::(?:steady_clock|system_clock|"
                r"high_resolution_clock)\b"), "raw <chrono> clock"),
    (re.compile(r"\bgettimeofday\s*\(|\bclock_gettime\s*\("),
     "raw OS clock"),
    (re.compile(r"\btime\s*\(\s*(?:NULL|nullptr|0)\s*\)"), "time(NULL)"),
)
_CHRONO_INCLUDE = re.compile(r'^\s*#\s*include\s*<chrono>')


def check_nondet(src, suppressions, violations):
    if any(src.relpath.startswith(p) for p in NONDET_ALLOWED_PREFIXES):
        return
    marker = SUPPRESS_MARKERS["nondet"]

    def flag(line, what):
        if not suppressions.covers(line, marker):
            violations.append(Violation(
                src.relpath, line, "nondet",
                "%s outside src/util/rng.*, src/util/timer.*, and bench/ — "
                "route randomness through the seeded Rng and timing through "
                "util/timer, or suppress with // lint: nondet-ok(<reason>)"
                % what))

    for pattern, what in _NONDET_PATTERNS:
        for m in pattern.finditer(src.code):
            flag(src.line_of(m.start()), what)
    for idx, line in enumerate(src.code_lines):
        if _CHRONO_INCLUDE.match(line):
            flag(idx + 1, "#include <chrono>")


# --------------------------------------------------------------------------
# Rule: status-discard

_STATUS_DECL = re.compile(
    r"(?:^|[;{}]|\(void\))\s*(?:template\s*<[^;{}]*>\s*)?"
    r"(?:\[\[nodiscard\]\]\s*)?(?:static\s+|friend\s+|inline\s+|virtual\s+)*"
    r"Status(?:Or\s*<)?", re.MULTILINE)


def build_status_registry(sources):
    """Function names declared to return Status or StatusOr<...>."""
    registry = set()
    for src in sources:
        for m in re.finditer(
                r"\bStatus(Or)?\b", src.code):
            i = m.end()
            if m.group(1):
                if not re.match(r"\s*<", src.code[i:]):
                    continue
                lt = src.code.find("<", i)
                i = _spans_balanced(src.code, lt)
            m2 = re.match(r"\s+([A-Za-z_]\w*)\s*\(", src.code[i:])
            if not m2:
                continue
            name = m2.group(1)
            if name in STATUS_REGISTRY_BLOCKLIST:
                continue
            if not _looks_like_function(src.code, i, name):
                continue
            registry.add(name)
    return registry


def check_status_discard(src, registry, suppressions, violations):
    marker = SUPPRESS_MARKERS["status-discard"]
    code = src.code
    if not registry:
        return
    call_re = re.compile(
        r"\b(%s)\s*\(" % "|".join(sorted(re.escape(n) for n in registry)))
    for m in call_re.finditer(code):
        end = _paren_end(code, m.end() - 1)
        if end is None:
            continue
        after = code[end + 1:end + 20]
        if not re.match(r"\s*;", after):
            continue  # result is consumed by something
        # Statement prefix: everything back to the previous ; { or }.
        start = max(code.rfind(";", 0, m.start()),
                    code.rfind("{", 0, m.start()),
                    code.rfind("}", 0, m.start())) + 1
        prefix = code[start:m.start()].strip()
        void_cast = prefix.endswith("(void)") or "(void)" in prefix
        if not void_cast and not re.fullmatch(
                r"(?:[A-Za-z_]\w*\s*(?:::|\.|->)\s*)*", prefix):
            continue  # return x(); / lhs = x(); / if (x()) ...
        if void_cast and not re.fullmatch(
                r"\(\s*void\s*\)\s*(?:[A-Za-z_]\w*\s*(?:::|\.|->)\s*)*",
                prefix):
            continue
        line = src.line_of(m.start())
        if suppressions.covers(line, marker):
            continue
        what = ("(void)-cast discards" if void_cast else "discards")
        violations.append(Violation(
            src.relpath, line, "status-discard",
            "%s the Status/StatusOr returned by '%s' — consume it (assign, "
            "branch, return) or suppress with "
            "// lint: status-ignored-ok(<reason>)" % (what, m.group(1))))


def check_status_attributes(root, violations):
    path = os.path.join(root, "src", "util", "status.h")
    if not os.path.exists(path):
        return
    with open(path, encoding="utf-8") as f:
        text = f.read()
    for cls in ("Status", "StatusOr"):
        if not re.search(r"class\s+\[\[nodiscard\]\]\s+%s\b" % cls, text):
            line = 1
            m = re.search(r"class\s+%s\b" % cls, text)
            if m:
                line = text.count("\n", 0, m.start()) + 1
            violations.append(Violation(
                "src/util/status.h", line, "status-discard",
                "class %s must stay [[nodiscard]] — that attribute is what "
                "makes the compiler reject silently dropped errors" % cls))


# --------------------------------------------------------------------------
# Rule: reassoc

_REASSOC_FLAGS = re.compile(
    r"-ffast-math|-funsafe-math-optimizations|-fassociative-math|"
    r"-freciprocal-math|/fp:fast|-Ofast")
_REASSOC_PRAGMA = re.compile(
    r"#\s*pragma\s+omp\b[^\n]*\breduction\s*\(|"
    r"#\s*pragma\s+(?:GCC|clang)\s+optimize[^\n]*fast-math|"
    r"#\s*pragma\s+float_control\s*\(\s*precise\s*,\s*off")


def check_reassoc(src, suppressions, violations, is_cmake):
    marker = SUPPRESS_MARKERS["reassoc"]

    def flag(line, what):
        if not suppressions.covers(line, marker):
            violations.append(Violation(
                src.relpath, line, "reassoc",
                "%s reassociates floating-point reductions — summation "
                "order is part of the byte-identity contract (goldens move "
                "per-architecture); remove it or suppress with "
                "lint: reassoc-ok(<reason>)" % what))

    if is_cmake:
        for idx, line in enumerate(src.text.split("\n")):
            m = _REASSOC_FLAGS.search(line)
            if m:
                flag(idx + 1, "'%s'" % m.group(0))
        return
    for idx, line in enumerate(src.code_lines):
        m = _REASSOC_FLAGS.search(line)
        if m:
            flag(idx + 1, "'%s'" % m.group(0))
        # Pragmas carry their payload in string literals ("fast-math"),
        # which the comment/string stripper blanks — so directive lines
        # are matched against the raw text instead. Gating on the
        # stripped line starting with '#' keeps pragmas quoted in
        # comments from tripping the rule.
        if line.lstrip().startswith("#"):
            m = _REASSOC_PRAGMA.search(src.lines[idx])
            if m:
                flag(idx + 1, "'%s...'" % m.group(0).strip())


# --------------------------------------------------------------------------
# Rule: hot-snapshot

def _brace_end(code, open_offset):
    depth = 0
    for i in range(open_offset, len(code)):
        if code[i] == "{":
            depth += 1
        elif code[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return len(code)


def _loop_body_spans(code):
    """Offset ranges of every loop body: the braced block (or single
    statement) after for/while headers, and do-while blocks. Nested loops
    simply contribute nested spans."""
    spans = []
    for m in re.finditer(r"\b(?:for|while)\s*\(", code):
        header_end = _paren_end(code, code.index("(", m.start()))
        if header_end is None:
            continue
        i = header_end + 1
        while i < len(code) and code[i] in " \t\n":
            i += 1
        if i >= len(code):
            continue
        if code[i] == "{":
            spans.append((i, _brace_end(code, i)))
        elif code[i] != ";":  # single-statement body; ';' is do-while's tail
            j = code.find(";", i)
            spans.append((i, len(code) if j == -1 else j))
    for m in re.finditer(r"\bdo\s*\{", code):
        open_brace = code.index("{", m.start())
        spans.append((open_brace, _brace_end(code, open_brace)))
    return spans


def check_hot_snapshot(src, suppressions, violations):
    marker = SUPPRESS_MARKERS["hot-snapshot"]
    code = src.code
    call_re = re.compile("|".join("(?:%s)" % p for p in HOT_SNAPSHOT_CALLS))
    calls = list(call_re.finditer(code))
    if not calls:
        return
    spans = _loop_body_spans(code)
    for m in calls:
        if not any(b <= m.start() < e for b, e in spans):
            continue
        line = src.line_of(m.start())
        if suppressions.covers(line, marker):
            continue
        violations.append(Violation(
            src.relpath, line, "hot-snapshot",
            "'%s' inside a loop body builds a full SummaryView snapshot "
            "every iteration — build the view once before the loop, or "
            "suppress with // lint: hot-snapshot-ok(<why the loop is cold "
            "or the receiver changes per iteration>)"
            % " ".join(m.group(0).split())))


# --------------------------------------------------------------------------
# Rule: sort-order

def _top_level_args(text):
    """Split a call's argument text at the commas outside any (), [], {}."""
    args, depth, start = [], 0, 0
    for i, c in enumerate(text):
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        elif c == "," and depth == 0:
            args.append(text[start:i])
            start = i + 1
    args.append(text[start:])
    return args


def check_sort_order(src, suppressions, violations):
    marker = SUPPRESS_MARKERS["sort-order"]
    code = src.code
    helper_re = re.compile(r"\b(?:%s)\b" % "|".join(RANK_ORDER_HELPERS))
    for m in re.finditer(r"\bstd::(%s)\s*\(" % "|".join(SORT_CALLS), code):
        end = _paren_end(code, m.end() - 1)
        if end is None:
            continue
        args = _top_level_args(code[m.end():end])
        iterators = SORT_CALLS[m.group(1)]
        if len(args) <= iterators:
            continue  # operator<, a total order on the elements
        if helper_re.search(",".join(args[iterators:])):
            continue
        line = src.line_of(m.start())
        if suppressions.covers(line, marker):
            continue
        violations.append(Violation(
            src.relpath, line, "sort-order",
            "std::%s with a custom comparator — without a tie-break the "
            "order of tied elements is the standard library's choice; rank "
            "with ScoreRank/HopRank (src/util/ranking.h) or suppress with "
            "// lint: sort-order-ok(<reason>)" % m.group(1)))


# --------------------------------------------------------------------------
# Rule: versioning

def _enum_fingerprint(text, enum_name):
    """(normalized-sha256, first-line) of `enum class <name> ... };`,
    comments stripped so prose edits never trip the rule."""
    stripped = _strip_comments_and_strings(text)
    m = re.search(r"enum\s+class\s+%s\b[^{]*\{" % enum_name, stripped)
    if not m:
        return None, None
    end = stripped.find("};", m.start())
    if end == -1:
        return None, None
    body = stripped[m.start():end + 2]
    normalized = re.sub(r"\s+", " ", body).strip()
    line = stripped.count("\n", 0, m.start()) + 1
    return hashlib.sha256(normalized.encode()).hexdigest(), line


def _version_of(text, const_name):
    m = re.search(r"constexpr\s+uint8_t\s+%s\s*=\s*(\d+)\s*;" % const_name,
                  text)
    return int(m.group(1)) if m else None


def _collect_format_state(root):
    state = {}
    for key, relpath, enum_name, const_name in (
            ("psb_format", PSB_HEADER_RELPATH, "SectionId", "kPsbVersion"),
            ("wire", WIRE_HEADER_RELPATH, "FrameType", "kWireVersion")):
        path = os.path.join(root, relpath)
        if not os.path.exists(path):
            continue
        with open(path, encoding="utf-8") as f:
            text = f.read()
        fingerprint, line = _enum_fingerprint(text, enum_name)
        version = _version_of(text, const_name)
        if fingerprint is None or version is None:
            state[key] = {"error": "could not parse %s/%s in %s"
                          % (enum_name, const_name, relpath),
                          "relpath": relpath, "line": line or 1}
            continue
        state[key] = {"relpath": relpath, "line": line,
                      "enum": enum_name, "const": const_name,
                      "version": version, "fingerprint": fingerprint}
    return state


def check_versioning(root, violations):
    state = _collect_format_state(root)
    if not state:
        return
    lock_path = os.path.join(root, VERSION_LOCK_RELPATH)
    if not os.path.exists(lock_path):
        first = next(iter(state.values()))
        violations.append(Violation(
            VERSION_LOCK_RELPATH, 1, "versioning",
            "missing version lock for %s — run tools/pegasus_lint.py "
            "--update-version-lock and commit the result"
            % first.get("relpath", "format headers")))
        return
    with open(lock_path, encoding="utf-8") as f:
        try:
            lock = json.load(f)
        except ValueError as e:
            violations.append(Violation(VERSION_LOCK_RELPATH, 1,
                                        "versioning",
                                        "unparseable lock file: %s" % e))
            return
    for key, cur in state.items():
        if "error" in cur:
            violations.append(Violation(cur["relpath"], cur["line"],
                                        "versioning", cur["error"]))
            continue
        locked = lock.get(key)
        if not locked:
            violations.append(Violation(
                VERSION_LOCK_RELPATH, 1, "versioning",
                "lock has no entry for '%s' — run --update-version-lock"
                % key))
            continue
        same_fp = locked.get("fingerprint") == cur["fingerprint"]
        same_ver = locked.get("version") == cur["version"]
        if same_fp and same_ver:
            continue
        if not same_fp and same_ver:
            violations.append(Violation(
                cur["relpath"], cur["line"], "versioning",
                "enum %s changed but %s is still %d — ids/kinds on the "
                "wire or on disk changed meaning, so bump %s, update the "
                "spec (docs/FORMAT.md / docs/ARCHITECTURE.md), and refresh "
                "%s via --update-version-lock"
                % (cur["enum"], cur["const"], cur["version"], cur["const"],
                   VERSION_LOCK_RELPATH)))
        else:
            violations.append(Violation(
                cur["relpath"], cur["line"], "versioning",
                "%s = %d does not match %s (locked version %s) — refresh "
                "the lock via --update-version-lock in the same commit as "
                "the bump" % (cur["const"], cur["version"],
                              VERSION_LOCK_RELPATH, locked.get("version"))))


def update_version_lock(root, force):
    state = _collect_format_state(root)
    for key, cur in state.items():
        if "error" in cur:
            print("FAIL: %s" % cur["error"], file=sys.stderr)
            return 2
    lock_path = os.path.join(root, VERSION_LOCK_RELPATH)
    old = {}
    if os.path.exists(lock_path):
        with open(lock_path, encoding="utf-8") as f:
            try:
                old = json.load(f)
            except ValueError:
                old = {}
    lock = {}
    for key, cur in sorted(state.items()):
        prev = old.get(key, {})
        if (not force and prev
                and prev.get("fingerprint") != cur["fingerprint"]
                and prev.get("version") == cur["version"]):
            print("FAIL: %s's %s changed but %s was not bumped — bump the "
                  "version first, or pass --force to rewrite the lock "
                  "anyway" % (cur["relpath"], cur["enum"], cur["const"]),
                  file=sys.stderr)
            return 2
        lock[key] = {"version": cur["version"],
                     "fingerprint": cur["fingerprint"]}
    with open(lock_path, "w", encoding="utf-8") as f:
        json.dump(lock, f, indent=2, sort_keys=True)
        f.write("\n")
    print("wrote %s" % lock_path)
    return 0


# --------------------------------------------------------------------------
# Driver

DEFAULT_SCAN_DIRS = ("src", "tools")
CXX_EXTS = (".h", ".hpp", ".cc", ".cpp")


def gather_files(root, paths):
    cxx, cmake = [], []
    roots = paths or [os.path.join(root, d) for d in DEFAULT_SCAN_DIRS
                      if os.path.isdir(os.path.join(root, d))]
    for base in roots:
        if os.path.isfile(base):
            (_classify(base, cxx, cmake))
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames
                                 if d not in ("build", ".git")
                                 and not d.startswith("build-"))
            for fn in sorted(filenames):
                _classify(os.path.join(dirpath, fn), cxx, cmake)
    # CMake files outside src/tools also carry compile flags.
    if not paths:
        for extra in ("CMakeLists.txt", "bench/CMakeLists.txt",
                      "tests/CMakeLists.txt", "examples/CMakeLists.txt"):
            p = os.path.join(root, extra)
            if os.path.exists(p) and p not in cmake:
                cmake.append(p)
    return cxx, cmake


def _classify(path, cxx, cmake):
    if path.endswith(CXX_EXTS):
        cxx.append(path)
    elif path.endswith(("CMakeLists.txt", ".cmake")):
        cmake.append(path)


def run(root, rules, paths, fmt):
    root = os.path.abspath(root)
    cxx_paths, cmake_paths = gather_files(root, paths)
    sources = []
    for p in cxx_paths:
        with open(p, encoding="utf-8", errors="replace") as f:
            sources.append(SourceFile(os.path.relpath(p, root).replace(
                os.sep, "/"), f.read()))

    index = HashIndex()
    for src in sources:
        index.scan_aliases(src)
    for src in sources:
        index.scan_file(src)
    if "hash-order" in rules:
        augment_index_with_libclang(root, sources, index)
    status_registry = (build_status_registry(sources)
                       if "status-discard" in rules else set())

    violations = []
    for src in sources:
        sup = Suppressions(src)
        violations.extend(v for v in sup.errors if v.rule in rules)
        if "hash-order" in rules:
            check_hash_order(src, index, sup, violations)
        if "nondet" in rules:
            check_nondet(src, sup, violations)
        if "status-discard" in rules:
            check_status_discard(src, status_registry, sup, violations)
        if "reassoc" in rules:
            check_reassoc(src, sup, violations, is_cmake=False)
        if "hot-snapshot" in rules:
            check_hot_snapshot(src, sup, violations)
        if "sort-order" in rules:
            check_sort_order(src, sup, violations)
    if "reassoc" in rules:
        for p in cmake_paths:
            with open(p, encoding="utf-8", errors="replace") as f:
                src = SourceFile(os.path.relpath(p, root).replace(
                    os.sep, "/"), f.read())
            check_reassoc(src, Suppressions(src), violations, is_cmake=True)
    if "status-discard" in rules:
        check_status_attributes(root, violations)
    if "versioning" in rules:
        check_versioning(root, violations)

    violations.sort(key=lambda v: (v.path, v.line, v.rule))
    if fmt == "json":
        print(json.dumps([v.to_dict() for v in violations], indent=2))
    else:
        for v in violations:
            print(v)
        print("pegasus-lint: %d file(s) scanned, %d violation(s) [%s]"
              % (len(sources) + len(cmake_paths), len(violations),
                 ",".join(rules)))
    return 1 if violations else 0


def main(argv):
    parser = argparse.ArgumentParser(
        description="PeGaSus determinism & invariant lint")
    parser.add_argument("--root", default=".",
                        help="repo root (default: cwd)")
    parser.add_argument("--rules", default=",".join(ALL_RULES),
                        help="comma-separated subset of: %s"
                        % ", ".join(ALL_RULES))
    parser.add_argument("--format", dest="fmt", default="text",
                        choices=("text", "json"))
    parser.add_argument("--update-version-lock", action="store_true",
                        help="refresh %s from the current headers"
                        % VERSION_LOCK_RELPATH)
    parser.add_argument("--force", action="store_true",
                        help="with --update-version-lock: rewrite even if "
                        "the enum changed without a version bump")
    parser.add_argument("paths", nargs="*",
                        help="files/dirs to scan (default: src/ tools/)")
    args = parser.parse_args(argv)

    if args.update_version_lock:
        return update_version_lock(os.path.abspath(args.root), args.force)

    rules = tuple(r.strip() for r in args.rules.split(",") if r.strip())
    for r in rules:
        if r not in ALL_RULES:
            print("unknown rule: %s (known: %s)" % (r, ", ".join(ALL_RULES)),
                  file=sys.stderr)
            return 2
    return run(args.root, rules, args.paths, args.fmt)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
