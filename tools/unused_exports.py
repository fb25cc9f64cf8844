#!/usr/bin/env python3
"""Fail on library exports that nothing outside tests calls.

Lists every top-level `val` in lib/*/*.mli and looks for callers in the
.ml files of lib/, bin/, bench/, examples/ and perfbench/ outside the
export's own module.  An export whose only callers are in test/ (or
that has none) must have an entry in the allowlist, one
`Module.name  # reason` line each.  The check also fails on a stale
entry: one whose export is gone or now has a caller outside tests.

The match is by name, after stripping comments and string literals:
`M.name`, where `M` is the module or a `module X = ... M` alias of it,
plus a bare `name` in any file that opens `M` (`open M`, `let open M
in`, `M.( ... )`).  It over-counts callers (a common name matches
anywhere), so an export it reports as unused really is; confirm the
rest with the compiler.

  python3 tools/unused_exports.py            # the gate (exit 1 on failure)
  python3 tools/unused_exports.py --census   # counts, and optional
                                             # arguments no caller sets
"""

import argparse
import glob
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CALLER_DIRS = ["lib", "bin", "bench", "examples", "perfbench"]
TEST_DIR = "test"
DEFAULT_ALLOWLIST = os.path.join(ROOT, "tools", "unused_exports.allow")

IDENT = r"[a-z_][A-Za-z0-9_']*"
OPTIONAL = re.compile(r"\?(" + IDENT + r")\s*:")
LABEL = re.compile(r"[~?](" + IDENT + ")")
# Where an application's argument list ends at its own nesting level.
APPLICATION_END = re.compile(r"(;|\bin\b|\bthen\b|\belse\b|\bwith\b|\bdo\b|"
                             r"\bdone\b|\|[^>|]|->|\blet\b|\band\b|\bend\b|=)")


def strip(src):
    """Blank out comments, string literals and char literals, keeping
    newlines, so positions and line numbers survive."""
    out = []
    i, n, depth = 0, len(src), 0
    while i < n:
        c = src[i]
        if src.startswith("(*", i):
            depth += 1
            i += 2
            continue
        if depth > 0:
            if src.startswith("*)", i):
                depth -= 1
                i += 2
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
            continue
        if c == '"':
            j = i + 1
            while j < n and src[j] != '"':
                j += 2 if src[j] == "\\" else 1
            out.append('""' + "\n" * src.count("\n", i, j))
            i = j + 1
            continue
        m = re.match(r"\{([a-z_]*)\|", src[i:i + 12])
        if m:
            close = "|" + m.group(1) + "}"
            j = src.find(close, i + len(m.group(0)))
            j = n if j < 0 else j
            out.append('""' + "\n" * src.count("\n", i, j))
            i = j + len(close)
            continue
        if c == "'":
            m = re.match(r"'(\\[^']+|[^\\'])'", src[i:i + 8])
            if m:
                out.append("' '")
                i += len(m.group(0))
                continue
        out.append(c)
        i += 1
    return "".join(out)


def module_of(path):
    return os.path.basename(path).split(".")[0].capitalize()


def exports():
    """(module, name, path, optional-argument names) for every top-level
    val, in file order."""
    result = []
    for path in sorted(glob.glob(os.path.join(ROOT, "lib", "*", "*.mli"))):
        text = strip(open(path).read())
        items = re.split(
            r"\n(?=(?:val|type|module|exception|include|open|external|class)\b)",
            "\n" + text)
        for item in items:
            m = re.match(r"val\s+(" + IDENT + r")\s*:", item)
            if m:
                result.append((module_of(path), m.group(1), path,
                               OPTIONAL.findall(item)))
    return result


class Source:
    """One caller file: stripped text, module aliases and opened modules."""

    def __init__(self, path):
        self.path = path
        self.text = strip(open(path).read())
        path_re = r"((?:[A-Z]\w*\.)*[A-Z]\w*)"
        self.aliases = {}
        for m in re.finditer(r"\bmodule\s+([A-Z]\w*)\s*=\s*" + path_re
                             + r"(?![\w.(])", self.text):
            self.aliases.setdefault(m.group(2).split(".")[-1],
                                    set()).add(m.group(1))
        self.opened = set()
        for m in re.finditer(r"\bopen!?\s+" + path_re, self.text):
            self.opened.add(m.group(1).split(".")[-1])
        for m in re.finditer(r"\b" + path_re + r"\.\(", self.text):
            self.opened.add(m.group(1).split(".")[-1])
        for target, names in self.aliases.items():
            if names & self.opened:
                self.opened.add(target)

        self.refs = {}
        for m in re.finditer(r"(?<![\w.'~?])((?:[A-Z]\w*\.)*)(" + IDENT
                             + r")(?![\w'])", self.text):
            quals = m.group(1).split(".")
            self.refs.setdefault(m.group(2), []).append(
                (quals[-2] if len(quals) > 1 else None, m.start(2), m.end()))

    def references(self, module, name, bare=False):
        """Positions just past each reference to module.name, skipping
        a bare name that a `let` or `and` binds."""
        quals = {module} | self.aliases.get(module, set())
        bare = bare or module in self.opened
        found = []
        for qual, start, end in self.refs.get(name, []):
            if qual in quals:
                found.append(end)
            elif qual is None and bare and not re.search(
                    r"\b(let|and|rec|val|external)\s+$",
                    self.text[max(0, start - 12):start]):
                found.append(end)
        return found


def sources(dirs):
    files = []
    for d in dirs:
        files += glob.glob(os.path.join(ROOT, d, "**", "*.ml"),
                           recursive=True)
    return [Source(f) for f in sorted(files) if "/_build/" not in f]


def own(src, path):
    return os.path.splitext(src.path)[0] == os.path.splitext(path)[0]


def labels_at(text, pos):
    """Labels written at the top level of the application that starts
    at pos (the end of a reference): `~l`, `~l:`, `?l`, `?l:`."""
    labels = set()
    depth = 0
    i, n = pos, min(len(text), pos + 2000)
    while i < n:
        c = text[i]
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
            if depth < 0:
                break
        elif depth == 0:
            if APPLICATION_END.match(text, i) and not text.startswith("|>", i):
                break
            m = LABEL.match(text, i)
            if m:
                labels.add(m.group(1))
                i = m.end()
                continue
        i += 1
    return labels


def census():
    exps = exports()
    callers = sources(CALLER_DIRS)
    tests = sources([TEST_DIR])
    rows = []
    for module, name, path, opts in exps:
        outside = sum(len(s.references(module, name))
                      for s in callers if not own(s, path))
        in_tests = sum(len(s.references(module, name)) for s in tests)
        set_opts = set()
        for s in callers + tests:
            bare = own(s, path)
            for pos in s.references(module, name, bare=bare):
                set_opts |= labels_at(s.text, pos)
        rows.append((module, name, outside, in_tests,
                     [o for o in opts if o not in set_opts], opts))
    return rows


def read_allowlist(path):
    entries = {}
    for lineno, line in enumerate(open(path), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        reason = line.split("#", 1)[1].strip() if "#" in line else ""
        entries[body] = (lineno, reason)
    return entries


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--allowlist", default=DEFAULT_ALLOWLIST)
    ap.add_argument("--census", action="store_true",
                    help="print the counts and the unset optional arguments")
    args = ap.parse_args()
    rows = census()
    unused = {f"{m}.{n}": (o, t) for m, n, o, t, _, _ in rows if o == 0}

    if args.census:
        none = [k for k, (_, t) in unused.items() if t == 0]
        only_tests = [k for k, (_, t) in unused.items() if t > 0]
        opts = sum(len(r[5]) for r in rows)
        unset = [(f"{m}.{n}", u) for m, n, _, _, u, _ in rows if u]
        print(f"exported top-level vals: {len(rows)}")
        print(f"exports with no caller: {len(none)}")
        for k in none:
            print(f"  {k}")
        print(f"exports called only by tests: {len(only_tests)}")
        print(f"optional arguments: {opts}")
        print(f"optional arguments no caller sets: "
              f"{sum(len(u) for _, u in unset)}")
        for k, u in unset:
            print(f"  {k} " + " ".join("?" + o for o in u))
        return 0

    allowed = read_allowlist(args.allowlist)
    known = {f"{m}.{n}" for m, n, _, _, _, _ in rows}
    problems = []
    for key in sorted(unused):
        if key not in allowed:
            problems.append(f"{key}: no caller outside its module and test/;"
                            " delete it, make it private, or allowlist it")
    for key, (lineno, reason) in sorted(allowed.items(), key=lambda e: e[1]):
        where = f"{os.path.relpath(args.allowlist, ROOT)}:{lineno}"
        if key not in known:
            problems.append(f"{where}: stale entry {key}: no such export")
        elif key not in unused:
            problems.append(f"{where}: stale entry {key}: it has a caller"
                            " outside tests now")
        elif not reason:
            problems.append(f"{where}: {key} has no `# reason`")
    for p in problems:
        print(p)
    print(f"{len(rows)} exports, {len(unused)} with no caller outside tests,"
          f" {len(allowed)} allowlisted: "
          + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
