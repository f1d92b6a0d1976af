#!/usr/bin/env python3
"""Count the workspace's non-test Rust lines.

The rule: every non-blank line of a `.rs` file under `crates/` and
`src/`, except files under a `tests/` or `benches/` directory and the
items marked `#[cfg(test)]` (a test module, a test-only function or
`mod` declaration: the attribute, any further attributes, and the item
up to its closing brace or semicolon). A module declared `#[cfg(test)]
mod name;` is test code too, so its file (and any submodule files under
it) is skipped.

Usage:
    scripts/loc.py [REPO_ROOT]    # per-crate counts and the total

Run it on two checkouts to compare a change with its parent; absolute
counts from other rules are not comparable.
"""

import os
import sys


def brace_deltas(lines):
    """Per line, its `{` minus `}` count outside strings, character
    literals and comments (state carries across lines), and whether the
    line holds a `;` outside them."""
    out = []
    in_block = 0  # nesting depth of /* */ comments
    in_str = None  # None, '"', or the closing of a raw string ('"##')
    for line in lines:
        delta, semi, i, n = 0, False, 0, len(line)
        while i < n:
            c = line[i]
            if in_block:
                if line.startswith("*/", i):
                    in_block -= 1
                    i += 2
                elif line.startswith("/*", i):
                    in_block += 1
                    i += 2
                else:
                    i += 1
            elif in_str == '"':
                if c == "\\":
                    i += 2
                elif c == '"':
                    in_str = None
                    i += 1
                else:
                    i += 1
            elif in_str:
                if line.startswith(in_str, i):
                    i += len(in_str)
                    in_str = None
                else:
                    i += 1
            elif line.startswith("//", i):
                break
            elif line.startswith("/*", i):
                in_block += 1
                i += 2
            elif c == "r" and (line.startswith('r"', i) or line.startswith("r#", i)):
                j = i + 1
                while j < n and line[j] == "#":
                    j += 1
                if j < n and line[j] == '"':
                    in_str = '"' + "#" * (j - i - 1)
                    i = j + 1
                else:
                    i += 1
            elif c == '"':
                in_str = '"'
                i += 1
            elif c == "'":
                # A character literal ('x', '\n', '\u{..}'), not a lifetime.
                if line.startswith("'\\", i):
                    end = line.find("'", i + 2)
                    i = end + 1 if end > 0 else i + 1
                elif i + 2 < n and line[i + 2] == "'":
                    i += 3
                else:
                    i += 1
            else:
                if c == "{":
                    delta += 1
                elif c == "}":
                    delta -= 1
                elif c == ";":
                    semi = True
                i += 1
        out.append((delta, semi))
    return out


def count_file(path):
    """Non-test lines of `path`, and the names of the modules it
    declares `#[cfg(test)] mod name;`."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().split("\n")
    deltas = brace_deltas(lines)
    count, i, test_mods = 0, 0, []
    while i < len(lines):
        if lines[i].strip() == "#[cfg(test)]":
            # Skip the attributes, then the item up to its closing brace
            # (or its semicolon, for a braceless item).
            i += 1
            while i < len(lines) and lines[i].strip().startswith("#["):
                i += 1
            words = lines[i].split() if i < len(lines) else []
            if words and words[-1].endswith(";") and "mod" in words:
                test_mods.append(words[words.index("mod") + 1].rstrip(";"))
            depth, opened = 0, False
            while i < len(lines):
                delta, semi = deltas[i]
                depth += delta
                opened = opened or delta > 0 or depth > 0
                i += 1
                if (opened and depth <= 0) or (not opened and semi):
                    break
            continue
        if lines[i].strip():
            count += 1
        i += 1
    return count, test_mods


def module_dir(path):
    """The directory holding the files of `path`'s submodules."""
    head, name = os.path.split(path)
    if name in ("lib.rs", "main.rs", "mod.rs"):
        return head
    return os.path.join(head, name[: -len(".rs")])


def crate_of(rel):
    parts = rel.split(os.sep)
    return parts[1] if parts[0] == "crates" else parts[0]


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.join(os.path.dirname(__file__), "..")
    counts, skipped = {}, set()
    for top in ("crates", "src"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d not in ("tests", "benches", "target"))
            for name in sorted(filenames):
                if name.endswith(".rs"):
                    path = os.path.normpath(os.path.join(dirpath, name))
                    count, test_mods = count_file(path)
                    counts[path] = count
                    skipped.update(os.path.join(module_dir(path), m) for m in test_mods)
    per_crate = {}
    for path, count in counts.items():
        base = path[: -len(".rs")]
        if base in skipped or any(path.startswith(m + os.sep) for m in skipped):
            continue
        crate = crate_of(os.path.relpath(path, root))
        per_crate[crate] = per_crate.get(crate, 0) + count
    for crate in sorted(per_crate):
        print(f"{crate:10} {per_crate[crate]:6}")
    print(f"{'total':10} {sum(per_crate.values()):6}")


if __name__ == "__main__":
    main()
