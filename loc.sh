#!/usr/bin/env bash
# Non-test lines of Rust per crate, counted one way.
#
#   ./loc.sh [CHECKOUT [CRATE...]]
#
# For each crate under CHECKOUT/crates (default: this checkout; default
# crates: all), the lines of every `src/**/*.rs` file above the first
# `#[cfg(test)]` that opens `mod tests`. A file some `#[cfg(test)] mod X;`
# line pulls in (a test-only reference module) counts nothing. A
# `#[cfg(test)]` on anything else does not end a file's count. Prints one
# line per crate and the total of the crates listed.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
checkout=$(cd "${1:-$here}" && pwd)
python3 - "$checkout" "${@:2}" <<'EOF'
import pathlib, re, sys
root, wanted = pathlib.Path(sys.argv[1]), sys.argv[2:]
module = re.compile(r"\s*(?:pub(?:\([^)]*\))?\s+)?mod (\w+)\s*([;{])")

def test_modules(f, lines):
    """(line, name, is_inline) of every module item a #[cfg(test)] gates."""
    for i, line in enumerate(lines):
        head = line.strip()
        if head.startswith("#[cfg(test)]"):
            item = head[len("#[cfg(test)]"):] or (lines[i + 1] if i + 1 < len(lines) else "")
            if m := module.match(item):
                yield i, m[1], m[2] == "{"

total = 0
for crate in sorted(p for p in (root / "crates").iterdir() if (p / "src").is_dir()):
    if wanted and crate.name not in wanted:
        continue
    files = {f: f.read_text().splitlines() for f in sorted((crate / "src").rglob("*.rs"))}
    gated = set()
    for f, lines in files.items():
        base = f.parent if f.name in ("lib.rs", "main.rs", "mod.rs") else f.parent / f.stem
        for _, name, inline in test_modules(f, lines):
            if not inline:
                gated |= {base / f"{name}.rs", base / name / "mod.rs"}
    count = 0
    for f, lines in files.items():
        if f not in gated:
            ends = [i for i, name, inline in test_modules(f, lines) if inline and name == "tests"]
            count += ends[0] if ends else len(lines)
    print(f"{crate.name:10} {count:>7}")
    total += count
print(f"{'total':10} {total:>7}")
EOF
