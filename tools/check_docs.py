#!/usr/bin/env python3
"""Documentation lint for the CI docs job. Three checks, all offline:

1. Markdown links: every relative link target in *.md exists (external
   http(s)/mailto links are skipped — CI must not depend on the network).
2. Equation-table anchors: every `path:line` / `path#Lline` reference in
   docs/ARCHITECTURE.md points at an existing file, a line inside it, and
   — when the reference is preceded by a `backticked symbol` on the same
   markdown line — the symbol's last component must appear within a few
   lines of the anchor, so the paper-equation-to-code table cannot rot
   silently when edits shift line numbers. A link written as
   `[path:N](../path#LM)` must show the path and line it links to.
3. Doxygen coverage: every public class/struct declared in a header of
   any src directory carries a `///` doc comment, above its
   `template <...>` line when it has one.

Exit code 0 = clean, 1 = findings (printed one per line).
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
CODE_SPAN_RE = re.compile(r"`[^`]*`")
ANCHOR_RE = re.compile(r"\(((?:\.\./)?(?:src|tests|tools|bench)/[\w/.-]+\.(?:cpp|hpp))#L(\d+)\)")
LABELLED_RE = re.compile(r"\[([\w/.-]+):(\d+)\]\((?:\.\./)?([\w/.-]+)#L(\d+)\)")
ANCHOR_SLACK = 3  # lines of drift tolerated before a symbol anchor fails
DOC_DIRS = ["src/attacks", "src/core", "src/faults", "src/logging",
            "src/net", "src/obs", "src/olsr", "src/psim", "src/runtime",
            "src/scenario", "src/sim", "src/stats", "src/trust"]
DECL_RE = re.compile(
    r"^(?:template\s*<[^>]*>\s*)?(class|struct)\s+([A-Z]\w+)"
    r"(?:\s+final)?\s*(?::[^;{]*)?\{")
TEMPLATE_RE = re.compile(r"^template\s*<[^>]*>$")


def fail(findings, msg):
    findings.append(msg)


def check_markdown_links(findings):
    for md in sorted(ROOT.rglob("*.md")):
        if any(part in ("build", "build-asan", ".git") for part in md.parts):
            continue
        rel = md.relative_to(ROOT)
        for lineno, line in enumerate(md.read_text().splitlines(), 1):
            # A link written inside a `code span` is literal text.
            for target in LINK_RE.findall(CODE_SPAN_RE.sub("", line)):
                if target.startswith(("http://", "https://", "mailto:", "#")):
                    continue
                path = target.split("#", 1)[0]
                if not path:
                    continue
                resolved = (md.parent / path).resolve()
                if not resolved.exists():
                    fail(findings, f"{rel}:{lineno}: broken link -> {target}")


def check_architecture_anchors(findings):
    arch = ROOT / "docs" / "ARCHITECTURE.md"
    if not arch.exists():
        fail(findings, "docs/ARCHITECTURE.md missing")
        return
    text = arch.read_text()
    anchors = []
    for lineno, md_line in enumerate(text.splitlines(), 1):
        for m in LABELLED_RE.finditer(md_line):
            if m.group(1, 2) != m.group(3, 4):
                fail(findings,
                     f"docs/ARCHITECTURE.md:{lineno}: label {m.group(1)}:"
                     f"{m.group(2)} differs from its link "
                     f"{m.group(3)}#L{m.group(4)}")
        for m in ANCHOR_RE.finditer(md_line):
            # The symbol the anchor claims to point at is the last
            # `backticked` token before it on the same markdown line
            # (e.g. "`TrustStore::apply_evidence`, [src/...#L27]").
            ticked = re.findall(r"`([^`]+)`", md_line[:m.start()])
            symbol = ticked[-1] if ticked else None
            anchors.append((m.group(1), int(m.group(2)), symbol))
    if not anchors:
        fail(findings, "docs/ARCHITECTURE.md: no file#Lline anchors found "
                       "(equation table must reference code lines)")
    for path, line, symbol in anchors:
        resolved = (arch.parent / path).resolve()
        if not resolved.exists():
            fail(findings, f"docs/ARCHITECTURE.md: anchor file missing -> {path}")
            continue
        src_lines = resolved.read_text().splitlines()
        if not 1 <= line <= len(src_lines):
            fail(findings,
                 f"docs/ARCHITECTURE.md: {path}#L{line} out of range (file has "
                 f"{len(src_lines)} lines)")
            continue
        if symbol is None:
            continue
        # Anchor drift: the named symbol must appear near the anchored line,
        # otherwise inserting code above it silently mis-points the table.
        name = symbol.split("::")[-1].strip("()")
        lo, hi = max(0, line - 1 - ANCHOR_SLACK), line + ANCHOR_SLACK
        if not any(name in s for s in src_lines[lo:hi]):
            fail(findings,
                 f"docs/ARCHITECTURE.md: {path}#L{line} drifted — `{name}` "
                 f"not found within {ANCHOR_SLACK} lines of the anchor")
    # The table must cover all of Eqs. 5-10.
    for eq in range(5, 11):
        if f"Eq. {eq}" not in text:
            fail(findings, f"docs/ARCHITECTURE.md: equation table misses Eq. {eq}")


def check_doxygen_coverage(findings):
    for d in DOC_DIRS:
        for header in sorted((ROOT / d).glob("*.hpp")):
            lines = header.read_text().splitlines()
            rel = header.relative_to(ROOT)
            depth = 0
            for i, line in enumerate(lines):
                stripped = line.strip()
                # Namespace braces don't nest scope for this purpose: the
                # types directly inside a namespace are the public surface.
                is_namespace = stripped.startswith("namespace ") or (
                    stripped.startswith("}") and "// namespace" in stripped)
                if depth == 0 and (m := DECL_RE.match(stripped)):
                    # The comment sits above a template head on its own
                    # line.
                    above = i - 1
                    while above >= 0 and TEMPLATE_RE.match(
                            lines[above].strip()):
                        above -= 1
                    prev = lines[above].strip() if above >= 0 else ""
                    if not (prev.startswith("///") or prev.endswith("*/")):
                        fail(findings,
                             f"{rel}:{i + 1}: public {m.group(1)} {m.group(2)} "
                             f"lacks a /// doc comment")
                if not is_namespace:
                    depth += line.count("{") - line.count("}")


def main():
    findings = []
    check_markdown_links(findings)
    check_architecture_anchors(findings)
    check_doxygen_coverage(findings)
    for f in findings:
        print(f)
    print(f"check_docs: {len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
