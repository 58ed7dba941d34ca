#!/usr/bin/env python3
"""Markdown link checker for the repo docs.

Verifies that every relative link in the given markdown files points at an
existing file (and, for in-repo markdown targets with #anchors, at an
existing heading). External http(s) links are not fetched — CI must stay
hermetic — but their syntax is validated. Exits non-zero on any broken
link, printing one line per failure.

Usage: tools/check_links.py README.md ROADMAP.md docs/*.md
"""

import re
import sys
from pathlib import Path

LINK_RE = re.compile(r"\[([^\]]*)\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$")


def github_slug(heading: str) -> str:
    """GitHub's anchor slug: lowercase, drop punctuation, spaces to dashes."""
    slug = heading.strip().lower()
    slug = re.sub(r"[^\w\- ]", "", slug)
    return slug.replace(" ", "-")


def headings_of(path: Path) -> set[str]:
    slugs = set()
    for line in path.read_text(encoding="utf-8").splitlines():
        m = HEADING_RE.match(line)
        if m:
            slugs.add(github_slug(m.group(1)))
    return slugs


def check_file(md: Path) -> list[str]:
    errors = []
    text = md.read_text(encoding="utf-8")
    for m in LINK_RE.finditer(text):
        target = m.group(2)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        path_part, _, anchor = target.partition("#")
        dest = md if not path_part else (md.parent / path_part).resolve()
        if not dest.exists():
            errors.append(f"{md}: broken link -> {target} (no such file)")
            continue
        if anchor and dest.suffix == ".md":
            if github_slug(anchor) not in headings_of(dest):
                errors.append(f"{md}: broken anchor -> {target} (no such heading)")
    return errors


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__)
        return 2
    all_errors = []
    for arg in argv[1:]:
        p = Path(arg)
        if not p.exists():
            all_errors.append(f"{arg}: file not found")
            continue
        all_errors.extend(check_file(p))
    for e in all_errors:
        print(e)
    if not all_errors:
        print(f"ok: {len(argv) - 1} file(s), no broken links")
    return 1 if all_errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
