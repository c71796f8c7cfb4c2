"""The package source as text: no block of code is written twice.

A repeated block is three consecutive lines of src/qschur that appear
again elsewhere in it, after whitespace is collapsed.  Windows holding a
blank line, a comment, a docstring delimiter, or a def, decorator or
return line are skipped, as are windows shorter than MIN_CHARS: those
repeat by the layout of the language, not by a copied computation.
"""

import os
import re

import qschur

SRC = os.path.dirname(os.path.abspath(qschur.__file__))
WINDOW = 3
MIN_CHARS = 60
_SKIPPED = re.compile(r'^(#|def |@|return\b)|"""')


def repeated_blocks(src=SRC):
    """Every repeated window as (text, [file:line, ...]) in source order."""
    seen = {}
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name), encoding="utf-8") as handle:
            lines = [" ".join(line.split()) for line in handle]
        for i in range(len(lines) - WINDOW + 1):
            block = lines[i : i + WINDOW]
            if any(not line or _SKIPPED.search(line) for line in block):
                continue
            text = "\n".join(block)
            if len(text) >= MIN_CHARS:
                seen.setdefault(text, []).append("%s:%d" % (name, i + 1))
    return [(text, where) for text, where in seen.items() if len(where) > 1]


def test_no_three_line_block_repeats():
    found = repeated_blocks()
    assert not found, "\n\n".join("%s\n%s" % (" = ".join(where), text) for text, where in found)
