"""The committed generated C kernel against its Cython source.

``_fast.c`` is generated from ``_fast.pyx`` and committed, so an edit to
the ``.pyx`` that is not followed by regenerating the ``.c`` would build
a compiled kernel that no longer mirrors the pure one.  Cython quotes
each source line it compiles next to the code it emits; every quote
must still match the ``.pyx``.
"""

from __future__ import annotations

import re
from pathlib import Path

KERNEL = Path(__file__).resolve().parent.parent / "src" / "gpvis" / "_kernel"
MARKER = re.compile(r'^\s*/\* "gpvis/_kernel/_fast\.pyx":(\d+)$')
TAG = "# <<<<<<<<<<<<<<"


def test_generated_c_quotes_the_current_pyx():
    c_lines = (KERNEL / "_fast.c").read_text(encoding="utf-8").splitlines()
    pyx_lines = (KERNEL / "_fast.pyx").read_text(encoding="utf-8").splitlines()
    checked = 0
    for i, line in enumerate(c_lines):
        m = MARKER.match(line)
        if not m:
            continue
        # the quoted block runs to "*/"; its tagged line is the compiled one
        j = i + 1
        while not c_lines[j].endswith(TAG):
            assert not c_lines[j].lstrip().startswith("*/"), f"untagged quote at C line {i + 1}"
            j += 1
        quoted = c_lines[j].lstrip()[2 : -len(TAG)].rstrip()
        lineno = int(m.group(1))
        assert lineno <= len(pyx_lines), f"C line {i + 1} quotes past the end of the .pyx"
        assert quoted == pyx_lines[lineno - 1].rstrip(), (
            f"C line {j + 1} quotes .pyx line {lineno} as {quoted!r}; regenerate _fast.c"
        )
        checked += 1
    assert checked > 0
