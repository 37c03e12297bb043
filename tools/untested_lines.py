"""Print, per module of src/youngflow, the statement lines no Tier-1 test runs.

Runs the Tier-1 suite in this process under a sys.settrace line tracer
(stdlib only, no coverage package).  A statement line is a line that
carries bytecode in the module's compiled code; it is untested when no
test raised a line event on it.  Report only; the exit status is pytest's.

    PYTHONPATH=src python tools/untested_lines.py [pytest arguments]
"""

import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "youngflow"
_hits, _files = {}, {}


def _line(frame, event, arg):
    if event == "line":
        _hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _line


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _files:
        _files[name] = Path(name).resolve().parent == SRC
    if not _files[name]:
        return None
    _hits.setdefault(name, set()).add(frame.f_code.co_firstlineno)
    return _line


def _statements(code):
    lines = {line for _, _, line in code.co_lines() if line}  # 0 and None carry no statement
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _statements(const)
    return lines


def _ranges(lines):
    runs = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main(args):
    sys.settrace(_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
    hits = {Path(name).resolve(): lines for name, lines in _hits.items()}
    for path in sorted(SRC.glob("*.py")):
        code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        missed = sorted(_statements(code) - hits.get(path.resolve(), set()))
        print(f"{path.relative_to(SRC.parents[1])}: {len(missed)} untested: {_ranges(missed)}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
