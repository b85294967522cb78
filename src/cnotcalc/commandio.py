"""How a command reads its files and writes its output.

Files are handed open to the readers of ``circuit_formats`` and
``relation_formats``, which take them a window at a time, so no file's
text is held whole, and a file that cannot be read or is not UTF-8 is an
input error naming the file.  Output is written in slices, or under
``--json`` as the JSON of a report that is built only then.
"""

from __future__ import annotations

import sys

from .commandline import CliInputError
from .gf2 import BitVec


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise CliInputError(f"cannot read {path}: {e}") from None


_CHUNK = 1 << 14


def _parse(path: str, parse):
    """``parse(fh)``, where ``fh`` is the file at ``path`` open for reading
    as UTF-8, which the reader takes a window at a time.

    The rest of the file is read once ``parse`` returns or fails, so a byte
    that is not UTF-8 anywhere in the file is the error, as when the file
    was read whole.  Its offset is found by reading the file again, which
    a pipe cannot be, so a pipe's error names no offset.
    """
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as e:
        raise CliInputError(f"cannot read {path}: {e}") from None
    with fh:
        try:
            try:
                return parse(fh)
            finally:
                while fh.read(_CHUNK):
                    pass
        except UnicodeDecodeError as e:
            if fh.seekable():
                _read(path)  # raises the error with its offset in the file
            bad = f"byte {e.object[e.start]:#04x}: {e.reason}"
            raise CliInputError(f"cannot read {path}: 'utf-8' codec can't decode {bad}") from None
        except OSError as e:
            raise CliInputError(f"cannot read {path}: {e}") from None


def _load_circuit(path: str):
    from .circuit_formats import parse_circuit  # imported here, so --help compiles no reader

    return _parse(path, parse_circuit)


def _parse_bits(text: str) -> BitVec:
    if text and any(ch not in "01" for ch in text):
        raise CliInputError(f"input must be a string of 0/1 bits, got {text!r}")
    return BitVec(int(ch) for ch in text)


def _emit(args, text: str, report) -> None:
    """Write ``text``, which ends in a line feed or is empty, or under
    ``--json`` the JSON of the dict ``report()``, built only then."""
    if args.json:
        import json  # only --json needs it; spare every other process the import

        print(json.dumps(report(), sort_keys=True))
    elif text:
        _write(text)


_SLICE = 1 << 14


def _write(text: str) -> None:
    """Write ``text``, which ends in a line feed, to stdout in slices and
    the last line feed alone: an unbuffered stdout drops what a closed pipe
    cuts short, and only the next write fails."""
    end = len(text) - 1
    for i in range(0, end, _SLICE):
        sys.stdout.write(text[i : min(i + _SLICE, end)])
    sys.stdout.write("\n")
