"""How a command reads its files and writes its output.

Files are handed to the readers of ``formats`` open, in chunks of 16 KiB,
so no file's text is held whole, and a file that cannot be read or is not
UTF-8 is an input error naming the file.  Output is written in slices, or
under ``--json`` as the JSON of a report that is built only then.
"""

from __future__ import annotations

import sys

from . import formats
from .commandline import CliInputError
from .gf2 import BitVec


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise CliInputError(f"cannot read {path}: {e}") from None


_CHUNK = 1 << 14


def _parse(path: str, parse, *args):
    """``parse(chunks, *args)``, where ``chunks`` yields the text of the
    file at ``path`` in pieces of ``_CHUNK`` characters as it is read.

    The rest of the file is read once ``parse`` returns or fails, so a byte
    that is not UTF-8 anywhere in the file is the error, as when the file
    was read whole.  Its offset is then found by reading the file whole.
    """
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as e:
        raise CliInputError(f"cannot read {path}: {e}") from None
    with fh:
        chunks = iter(lambda: fh.read(_CHUNK), "")
        try:
            try:
                return parse(chunks, *args)
            finally:
                for _ in chunks:
                    pass
        except UnicodeDecodeError:
            _read(path)  # raises the error with its offset in the file
            raise
        except OSError as e:
            raise CliInputError(f"cannot read {path}: {e}") from None


def _load_circuit(path: str, memo=None):
    return _parse(path, formats.parse_circuit, memo)


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
