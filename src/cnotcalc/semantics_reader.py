"""The reader of a circuit file's relation: ``parse_semantics`` runs each
gate line on the wire expressions as it splits it, so it holds no gate
list and no memo of lines.  It reads the header and the lines as
``formats.parse_circuit`` does.  ``equal`` and ``semantics`` load it, and
``fuzzing``, which checks it against ``Circuit.semantics``.
"""

from __future__ import annotations

from operator import length_hint

from .formats import _build, _check_outputs, _read_header, _window_gates
from .gates import CNOT, INIT1, POST1, SWAP, CircuitError, width_after
from .lexing import FormatError
from .relation import AffineRelation
from .symbolic import relation_from, run

_CHUNK = 64  # wires, so that a small register is built in one go


def parse_semantics(source) -> tuple[str, AffineRelation]:
    """(name, relation) of a circuit file: ``parse_circuit`` then
    ``Circuit.semantics``, errors and their order included, without a gate
    list.  A width error waits for the rest of the file, since a bad line
    or a missing ``end`` comes first; the header's ``n_out`` comes last.
    """
    # ``wires`` holds the expressions of the lowest wires only, built
    # _CHUNK or more at a time as the lines reach them; the ``tail`` wires
    # above them still carry the last inputs unchanged, so a wide register
    # costs little before the lines reach its wires.  ``nums`` maps the
    # numbers of the built wires and the wire numbers met, as ``str``
    # writes them, to their ints.  A primitive line on numbers in it runs
    # on ``wires`` in place, unless it reaches past them; any other line is
    # built by ``_build``, checked against the width, and run by ``run``.
    name, n_in, n_out, lineno, windows = _read_header(source)
    one = 1 << n_in  # constant-term bit of a wire expression
    wires = [1 << k for k in range(min(n_in, _CHUNK))]
    tail = n_in - len(wires)
    domain: list[int] = []
    empty = False
    nums = {str(k): k for k in range(len(wires))}
    last = -1  # the index of the window's last gate, were each line left one gate
    try:
        for at, part in windows:
            last += len(part)
            lines = iter(part)
            while True:
                try:
                    for body in lines:
                        tokens = body.split()
                        if len(tokens) == 3:
                            kind, a, b = tokens
                            if kind == CNOT and a != b:
                                wires[nums[b]] ^= wires[nums[a]]
                                continue
                            if kind == SWAP and a != b:
                                a, b = nums[a], nums[b]
                                wires[a], wires[b] = wires[b], wires[a]
                                continue
                        elif len(tokens) == 2:
                            kind, a = tokens
                            if kind == POST1:
                                e = wires.pop(nums[a])
                                if not e:
                                    empty = True
                                domain.append(e ^ one)  # the row of e(x) = 1
                                continue
                            if kind == INIT1 and nums[a] <= len(wires):
                                wires.insert(nums[a], one)
                                continue
                        break  # not a primitive line: built below
                    else:
                        break  # the window is read
                except (KeyError, IndexError):  # a number not met yet, or past the built wires
                    pass
                gates = _build(body, part, at, nums)
                if type(gates) is not tuple:
                    gates = (gates,)
                elif not gates:  # a blank line
                    last -= 1
                    continue
                width = width_after(gates, len(wires) + tail, last - length_hint(lines))
                last += len(gates) - 1
                # the wires past the built ones that the gates reach, the
                # widest gate's: a macro's post1s come last
                missing = max(g.need for g in gates) - len(wires)
                if missing > 0:  # build them, and _CHUNK more while there are
                    grow = min(tail, max(missing, _CHUNK))
                    nums.update((str(k), k) for k in range(len(wires), len(wires) + grow))
                    wires += [1 << k for k in range(n_in - tail, n_in - tail + grow)]
                    tail -= grow
                if not run(wires, gates, one, domain):
                    # ``run`` stopped at the post1 that made the relation
                    # empty: only the width counts from here
                    empty = True
                    wires[:] = [0] * (width - tail)
            del part, lines  # the next window is split without this one's lines
    except CircuitError as e:  # a gate out of range, at the line ``lines`` last gave
        rest = [*lines]
        line = at + len(part) - 1 - len(rest)
        _window_gates(rest, line + 1, {"": ()}, nums, [])
        for at, part in windows:  # a bad line or a missing 'end' after it comes first
            _window_gates(part, at, {"": ()}, nums, [])
        raise FormatError(str(e), line) from None
    width = len(wires) + tail
    _check_outputs(n_in, n_out, width, lineno)
    if empty:
        return name, AffineRelation.empty(n_in, width)
    wires += [1 << k for k in range(n_in - tail, n_in)]
    return name, relation_from(n_in, wires, domain)

