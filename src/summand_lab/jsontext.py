"""The one JSON writer and the one CSV writer behind every artifact.

``json_text(obj)`` is ``json.dumps(obj, indent=2, allow_nan=False)`` byte
for byte. With ``indent`` set the stdlib falls back to a pure-Python encoder
that yields every token through nested generators; this one appends to a
single list, escapes strings with the stdlib's C ``encode_basestring_ascii``
and writes a list of finite floats with one ``join``. A ``Verbatim`` string
is JSON text already and goes in as it stands.

``csv_text(header, rows)`` writes a table through the stdlib's ``csv``
module, which writes a float as its repr.
"""

from __future__ import annotations

import csv
import io
from json.encoder import encode_basestring_ascii as _quote

_float_repr = float.__repr__
_int_repr = int.__repr__


class Verbatim(str):
    """JSON text that ``json_text`` writes as it stands, not as a string.

    The caller vouches that it is one valid JSON value; its line breaks and
    indentation are kept, so only the value, not the layout, matches what
    ``json.dumps`` would write.
    """


def json_text(obj) -> str:
    """``json.dumps(obj, indent=2, allow_nan=False)``, byte for byte, where
    obj holds no ``Verbatim``.

    Raises ValueError on NaN and infinities and TypeError on values JSON has
    no form for, as the stdlib does; there is no check for circular
    references (the program writes none).
    """
    out: list[str] = []
    _encode(obj, out, "\n")
    return "".join(out)


def csv_text(header, rows) -> str:
    """A header and rows as CSV lines, each ended by a line feed: a float as
    its repr (pass Python floats: numpy's float64 writes as np.float64(...)),
    None as an empty field, anything else as str gives it."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _float_text(x: float) -> str:
    text = _float_repr(x)
    # a finite float's repr has no "n"; "nan", "inf" and "-inf" do
    if "n" in text:
        raise ValueError("Out of range float values are not JSON compliant: " + repr(x))
    return text


def _key_text(key) -> str:
    if isinstance(key, str):
        return _quote(key)
    if isinstance(key, float):
        return _quote(_float_text(key))
    if key is True:
        return '"true"'
    if key is False:
        return '"false"'
    if key is None:
        return '"null"'
    if isinstance(key, int):
        return _quote(_int_repr(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _encode(o, out: list, newline: str) -> None:
    """Append the text of o; ``newline`` is a line break plus o's indent."""
    if isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, v in o.items():
            head = sep + (_quote(key) if type(key) is str else _key_text(key)) + ": "
            sep = "," + inner
            # the common scalars inline, the rest by recursion
            if type(v) is str:
                out.append(head + _quote(v))
            elif type(v) is float:
                out.append(head + _float_text(v))
            else:
                out.append(head)
                _encode(v, out, inner)
        out.append(newline + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = newline + "  "
        if set(map(type, o)) == {float}:
            text = ("," + inner).join(map(_float_repr, o))
            if "n" not in text:
                out.append("[" + inner + text + newline + "]")
                return
        sep = "[" + inner
        for v in o:
            out.append(sep)
            sep = "," + inner
            _encode(v, out, inner)
        out.append(newline + "]")
    elif isinstance(o, Verbatim):
        out.append(o)
    elif isinstance(o, str):
        out.append(_quote(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(_int_repr(o))
    elif isinstance(o, float):
        out.append(_float_text(o))
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")
