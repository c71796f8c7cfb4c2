"""Deterministic JSON emission and strict, path-reporting validation.

Reports must be byte-identical across runs with the same seed, so keys
are emitted sorted and every float is rendered with 17 significant
digits.  Validation walks raw parsed JSON and collects violations as
(JSON pointer, message) pairs instead of failing on the first problem.
The library's readers, from_json(v, obj, path) on ZeroSet, QMatrix,
StarPoly and Colligation, take a Validator and record into it: unknown
fields are rejected at every depth, nested objects included.
"""

import math
from json.encoder import encode_basestring_ascii

from .errors import QSchurError


def format_float(x):
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise TypeError("not a number: %r" % (x,))
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("non-finite numbers are not serializable")
    return format(x, ".17g")


def dump_json(obj, indent=0):
    """Serialize with sorted keys and 17-significant-digit doubles.

    Exact floats, lists (and tuples) and dicts are dispatched on their
    type, in that order, and floats inside a list or dict are formatted in
    place; everything else, subclasses such as numpy scalars among them,
    takes the isinstance branches.
    """
    kind = type(obj)
    if kind is float:
        if not math.isfinite(obj):
            raise ValueError("non-finite numbers are not serializable")
        return format(obj, ".17g")
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        inner = " " * (indent + 2)
        items = [format(v, ".17g") if type(v) is float and math.isfinite(v)
                 else dump_json(v, indent + 2) for v in obj]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + " " * indent + "]"
    if kind is dict:
        if not obj:
            return "{}"
        inner = " " * (indent + 2)
        items = []
        for k in sorted(obj):
            v = obj[k]
            text = (format(v, ".17g") if type(v) is float and math.isfinite(v)
                    else dump_json(v, indent + 2))
            items.append(inner + encode_basestring_ascii(str(k)) + ": " + text)
        return "{\n" + ",\n".join(items) + "\n" + " " * indent + "}"
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, (list, tuple)):
        return dump_json(list(obj), indent)
    if isinstance(obj, dict):
        return dump_json(dict(obj), indent)
    raise TypeError("cannot serialize %r" % type(obj))


class Validator:
    """Collects JSON-pointer violations while pulling typed fields."""

    def __init__(self):
        self.violations = []

    def fail(self, path, message):
        self.violations.append((path, message))

    def ok(self):
        return not self.violations

    def build(self, path, make, *args):
        """make(*args), or None with a violation at path if it raises a library error."""
        try:
            return make(*args)
        except QSchurError as exc:
            self.fail(path, str(exc))
            return None

    def check_object(self, obj, path, known_keys):
        if not isinstance(obj, dict):
            self.fail(path or "/", "expected an object")
            return False
        for key in obj:
            if key not in known_keys:
                self.fail("%s/%s" % (path, key), "unknown field")
        return True

    def number(self, value, path):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            self.fail(path, "expected a number")
            return None
        f = float(value)
        if not math.isfinite(f):
            self.fail(path, "non-finite number")
            return None
        return f

    def integer(self, value, path, minimum=None):
        if isinstance(value, bool) or not isinstance(value, int):
            self.fail(path, "expected an integer")
            return None
        if minimum is not None and value < minimum:
            self.fail(path, "must be >= %d" % minimum)
            return None
        return value

    def boolean(self, value, path):
        if not isinstance(value, bool):
            self.fail(path, "expected a boolean")
            return None
        return value

    def string(self, value, path, choices=None):
        if not isinstance(value, str):
            self.fail(path, "expected a string")
            return None
        if choices is not None and value not in choices:
            self.fail(path, "must be one of %s" % "|".join(choices))
            return None
        return value

    def quaternion(self, value, path):
        if not isinstance(value, list) or len(value) != 4:
            self.fail(path, "expected a 4-element array [x0,x1,x2,x3]")
            return None
        comps = []
        for idx, v in enumerate(value):
            f = self.number(v, "%s/%d" % (path, idx))
            if f is None:
                return None
            comps.append(f)
        return comps
