"""Deterministic JSON emission and strict, path-reporting validation.

Reports must be byte-identical across runs with the same seed, so they
are written by the standard encoder with sorted keys.  Validation walks
raw parsed JSON and collects violations as (JSON pointer, message) pairs
instead of failing on the first problem.
The library's readers, from_json(v, obj, path) on ZeroSet, QMatrix,
StarPoly and Colligation, take a Validator and record into it: unknown
fields are rejected at every depth, nested objects included.
"""

import json
import math

from .errors import QSchurError


def dump_json(obj):
    """One line of JSON: sorted keys, ASCII-escaped strings, every float as
    its shortest round-trip repr.  A non-finite float raises ValueError and
    a type that json does not know raises TypeError."""
    return json.dumps(obj, sort_keys=True, allow_nan=False)


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
