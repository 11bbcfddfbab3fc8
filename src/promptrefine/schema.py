"""The one checker for JSON from outside the program: a training config,
the config echo in a checkpoint, and the rest of a checkpoint's metadata.

A *spec* maps each allowed key of an object to a ``Field``: a parser
``(value, path) -> value`` and the key's one default (``MISSING``: the key
is required).  Unknown keys are refused at every level; a missing key
takes its default.  An int must be an ``int`` (not a bool); a number is a
finite int or float, stored as a float; a bool must be a ``bool``.  Each
refusal is a ``ValueError`` that names the key path, e.g. ``loss.mu``.
A dataclass whose fields are declared with ``key`` is its own spec:
``build`` makes one from JSON, and its ``__post_init__`` calls
``check_fields`` so that direct construction meets the same parsers.  A
field declared without ``key`` is not a JSON key; ``build`` takes it as an
argument.
"""

from __future__ import annotations

import sys
from dataclasses import MISSING, field, fields
from typing import Any, Callable, NamedTuple

__all__ = ["Field", "rule", "integer", "number", "positive", "non_negative", "boolean", "string",
           "one_of", "optional", "list_of", "section", "tagged", "key", "spec_of", "build",
           "nested", "check_fields"]


class Field(NamedTuple):
    parse: Callable[[Any, str], Any]
    default: Any = MISSING


def _join(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


def rule(need: str, ok: Callable[[Any], bool], cast: Callable = lambda x: x):
    """Parser: ``cast(x)`` if ``ok(x)``, else "<path> must be <need>, got <x>"."""
    def parse(x, path):
        if not ok(x):
            raise ValueError(f"{path or 'the config'} must be {need}, got {x!r}")
        return cast(x)
    return parse


def integer(min: int):
    return rule(f"an int >= {min}", lambda x: type(x) is int and x >= min)


def number(bound: str = "", ok: Callable[[float], bool] = lambda x: True):
    """A finite number for which ``ok`` holds, as ``bound`` says in words;
    ``abs(x) <= max`` also refuses an int too large for a float."""
    return rule(f"a finite number {bound}".rstrip(),
                lambda x: type(x) in (int, float) and abs(x) <= sys.float_info.max and ok(x),
                float)


positive = number("> 0", lambda x: x > 0)
non_negative = number(">= 0", lambda x: x >= 0)
boolean = rule("true or false", lambda x: type(x) is bool)
string = rule("a string", lambda x: type(x) is str)
_object = rule("an object", lambda x: type(x) is dict)


def one_of(*values: str):
    return rule(f"one of {list(values)}", lambda x: type(x) is str and x in values)


def optional(parse):
    return lambda x, path: None if x is None else parse(x, path)


def list_of(parse):
    is_list = rule("a list", lambda x: type(x) is list)
    return lambda x, path: [parse(v, f"{path}[{i}]") for i, v in enumerate(is_list(x, path))]


def section(spec: dict):
    """Parser for an object with the keys of ``spec``: a new dict holding
    every key of the spec, defaults filled in."""
    def parse(x, path):
        unknown = [_join(path, k) for k in _object(x, path) if k not in spec]
        if unknown:
            raise ValueError(f"unknown keys {unknown}")
        missing = [_join(path, k) for k, f in spec.items() if k not in x and f.default is MISSING]
        if missing:
            raise ValueError(f"missing keys {missing}")
        return {k: f.parse(x.get(k, f.default), _join(path, k)) for k, f in spec.items()}
    return parse


def tagged(tag: str, specs: dict):
    """Parser for an object whose required ``tag`` key picks, from
    ``specs``, the spec of its other keys."""
    pick = one_of(*specs)

    def parse(x, path):
        name = pick(_object(x, path).get(tag), _join(path, tag))
        return section({tag: Field(pick), **specs[name]})(x, path)
    return parse


def key(parse, default=MISSING):
    """A dataclass field that is the JSON key of its name, read by ``parse``."""
    return field(default_factory=MISSING if default is MISSING else (lambda: default),
                 metadata={"field": Field(parse, default)})


def spec_of(cls) -> dict:
    return {f.name: f.metadata["field"] for f in fields(cls) if "field" in f.metadata}


def build(cls, x, path: str = "", **rest):
    """``cls`` from the JSON object ``x``; ``rest`` gives the fields that are not keys."""
    return cls(**section(spec_of(cls))(x, path), **rest)


def nested(cls):
    """Parser for a field holding a ``key`` dataclass: an instance or JSON."""
    return lambda x, path: x if isinstance(x, cls) else build(cls, x, path)


def check_fields(obj) -> None:
    for name, f in spec_of(type(obj)).items():
        setattr(obj, name, f.parse(getattr(obj, name), name))
