"""ftsmfc's one YAML reader, for block YAML as the shipped configs and yaml.safe_dump write
it: block mappings and sequences (compact '- - x' and '- k: v' entries too), one-line flow
sequences, '#' comments, and plain scalars that PyYAML's YAML 1.1 resolver makes a str, null,
bool, decimal int, float with a dot, .inf or .nan, each built as PyYAML's safe loader builds
it.  Other text, and a repeated key, is Declined with a message that names it and its line."""

import re


class Declined(ValueError):
    """A text outside the subset, or a repeated key; the message names it and its line."""


_OUTSIDE = "line {1}: {0!r} is outside the YAML subset ftsmfc reads"  # .format(text, line)

# PyYAML's implicit resolvers (yaml/resolver.py) in order, and the first characters each takes;
# re compiles (and caches) a pattern the first time a text reaches it
_RESOLVERS = (
    ("bool", r"yes|Yes|YES|no|No|NO|true|True|TRUE|false|False|FALSE|on|On|ON|off|Off|OFF",
     "yYnNtTfFoO"),
    ("float", r"[-+]?(?:[0-9][0-9_]*)\.[0-9_]*(?:[eE][-+][0-9]+)?|\.[0-9][0-9_]*(?:[eE][-+][0-9]+)?"
              r"|[-+]?[0-9][0-9_]*(?::[0-5]?[0-9])+\.[0-9_]*|[-+]?\.(?:inf|Inf|INF)"
              r"|\.(?:nan|NaN|NAN)", "-+0123456789."),
    ("int", r"[-+]?0b[0-1_]+|[-+]?0[0-7_]+|[-+]?(?:0|[1-9][0-9_]*)|[-+]?0x[0-9a-fA-F_]+"
            r"|[-+]?[1-9][0-9_]*(?::[0-5]?[0-9])+", "-+0123456789"),
    ("merge", r"<<", "<"),
    ("null", r"~|null|Null|NULL|", "~nN"),
    ("timestamp", r"[0-9][0-9][0-9][0-9]-[0-9][0-9]-[0-9][0-9]|[0-9][0-9][0-9][0-9]-[0-9][0-9]?"
                  r"-[0-9][0-9]?(?:[Tt]|[ \t]+)[0-9][0-9]?:[0-9][0-9]:[0-9][0-9](?:\.[0-9]*)?"
                  r"(?:[ \t]*(?:Z|[-+][0-9][0-9]?(?::[0-9][0-9])?))?", "0123456789"),
    ("value", r"=", "="),
)
# '[', ']', ',' or a plain scalar: words over [A-Za-z0-9_.~/+<=-] joined by spaces,
# where '-' starts one only before a word character or '.', and '.' only before a word character
_TOKEN = (r" *(?:([\[\],])|((?:[\w~/+<=]|-(?=[\w.])|\.(?=\w))[\w.~/+<=-]*"
          r"(?: +[\w.~/+<=-]+)*)) *")
_BOOLS = {"yes": True, "no": False, "true": True, "false": False, "on": True, "off": False}


def _scalar(text: str, number: int):
    tag = next((tag for tag, pattern, first in _RESOLVERS
                if text[0] in first and re.fullmatch(pattern, text)), "str")
    digits = text.lstrip("+-")
    if tag in ("str", "null", "bool"):
        return text if tag == "str" else _BOOLS.get(text.lower())  # None for a null
    if tag == "int" and digits.isdigit() and (digits == "0" or digits[0] != "0"):
        return int(text)
    if tag == "float" and "_" not in text and ":" not in text:  # not sexagesimal or with '_'
        return float(text.replace(".", "") if text[-1].isalpha() else text)  # '-.Inf' as '-Inf'
    raise Declined(_OUTSIDE.format(text, number))


def _leaf(text: str, number: int):
    """A plain scalar, or a flow sequence of them on one line, the line numbered number."""
    stack, pos, want_item, token_at = [[]], 0, True, re.compile(_TOKEN).match
    while pos < len(text):
        token = token_at(text, pos)
        if token is None:
            raise Declined(_OUTSIDE.format(text, number))
        pos, (punct, word) = token.end(), token.groups()
        if word and want_item:
            stack[-1].append(_scalar(word, number))
        elif punct == "[" and want_item:
            stack[-1].append([])
            stack.append(stack[-1][-1])
        elif punct == "]" and len(stack) > 1:  # '[]', '[1]' and '[1,]', as in PyYAML
            stack.pop()
        elif punct != "," or want_item:
            raise Declined(_OUTSIDE.format(text, number))
        want_item = punct in ("[", ",")
    if len(stack) > 1 or len(stack[0]) != 1:
        raise Declined(_OUTSIDE.format(text, number))
    return stack[0][0]


def _node(lines: list, i: int, depth: int, repeats: list):
    """The block node whose first line is lines[i], and the index of the line after it."""
    first, indent, text = lines[i]
    if text[:2] in ("-", "- "):
        sequence = []
        while i < len(lines) and lines[i][1] == indent and lines[i][2][:2] in ("-", "- "):
            number, _, text = lines[i]
            rest = text[1:].lstrip(" ")
            if rest:  # a leaf, or a compact node at the column of rest
                lines[i] = (number, indent + len(text) - len(rest), rest)
                value, i = _node(lines, i, depth + 1, repeats)
            elif i + 1 < len(lines) and lines[i + 1][1] > indent:
                value, i = _node(lines, i + 1, depth + 1, repeats)
            else:
                value, i = None, i + 1
            sequence.append(value)
        return sequence, i
    if ": " not in text + " ":
        return _leaf(text, first), i + 1
    mapping: dict = {}
    while i < len(lines) and lines[i][1] == indent:
        number, _, text = lines[i]
        key, colon, rest = (text + " ").partition(": ")
        # PyYAML's simple keys end within 1024 characters, and a flow collection is no key
        if not colon or len(key) > 1000 or key[:1] in ("[", "{"):
            raise Declined(_OUTSIDE.format(text, number))
        key, rest = _leaf(key, number), rest.strip()
        if rest:
            value, i = _leaf(rest, number), i + 1
        elif i + 1 < len(lines) and (lines[i + 1][1] > indent or lines[i + 1][1] == indent
                                     and lines[i + 1][2][:2] in ("-", "- ")):
            value, i = _node(lines, i + 1, depth + 1, repeats)  # a sequence may start at indent
        else:
            value, i = None, i + 1
        if key in mapping:  # PyYAML checks the mappings depth by depth, each in document order
            repeats.append((depth, first, number, f"repeated key {key!r} at line {number}"))
        mapping[key] = value
    return mapping, i


def load(text: str):
    """The document PyYAML's safe loader reads from text; Declined as the module docstring says."""
    lines = []
    for number, raw in enumerate(text.split("\n"), 1):
        if not (raw.isascii() and raw.isprintable()):  # tabs, '\r', control characters
            raise Declined(_OUTSIDE.format(raw, number))
        body = raw.split(" #", 1)[0].rstrip(" ")
        content = body.lstrip(" ")
        if content and content[0] != "#":
            lines.append((number, len(body) - len(content), content))
    if not lines:
        return None
    repeats: list = []
    document, end = _node(lines, 0, 0, repeats)
    if end < len(lines):
        raise Declined(_OUTSIDE.format(lines[end][2], lines[end][0]))
    if repeats:
        raise Declined(min(repeats)[3])
    return document
