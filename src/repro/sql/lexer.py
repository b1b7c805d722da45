"""Tokenizer for the spatial query language.

One compiled master pattern scans the text into :class:`Token` objects
that remember their source offset, so every later stage (parser,
binder) can anchor its errors precisely.  Keywords are
case-insensitive; identifiers keep their case and may end with ``@``
(the paper's object-identifier convention: ``id@``).  Numbers are runs
of Unicode decimal digits (``\\d``, what ``int`` reads), so ``²`` is no
digit.  Any character the grammar has no use for raises
:class:`~repro.sql.errors.ParseError` — arbitrary byte soup never
produces anything else.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple, Optional, Tuple

from repro.sql.errors import ParseError

__all__ = ["Token", "KEYWORDS", "tokenize"]

#: Reserved words (upper-cased); an identifier matching one becomes a
#: keyword token instead.
KEYWORDS = frozenset(
    {
        "SELECT",
        "DISTINCT",
        "FROM",
        "JOIN",
        "ON",
        "WHERE",
        "AND",
        "OR",
        "NOT",
        "BETWEEN",
        "CONTAINS",
        "OVERLAPS",
        "POINT",
        "BOX",
        "ORDER",
        "BY",
        "ASC",
        "DESC",
        "LIMIT",
        "EXPLAIN",
        "ANALYZE",
        "NEAREST",
        "WITHIN",
        "OF",
        "TO",
    }
)

#: One token per match, after any blanks.  ``ident`` starts on a word
#: character that is no decimal digit; the scanner refuses the few of
#: those that are not letters either (``²``, ``½``).  Multi-character
#: operators come first so ``<=`` never lexes as ``<`` ``=``; a number
#: has a fraction only when a digit follows the dot (``1.x`` is ``1``
#: ``.`` ``x``).  A string may not close right before another quote, so
#: ``'a''`` is unterminated rather than ``'a'`` and a stray quote.
#: ``bad`` is any other non-blank character, including the quote that
#: opens an unterminated string; trailing blanks match nothing.
_TOKEN = re.compile(
    r"""[ \t\r\n]*
    (?:
      (?P<ident>[^\W\d]\w*@?)
    | (?P<float>\d+\.\d+)
    | (?P<int>\d+)
    | (?P<string>'(?:[^']|'')*'(?!'))
    | (?P<op><>|!=|<=|>=|[-=<>+*(),.])
    | (?P<bad>[^ \t\r\n])
    )""",
    re.VERBOSE,
)


class Token(NamedTuple):
    """One lexeme: ``kind`` is ``kw``/``ident``/``int``/``float``/
    ``string``/``op``/``eof``; ``text`` the canonical spelling (keywords
    upper-cased, strings unquoted); ``pos`` the source offset of its
    first character."""

    kind: str
    text: str
    pos: int

    def is_kw(self, word: str) -> bool:
        return self.kind == "kw" and self.text == word


def _refuse(text: str, pos: int) -> None:
    """Raise the error a ``bad`` match, or an ident that starts on a
    non-letter, stands for."""
    if text == "'":
        raise ParseError("unterminated string literal", pos)
    raise ParseError(f"unexpected character {text[0]!r}", pos)


def tokenize(source: str) -> List[Token]:
    """Scan ``source`` into tokens (terminated by one ``eof`` token).

    >>> [t.text for t in tokenize("SELECT x FROM t")][:4]
    ['SELECT', 'x', 'FROM', 't']
    """
    if not isinstance(source, str):
        raise ParseError("statement must be a string", 0)
    tokens: List[Token] = []
    for match in _TOKEN.finditer(source):
        kind = match.lastgroup
        text = match.group(kind)
        pos = match.start(kind)
        if kind == "ident":
            if not (text[0].isalpha() or text[0] == "_"):
                _refuse(text, pos)
            upper = text.upper()
            if upper in KEYWORDS:
                kind, text = "kw", upper
        elif kind == "string":
            text = text[1:-1].replace("''", "'")
        elif kind == "bad":
            _refuse(text, pos)
        tokens.append(Token(kind, text, pos))
    tokens.append(Token("eof", "", len(source)))
    return tokens


def shape(source: str) -> Optional[Tuple[Tuple[str, ...], List[object]]]:
    """``(key, values)`` of a statement, or ``None`` when ``source``
    does not tokenize (whose error :func:`tokenize` then raises).

    ``key`` is the token texts with each literal replaced by a marker
    of its kind (``#int``, ``#float``, ``#string``: no token spells
    one); ``values`` the literals' values in text order.  Statements
    with one key parse and bind alike but for their literals.

    >>> shape("select x from t where x > 12")
    (('SELECT', 'x', 'FROM', 't', 'WHERE', 'x', '>', '#int'), [12])
    """
    if not isinstance(source, str):
        return None
    key: List[str] = []
    values: List[object] = []
    try:
        for match in _TOKEN.finditer(source):
            kind = match.lastgroup
            text = match.group(kind)
            if kind == "ident":
                if not (text[0].isalpha() or text[0] == "_"):
                    return None
                upper = text.upper()
                key.append(upper if upper in KEYWORDS else text)
            elif kind == "op":
                key.append(text)
            elif kind == "int":
                key.append("#int")
                values.append(int(text))
            elif kind == "float":
                key.append("#float")
                values.append(float(text))
            elif kind == "string":
                key.append("#string")
                values.append(text[1:-1].replace("''", "'"))
            else:
                return None
    except ValueError:
        # int() refuses more than sys.get_int_max_str_digits() digits;
        # the parser raises that ValueError itself.
        return None
    return tuple(key), values
