"""Parsing of presentation files and noncommutative polynomial strings.

Grammar (whitespace-insensitive within a line, ``#`` comments):

    file        := line*
    line        := "field" FIELD | "vars" namelist | "rel" ncpoly
                 | "skew" (followed by n lines of n nonzero [sign] RATIONAL)
    FIELD       := "QQ" | prime
    namelist    := NAME ("," NAME | NAME)*
    ncpoly      := [sign] term (sign term)*
    term        := factor ("*" factor)*        -- juxtaposition is forbidden
    factor      := RATIONAL | NAME ["^" NAT]
    RATIONAL    := DIGITS ["/" DIGITS]         -- also a --point coordinate

Relations must be homogeneous of degree 2.  Errors carry line and column.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .algebra import QuadraticPresentation, skew_relations
from .scalars import field_descriptor, field_from_descriptor


class ParseError(ValueError):
    def __init__(self, message, line=None, col=None):
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", column {col}"
                                          if col is not None else "")
        super().__init__(message + where)
        self.line = line
        self.col = col


_RATIONAL = r"\d+(?:/\d+)?"
_TOKEN = re.compile(rf"\s*(?:(?P<num>{_RATIONAL})|(?P<name>[A-Za-z_]\w*)"
                    r"|(?P<op>[-+*^]))")
_SIGNED_RATIONAL = re.compile(rf"[-+]?{_RATIONAL}")


def parse_rational(text, line=None, col=None):
    """An optionally signed RATIONAL of the grammar (digits, or digits/
    digits) as a Fraction: a number token, a skew entry or a ``--point``
    coordinate.  Anything else, an exponent, a decimal point or a digit
    separator among it, is a ParseError."""
    text = text.strip()
    if not _SIGNED_RATIONAL.fullmatch(text):
        raise ParseError(f"bad rational {text[:40]!r}", line, col)
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ParseError("zero denominator", line, col) from None
    except ValueError:
        raise ParseError("number too long", line, col) from None


def _tokenize(text, line=None):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ParseError(f"unexpected character {rest[0]!r}", line,
                             pos + 1)
        if m.group("num"):
            value = parse_rational(m.group("num"), line, m.start() + 1)
            out.append(("num", value, m.start() + 1))
        elif m.group("name"):
            out.append(("name", m.group("name"), m.start() + 1))
        else:
            out.append(("op", m.group("op"), m.start() + 1))
        pos = m.end()
    return out


def parse_nc_terms(text, names, field, line=None, max_degree=None):
    """Noncommutative polynomial string -> {word tuple: scalar}.

    A term of degree above ``max_degree`` is an error, found before its word
    is built (``x^999999999`` never becomes a word of that length).
    """
    tokens = _tokenize(text, line)
    if not tokens:
        raise ParseError("empty polynomial", line)
    index = {nm: i for i, nm in enumerate(names)}
    terms = {}
    pos = 0

    def fail(msg, tok=None):
        raise ParseError(msg, line, tok[2] if tok else None)

    while pos < len(tokens):
        sign = 1
        while pos < len(tokens) and tokens[pos][0] == "op" \
                and tokens[pos][1] in "+-":
            if tokens[pos][1] == "-":
                sign = -sign
            pos += 1
        if pos >= len(tokens):
            fail("dangling sign")
        term_tok = tokens[pos]
        coeff = Fraction(sign)
        word = []
        expect_factor = True
        while pos < len(tokens):
            kind, val, col = tokens[pos]
            if expect_factor:
                if kind == "num":
                    coeff *= val
                    pos += 1
                elif kind == "name":
                    if val not in index:
                        fail(f"unknown generator {val!r}", tokens[pos])
                    letter = index[val]
                    power = 1
                    pos += 1
                    if pos < len(tokens) and tokens[pos][:2] == ("op", "^"):
                        pos += 1
                        if pos >= len(tokens) or tokens[pos][0] != "num" \
                                or tokens[pos][1].denominator != 1:
                            fail("expected an integer exponent",
                                 tokens[pos - 1])
                        power = int(tokens[pos][1])
                        if power < 0:
                            fail("negative exponent", tokens[pos])
                        pos += 1
                    if max_degree is not None \
                            and len(word) + power > max_degree:
                        fail(f"term has degree {len(word) + power}, above "
                             f"the maximum {max_degree}", term_tok)
                    word.extend([letter] * power)
                else:
                    fail(f"expected a factor, found {val!r}", tokens[pos])
                expect_factor = False
            else:
                if kind == "op" and val == "*":
                    pos += 1
                    expect_factor = True
                elif kind == "op" and val in "+-":
                    break
                else:
                    fail("juxtaposition is forbidden; use explicit '*'",
                         tokens[pos])
        if expect_factor:
            fail("term ends with '*'")
        w = tuple(word)
        try:
            acc = terms.get(w, field.zero) + field(coeff)
        except ZeroDivisionError:
            fail(f"coefficient {coeff} has a denominator divisible by "
                 f"{field.characteristic}", term_tok)
        if acc:
            terms[w] = acc
        else:
            terms.pop(w, None)
    return terms


def parse_relation(text, names, field, line=None):
    """A degree-2 relation string -> tensor dict {(u, v): scalar}."""
    terms = parse_nc_terms(text, names, field, line, max_degree=2)
    rel = {}
    for word, coeff in terms.items():
        if len(word) != 2:
            raise ParseError(
                f"relation term {_pretty(word, names)} has degree "
                f"{len(word)}, not 2", line)
        rel[(word[0], word[1])] = coeff
    if not rel:
        raise ParseError("relation is zero", line)
    return rel


def _pretty(word, names):
    return "*".join(names[i] for i in word) or "1"


def parse_element(presentation, text, expect_degree=None, line=None):
    """Parse an element string and project to the canonical basis."""
    terms = parse_nc_terms(text, presentation.names, presentation.field,
                           line, max_degree=presentation.degree_cap)
    degrees = {len(w) for w in terms}
    if len(degrees) > 1:
        raise ParseError(f"element is not homogeneous: degrees {sorted(degrees)}",
                         line)
    degree = degrees.pop() if degrees else (expect_degree or 0)
    if expect_degree is not None and terms and degree != expect_degree:
        raise ParseError(f"element has degree {degree}, "
                         f"expected {expect_degree}", line)
    return presentation.from_word_coeffs(degree, terms)


def parse_presentation_text(text, degree_cap=None):
    """Parse a presentation file body into a QuadraticPresentation."""
    field = None
    names = None
    rel_lines = []
    skew_at = None
    lines = text.splitlines()
    i = 0
    skew_rows = None
    while i < len(lines):
        raw = lines[i]
        line_no = i + 1
        line = raw.split("#", 1)[0].strip()
        i += 1
        if not line:
            continue
        head, _, rest = line.partition(" ")
        head = head.lower()
        if head == "field":
            if not rest.strip():
                raise ParseError("field needs a value (QQ or a prime)",
                                 line_no)
            try:
                field = field_from_descriptor(rest.strip())
            except ValueError as exc:
                raise ParseError(str(exc), line_no) from None
        elif head == "vars":
            if names is not None:
                raise ParseError("vars given twice", line_no)
            names = tuple(n for n in re.split(r"[,\s]+", rest.strip()) if n)
            if not names:
                raise ParseError("vars needs at least one name", line_no)
            for n in names:
                if not re.fullmatch(r"[A-Za-z_]\w*", n):
                    raise ParseError(f"bad variable name {n!r}", line_no)
            if len(set(names)) != len(names):
                raise ParseError("duplicate variable name", line_no)
        elif head == "rel":
            rel_lines.append((rest, line_no))
        elif head == "skew":
            if names is None:
                raise ParseError("skew must come after vars", line_no)
            skew_at = line_no
            skew_rows = []
            n = len(names)
            while len(skew_rows) < n and i < len(lines):
                row_line = lines[i].split("#", 1)[0].strip()
                row_no = i + 1
                i += 1
                if not row_line:
                    continue
                entries = row_line.split()
                if len(entries) != n:
                    raise ParseError(
                        f"skew row has {len(entries)} entries, needs {n}",
                        row_no)
                skew_rows.append([parse_rational(e, row_no)
                                  for e in entries])
            if len(skew_rows) != n:
                raise ParseError("skew matrix ended early", skew_at)
        else:
            raise ParseError(f"unknown directive {head!r}", line_no)
    if field is None:
        field = field_from_descriptor("QQ")
    if names is None:
        raise ParseError("missing vars line")
    relations = []
    if skew_rows is not None:
        try:
            relations = skew_relations(field, skew_rows)
        except ZeroDivisionError:
            raise ParseError("skew entry has a denominator divisible by "
                             f"{field.characteristic}", skew_at) from None
        except ValueError as exc:
            raise ParseError(str(exc), skew_at) from None
    for text_rel, line_no in rel_lines:
        relations.append(parse_relation(text_rel, names, field, line_no))
    return QuadraticPresentation.create(field, names, relations,
                                        degree_cap=degree_cap)


def parse_presentation_file(path, degree_cap=None):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_presentation_text(fh.read(), degree_cap=degree_cap)


def presentation_to_text(pres):
    """Render a presentation back to the file format (canonical relations)."""
    from .serialize import render_tensor_relation
    lines = [f"field {field_descriptor(pres.field)}",
             "vars " + ", ".join(pres.names)]
    for row in pres.rel_rows:
        lines.append("rel " + render_tensor_relation(pres, row))
    return "\n".join(lines) + "\n"
