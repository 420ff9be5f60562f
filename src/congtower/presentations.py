"""Finitely presented groups: words, the presentation file grammar, and
Tietze simplification.

Words are tuples of nonzero ints: +k is generator k-1, -k its inverse.

File grammar (whitespace-insensitive, '#' comments):

    gens a, b, u, j;
    rels (a*b)^3*j^-1, b^2*j^-1, j^2, [a,u], ...;

word := factor {'*' factor}
factor := name ['^' int] | '(' word ')' ['^' int] | '[' word ',' word ']'

Lines of the form '# provenance: ...' are collected into the presentation's
provenance field (required for ingested presentations that are not bundled).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import InputError
from . import intmat

# Longest word a presentation text may expand to, and the longest total of
# its relators.  Powers, commutators and products are checked before they
# are built, so a short text cannot make the parser build a huge word.
MAX_WORD_LENGTH = 100_000
# Deepest nesting of brackets, ( ) and [ ], in a word.  The parser recurses
# once per level, so a text nested past it is refused, not overflowed.
MAX_NESTING = 100


# ---------------------------------------------------------------------------
# words


def free_reduce(word):
    out = []
    for letter in word:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def cyclic_reduce(word):
    word = list(free_reduce(word))
    while len(word) >= 2 and word[0] == -word[-1]:
        word = word[1:-1]
    return tuple(word)


def inverse_word(word):
    return tuple(-l for l in reversed(word))


def word_pow(word, k):
    if k < 0:
        return inverse_word(word) * (-k)
    return tuple(word) * k


def commutator(x, y):
    return tuple(x) + tuple(y) + inverse_word(x) + inverse_word(y)


# ---------------------------------------------------------------------------
# presentations


@dataclass(frozen=True)
class Presentation:
    generators: tuple
    relators: tuple
    provenance: str = ""

    def __post_init__(self):
        ngens = len(self.generators)
        for rel in self.relators:
            for letter in rel:
                if letter == 0 or abs(letter) > ngens:
                    raise InputError("relator letter %d out of range" % letter)
            if free_reduce(rel) != tuple(rel):
                raise InputError("relator %r is not freely reduced" % (rel,))

    @property
    def ngens(self):
        return len(self.generators)

    def relation_matrix(self):
        """One sparse row per relator: {generator index: exponent sum},
        zero sums left out."""
        rows = []
        for rel in self.relators:
            row = {}
            for letter in rel:
                j = abs(letter) - 1
                row[j] = row.get(j, 0) + (1 if letter > 0 else -1)
            rows.append({j: v for j, v in row.items() if v})
        return rows

    def abelianization(self):
        return intmat.abelian_invariants(self.relation_matrix(), self.ngens)


# ---------------------------------------------------------------------------
# parser


class _Tokens:
    def __init__(self, text):
        self.text = text
        self.tokens = []
        self._tokenize()
        self.idx = 0

    def _tokenize(self):
        text = self.text
        i = 0
        n = len(text)
        while i < n:
            ch = text[i]
            if ch == "#":
                while i < n and text[i] != "\n":
                    i += 1
                continue
            if ch.isspace():
                i += 1
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.tokens.append((text[i:j], i))
                i = j
                continue
            if ch.isdigit() or (ch == "-" and i + 1 < n and text[i + 1].isdigit()):
                j = i + 1
                while j < n and text[j].isdigit():
                    j += 1
                self.tokens.append((text[i:j], i))
                i = j
                continue
            if ch in "()[]^*,;":
                self.tokens.append((ch, i))
                i += 1
                continue
            raise InputError("unexpected character %r at offset %d" % (ch, i))

    def peek(self):
        return self.tokens[self.idx][0] if self.idx < len(self.tokens) else None

    def next(self):
        if self.idx >= len(self.tokens):
            raise InputError("unexpected end of input")
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect(self, what):
        tok, pos = self.next()
        if tok != what:
            raise InputError("expected %r at offset %d, found %r" % (what, pos, tok))
        return tok

    def error(self, msg):
        pos = self.tokens[self.idx][1] if self.idx < len(self.tokens) else len(self.text)
        raise InputError("%s at offset %d" % (msg, pos))


def _collect_provenance(text):
    lines = []
    for ln in text.splitlines():
        stripped = ln.strip()
        if stripped.startswith("#"):
            body = stripped.lstrip("#").strip()
            if body.lower().startswith("provenance:"):
                lines.append(body[len("provenance:"):].strip())
    return "\n".join(lines)


def _check_length(length, pos):
    if length > MAX_WORD_LENGTH:
        raise InputError(
            "word of %d letters exceeds the limit of %d at offset %d"
            % (length, MAX_WORD_LENGTH, pos))


def parse_presentation(text):
    toks = _Tokens(text)
    toks.expect("gens")
    names = []
    while True:
        tok, pos = toks.next()
        if not (tok[0].isalpha() or tok[0] == "_"):
            raise InputError("bad generator name %r at offset %d" % (tok, pos))
        if tok in names:
            raise InputError("duplicate generator %r at offset %d" % (tok, pos))
        names.append(tok)
        nxt = toks.peek()
        if nxt == ",":
            toks.next()
            continue
        toks.expect(";")
        break
    index = {nm: k + 1 for k, nm in enumerate(names)}

    def parse_word(depth):
        word = list(parse_factor(depth))
        while toks.peek() == "*":
            _, pos = toks.next()
            factor = parse_factor(depth)
            _check_length(len(word) + len(factor), pos)
            word.extend(factor)
        return tuple(word)

    def parse_factor(depth):
        tok = toks.peek()
        if tok in ("(", "[") and depth == MAX_NESTING:
            toks.error("brackets nested deeper than %d" % MAX_NESTING)
        if tok == "(":
            toks.next()
            inner = parse_word(depth + 1)
            toks.expect(")")
            return _maybe_power(inner)
        if tok == "[":
            _, pos = toks.next()
            x = parse_word(depth + 1)
            toks.expect(",")
            y = parse_word(depth + 1)
            toks.expect("]")
            _check_length(2 * (len(x) + len(y)), pos)
            return _maybe_power(commutator(x, y))
        tok, pos = toks.next()
        if tok in index:
            return _maybe_power((index[tok],))
        raise InputError("unknown generator %r at offset %d" % (tok, pos))

    def _maybe_power(word):
        if toks.peek() == "^":
            toks.next()
            tok, pos = toks.next()
            try:
                k = int(tok)
            except ValueError:
                raise InputError("bad exponent %r at offset %d" % (tok, pos))
            _check_length(len(word) * abs(k), pos)
            return word_pow(word, k)
        return word

    relators = []
    if toks.peek() == "rels":
        toks.next()
        if toks.peek() == ";":
            toks.next()
        else:
            total = 0
            while True:
                relators.append(free_reduce(parse_word(0)))
                total += len(relators[-1])
                if total > MAX_WORD_LENGTH:
                    toks.error("relators total more than %d letters"
                               % MAX_WORD_LENGTH)
                if toks.peek() == ",":
                    toks.next()
                    continue
                toks.expect(";")
                break
    if toks.peek() is not None:
        toks.error("trailing input")
    relators = [r for r in relators if r]
    return Presentation(tuple(names), tuple(relators),
                        provenance=_collect_provenance(text))


def load_presentation(path):
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InputError("%s is not UTF-8 text: %s" % (path, exc)) from None
    return parse_presentation(text)


# ---------------------------------------------------------------------------
# Tietze simplification


def _canonical_cyclic(word):
    """Representative of a relator up to rotation and inversion (for dedupe)."""
    return min(w[i:] + w[:i] for w in (tuple(word), inverse_word(word))
               for i in range(len(w)))


def _normalize(relators, keys):
    """Cyclically reduced, deduplicated up to rotation and inversion, and
    sorted; `keys` caches each relator's key across the passes of one
    simplification."""
    seen = {}
    for rel in relators:
        rel = cyclic_reduce(rel)
        if not rel:
            continue
        key = keys.get(rel)
        if key is None:
            key = keys[rel] = _canonical_cyclic(rel)
        if key not in seen:
            seen[key] = rel
    return sorted(seen.values(), key=lambda w: (len(w), w))


def tietze_simplify(pres):
    """Simplify by generator elimination only.

    Each pass solves a relator for a generator that occurs once in it and
    substitutes the solution into the other relators, choosing the least
    change in total relator length (ties to the earliest relator in sorted
    order).  These are Tietze moves, so the group is unchanged up to
    isomorphism, and the total length never increases.  Each pass
    eliminates one generator or stops, so there are at most `ngens` passes.
    Generator ids stay fixed through the passes; the survivors are
    renumbered once at the end, in their original order.
    """
    keys = {}
    relators = _normalize(pres.relators, keys)
    eliminated = set()
    for _ in range(pres.ngens):
        # find the cheapest single-occurrence elimination
        total_occ = Counter(abs(letter) for rel in relators for letter in rel)
        best = None
        for idx, rel in enumerate(relators):
            length = len(rel)
            counts = {}
            for letter in rel:
                counts[abs(letter)] = counts.get(abs(letter), 0) + 1
            for g, cnt in counts.items():
                if cnt == 1:
                    delta = (total_occ[g] - 1) * (length - 2) - length
                    if delta <= 0 and (best is None or delta < best[0]):
                        best = (delta, idx, g)
        if best is None:
            break
        _, idx, g = best
        rel = relators[idx]
        pos = next(i for i, letter in enumerate(rel) if abs(letter) == g)
        # rotate so the g-letter is first, then  g = (rest)^-1  or  g^-1 = rest
        rot = rel[pos:] + rel[:pos]
        replacement = inverse_word(rot[1:]) if rot[0] == g else rot[1:]
        inverse = inverse_word(replacement)
        out = []
        for i, r in enumerate(relators):
            if i == idx:
                continue
            if g in r or -g in r:
                new = []
                for letter in r:
                    if letter == g:
                        new.extend(replacement)
                    elif letter == -g:
                        new.extend(inverse)
                    else:
                        new.append(letter)
                r = free_reduce(tuple(new))
            out.append(r)
        eliminated.add(g)
        relators = _normalize(out, keys)
    # the renumbering keeps the order of the ids, so it keeps the order of
    # the relators too
    kept = [k for k in range(1, pres.ngens + 1) if k not in eliminated]
    renumber = {k: i for i, k in enumerate(kept, start=1)}
    relators = [tuple(renumber[letter] if letter > 0 else -renumber[-letter]
                      for letter in r) for r in relators]
    return Presentation(tuple(pres.generators[k - 1] for k in kept),
                        tuple(relators), provenance=pres.provenance)


__all__ = [
    "Presentation", "parse_presentation", "load_presentation",
    "tietze_simplify", "free_reduce", "cyclic_reduce", "inverse_word",
    "word_pow", "commutator", "MAX_WORD_LENGTH", "MAX_NESTING",
]
