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

from dataclasses import dataclass

from .errors import InputError
from . import intmat

# Longest word a presentation text may expand to, and the longest total of
# its relators.  Powers, commutators and products are checked before they
# are built, so a short text cannot make the parser build a huge word.
MAX_WORD_LENGTH = 100_000


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


def word_to_string(word, names):
    if not word:
        return "1"
    bits = []
    i = 0
    while i < len(word):
        letter = word[i]
        j = i
        while j < len(word) and word[j] == letter:
            j += 1
        count = j - i
        name = names[abs(letter) - 1]
        exp = count if letter > 0 else -count
        bits.append(name if exp == 1 else "%s^%d" % (name, exp))
        i = j
    return "*".join(bits)


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

    def total_length(self):
        return sum(len(r) for r in self.relators)

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

    def to_text(self):
        lines = []
        if self.provenance:
            for ln in self.provenance.split("\n"):
                lines.append("# provenance: %s" % ln)
        lines.append("gens %s;" % ", ".join(self.generators))
        rels = ", ".join(word_to_string(r, self.generators) for r in self.relators)
        lines.append("rels %s;" % rels)
        return "\n".join(lines) + "\n"

    def __str__(self):
        return "<%s | %d relators, total length %d>" % (
            ", ".join(self.generators), len(self.relators), self.total_length())


# ---------------------------------------------------------------------------
# parser


class _Tokens:
    def __init__(self, text):
        self.text = text
        self.pos = 0
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

    def parse_word():
        word = list(parse_factor())
        while toks.peek() == "*":
            _, pos = toks.next()
            factor = parse_factor()
            _check_length(len(word) + len(factor), pos)
            word.extend(factor)
        return tuple(word)

    def parse_factor():
        tok = toks.peek()
        if tok == "(":
            toks.next()
            inner = parse_word()
            toks.expect(")")
            return _maybe_power(inner)
        if tok == "[":
            _, pos = toks.next()
            x = parse_word()
            toks.expect(",")
            y = parse_word()
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
                relators.append(free_reduce(parse_word()))
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
    def rotations(w):
        return [w[i:] + w[:i] for i in range(len(w))] or [w]
    cands = rotations(tuple(word)) + rotations(inverse_word(word))
    return min(cands)


def _normalize(relators):
    seen = {}
    for rel in relators:
        rel = cyclic_reduce(rel)
        if not rel:
            continue
        key = _canonical_cyclic(rel)
        if key not in seen:
            seen[key] = rel
    return sorted(seen.values(), key=lambda w: (len(w), w))


def _substring_shorten(relators):
    """Use short relators to shorten longer ones: if a relator r shares a
    cyclic subword with s (or s^-1) longer than |s|/2, rewrite r through s."""
    changed = True
    while changed:
        changed = False
        relators = _normalize(relators)
        for si, s in enumerate(relators):
            ls = len(s)
            tmin = ls // 2 + 1
            lookup = {}
            for variant in (s, inverse_word(s)):
                doubled = variant + variant
                for start in range(ls):
                    chunk = doubled[start:start + tmin]
                    if len(chunk) == tmin:
                        lookup.setdefault(chunk, (variant, start))
            for ri in range(len(relators)):
                if ri == si:
                    continue
                r = relators[ri]
                if len(r) < tmin:
                    continue
                hit = None
                for start in range(len(r) - tmin + 1):
                    chunk = r[start:start + tmin]
                    if chunk in lookup:
                        variant, spos = lookup[chunk]
                        # grow the match greedily
                        doubled = variant + variant
                        t = tmin
                        while (start + t < len(r) and t < ls
                               and r[start + t] == doubled[spos + t]):
                            t += 1
                        hit = (start, t, variant, spos)
                        break
                if hit is None:
                    continue
                start, t, variant, spos = hit
                if 2 * t <= ls:
                    continue
                doubled = variant + variant
                # replace w by (complement)^-1 where variant = w * complement
                complement = doubled[spos + t: spos + ls]
                replacement = inverse_word(complement)
                new_r = free_reduce(r[:start] + replacement + r[start + t:])
                if len(new_r) < len(r):
                    relators[ri] = new_r
                    changed = True
        if changed:
            relators = _normalize(relators)
    return relators


def tietze_simplify(pres, max_passes=None):
    """Simplify by generator elimination and relator rewriting.

    Only Tietze moves are applied, so the group is unchanged up to
    isomorphism; the total relator length never increases.  Each pass
    eliminates at most one generator, so the default pass budget is the
    generator count (plus one stabilization pass).
    """
    if max_passes is None:
        max_passes = pres.ngens + 1
    names = list(pres.generators)
    relators = _normalize(list(pres.relators))
    shorten_due = True
    for _ in range(max_passes):
        # find the cheapest single-occurrence elimination
        total_occ = {}
        for rel in relators:
            for letter in rel:
                g = abs(letter)
                total_occ[g] = total_occ.get(g, 0) + 1
        best = None
        for idx, rel in enumerate(relators):
            length = len(rel)
            counts = {}
            for letter in rel:
                counts[abs(letter)] = counts.get(abs(letter), 0) + 1
            for g, cnt in counts.items():
                if cnt != 1:
                    continue
                m = total_occ[g] - 1
                delta = m * (length - 2) - length
                if delta <= 0 and (best is None or delta < best[0]):
                    best = (delta, idx, g)
        if best is None:
            # no elimination available: try relator shortening once, which
            # may unlock further eliminations
            if not shorten_due:
                break
            shortened = _substring_shorten(relators)
            shorten_due = False
            if sum(map(len, shortened)) == sum(map(len, relators)):
                break
            relators = shortened
            continue
        shorten_due = True
        _, idx, g = best
        rel = relators[idx]
        pos = next(i for i, letter in enumerate(rel) if abs(letter) == g)
        # rotate so the g-letter is first, then  g = (rest)^-1  or  g^-1 = rest
        rot = rel[pos:] + rel[:pos]
        if rot[0] == g:
            replacement = inverse_word(rot[1:])
        else:
            replacement = rot[1:]
        out = []
        for i, r in enumerate(relators):
            if i == idx:
                continue
            new = []
            for letter in r:
                if letter == g:
                    new.extend(replacement)
                elif letter == -g:
                    new.extend(inverse_word(replacement))
                else:
                    new.append(letter)
            out.append(free_reduce(tuple(new)))
        # drop the generator, remap letters
        remap = {}
        new_names = []
        for k, nm in enumerate(names, start=1):
            if k == g:
                continue
            remap[k] = len(new_names) + 1
            new_names.append(nm)
        remapped = []
        for r in out:
            remapped.append(tuple(
                remap[letter] if letter > 0 else -remap[-letter] for letter in r))
        names = new_names
        relators = _normalize(remapped)
    return Presentation(tuple(names), tuple(relators), provenance=pres.provenance)


__all__ = [
    "Presentation", "parse_presentation", "load_presentation",
    "tietze_simplify", "free_reduce", "cyclic_reduce", "inverse_word",
    "word_pow", "commutator", "word_to_string", "MAX_WORD_LENGTH",
]
