"""Noncommutative polynomials over Q(q) with rewriting to normal form.

Words are tuples of letter ids (indices into an Alphabet); a FreeElement is
a sparse map word -> RatQ with zero coefficients pruned.  The engine
has one monomial order, longer words above shorter and equal lengths by
their letter tuples (`_deglex`), and supplies reduction modulo a rewrite
system, degree-truncated completion of homogeneous relation systems
(overlap ambiguities resolved up to a validity degree, which is sound for
homogeneous two-sided ideals; with no live overlap pending it is complete
in every degree by Bergman's diamond lemma), and graded dimension counting:
normal words are paths in Ufnarovski's graph of the leads, counted by DP
over their last m-1 letters (m the longest lead length; they decide every
extension).  Leads are installed in nondecreasing length, so no new lead
lies inside an old one and each names its rule for good (see TruncatedGB);
a new lead's overlaps come from prefix and suffix indexes of the leads.  An
overlap abc of q-commuting letters (every pair among a, b, c a swap to the
other order with one coefficient, or a square rewritten to zero), or whose
end letter moves past the other lead and its tail by swaps, is resolvable
by the diamond lemma and is dropped with no reduction.  A relation with no
word holding a live lead is its own normal form and is installed unreduced.

Exact linear algebra over Q(q) (echelon spans, annihilators, RREF) lives
here too, since rank computations back both the dimension oracle and the
relation-space calculus.

So does the sparse-sum arithmetic every combination type shares.  `_Sum`
holds the term dict, its context and the linear structure (sum, difference,
negation, scaling, equality, hashing) of FreeElement here, UqElement and
TensorSquare in uqsl and OqElement in oq; each adds its product and
rendering.  `_acc` adds a term to a coefficient dict and prunes zeros, and
`_term` and `_signed_sum` print one (UqElement and OqElement as FreeElement
does; TensorSquare joins its `_term`s with '  +  ').
"""

from __future__ import annotations

import heapq
from typing import NamedTuple

from qflag.scalars import ONE, ZERO, RatQ

Word = tuple  # tuple[int, ...]


def _acc(d: dict, key, c: RatQ):
    """d[key] += c, keeping only nonzero coefficients.  c is a RatQ at every
    call site, so a zero is an empty numerator tuple."""
    if not c.num:
        return
    s = d.get(key)
    s = c if s is None else s + c
    if s.num:
        d[key] = s
    else:
        del d[key]


def _term(c: RatQ, mono: str) -> str:
    """One rendered term c*mono: a unit monomial shows the bare coefficient,
    a coefficient of +-1 the bare monomial, and a coefficient with an inner
    sign or a fraction bar is parenthesised."""
    cs = str(c)
    if mono == "1":
        return cs
    if cs == "1":
        return mono
    if cs == "-1":
        return f"-{mono}"
    if any(s in cs[1:] for s in "+-") or "/" in cs:
        cs = f"({cs})"
    return f"{cs}*{mono}"


def _signed_sum(terms) -> str:
    """Rendered terms joined as 'a + b - c' (a term's leading minus becomes
    the joining sign); '0' when there are none."""
    parts = []
    for t in terms:
        if not parts:
            parts.append(t)
        else:
            parts.append(f"- {t[1:]}" if t.startswith("-") else f"+ {t}")
    return " ".join(parts) or "0"


class Alphabet:
    """Ordered generator set; position in `labels` is the letter id.

    Each generator carries a weight vector (the root-lattice grading) and
    total degree 1.
    """

    __slots__ = ("labels", "weights")

    def __init__(self, labels: tuple[str, ...], weights: tuple[tuple[int, ...], ...]):
        if len(set(labels)) != len(labels):
            raise ValueError("alphabet labels must be distinct")
        if len(weights) != len(labels):
            raise ValueError("one weight vector per label")
        self.labels, self.weights = labels, weights

    @property
    def size(self) -> int:
        return len(self.labels)

    def word_weight(self, word: Word) -> tuple[int, ...]:
        if not self.weights:
            return ()
        acc = [0] * len(self.weights[0])
        for g in word:
            for i, x in enumerate(self.weights[g]):
                acc[i] += x
        return tuple(acc)

    def word_str(self, word: Word) -> str:
        return "".join(self.labels[g] for g in word) if word else "1"


def _deglex(word: Word):
    """The one monomial order's key: length, then the letter tuple (letter g below g + 1)."""
    return len(word), word


class _Sum:
    """Sparse linear combination: `terms` maps a key to a nonzero RatQ.

    Subclasses name in `_context` the attributes that place a sum (an
    algebra, a rank, or none): `_like(terms)` copies them onto a new sum of
    the same type with those terms, already pruned, and equality compares
    them besides the terms."""

    __slots__ = ("terms",)
    _context: tuple[str, ...] = ()

    def _like(self, terms: dict):
        out = object.__new__(type(self))
        for a in self._context:
            setattr(out, a, getattr(self, a))
        out.terms = terms
        return out

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and all(getattr(self, a) == getattr(other, a) for a in self._context)
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            _acc(out, k, c)
        return self._like(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            _acc(out, k, -c)
        return self._like(out)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def scale(self, c):
        c = c if isinstance(c, RatQ) else RatQ(c)
        return self._like({k: c * x for k, x in self.terms.items()} if c else {})

    def __rmul__(self, c):
        if isinstance(c, (RatQ, int)):
            return self.scale(c)
        return NotImplemented


class FreeElement(_Sum):
    """Sparse noncommutative polynomial; terms: dict word -> RatQ."""

    __slots__ = ()

    def __init__(self, terms=None):
        self.terms: dict[Word, RatQ] = {}
        if terms:
            for w, c in dict(terms).items():
                if c:
                    self.terms[tuple(w)] = c

    @staticmethod
    def monomial(word: Word, coeff: RatQ = ONE) -> "FreeElement":
        e = FreeElement()
        if coeff:
            e.terms[tuple(word)] = coeff
        return e

    def __mul__(self, other):
        out: dict[Word, RatQ] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                _acc(out, w1 + w2, c1 * c2)
        return self._like(out)

    def lead(self) -> Word:
        return max(self.terms, key=_deglex)

    def is_homogeneous(self, alphabet: Alphabet):
        if len({tuple(sorted(w)) for w in self.terms}) <= 1:  # rearrangements of one word
            return True
        degs = {len(w) for w in self.terms}
        wts = {alphabet.word_weight(w) for w in self.terms}
        return len(degs) <= 1 and len(wts) <= 1

    def render(self, alphabet: Alphabet) -> str:
        words = sorted(self.terms, key=_deglex, reverse=True)
        return _signed_sum(_term(self.terms[w], alphabet.word_str(w)) for w in words)

    def __repr__(self):
        return f"FreeElement({self.terms!r})"


class TruncatedGB:
    """A reduction system valid up to `valid_degree`: every overlap
    ambiguity whose resolution lives in degree <= valid_degree reduces to
    zero.  For homogeneous ideals this decides ideal membership exactly in
    degrees <= valid_degree.  Extendable on demand, and complete in every
    degree once `settled`, when its queries answer at every degree.

    `rules` maps each lead to its tail, in insertion order.  Leads are
    installed in nondecreasing length (`_index` refuses a shorter one):
    `complete_truncated` installs its relations by degree, resolving the
    overlaps below each first, and an overlap, popped in degree order,
    yields a lead of its degree.  `_insert` reduces before it installs, so
    a new lead holds no lead, and being no shorter it lies inside none: no
    inclusion ambiguity arises, and a lead names its rule for good.
    Pending overlaps are (degree, lead, lead, word), found through indexes
    of the leads' proper prefixes and suffixes.  In the valid degrees the
    leads are the ideal's minimal leading words whatever order the
    overlaps resolve in, so normal forms and counts do not move.

    An overlap abc of two length-2 leads is dropped unreduced
    (`_commuting_overlap`) when (1) every pair among a, b, c has a swap rule
    xy -> c yx (yx no lead) or a square xx -> 0: live leads contain none of
    each other, so a word over a, b, c reduces along any path to 0 or to its
    sorted arrangement times its inversions' coefficients; or (2) an end
    letter is q-central for the other lead (`_central`).  Case A: z moves
    left past x, y and both letters of each tail word uv of xy by swaps
    wz -> l_w zw, no tail word is a lead, and l_u l_v = l_x l_y.  `reduce`
    rewrites the first window holding a lead, so sum t_uv uvz goes through
    uzv to sum t_uv l_u l_v zuv, and x l_y zy to l_x l_y zxy, whose first
    window zx is no lead, then to l_x l_y sum t_uv zuv.  Case B mirrors it:
    x moves right past y, z and the letters of yz's tail words.  Both sides
    agree, so the ambiguity is resolvable (Bergman's diamond lemma, 1978)
    and would install no rule: rules, order and counts are the generic
    completion's.  The swap table `_swaps` reads only length-2 rules, so it
    is built on the first overlap and dropped only by a length-2 install.
    `reduce` rewrites only words holding a live lead, so `_orient` skips it
    when none does."""

    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet
        self.rules: dict[Word, FreeElement] = {}  # lead -> tail, every tail word below the lead
        self._pending: list[tuple[int, Word, Word, Word]] = []
        self.valid_degree = 0
        self._lengths: list[int] = []  # distinct lead lengths, ascending
        self._prefixes: dict[Word, set[Word]] = {}
        self._suffixes: dict[Word, set[Word]] = {}
        self._swaps: dict[tuple[int, int], RatQ] | None = None  # built by _commuting_overlap

    def _index(self, lead: Word):
        """Add lead to the prefix/suffix indexes and `_lengths`, refusing one
        shorter than a live lead; a length-2 lead empties `_swaps`."""
        n, top = len(lead), (self._lengths or [0])[-1]
        if n < top:
            raise ValueError(f"lead of length {n} installed after one of length {top}")
        for t in range(1, n):
            self._prefixes.setdefault(lead[:t], set()).add(lead)
            self._suffixes.setdefault(lead[-t:], set()).add(lead)
        if n > top:
            self._lengths.append(n)
        if n == 2:
            self._swaps = None

    # -- reduction -----------------------------------------------------------

    def _find_redex(self, word: Word):
        """Return (pos, length, tail) of the first lead found in a window of
        word, one rule lookup per window, or None."""
        get, n = self.rules.get, len(word)
        for L in self._lengths:
            for p in range(n - L + 1):
                if (tail := get(word[p : p + L])) is not None:
                    return p, L, tail
        return None

    def reduce(self, elem: FreeElement) -> FreeElement:
        """Normal form of elem."""
        work = list(elem.terms.items())
        out: dict[Word, RatQ] = {}
        while work:
            word, coeff = work.pop()
            hit = self._find_redex(word)
            if hit is None:
                _acc(out, word, coeff)
                continue
            p, L, tail = hit
            pre, post = word[:p], word[p + L :]
            for tw, tc in tail.terms.items():
                c = tc if coeff is ONE else coeff if tc is ONE else coeff * tc
                work.append((pre + tw + post, c))
        return elem._like(out)

    # -- completion ----------------------------------------------------------

    def _push_overlaps(self, lead: Word):
        """Queue every overlap of lead with a live lead (itself included, once
        from each side): a proper suffix of the first lead equal to a proper
        prefix of the second."""
        for t in range(1, len(lead)):
            pairs = [(lead, other) for other in self._prefixes.get(lead[-t:], ())]
            pairs += [(other, lead) for other in self._suffixes.get(lead[:t], ())]
            for la, lb in pairs:
                w = la + lb[t:]
                heapq.heappush(self._pending, (len(w), la, lb, w))

    def _orient(self, elem: FreeElement) -> Word | None:
        """Reduce elem and install it as the rule lead -> tail; its lead
        (None if elem reduces to zero).  No overlap is queued.  An unreduced
        elem is read in reverse, as reduce lists it, so the tail is the same."""
        if any(map(self._find_redex, elem.terms)):
            elem = self.reduce(elem)
        else:
            elem = elem._like(dict(reversed(elem.terms.items())))
        if not elem:
            return None
        lead = elem.lead()
        lc = elem.terms[lead]
        tail = {w: -(c if lc == ONE else c / lc) for w, c in elem.terms.items() if w != lead}
        self._index(lead)
        # a unit coefficient is the shared ONE, whose products reduce skips
        self.rules[lead] = elem._like({w: ONE if c == ONE else c for w, c in tail.items()})
        return lead

    def _insert(self, elem: FreeElement):
        """Reduce, orient, and install a new rule, queueing its overlaps."""
        if (lead := self._orient(elem)) is not None:
            self._push_overlaps(lead)

    def extend_to(self, dmax: int):
        """Resolve all pending overlap ambiguities of degree <= dmax."""
        while self._pending and self._pending[0][0] <= dmax:
            _deg, la, lb, word = heapq.heappop(self._pending)
            if self._commuting_overlap(word):
                continue
            # word = la s = p lb, la glued with lb over a proper overlap; the
            # difference is tail(la) s - p tail(lb), built by concatenation
            s, p = word[len(la) :], word[: len(word) - len(lb)]
            tail = self.rules[la]
            diff = {w + s: c for w, c in tail.terms.items()}
            for w, c in self.rules[lb].terms.items():
                _acc(diff, p + w, -c)
            diff = self.reduce(tail._like(diff))
            if diff:
                self._insert(diff)
        self.valid_degree = max(self.valid_degree, dmax)

    def _commuting_overlap(self, word: Word) -> bool:
        """Whether the overlap word = abc of two length-2 leads q-commutes or has
        a q-central end letter, so it resolves with no reduction (class docstring)."""
        if len(word) != 3:
            return False
        if (sw := self._swaps) is None:  # c of each rule ab -> c*ba, ba no lead (0 for a square)
            sw = self._swaps = {
                lead: tail.terms.get(rev, ZERO) for lead, tail in self.rules.items()
                if len(lead) == 2 and list(tail.terms) == ([] if (rev := lead[::-1]) == lead else [rev])
                and (rev == lead or rev not in self.rules)}
        x, y, z = word
        if ((x, y) in sw or (y, x) in sw) and ((y, z) in sw or (z, y) in sw) and ((x, z) in sw or (z, x) in sw):
            return True
        return self._central((x, y), lambda w: sw.get((w, z))) or self._central((y, z), lambda w: sw.get((x, w)))

    def _central(self, lead: Word, swap) -> bool:
        """Whether swap(w) = l_w is a swap's, for both letters of lead xy and of
        each tail word uv, none a lead, with l_u l_v = l_x l_y (case A or B)."""
        lx, ly, tail = swap(lead[0]), swap(lead[1]), self.rules.get(lead)
        lxy = lx and ly and tail is not None and lx * ly
        return bool(lxy) and all(
            w not in self.rules and (lu := swap(w[0])) and (lv := swap(w[1])) and lu * lv == lxy
            for w in tail.terms)

    # -- queries ---------------------------------------------------------------

    @property
    def settled(self) -> bool:
        """No live overlap pending: complete in every degree (diamond lemma)."""
        return not self._pending

    def _check_degree(self, k: int):
        """Refuse degree k above valid_degree unless the system is settled."""
        if k > self.valid_degree and not self.settled:
            raise ValueError(f"degree {k} above valid_degree {self.valid_degree}")

    def _extensions(self, word: Word):
        """The normal words word + (g,) of a normal word: only a suffix can be a lead."""
        rules, lengths = self.rules, self._lengths
        for g in range(self.alphabet.size):
            cand = word + (g,)
            if all(cand[-L:] not in rules for L in lengths):
                yield cand

    def normal_words(self, k: int) -> list[Word]:
        """All normal words of degree k (valid_degree >= k, or settled)."""
        self._check_degree(k)
        words = [()]
        for _ in range(k):
            words = [c for w in words for c in self._extensions(w)]
        return words

    def normal_counts(self, k: int) -> list[int]:
        """Number of normal words in each degree 0..k (valid_degree >= k, or
        settled), by DP over states: the last m-1 letters, m the longest lead."""
        self._check_degree(k)
        m = max(self._lengths, default=1)
        states, out, succ = {(): 1}, [1], {}
        for _ in range(k):
            nxt: dict[Word, int] = {}
            for s, c in states.items():
                if (ts := succ.get(s)) is None:  # a state's successors are the same in every degree
                    ts = succ[s] = [cand[1:] if len(cand) == m else cand for cand in self._extensions(s)]
                for t in ts:
                    nxt[t] = nxt.get(t, 0) + c
            states = nxt
            out.append(sum(states.values()))
        return out

    def weight_counts(self, k: int) -> list[dict[tuple[int, ...], int]]:
        """Number of normal words of each weight in each degree 0..k, by the
        DP of `normal_counts` with the weight carried in the state."""
        self._check_degree(k)
        m = max(self._lengths, default=1)
        wts = self.alphabet.weights
        zero = self.alphabet.word_weight(())
        states, out, succ = {((), zero): 1}, [{zero: 1}], {}
        for _ in range(k):
            nxt: dict[tuple[Word, tuple[int, ...]], int] = {}
            for (s, mu), c in states.items():
                if (ts := succ.get(s)) is None:
                    ts = succ[s] = [(cand[1:] if len(cand) == m else cand, wts[cand[-1]])
                                    for cand in self._extensions(s)]
                for t, w in ts:
                    key = (t, tuple(a + b for a, b in zip(mu, w)))
                    nxt[key] = nxt.get(key, 0) + c
            states, by_weight = nxt, {}
            for (_, mu), c in states.items():
                by_weight[mu] = by_weight.get(mu, 0) + c
            out.append(by_weight)
        return out


def complete_truncated(relations: list[FreeElement], dmax: int, alphabet: Alphabet) -> TruncatedGB:
    """Degree-truncated two-sided completion of homogeneous relations, installed by degree."""
    rels = [r for r in relations if r]
    if not all(r.is_homogeneous(alphabet) for r in rels):
        raise ValueError("relations must be homogeneous in degree and weight")
    gb = TruncatedGB(alphabet)
    for r in sorted(rels, key=lambda r: len(next(iter(r.terms)))):
        if gb._pending and gb._pending[0][0] < (d := len(next(iter(r.terms)))):
            gb.extend_to(d - 1)  # every lead shorter than r's comes first
        gb._insert(r)
    gb.extend_to(dmax)
    return gb


class DimensionTable(NamedTuple):
    """dims[k] = dimension of the degree-k component; classical is set by
    the calculus layer when the binomial comparison applies."""

    dims: list[int]
    classical: bool | None = None
    truncated_at: int | None = None

    def as_json_dict(self):
        out = {"dims": list(self.dims)}
        if self.classical is not None:
            out["classical"] = self.classical
        if self.truncated_at is not None:
            out["truncated_at"] = self.truncated_at
        return out


# ---------------------------------------------------------------------------
# exact linear algebra over Q(q); vectors are dicts keyed by hashable coords


class Span:
    """Row-echelon span of the vectors given, added in order, kept fully reduced
    (no row's support meets another row's pivot); supports rank and membership."""

    def __init__(self, vectors=()):
        self.pivots: dict = {}  # pivot coord -> vector (pivot coeff 1)
        for vec in vectors:
            self.add(vec)

    def reduce(self, vec: dict) -> dict:
        """Residue of vec modulo the span (zero iff vec is in the span)."""
        out = {k: c for k, c in vec.items() if c}
        # rows are mutually reduced, so one elimination per pivot hit suffices
        for k in sorted(k for k in out if k in self.pivots):
            c = out.pop(k, None)
            if not c:
                continue
            c = -c
            for kk, x in self.pivots[k].items():
                if kk != k:
                    _acc(out, kk, c * x)
        return out

    def add(self, vec: dict) -> bool:
        """Insert vec; True if the rank grew."""
        vec = self.reduce(vec)
        if not vec:
            return False
        piv = min(vec)
        c = vec[piv]
        row = {k: x / c for k, x in vec.items()}
        # back-eliminate the new pivot from existing rows
        for r in self.pivots.values():
            if piv in r:
                cc = -r[piv]
                for k, x in row.items():
                    _acc(r, k, cc * x)
        self.pivots[piv] = row
        return True

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    @property
    def dim(self) -> int:
        return len(self.pivots)


def _span_over(rows: list[dict], coords: list) -> Span:
    """Span of rows with each coordinate renamed to its position in `coords`."""
    cindex = {k: i for i, k in enumerate(coords)}
    return Span({cindex[k]: c for k, c in r.items() if c} for r in rows)


def rank(rows: list[dict]) -> int:
    return Span(rows).dim


def annihilator(rows: list[dict], coords: list) -> list[dict]:
    """Canonical basis (RREF over `coords` order) of {r : r . row = 0 for all rows}."""
    sp = _span_over(rows, coords)
    vecs = {f: {f: ONE} for f in range(len(coords)) if f not in sp.pivots}
    # rows are fully reduced, so a row's non-pivot support is free columns
    for p in sorted(sp.pivots):
        for f, c in sp.pivots[p].items():
            if f != p and c:
                vecs[f][p] = -c
    return [{coords[i]: c for i, c in vec.items()} for vec in vecs.values()]


def rref(rows: list[dict], coords: list) -> list[dict]:
    """Canonical reduced row-echelon form with columns ordered by `coords`."""
    sp = _span_over(rows, coords)
    out = []
    for p in sorted(sp.pivots):
        out.append({coords[i]: c for i, c in sp.pivots[p].items()})
    return out
