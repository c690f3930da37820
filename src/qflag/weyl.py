"""Type-A root system and Weyl group combinatorics.

The Weyl group of rank n is the symmetric group on n+1 letters; positive
roots are pairs (i, j) with 1 <= i < j <= n+1 standing for e_i - e_j.
Words are tuples of simple-reflection indices in 1..n.  A reduced word of
the longest element induces the beta sequence, which enumerates the
positive roots in the convex order attached to the word; that sequence is
the canonical convex order everywhere in this package.

Permutations are one-line arrays f with f[a] = image of a (1-based values
stored 0-based); appending a letter j to a word multiplies on the right,
i.e. swaps positions j, j+1 of the array.

Two reduced words lie in the same commutation class when they differ by
swaps of adjacent letters a, b with |a - b| >= 2.  Each class is named by
its lexicographically smallest member, its canonical word: a reduced word
is canonical exactly when no letter exceeds the next by 2 or more.  Such
a swap would make the word smaller.  Conversely, a word with a smaller
member contains a factor b u a with a < b, where a commutes with b and
with every letter of u (the lexicographic normal form of traces,
Anisimov-Knuth 1979).  Every letter of b u is then at least a + 2 or at
most a - 2, and b is at least a + 2, so the last letter of b u that is at
least a + 2 exceeds the letter after it by 2 or more.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from functools import cached_property
from typing import NamedTuple


class Root(NamedTuple):
    i: int
    j: int

    def __str__(self):
        return f"a[{self.i},{self.j}]"

    def weight(self, n: int) -> tuple[int, ...]:
        """Coordinates in the simple-root basis: alpha_i + ... + alpha_{j-1}."""
        return tuple(1 if self.i <= a < self.j else 0 for a in range(1, n + 1))


def check_rank(n: int):
    cap = int(os.environ.get("QFLAG_RANK_CAP", 6))
    if not 1 <= n <= cap:
        raise ValueError(f"rank must satisfy 1 <= n <= {cap} (got {n})")


def positive_roots(n: int) -> list[Root]:
    return [Root(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 2)]


def root_pairing(beta: Root, gamma: Root) -> int:
    """Euclidean inner product of e_i - e_j with e_k - e_l."""
    (i, j), (k, l) = beta, gamma
    return (i == k) - (i == l) - (j == k) + (j == l)


# -- words and permutations -------------------------------------------------


def nice_word(n: int) -> tuple[int, ...]:
    """(s_n s_{n-1} ... s_1)(s_n ... s_2) ... (s_n s_{n-1}) s_n."""
    out = []
    for start in range(1, n + 1):
        out.extend(range(n, start - 1, -1))
    return tuple(out)


def opposite_word(w, n: int) -> tuple[int, ...]:
    return tuple(n + 1 - i for i in w)


def mirror_word(w, n: int) -> tuple[int, ...]:
    """i' = (i_N*, ..., i_1*) with i* = n+1-i: the opposite of the reversed
    word, whose beta sequence is the reverse of w's (see calculus.survey_rows)."""
    return opposite_word(reversed(w), n)


def beta_sequence(w, n: int) -> list[Root]:
    """The convex enumeration of the positive roots attached to a reduced
    word of the longest element."""
    w = tuple(w)
    bad = next((i for i in w if not 1 <= i <= n), None)
    if bad is not None:
        raise ValueError(f"letter {bad} out of range 1..{n}")
    perm = list(range(1, n + 2))
    out = []
    for i in w:
        a, b = perm[i - 1], perm[i]
        if a > b:  # the letter undoes an inversion: w is not reduced
            break
        out.append(Root(a, b))
        perm[i - 1], perm[i] = b, a
    if len(out) != len(w) or len(w) != n * (n + 1) // 2:
        raise ValueError("beta_sequence requires a reduced word of the longest element")
    return out


# -- commutation classes of the longest element -------------------------------


_CLASS_COUNTS = (1, 2, 8, 62, 908, 24698, 1232944)  # their number at ranks 1, 2, ... (OEIS A006245)
_MAX_CLASSES = 30000  # admits rank 6's 24,698 classes


def canonical_word(w) -> tuple[int, ...]:
    """The lexicographically smallest member of the commutation class of w.

    Each letter a moves left past the larger letters it commutes with (those
    above a + 1).  Every step swaps commuting letters, so the result lies in
    the class; it has no letter exceeding the next by 2 or more, so it is the
    class minimum (see the module docstring)."""
    out: list[int] = []
    for a in w:
        j = len(out)
        while j and out[j - 1] > a + 1:
            j -= 1
        out.insert(j, a)
    return tuple(out)


def class_size(w) -> int:
    """Number of words in the commutation class of w.

    The members are the linear extensions of the heap of w (position p below
    r when p < r and |w[p] - w[r]| <= 1); they are counted by dynamic
    programming over the heap's order ideals, as bitmasks of positions."""
    below = [sum(1 << p for p in range(r) if abs(w[p] - w[r]) <= 1) for r in range(len(w))]
    ways = {0: 1}
    for _ in w:
        grown: dict[int, int] = {}
        for ideal, count in ways.items():
            for r, need in enumerate(below):
                if not ideal >> r & 1 and need & ideal == need:
                    grown[ideal | 1 << r] = grown.get(ideal | 1 << r, 0) + count
        ways = grown
    return sum(ways.values())


def _class_reps(n: int) -> list[tuple[int, ...]]:
    """Canonical words of the commutation classes of the longest element, in
    lexicographic order: a depth-first search over reduced prefixes that
    appends, in increasing order, only letters a >= last - 1 (appending a
    keeps the word reduced when the permutation has an ascent at a)."""
    top = n * (n + 1) // 2
    out = []

    def extend(word, perm, last):
        if len(word) == top:
            out.append(word)
        for a in range(max(1, last - 1), n + 1):
            if perm[a - 1] < perm[a]:
                extend(word + (a,), perm[: a - 1] + (perm[a], perm[a - 1]) + perm[a + 1 :], a)

    extend((), tuple(range(n + 1)), 1)
    return out


def _braid_moves(w):
    """Words one braid move away from the class of w, one for each move.

    Each move is made on a pair of consecutive occurrences of a letter a, at
    p < r, with exactly one letter b = a +- 1 between them, at q.  All other
    letters between them commute with a, so w is equivalent to
    w[:p] + w[p+1:q] + (a, b, a) + w[q+1:r] + w[r+1:], and the move replaces
    that aba by bab.  Any braid move on any member is of this form: letters
    that do not commute keep their relative order throughout a class."""
    for p, a in enumerate(w):
        r = next((r for r in range(p + 1, len(w)) if w[r] == a), p)
        middle = [q for q in range(p + 1, r) if abs(w[q] - a) == 1]
        if len(middle) == 1:
            q = middle[0]
            yield w[:p] + w[p + 1 : q] + (w[q], a, w[q]) + w[q + 1 : r] + w[r + 1 :]


class ClassGraph:
    """Commutation classes of reduced words of the longest element, with an
    edge between two classes when some members differ by one braid move."""

    def __init__(self, n: int, reps: list[tuple[int, ...]]):
        self.n = n
        self.reps = reps  # canonical (lexicographically smallest) member per class

    @property
    def num_classes(self) -> int:
        return len(self.reps)

    def class_index(self, w) -> int:
        w = tuple(w)
        canon = canonical_word(w)
        c = bisect_left(self.reps, canon)
        if c == len(self.reps) or self.reps[c] != canon:
            raise KeyError(f"{w} is not a reduced word of the longest element")
        return c

    @cached_property
    def edges(self) -> list[tuple[int, int]]:
        """Sorted pairs c < d of braid-adjacent classes, built on first read
        (the survey reads none); each edge is found from both ends."""
        moves = ((c, self.class_index(v)) for c, rep in enumerate(self.reps) for v in _braid_moves(rep))
        return sorted({(c, d) for c, d in moves if c < d})

def commutation_classes(n: int) -> ClassGraph:
    """The class graph, found from the canonical words alone; no class is
    listed member by member.  Ranks with more than _MAX_CLASSES classes
    (rank 7 and up) are refused before any is enumerated."""
    check_rank(n)
    count = _CLASS_COUNTS[min(n, len(_CLASS_COUNTS)) - 1]
    if count > _MAX_CLASSES:
        more = "more than " if n > len(_CLASS_COUNTS) else ""  # the counts grow with the rank
        raise ValueError(f"class enumeration at rank {n} is refused: it has {more}{count:,} "
                         f"commutation classes (at most {_MAX_CLASSES:,})")
    return ClassGraph(n, _class_reps(n))


def involution_on_classes(graph: ClassGraph) -> list[int]:
    return [graph.class_index(opposite_word(rep, graph.n)) for rep in graph.reps]


def word_str(w) -> str:
    if all(1 <= i <= 9 for i in w):
        return "".join(str(i) for i in w)
    return ",".join(str(i) for i in w)


def class_graph_dot(graph: ClassGraph, involution: list[int] | None = None) -> str:
    """The class graph in DOT, with the involution's pairs (`involution_on_classes`) dashed when given."""
    lines = ["graph commutation_classes {"]
    for c, rep in enumerate(graph.reps):
        lines.append(f'  c{c} [label="{word_str(rep)}"];')
    for a, b in graph.edges:
        lines.append(f"  c{a} -- c{b};")
    # each involution pair once, from its smaller end
    lines += [f"  c{c} -- c{d} [color=blue, style=dashed];" for c, d in enumerate(involution or ()) if c <= d]
    lines.append("}")
    return "\n".join(lines) + "\n"
