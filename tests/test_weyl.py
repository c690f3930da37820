"""Root-system and reduced-word combinatorics."""

import pytest
from oracles import reduced_words

from qflag.weyl import (
    Root,
    _class_reps,
    beta_sequence,
    canonical_word,
    class_graph_dot,
    class_size,
    commutation_classes,
    involution_on_classes,
    nice_word,
    opposite_word,
    positive_roots,
    reduced_word_count,
    root_pairing,
)


def test_beta_sequence_accepts_only_reduced_longest_words():
    assert len(beta_sequence((3, 2, 1, 3, 2, 3), 3)) == 6
    assert len(beta_sequence(nice_word(4), 4)) == 10
    # not reduced, too short, too long, empty
    for w, n in (((1, 1), 2), ((3, 1, 2, 2, 1, 3), 3), ((1, 2), 2), ((2, 1, 2, 1), 2), ((), 1)):
        with pytest.raises(ValueError, match="^beta_sequence requires a reduced word of the longest element$"):
            beta_sequence(w, n)


def test_beta_sequence_letter_range_check():
    with pytest.raises(ValueError, match=r"^letter 4 out of range 1\.\.3$"):
        beta_sequence((4,), 3)
    # every letter is range-checked before the word is walked
    with pytest.raises(ValueError, match=r"^letter 0 out of range 1\.\.3$"):
        beta_sequence((1, 1, 0), 3)


def test_nice_word():
    assert nice_word(1) == (1,)
    assert nice_word(2) == (2, 1, 2)
    assert nice_word(3) == (3, 2, 1, 3, 2, 3)


def test_beta_sequence_rank2():
    assert beta_sequence((2, 1, 2), 2) == [Root(2, 3), Root(1, 3), Root(1, 2)]


def test_beta_sequence_nice_rank3():
    assert beta_sequence(nice_word(3), 3) == [
        Root(3, 4),
        Root(2, 4),
        Root(1, 4),
        Root(2, 3),
        Root(1, 3),
        Root(1, 2),
    ]


def test_beta_sequence_first_is_simple():
    for n in (2, 3, 4):
        w = nice_word(n)
        assert beta_sequence(w, n)[0] == Root(w[0], w[0] + 1)


def test_beta_sequence_rejects_non_longest():
    with pytest.raises(ValueError):
        beta_sequence((1, 2), 2)


def test_beta_sequence_enumerates_all_roots_convexly():
    for n in (2, 3, 4):
        for w in list(reduced_words(n))[::7]:
            seq = beta_sequence(w, n)
            assert len(seq) == n * (n + 1) // 2
            assert set(seq) == set(positive_roots(n))
            pos = {b: k for k, b in enumerate(seq)}
            for a in seq:
                for b in seq:
                    if pos[a] < pos[b]:
                        s = (min(a.i, b.i), max(a.j, b.j))
                        if a.i == b.j or a.j == b.i:
                            csum = Root(min(a.i, b.i), max(a.j, b.j))
                            if csum in pos:
                                assert pos[a] < pos[csum] < pos[b]


def test_reduced_word_counts_match_hook_formula():
    for n, expected in ((2, 2), (3, 16), (4, 768)):
        words = reduced_words(n)
        assert len(words) == expected
        assert reduced_word_count(n) == expected
        assert len(set(words)) == expected


def test_pairings():
    assert root_pairing(Root(1, 2), Root(1, 2)) == 2
    assert root_pairing(Root(1, 2), Root(2, 3)) == -1
    assert root_pairing(Root(1, 2), Root(3, 4)) == 0


def test_opposite_word():
    assert opposite_word((3, 2, 1, 3, 2, 3), 3) == (1, 2, 3, 1, 2, 1)
    assert opposite_word((1, 2, 1), 2) == (2, 1, 2)
    w = (3, 1, 2, 1, 3, 2)
    assert opposite_word(opposite_word(w, 3), 3) == w


def test_classes_rank2():
    g = commutation_classes(2)
    assert g.num_classes == 2
    assert sorted(g.reps) == [(1, 2, 1), (2, 1, 2)]
    assert len(g.edges) == 1


def test_classes_rank3():
    g = commutation_classes(3)
    assert g.num_classes == 8
    assert sum(map(class_size, g.reps)) == 16
    # the published graph is an 8-cycle: two chains joined at both ends
    deg = [0] * 8
    for a, b in g.edges:
        deg[a] += 1
        deg[b] += 1
    assert deg == [2] * 8 and len(g.edges) == 8
    # the class of 312132 is fixed by the involution, 321323 <-> 123121
    inv = involution_on_classes(g)
    c = g.class_index((3, 1, 2, 1, 3, 2))
    assert inv[c] == c
    assert inv[g.class_index((3, 2, 1, 3, 2, 3))] == g.class_index((1, 2, 3, 1, 2, 1))


def test_classes_rank4():
    g = commutation_classes(4)
    assert g.num_classes == 62
    assert sum(map(class_size, g.reps)) == 768
    inv = involution_on_classes(g)
    assert sorted(inv) == list(range(62))  # a permutation
    assert all(inv[inv[c]] == c for c in range(62))
    # involution preserves braid edges
    edges = set(g.edges)
    for a, b in g.edges:
        x, y = inv[a], inv[b]
        assert (min(x, y), max(x, y)) in edges


@pytest.mark.parametrize("n", [2, 3, 4])
def test_involution_on_classes_is_an_involution(n):
    g = commutation_classes(n)
    inv = involution_on_classes(g)
    assert all(inv[inv[c]] == c for c in range(g.num_classes))


def test_class_cap_error_mentions_count():
    with pytest.raises(ValueError) as e:
        commutation_classes(6)
    assert "1100742656" in str(e.value)


def test_dot_output():
    g = commutation_classes(3)
    dot = class_graph_dot(g, involution_on_classes(g))
    assert dot.startswith("graph commutation_classes {")
    assert dot.count("--") >= len(g.edges)
    assert dot.count('[label="') == 8


# -- the class layer against a flood fill over every reduced word -------------


def _flood_fill_classes(n):
    """The replaced class layer, kept as an oracle: every reduced word is
    listed and the classes are flood-filled by commutations.  Returns the
    reps, per-class sizes, braid edges and the class of each word, with the
    classes ordered by their lexicographically smallest member."""
    class_of, classes = {}, []
    for w in reduced_words(n):
        if w in class_of:
            continue
        stack, members = [w], []
        class_of[w] = len(classes)
        while stack:
            u = stack.pop()
            members.append(u)
            for p in range(len(u) - 1):
                if abs(u[p] - u[p + 1]) >= 2:
                    v = u[:p] + (u[p + 1], u[p]) + u[p + 2 :]
                    if v not in class_of:
                        class_of[v] = class_of[w]
                        stack.append(v)
        classes.append(members)
    order = sorted(range(len(classes)), key=lambda c: min(classes[c]))
    relabel = {old: new for new, old in enumerate(order)}
    class_of = {w: relabel[c] for w, c in class_of.items()}
    edges = set()
    for w, c in class_of.items():
        for p in range(len(w) - 2):
            a, b = w[p], w[p + 1]
            if w[p + 2] == a and abs(a - b) == 1:
                d = class_of[w[:p] + (b, a, b) + w[p + 3 :]]
                edges.add((min(c, d), max(c, d)))
    reps = [min(classes[c]) for c in order]
    sizes = [len(classes[c]) for c in order]
    return reps, sizes, sorted(edges), class_of


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_class_layer_matches_flood_fill(n):
    reps, sizes, edges, class_of = _flood_fill_classes(n)
    g = commutation_classes(n)
    assert g.reps == reps
    assert [class_size(rep) for rep in g.reps] == sizes
    assert g.edges == edges
    assert involution_on_classes(g) == [class_of[opposite_word(rep, n)] for rep in reps]
    for w, c in class_of.items():
        assert g.class_index(w) == c
        assert canonical_word(w) == reps[c]


def test_class_layer_rank5_and_rank6_counts():
    g = commutation_classes(5)
    assert g.num_classes == 908 and len(g.edges) == 2144
    assert sum(map(class_size, g.reps)) == reduced_word_count(5)
    assert len(_class_reps(6)) == 24698  # OEIS A006245


@pytest.mark.parametrize(
    "word",
    [
        (3, 1, 2, 2, 1, 3),  # full length, not reduced
        (3, 1),  # reduced, too short
        (4, 1, 2, 1, 3, 2),  # letter out of range
        [3, 1, 2, 1, 2, 2],  # a list
    ],
)
def test_class_index_error_names_the_given_word(word):
    g = commutation_classes(3)
    with pytest.raises(KeyError) as e:
        g.class_index(word)
    assert canonical_word(word) != tuple(word)
    assert str(tuple(word)) in str(e.value)
    assert str(canonical_word(word)) not in str(e.value)


def test_class_index_accepts_a_list():
    g = commutation_classes(3)
    assert g.class_index([3, 2, 1, 3, 2, 3]) == g.class_index((3, 2, 1, 3, 2, 3))
