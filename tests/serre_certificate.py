"""Diamond-lemma certificate for U+'s installed Serre rewriting system.

    PYTHONPATH=src python tests/serre_certificate.py N

checks that `uqsl._serre_system(N)` is a Groebner-Shirshov basis: no lead
is a factor of another lead or of a tail word, and every overlap of two
leads (a proper suffix of one equal to a proper prefix of the other, a lead
with itself included) resolves, i.e. its two one-step rewrites reduce to
the same normal form, so resolving it would add no rule.  By Bergman's
diamond lemma the normal words are then a basis of U+ in every degree.  The
overlaps are listed by a direct scan of all lead pairs, not through the
completion's prefix and suffix indexes.  Prints the rank, the number of
rules and overlaps, the largest overlap degree and the CPU time.  Tier-1
runs it at ranks 1-4; at rank 6, the rank cap, it resolves 295 overlaps of
40 rules through degree 15 (about a minute of CPU).
"""

import sys
from time import process_time

from qflag.freealg import FreeElement
from qflag.uqsl import _serre_system


def overlaps(leads):
    """Every overlap (la, lb, t): the last t letters of la are the first t
    of lb, 0 < t < min(len(la), len(lb))."""
    return [(la, lb, t) for la in leads for lb in leads
            for t in range(1, min(len(la), len(lb))) if la[-t:] == lb[:t]]


def certify(n: int) -> dict:
    """Check the rank-n system; its rule and overlap counts and the largest
    overlap degree.  Raises AssertionError on a defect."""
    gb = _serre_system(n)
    rules = gb.rules
    assert gb.settled
    words = [(lead, w) for lead, tail in rules.items() for w in [lead, *tail.terms]]
    factors = [(a, w) for a in rules for lead, w in words
               if a != lead and any(w[p : p + len(a)] == a for p in range(len(w) - len(a) + 1))]
    assert not factors, f"rank {n}: a lead is a factor of another rule's word: {factors[0]}"
    pairs = overlaps(rules)
    for la, lb, t in pairs:
        left = rules[la] * FreeElement.monomial(lb[t:])
        right = FreeElement.monomial(la[:-t]) * rules[lb]
        assert not gb.reduce(left - right), f"rank {n}: overlap {la} {lb} ({t}) does not resolve"
    return {"rank": n, "rules": len(rules), "overlaps": len(pairs),
            "max_degree": max((len(la) + len(lb) - t for la, lb, t in pairs), default=0)}


if __name__ == "__main__":
    t0 = process_time()
    report = certify(int(sys.argv[1]))
    print(report, f"cpu_s={process_time() - t0:.1f}")
