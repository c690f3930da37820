import pytest

from qflag.freealg import _acc


def _reduce_randomly(gb, elem, rng):
    """Normal form of elem modulo gb, rewriting at each step a redex picked
    by rng among every live lead at every position: a scan that uses
    neither the window index nor the first hit, so agreeing with
    `gb.reduce` tests that normal forms do not depend on the strategy."""
    work, out = list(elem.terms.items()), {}
    while work:
        word, coeff = work.pop()
        hits = [
            (p, lead)
            for lead in gb.rules
            for p in range(len(word) - len(lead) + 1)
            if word[p : p + len(lead)] == lead
        ]
        if not hits:
            _acc(out, word, coeff)
            continue
        p, lead = rng.choice(hits)
        for tw, tc in gb.rules[lead].terms.items():
            work.append((word[:p] + tw + word[p + len(lead) :], coeff * tc))
    return elem._like(out)


@pytest.fixture
def reduce_randomly():
    """The random-redex reducer that `gb.reduce` is compared against."""
    return _reduce_randomly


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion."""
    rows = []
    for status, label in (
        ("passed", "PASS"),
        ("failed", "FAIL"),
        ("error", "FAIL (error)"),
        ("xfailed", "FAIL (expected; documented contract defect, see xfail reason)"),
        ("xpassed", "XPASS (unexpected)"),
    ):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py" in nodeid:
                rows.append((nodeid.split("::")[-1], label))
    if rows:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for name, label in sorted(rows):
            terminalreporter.write_line(f"  {name}: {label}")
