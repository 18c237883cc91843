"""Oracles for the Pell walk of dioph.extension.

dioph.tuples.reduce_pair turns a*m + k = x^2, b*m + k = Y^2 into
X^2 - D*Y^2 = N with X = b*x.  recover_m undoes that for one point, from
the three conditions alone, so the tests can check the walk's liveness
rule (dioph.extension._live_classes) against code that shares none of it.
reference_walk is the walk without its residue filter: every member of
every live class computed exactly and tested in full.
"""

from math import isqrt

from dioph.extension import ExtensionCandidate, SearchReport, _live_classes


def recover_m(red, X, Y):
    """The m behind a solution (X, Y) of red, or None when the solution is spurious.

    Spurious means X is not divisible by b, or (x^2 - k) is not divisible
    by a, or the recovered m fails the b-condition; genuine solutions of
    the reduced equation produced by an integer m always pass.

    The b-condition cannot fail for a solution of X^2 - D*Y^2 = N: with
    X = b*x and x^2 = a*m + k, dividing the equation by b gives
    a*Y^2 = b*x^2 - k*(b - a) = a*(b*m + k).  It is checked anyway,
    because a caller may pass a point that is not on the curve.
    """
    if X % red.b:
        return None
    x = X // red.b
    num = x * x - red.k
    if num % red.a:
        return None
    m = num // red.a
    if red.b * m + red.k != Y * Y:
        return None
    return m


def reference_walk(t, max_index):
    """pell_extension_search(t, max_index)'s report, from every member exact.

    Each live class is walked by w = c*m + k from its least member, as
    pell_extension_search's docstring derives it, and every member is
    looked up among the elements' own values c*e + k first, then tested
    for w > k and an exact square by isqrt: nothing is skipped by residue.
    """
    a, b, c = t.elements
    k = t.k
    hits = {c * e + k: e for e in t.elements}
    found = {}
    self_hits = set()
    for x, Y, x1, y1 in _live_classes(a, b, k):
        xb, xf = x1 * x - a * y1 * Y, x1 * x + a * y1 * Y
        w0, w, w1 = (c * ((z * z - k) // a) + k for z in (xb, x, xf))
        q = 4 * x1 * x1 - 1
        for _ in range(max_index + 1):
            if w in hits:
                self_hits.add(hits[w])
            elif w > k and (rc := isqrt(w)) * rc == w:
                m = (w - k) // c
                found[m] = ExtensionCandidate(m, {a: isqrt(a * m + k), b: isqrt(b * m + k), c: rc})
            w0, w, w1 = w, w1, q * (w1 - w) + w0
    candidates = tuple(found[m] for m in sorted(found))
    return SearchReport(t, "pell_sequence", max_index, candidates, tuple(sorted(self_hits)))
