"""The m behind a solution of a pair's reduced Pell equation, as an oracle.

dioph.tuples.reduce_pair turns a*m + k = x^2, b*m + k = Y^2 into
X^2 - D*Y^2 = N with X = b*x.  recover_m undoes that for one point, from
the three conditions alone, so the tests can check the walk's liveness
rule (dioph.extension._live_classes) against code that shares none of it.
"""


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
