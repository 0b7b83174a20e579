"""li(x) by QUADPACK's QAGS (Piessens, de Doncker-Kapenga, Ueberhuber and
Kahaner, *QUADPACK*, Springer 1983), along the one path QAGS takes for
1/log u on [2, x]: `qags_inv_log(x)` equals
`scipy.integrate.quad(lambda u: 1.0 / log(u), 2.0, x, limit=200)[:2]` bit
for bit.

`dqk21_inv_log` is the 21-point Gauss-Kronrod rule `dqk21` for 1/log u,
written out node by node.  `qags_inv_log` is `dqagse` with epsabs = epsrel =
1.49e-8 (the defaults of `quad`) and the Wynn epsilon step `dqelg`, ported
statement by statement but kept to the statements li reaches.  Every sum
keeps QUADPACK's operands and order (the Gauss nodes before the
Kronrod-only ones, the final sum over the intervals in index order), and
the rule leaves out only the abs() that are identities on 2 <= a < b, where
1/log u > 0.

The path, measured over every T^2 with 4 <= T <= 30000 and 30,000 more x
up to 10^308: QAGS either returns the first rule, or it bisects the
leftmost interval [2, b] at every step, its error staying the largest.  It
then ends with the sum of the intervals in index order or, extrapolating at
every step from the third, with the epsilon result.  So no interval list is
ordered (`dqpsrt` goes): the left interval and the right halves, in the
order QAGS appends them, are the whole state.  Each branch of QAGS off that
path raises an AssertionError that names it: a right half with the larger
error, a round-off counter, ier = 4 or 5, the loop over larger intervals,
and an epsilon table that returns early, breaks or fills.  The table fills
at the 50th subinterval, so the limit of 200 (ier = 1) is never reached.
QAGS leaves the path only where x - 2 is below about 3.4e-13, inside the
band 2 < x < 3 that `census.log_integral` refuses.  Arrays are 1-based as
in the Fortran (index 0 is unused), which keeps the index arithmetic of the
original.
"""
from __future__ import annotations

from itertools import count
from math import log

_EPSABS = _EPSREL = 1.49e-8
_EPMACH = 2.220446049250313e-16  # d1mach(4)
_UFLOW = 2.2250738585072014e-308  # d1mach(1)
_OFLOW = 1.7976931348623157e308  # d1mach(2)

# dqk21: Kronrod abscissae (the even 1-based indices are the Gauss nodes),
# Kronrod weights and the 10-point Gauss weights; QUADPACK's xgk(11) = 0, the
# centre, is left out: dqk21 evaluates f(centr) directly
_XGK = (
    None,
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
)
_WGK = (
    None,
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    None,
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)


def dqk21_inv_log(a: float, b: float) -> tuple[float, float, float, float]:
    """(result, abserr, resabs, resasc) of the 21-point rule for 1/log u on
    [a, b]: `dqk21` written out node by node, each value 1.0 / log(u), with
    QUADPACK's operands and order in every sum (the Gauss nodes before the
    Kronrod-only ones).  QAGS calls it with 2 <= a < b only, where the
    values and hlgth are positive: QUADPACK's resabs, the same Kronrod sum
    over |f| times |hlgth|, is result bit for bit."""
    _, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10 = _XGK
    _, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11 = _WGK
    _, g1, g2, g3, g4, g5 = _WG
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    fc = 1.0 / log(centr)
    # the values left (l) and right (r) of the centre at each abscissa
    h = hlgth * x2
    l2, r2 = 1.0 / log(centr - h), 1.0 / log(centr + h)
    h = hlgth * x4
    l4, r4 = 1.0 / log(centr - h), 1.0 / log(centr + h)
    h = hlgth * x6
    l6, r6 = 1.0 / log(centr - h), 1.0 / log(centr + h)
    h = hlgth * x8
    l8, r8 = 1.0 / log(centr - h), 1.0 / log(centr + h)
    h = hlgth * x10
    l10, r10 = 1.0 / log(centr - h), 1.0 / log(centr + h)
    h = hlgth * x1
    l1, r1 = 1.0 / log(centr - h), 1.0 / log(centr + h)
    h = hlgth * x3
    l3, r3 = 1.0 / log(centr - h), 1.0 / log(centr + h)
    h = hlgth * x5
    l5, r5 = 1.0 / log(centr - h), 1.0 / log(centr + h)
    h = hlgth * x7
    l7, r7 = 1.0 / log(centr - h), 1.0 / log(centr + h)
    h = hlgth * x9
    l9, r9 = 1.0 / log(centr - h), 1.0 / log(centr + h)
    s1, s2, s3, s4, s5 = l1 + r1, l2 + r2, l3 + r3, l4 + r4, l5 + r5
    s6, s7, s8, s9, s10 = l6 + r6, l7 + r7, l8 + r8, l9 + r9, l10 + r10
    resg = 0.0 + g1 * s2 + g2 * s4 + g3 * s6 + g4 * s8 + g5 * s10
    resk = k11 * fc
    resk = resk + k2 * s2 + k4 * s4 + k6 * s6 + k8 * s8 + k10 * s10
    resk = resk + k1 * s1 + k3 * s3 + k5 * s5 + k7 * s7 + k9 * s9
    reskh = resk * 0.5
    resasc = (
        k11 * abs(fc - reskh)
        + k1 * (abs(l1 - reskh) + abs(r1 - reskh))
        + k2 * (abs(l2 - reskh) + abs(r2 - reskh))
        + k3 * (abs(l3 - reskh) + abs(r3 - reskh))
        + k4 * (abs(l4 - reskh) + abs(r4 - reskh))
        + k5 * (abs(l5 - reskh) + abs(r5 - reskh))
        + k6 * (abs(l6 - reskh) + abs(r6 - reskh))
        + k7 * (abs(l7 - reskh) + abs(r7 - reskh))
        + k8 * (abs(l8 - reskh) + abs(r8 - reskh))
        + k9 * (abs(l9 - reskh) + abs(r9 - reskh))
        + k10 * (abs(l10 - reskh) + abs(r10 - reskh))
    )
    result = resk * hlgth
    resasc = resasc * hlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if result > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * result, abserr)
    return result, abserr, result, resasc


def _dqelg(n: int, epstab: list, res3la: list) -> tuple[float, float]:
    """The (n - 2)-th step of the epsilon algorithm, on epstab[1..n] with
    n >= 3; return (result, abserr)."""
    if n == 50:  # limexp: dqelg would shift the table
        raise AssertionError("QAGS leaves li's path: the epsilon table is full")
    nres = n - 2
    abserr = _OFLOW
    result = epstab[n]
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = _OFLOW
    k1 = n
    for _ in range(newelm):
        e0 = epstab[k1 - 2]
        e1 = epstab[k1 - 1]
        e2 = epstab[k1 + 2]
        e3 = epstab[k1]
        e1abs = abs(e1)
        delta2 = e2 - e1
        err2 = abs(delta2)
        tol2 = max(abs(e2), e1abs) * _EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(e1abs, abs(e0)) * _EPMACH
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * _EPMACH
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            raise AssertionError("QAGS leaves li's path: epsilon table elements agree to machine accuracy")
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        epsinf = abs(ss * e1)
        if not epsinf > 1e-4:
            raise AssertionError("QAGS leaves li's path: the epsilon table breaks on an irregular element")
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 = k1 - 2
        error = err2 + abs(res - e2) + err3
        if error <= abserr:
            abserr = error
            result = res
    # drop the oldest element of the diagonal the new elements are on
    ib = 1 if n % 2 else 2
    for _ in range(newelm + 1):
        epstab[ib] = epstab[ib + 2]
        ib = ib + 2
    if nres < 4:
        res3la[nres] = result
        abserr = _OFLOW
    else:
        abserr = abs(result - res3la[3]) + abs(result - res3la[2]) + abs(result - res3la[1])
        res3la[1] = res3la[2]
        res3la[2] = res3la[3]
        res3la[3] = result
    return result, max(abserr, 5.0 * _EPMACH * abs(result))


def qags_inv_log(b: float) -> tuple[float, float]:
    """(li(b), error estimate) by QAGS for 1/log u on [2, b], as
    `quad(lambda u: 1.0 / log(u), 2.0, b, limit=200)[:2]`, for b from 3 to
    the largest float: the interval QAGS bisects is always the left one,
    [a, bl], so dqagse's maxerr is always 1 and its rlist[1] is rl."""
    a = 2.0
    result, abserr, _, resasc = dqk21_inv_log(a, b)
    # QAGS's other exits here cannot occur: the rule's abserr is at least
    # 50 epmach * result > 0, and ier = 2 needs errbnd < abserr <= 100 epmach
    # * result, below errbnd >= 1.49e-8 * result
    errbnd = max(_EPSABS, _EPSREL * abs(result))
    if abserr <= errbnd and abserr != resasc:
        return result, abserr
    rlist2 = [0.0] * 53  # the epsilon table
    res3la = [0.0] * 4
    rlist2[1] = result
    bl, rl, errmax = b, result, abserr
    rights = []  # rlist[2..last]: the right halves' areas
    errright = 0.0  # the largest of their errors
    area = result
    errsum = abserr
    abserr = _OFLOW
    ktmin = 0  # extrapolations since abserr last fell
    for last in count(2):
        b1 = 0.5 * (a + bl)
        erlast = errmax
        area1, error1, _, defab1 = dqk21_inv_log(a, b1)
        area2, error2, _, defab2 = dqk21_inv_log(b1, bl)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rl
        if not (defab1 == error1 or defab2 == error2) and (
            not (abs(rl - area12) > 1e-5 * abs(area12) or erro12 < 0.99 * errmax) or last > 10 and erro12 > errmax
        ):
            raise AssertionError("QAGS leaves li's path: a round-off counter counts")
        if bl <= (1.0 + 100.0 * _EPMACH) * (b1 + 1000.0 * _UFLOW):
            raise AssertionError("QAGS leaves li's path: ier = 4, the interval is too small to bisect")
        errright = max(errright, error2)
        if error1 < errright:
            raise AssertionError("QAGS leaves li's path: a right half carries the largest error")
        bl, rl, errmax = b1, area1, error1
        rights.append(area2)
        errbnd = max(_EPSABS, _EPSREL * abs(area))
        if errsum <= errbnd:
            result = rl
            for r in rights:
                result = result + r
            return result, errsum
        rlist2[last] = area
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            continue
        # extrapolate when the interval to bisect next is the smallest one
        erlarg = erlarg - erlast
        if abs(b1 - a) > small:
            raise AssertionError("QAGS leaves li's path: it bisects again before extrapolating")
        if erlarg > ertest:
            raise AssertionError("QAGS leaves li's path: the loop over larger intervals")
        reseps, abseps = _dqelg(last, rlist2, res3la)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            raise AssertionError("QAGS leaves li's path: ier = 5, the extrapolation stalls")
        if abseps < abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            ertest = max(_EPSABS, _EPSREL * abs(reseps))
            if abserr <= ertest:
                return result, abserr
        small = small * 0.5
        erlarg = errsum
