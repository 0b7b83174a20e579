"""QUADPACK's QAGS (Piessens, de Doncker-Kapenga, Ueberhuber and Kahaner,
*QUADPACK*, Springer 1983), which `mti.census` uses for li(x).

This is `dqagse` with the error list ordering `dqpsrt` and the Wynn epsilon
extrapolation `dqelg`, ported statement by statement with
epsabs = epsrel = 1.49e-8 (the defaults of `scipy.integrate.quad`) and
limit = 200 subintervals.  The 21-point Gauss-Kronrod rule `dqk21` is the
parameter: `qags(rule, a, b)` calls rule(a', b') -> (result, abserr, resabs,
resasc) on [a, b] and on every subinterval it bisects.  The one rule here,
`dqk21_inv_log`, is `dqk21` for the census's 1/log u, written out node by
node.  Every sum keeps QUADPACK's operands and order (the Gauss nodes
before the Kronrod-only ones, the final sum over the interval list in index
order); the rule leaves out only the abs() that are identities where qags
calls it, 2 <= a < b with 1/log u > 0, so `qags(dqk21_inv_log, a, b)` equals
`quad(lambda u: 1.0 / log(u), a, b, limit=200)[:2]` bit for bit.  The smooth
1/log u runs a small part of the control flow; the tests drive the rest
(extrapolation, reordering, the subdivision limit) against `quad` through a
generic `dqk21` of any integrand.  Arrays are 1-based as in the Fortran
(index 0 is unused), which keeps the index arithmetic of the original.
"""
from __future__ import annotations

from math import log

_EPSABS = _EPSREL = 1.49e-8
_LIMIT = 200
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
    Kronrod-only ones).  qags calls it with 2 <= a < b only, where the
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


def _dqpsrt(limit: int, last: int, maxerr: int, elist: list, iord: list, nrmax: int) -> tuple[int, float, int]:
    """Keep iord descending in elist; return (maxerr, ermax, nrmax) of the
    interval to bisect next."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        errmax = elist[maxerr]
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        jupbn = last
        if last > limit // 2 + 2:
            jupbn = limit + 3 - last
        errmin = elist[last]
        jbnd = jupbn - 1
        ibeg = nrmax + 1
        # insert errmax top-down, then errmin bottom-up
        for i in range(ibeg, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                iord[i - 1] = maxerr
                k = jbnd
                for _ in range(i, jbnd + 1):
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        iord[k + 1] = last
                        break
                    iord[k + 1] = isucc
                    k -= 1
                else:
                    iord[i] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _dqelg(n: int, epstab: list, res3la: list, nres: int) -> tuple[int, float, float, int]:
    """One step of the epsilon algorithm on epstab[1..n]; return
    (n, result, abserr, nres)."""
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n >= 3:
        limexp = 50
        epstab[n + 2] = epstab[n]
        newelm = (n - 1) // 2
        epstab[n] = _OFLOW
        num = n
        k1 = n
        for i in range(1, newelm + 1):
            k2 = k1 - 1
            k3 = k1 - 2
            res = epstab[k1 + 2]
            e0 = epstab[k3]
            e1 = epstab[k2]
            e2 = res
            e1abs = abs(e1)
            delta2 = e2 - e1
            err2 = abs(delta2)
            tol2 = max(abs(e2), e1abs) * _EPMACH
            delta3 = e1 - e0
            err3 = abs(delta3)
            tol3 = max(e1abs, abs(e0)) * _EPMACH
            if err2 <= tol2 and err3 <= tol3:
                # e0, e1 and e2 agree to machine accuracy
                result = res
                abserr = err2 + err3
                return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
            e3 = epstab[k1]
            epstab[k1] = e1
            delta1 = e1 - e3
            err1 = abs(delta1)
            tol1 = max(e1abs, abs(e3)) * _EPMACH
            if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
                n = i + i - 1
                break
            ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
            epsinf = abs(ss * e1)
            if not epsinf > 1e-4:
                n = i + i - 1
                break
            res = e1 + 1.0 / ss
            epstab[k1] = res
            k1 = k1 - 2
            error = err2 + abs(res - e2) + err3
            if error > abserr:
                continue
            abserr = error
            result = res
        # shift the table
        if n == limexp:
            n = 2 * (limexp // 2) - 1
        ib = 1 if num % 2 else 2
        for _ in range(newelm + 1):
            ib2 = ib + 2
            epstab[ib] = epstab[ib2]
            ib = ib2
        if num != n:
            indx = num - n + 1
            for i in range(1, n + 1):
                epstab[i] = epstab[indx]
                indx += 1
        if nres < 4:
            res3la[nres] = result
            abserr = _OFLOW
        else:
            abserr = abs(result - res3la[3]) + abs(result - res3la[2]) + abs(result - res3la[1])
            res3la[1] = res3la[2]
            res3la[2] = res3la[3]
            res3la[3] = result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres


def qags(rule, a: float, b: float) -> tuple[float, float]:
    """(integral over [a, b], error estimate) by QAGS with the 21-point rule
    `rule` of some integrand f, as `scipy.integrate.quad(f, a, b,
    limit=200)[:2]` for finite a and b."""
    epsabs, epsrel, limit = _EPSABS, _EPSREL, _LIMIT
    epmach = _EPMACH
    alist = [0.0] * (limit + 1)
    blist = [0.0] * (limit + 1)
    rlist = [0.0] * (limit + 1)
    elist = [0.0] * (limit + 1)
    iord = [0] * (limit + 1)
    rlist2 = [0.0] * 53
    res3la = [0.0] * 4
    ier = 0
    alist[1] = a
    blist[1] = b

    # first approximation to the integral
    ierro = 0
    result, abserr, defabs, resabs = rule(a, b)
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    last = 1
    rlist[1] = result
    elist[1] = abserr
    iord[1] = 1
    if abserr <= 100.0 * epmach * defabs and abserr > errbnd:
        ier = 2
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr

    rlist2[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = _OFLOW
    nrmax = 1
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = False
    noext = False
    iroff1 = iroff2 = iroff3 = 0
    small = erlarg = ertest = correc = 0.0

    final_sum = False  # leave by summing rlist (label 115 of dqagse)
    for last in range(2, limit + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, _, defab1 = rule(a1, b1)
        area2, error2, _, defab2 = rule(a2, b2)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12) or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * epmach) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4
        # append the new intervals to the list
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2
        maxerr, errmax, nrmax = _dqpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            final_sum = True
            break
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # is the interval to be bisected next the smallest one?
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if ierro != 3 and erlarg > ertest:
            # the smallest interval has the largest error: before bisecting,
            # decrease erlarg over the larger intervals and extrapolate
            jupbnd = last
            if last > 2 + limit // 2:
                jupbnd = limit + 3 - last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue
        # extrapolate
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _dqelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if abseps < abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break
        # prepare bisection of the smallest interval
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    if not final_sum and abserr != _OFLOW:
        # choose between the extrapolated and the summed result (label 100
        # of dqagse); the divergence test that follows there, and its ksgn,
        # only set ier
        if ier + ierro == 0:
            return result, abserr
        if ierro == 3:
            abserr = abserr + correc
        if result != 0.0 and area != 0.0:
            keep = not abserr / abs(result) > errsum / abs(area)
        else:
            keep = not abserr > errsum
        if keep:
            return result, abserr
    result = 0.0
    for k in range(1, last + 1):
        result = result + rlist[k]
    return result, errsum
