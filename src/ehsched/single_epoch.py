"""The burst power of one-epoch scheduling with circuit power: transmit
hard, then sleep.

While transmitting at sum power p the transmitter also burns a constant
circuit power eps, so draining a drainable budget E_tol = E_sc + eta*E_b
over a window t means choosing p and a transmission length
tau = E_tol/(p + eps) (equality: leftover energy would be wasted unless
the peak limit forces it).  The throughput tau*W(p) is maximized by the
power p_o that maximizes the efficiency ratio W(p)/(p + eps), which does
not depend on the energies at all.

p_o is exact.  On each water-filling segment W(p) = S - G ln G +
G ln(p + C) (see :mod:`ehsched.waterfill`), so the stationarity condition
W'(p)(p + eps) = W(p) becomes ln u + a/u = k with u = p + C,
a = C - eps and k = 1 + ln G - S/G.  In t = p/C and r = eps/C it reads

    (1 + t)(ln(1 + t) - d) - t = r,    d = k - 1 - ln C <= 0,

and on the segment that starts at p = 0, where W(0) = 0 makes d = 0,
(1 + t) ln(1 + t) - t = r.  :meth:`~ehsched.waterfill.WaterSystem.efficient_power`
solves it with two Halley steps from a close guess, or for small r by the
series t = s + s^2/6 - s^3/72 + ... in s = sqrt(2r), so p_o/sqrt(eps)
tends to sqrt(2C) as eps -> 0.  Which segment holds p_o is exact too:
g(p) = W'(p)(p + eps) - W(p) starts at eps*W'(0) > 0 and falls with p,
and the ratio rises exactly while g > 0, so p_o lies on the segment after
the last breakpoint where g > 0.

Writing u = -a/z turns the condition into z e^z = -a e^{-k}, so
u = -a / W0(-a e^{-k}) with the principal Lambert-W branch (Corless et
al., Adv. Comput. Math. 5, 1996).  The test suite checks the root against
this closed form (``tests/oracle.py``) where eps/C is not small; as eps
falls to 0 its argument nears the branch point -1/e, and the rounding of
k swamps the distance to it.

The budget and window then select one of three regimes:

    p_o < p_peak and E_tol <  t*(p_o + eps)    -> p = p_o, tau < t
    p_o < p_peak and E_tol in the middle range -> p = E_tol/t - eps, tau = t
    otherwise                                  -> p = p_peak

The drained energy is funded SC-first and the circuit draw follows
whichever buffer funds that slice of time.  This module holds p_o only:
:func:`ehsched.online.run_online` applies the regimes per epoch, and the
test suite keeps the whole one-epoch rule as a reference function
(``solve_single_epoch`` in ``tests/reference_online.py``).
"""

from __future__ import annotations

import numpy as np

from .channels import EffectiveChannels
from .energy import check_powers
from .waterfill import WaterSystem


def solve_p_o(eff: EffectiveChannels, weights, eps):
    """The efficiency-optimal power: the maximizer of W(p)/(p + eps), for
    a scalar circuit power or each of an array.

    Harvested energies are deliberately not inputs: p_o is a property of
    the channels, weights and circuit power alone.  eps = 0 returns 0
    (the ratio W(p)/p is then decreasing).
    """
    eps = check_powers(eps=np.asarray(eps, dtype=float))
    return WaterSystem.shared(eff, weights).efficient_power(eps)
