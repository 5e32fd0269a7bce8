"""An exact-arithmetic referee for the trip loop.

:class:`Exact` is a rational that stays exact beside floats, and
:func:`exact_trip` runs the engine's own trip loop, unchanged, on the
realized segments of a float trip as exact rationals.  Every sum, product
and quotient of the trip's bytes and times is then exact, and each branch
is decided by the same comparisons and round-off slacks, so where the two
trips take the same branches the float one differs only by its rounding.
The forecasts stay the nominal route's floats: both trips plan on them.
"""

import math
import operator
from fractions import Fraction

from offloadsim.engine import RunOutcome, _run
from offloadsim.model import EnergyModel, RouteProfile, TransferTask
from offloadsim.policies import Policy
from offloadsim.prediction import ErrorSpec, RealizedBatch, RealizedRow


def _exact(op):
    """The forward and reflected forms of the binary ``op`` on :class:`Exact`."""
    def apply(x, y):
        if any(isinstance(v, float) and not math.isfinite(v) for v in (x, y)):
            return op(float(x), float(y))
        return Exact(op(Fraction(x), Fraction(y)))

    return apply, lambda a, b: apply(b, a)


class Exact(Fraction):
    """A rational whose ``+ - * /`` with a finite float operand take the
    float's exact value (a plain Fraction would return a rounded float),
    and with an infinite one the float result (no rational is infinite)."""

    __add__, __radd__ = _exact(operator.add)
    __sub__, __rsub__ = _exact(operator.sub)
    __mul__, __rmul__ = _exact(operator.mul)
    __truediv__, __rtruediv__ = _exact(operator.truediv)


def exact_trip(realized: RealizedBatch, nominal: RouteProfile, task: TransferTask,
               policy: Policy, errors: ErrorSpec,
               energy: EnergyModel = EnergyModel()) -> RunOutcome:
    """``run_trip`` of the same arguments with the realized rows, each value
    the float trip reads (every slot a row has set), as :class:`Exact`."""
    rows = []
    for seg in realized.segments:
        row = RealizedRow()
        for name in RealizedRow.__slots__:
            if hasattr(seg, name):
                setattr(row, name, Exact(getattr(seg, name)))
        rows.append(row)
    return _run(rows, Exact(realized.total_time), nominal, task, policy, errors, energy)
