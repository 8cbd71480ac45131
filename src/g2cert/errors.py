"""Exception hierarchy shared across the package.

Everything raised on bad mathematical input derives from G2CertError so the
CLI can map it to a single exit code, distinct from usage errors.
"""

from __future__ import annotations

import functools


class G2CertError(Exception):
    """A mathematical precondition failed."""


class NotMonicError(G2CertError):
    pass


class NotPalindromicError(G2CertError):
    pass


class NotSeparableError(G2CertError):
    """A polynomial that must be squarefree has a repeated factor."""


class ExcludedPrimeError(G2CertError):
    """Reduction attempted at a prime of bad reduction.

    Carries the prime and the reason tag so reports can show both.
    """

    def __init__(self, p: int, reason: str):
        super().__init__(f"prime {p} is excluded ({reason})")
        self.p = p
        self.reason = reason

    def __reduce__(self):
        # rebuilt from (p, reason), not from the message that args holds
        return type(self), (self.p, self.reason)


class WitnessMismatchError(G2CertError):
    """Independent mod-p witnesses disagree.

    This is never expected on valid input; it indicates a defect in the
    implementation or an excluded prime that slipped through.

    Carries the prime, the name of the witness that failed, the value it
    required and the value it found:

    - "chi_delta": the residue symbol of delta that the class requires,
      and the one computed;
    - "x_pattern": the sextic pattern the class requires, and the one found;
    - "torus": (2, 0, 0), and V_T for the torus order T, both in F_p[y]/(Q);
    - "element_orders": 7, the least order allowed in classes 3a and 6a,
      and the two orders found.
    """

    def __init__(self, message: str, *, p: int, witness: str, expected: object, actual: object):
        super().__init__(message)
        self.p = p
        self.witness = witness
        self.expected = expected
        self.actual = actual

    def __reduce__(self):
        # a pooled scan's worker raises this in a child process; the
        # parent rebuilds it from the message and the context
        context = dict(p=self.p, witness=self.witness, expected=self.expected, actual=self.actual)
        return functools.partial(type(self), **context), self.args
