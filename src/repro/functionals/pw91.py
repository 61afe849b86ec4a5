"""Perdew-Wang 1991 GGA exchange and correlation (zeta = 0).

PW91 is the direct predecessor of PBE: a non-empirical GGA derived from
the real-space cutoff of the exchange-correlation hole.  PBE was designed
as a leaner successor to it, so the two agree closely over the physical
range of (rs, s) -- a relation the unit tests exploit.  Its functional
form is considerably busier than PBE's (asinh terms in the exchange, a
second gradient term H1 with a Rasolt-Geldart coefficient function in the
correlation), which makes it a good mid-complexity data point between PBE
and SCAN on the solver-difficulty scale.

Forms follow the published PW91 appendix; ``asinh`` is spelled with
log/sqrt as in :mod:`repro.functionals.b88`.
"""

from __future__ import annotations

from ..pysym.intrinsics import exp, log, pi
from .b88 import asinh
from .lda_x import eps_x_unif
from .pw92 import eps_c_pw92
from .vars import T2C

# --- exchange constants (PW91 F_x Pade fit) -----------------------------------
AX1 = 0.19645
AX2 = 7.7956  # = 2 (6 pi^2)^(1/3), the per-spin x/s conversion
AX3 = 0.2743
AX4 = 0.1508
AX5 = 0.004

# --- correlation constants ------------------------------------------------------
ALPHA_C = 0.09
#: nu = (16 / pi) (3 pi^2)^(1/3)
NU_C = (16.0 / pi) * (3.0 * pi**2) ** (1.0 / 3.0)
CC0 = 0.004235
CX = -0.001667
#: beta of the H0 term, beta = nu * Cc(0)
BETA_C = NU_C * CC0


def fx_pw91(s):
    """PW91 exchange enhancement factor F_x(s)."""
    s2 = s * s
    a = AX1 * s * asinh(AX2 * s)
    num = 1.0 + a + (AX3 - AX4 * exp(-100.0 * s2)) * s2
    den = 1.0 + a + AX5 * s2 * s2
    return num / den


def eps_x_pw91(rs, s):
    """PW91 exchange energy per particle."""
    return eps_x_unif(rs) * fx_pw91(s)


def cc_pw91(rs):
    """Rasolt-Geldart gradient coefficient C_c(rs) (Pade fit).

    C_c(0) = 0.001667 + 0.002568 = 0.004235 = CC0.
    """
    num = 0.002568 + 0.023266 * rs + 7.389e-6 * rs * rs
    den = 1.0 + 8.723 * rs + 0.472 * rs * rs + 0.07389 * rs * rs * rs
    return 0.001667 + num / den


def eps_c_pw91(rs, s):
    """PW91 correlation energy per particle (zeta = 0).

    eps_c = eps_c^PW92 + H0 + H1 with

    * H0 the resummed gradient term (same shape as PBE's H, different
      constants: alpha = 0.09, beta = nu Cc(0)),
    * H1 = nu (Cc(rs) - Cc(0) - 3 Cx / 7) t^2 exp(-100 s^2), the
      short-wavelength correction PBE later dropped.
    """
    s2 = s * s
    eps_lda = eps_c_pw92(rs)
    t2 = T2C * s2 / rs
    A = (2.0 * ALPHA_C / BETA_C) / (
        exp(-2.0 * ALPHA_C * eps_lda / (BETA_C * BETA_C)) - 1.0
    )
    num = t2 + A * t2 * t2
    den = 1.0 + A * t2 + A * A * t2 * t2
    h0 = (BETA_C * BETA_C / (2.0 * ALPHA_C)) * log(
        1.0 + (2.0 * ALPHA_C / BETA_C) * num / den
    )
    h1 = NU_C * (cc_pw91(rs) - CC0 - 3.0 * CX / 7.0) * t2 * exp(-100.0 * s2)
    return eps_lda + h0 + h1
