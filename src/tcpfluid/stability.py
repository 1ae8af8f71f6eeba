"""Local stability diagnostics for the CUBIC fluid model.

Everything here works in the fixed-point-centred coordinates
x1 = w_max - w_hat, x2 = s - s_hat.  The Lyapunov candidate is

    V(x) = (d1/2) x1^2 + (d4/4) x2^4

whose derivative along solutions is, to leading order, a negative quartic
form captured by a 3x3 matrix acting on z = (x1^2, sqrt(2) x1 x2, x2^2).
The quartic form is positive definite whenever the cubic-truncation
coefficients satisfy alpha*gamma > beta^2/4, which holds identically for
this model, so the fixed point is locally asymptotically stable and the
decay of V yields an explicit polynomial convergence bound and a basin
estimate.

The per-sample diagnostics of a trajectory (|x|, V, the exact dV/dt, the
decay bound and the Razumikhin history test) are numpy arrays formed from
the integrator's columns as they are: x is the deviation it integrated, so
the trajectory must be integrated about the certificate's fixed point
(moved there from another point, deviations would lose precision as the run
converges, keeping only the absolute precision of the offset between the
points).  dV/dt = d1 x1 dx1/dt + d4 x2^3 dx2/dt takes the derivatives stored
at each sample, which used the true delayed history, and the history test
takes a maximum of V over the trailing delay.  numpy's vector ``hypot`` and
``power`` may differ from ``math`` in the last ulp, so against a per-sample
scalar route |x| and V agree to a few ulps and dV/dt to about 1e-13
relative; the bound and the Razumikhin mask are bit-identical.  All but the
history test are elementwise, so ``diagnostic_columns``, the one source of
the CSV's rows, forms them for any range of samples, as forked writers do
while the model integrates.  ``stability_trace`` forms its two verdicts in
one pass over blocks of samples, from the |x|, V and bound that table is
built on, without its dV/dt; the history test of a block reaches back into
the last delay of V before it.  Its working memory is one block plus one
delay of samples, and only the verdicts are kept whole.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .artifacts import CSVParts, write_rows
from .core import SystemParams
from .dde import Trajectory, steps_per_delay
from .fixedpoint import FixedPoint


class CertificateError(ArithmeticError):
    """The certificate's quantities leave the float range for this system."""


@dataclass(frozen=True)
class ExpansionCoeffs:
    """Cubic-truncation coefficients of dx1/dt about the fixed point:

    dx1/dt = -alpha x1^3 + beta x1^2 x2 - gamma x1 x2^2 + delta x2^3 + h.o.t.
    """

    alpha: float
    beta: float
    gamma: float
    delta: float


def expansion_coeffs(fp: FixedPoint, params: SystemParams) -> ExpansionCoeffs:
    s = fp.s_hat
    b = params.b
    c = params.c
    try:
        return ExpansionCoeffs(
            alpha=b**3 / (27.0 * c**2 * s**7),
            beta=b**2 / (3.0 * c * s**5),
            gamma=b / s**3,
            delta=c / s,
        )
    except ArithmeticError as exc:  # a power overflows, or one underflows to 0
        raise CertificateError(f"expansion coefficients at s_hat={s}: {exc}") from None


# Margin choices of the Lyapunov argument: eps1 and the higher-order
# allowance are these fractions of their strict upper bounds, the Razumikhin
# comparison uses RAZUMIKHIN_P > 1, and |x|^4 <= bound has slack BOUND_RTOL.
EPS1_FRAC = 0.5
K_FRAC = 0.5
RAZUMIKHIN_P = 1.01
BOUND_RTOL = 1e-12
# Samples whose verdicts ``stability_trace`` forms at a time, unless one
# delay plus one sample is longer.
_TRACE_BLOCK = 4096


@dataclass(frozen=True)
class Certificate:
    """The local stability certificate of one CUBIC fixed point.

    fp          the fixed point it certifies; x is the deviation from it
    coeffs      cubic-truncation coefficients of dx1/dt
    d1, d4      weights of the x1^2 and x2^4 terms of V
    eps0        V <= eps0 * |x|^2 on the unit ball
    eps1        V >= eps1 * |x|^4 on the unit ball (strict-margin choice)
    matrix      quartic-form matrix of -dV/dt in z = (x1^2, sqrt(2) x1 x2, x2^2)
    lambda_min  its smallest eigenvalue, positive
    k_margin    higher-order-term allowance, K_FRAC * lambda_min
    """

    fp: FixedPoint
    coeffs: ExpansionCoeffs
    d1: float
    d4: float
    eps0: float
    eps1: float
    matrix: np.ndarray
    lambda_min: float
    k_margin: float


def certificate(fp: FixedPoint, params: SystemParams) -> Certificate:
    """Weights, margins and quartic-form matrix of the Lyapunov argument.

    The weights are d1 = s_hat/c and d4 = tau/s_hat.  eps1 must sit strictly
    below min(s_hat/6c, tau/4 s_hat) and the higher-order allowance strictly
    below lambda_min; they are EPS1_FRAC and K_FRAC of those bounds.

    Positive definiteness is checked twice.  Route one checks the leading
    principal minors, which reduce to alpha*gamma > beta^2/4 together with a
    positive corner entry; route two checks the closed-form eigenvalues.  The
    form is definite at every fixed point, so a failure or disagreement means
    the entries left the float range, and raises CertificateError.
    """
    coeffs = expansion_coeffs(fp, params)
    d1 = fp.s_hat / params.c
    d4 = params.tau / fp.s_hat
    a = d1 * coeffs.alpha
    off = -d1 * coeffs.beta / (2.0 * math.sqrt(2.0))
    d = 0.5 * d1 * coeffs.gamma
    corner = d4 / fp.s_hat
    mean = 0.5 * (a + d)
    disc = math.hypot(0.5 * (a - d), off)
    lam_max = mean + disc
    det = a * d - off * off
    # lam_min = mean - disc cancels badly when the block is ill scaled;
    # det / lam_max is the same number without the cancellation.
    lam = min(det / lam_max if lam_max > 0.0 else mean - disc, corner)
    minors_ok = (
        a > 0.0
        and coeffs.alpha * coeffs.gamma - 0.25 * coeffs.beta**2 > 0.0
        and corner > 0.0
    )
    eigs_ok = lam > 0.0
    if minors_ok != eigs_ok:
        raise CertificateError(
            f"definiteness checks disagree: minors={minors_ok}, eigs={eigs_ok}"
        )
    if not minors_ok:
        raise CertificateError("quartic form is not positive definite")
    return Certificate(
        fp=fp,
        coeffs=coeffs,
        d1=d1,
        d4=d4,
        eps0=max(0.5 * d1, 0.25 * d4),
        eps1=EPS1_FRAC * min(d1 / 6.0, 0.25 * d4),
        matrix=np.array([[a, off, 0.0], [off, d, 0.0], [0.0, 0.0, corner]]),
        lambda_min=lam,
        k_margin=K_FRAC * lam,
    )


def lyapunov_V(x1, x2, cert: Certificate):
    """V at the deviation (x1, x2), scalars or arrays of samples."""
    return 0.5 * cert.d1 * x1 * x1 + 0.25 * cert.d4 * x2**4


def vdot_along(x1, x2, dx1, dx2, cert: Certificate) -> np.ndarray:
    """dV/dt at the deviations (x1, x2) from ``cert.fp`` whose time
    derivatives are (dx1, dx2): the integrator's stored columns."""
    return cert.d1 * x1 * dx1 + cert.d4 * x2**3 * dx2


def razumikhin_mask(v: np.ndarray, k: int) -> np.ndarray:
    """Per-sample truth of the history comparison max V(past) <= RAZUMIKHIN_P * V(now).

    The comparison window is the trailing delay, the k + 1 samples ending at
    the current one; times before the start use the first sample, which is
    the history the integrator holds on [-tau, 0].  Maxima over spans that
    double, up to the largest power of two that fits the window, cover it
    with two overlapping spans: O(n log k), and exact, since max is.
    """
    a = np.concatenate((np.full(k, v[0]), v))
    span = 1
    while 2 * span <= k + 1:  # a[i] becomes the maximum of the next 2 * span values
        a = np.maximum(a[:-span], a[span:])
        span *= 2
    return np.maximum(a[:len(v)], a[k + 1 - span:]) <= RAZUMIKHIN_P * v


def convergence_bound(t, v0: float, cert: Certificate):
    """Bound on |x(t)|^4 from the decay of V; accepts scalar or array t >= 0.

    1 / ( eps1*(lambda_min - k_margin)/eps0^2 * t + eps1/V(0) )

    ``certificate`` makes lambda_min - k_margin positive.
    """
    if not v0 > 0.0:
        raise ValueError(f"V(0) must be positive, got {v0}")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("bound requested before t = 0")
    slope = cert.eps1 * (cert.lambda_min - cert.k_margin) / cert.eps0**2
    out = 1.0 / (slope * t + cert.eps1 / v0)
    return float(out) if out.ndim == 0 else out


def basin_delta(epsilon: float, cert: Certificate) -> float:
    """Initial-history radius guaranteeing |x(t)| stays below epsilon."""
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    return epsilon * epsilon * math.sqrt(cert.eps1 / cert.eps0)


def _verdict_columns(traj: Trajectory, cert: Certificate):
    """A function giving the columns t, |x|, V and the decay bound of samples
    [lo, hi) of ``traj``: the table :func:`diagnostic_columns` without
    dV/dt.  Each is elementwise in the samples, the bound given V(0), so a
    range's columns are the same bits as that range of the whole
    trajectory's.  Raises ``ValueError`` unless ``traj`` was integrated
    about ``cert.fp`` (see the module docstring)."""
    if traj.ref != (cert.fp.w_hat, cert.fp.s_hat):
        raise ValueError(f"the trajectory is integrated about {tuple(traj.ref)}, not about "
                         f"the certificate's fixed point {(cert.fp.w_hat, cert.fp.s_hat)}")
    v0 = float(lyapunov_V(traj.x1[:1], traj.x2[:1], cert)[0])

    def columns(lo: int, hi: int):
        t, x1, x2 = traj.t[lo:hi], traj.x1[lo:hi], traj.x2[lo:hi]
        return (t, np.hypot(x1, x2), lyapunov_V(x1, x2, cert), convergence_bound(t, v0, cert))

    return columns


def diagnostic_columns(traj: Trajectory, cert: Certificate):
    """The convergence CSV's table of ``traj``, integrated about ``cert.fp``
    (see :func:`tcpfluid.artifacts.write_rows`): a function giving the
    columns t, |x|, V, dV/dt and the decay bound of samples [lo, hi), the
    verdicts' columns with dV/dt among them."""
    verdict_columns = _verdict_columns(traj, cert)

    def columns(lo: int, hi: int):
        t, norm, v, bound = verdict_columns(lo, hi)
        vdot = vdot_along(traj.x1[lo:hi], traj.x2[lo:hi], traj.dx1[lo:hi], traj.dx2[lo:hi],
                          cert)
        return t, norm, v, vdot, bound

    return columns


@dataclass
class DiagnosticTrace:
    """Stability diagnostics of one trajectory: its grid ``t``, the
    :func:`diagnostic_columns` table ``columns`` its CSV is written from, and
    per sample ``bounded`` (|x|^4 within the decay bound) and ``razumikhin_ok``."""

    t: np.ndarray
    columns: Callable[[int, int], tuple[np.ndarray, ...]]
    bounded: np.ndarray
    razumikhin_ok: np.ndarray

    def write_csv(self, path, head: CSVParts | None = None) -> None:
        """The CSV with header t,norm_x,V,Vdot,bound; rows [0, head.rows)
        are the parts of ``head`` (see :func:`tcpfluid.artifacts.write_rows`)."""
        write_rows(path, "t,norm_x,V,Vdot,bound", len(self.t), self.columns, head)


def stability_trace(traj: Trajectory, cert: Certificate) -> DiagnosticTrace:
    """The diagnostics of one trajectory integrated about ``cert.fp``, its
    verdicts formed in one pass.

    Blocks of max(_TRACE_BLOCK, k + 1) samples, k the steps per delay, read
    |x|, V and the bound that :func:`diagnostic_columns` is built on, so
    with its bits, and never its dV/dt.  A block's Razumikhin windows reach
    back into the last k values of V before it; the first block has none,
    and the mask pads it with V(0) as on the whole trajectory.  Max is
    exact, so the verdicts are those of the whole columns, while the working
    memory is one block plus one delay.  A block of at least k + 1 samples
    keeps the pass O(n log k)."""
    verdict_columns = _verdict_columns(traj, cert)
    n = len(traj.t)
    k = steps_per_delay(traj.params.tau, traj.step)
    block = max(_TRACE_BLOCK, k + 1)
    bounded = np.empty(n, dtype=bool)
    razumikhin_ok = np.empty(n, dtype=bool)
    carry = np.empty(0)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        _, norm, v, bound = verdict_columns(lo, hi)
        bounded[lo:hi] = norm**4 <= bound * (1.0 + BOUND_RTOL)
        mask = razumikhin_mask(np.concatenate((carry, v)), k)
        razumikhin_ok[lo:hi] = mask[len(carry):]
        carry = v[-k:]
    return DiagnosticTrace(traj.t, diagnostic_columns(traj, cert), bounded, razumikhin_ok)
