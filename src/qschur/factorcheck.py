"""End-to-end Krein-Langer verification S = B0^{-*} * S0.

A FactorizationCase packages a Blaschke product B0, a Schur-class S0
(built from contractive constants or Blaschke data, so its own index is
zero), and the star quotient S.  The check estimates the index of S by
Gram sampling, compares it with deg B0, and runs the factorization
kernel identity; a verdict is PASS only when both agree within their
stated tolerances.  Half-space cases are transported to the ball by the
Cayley map (p - x0)(p + x0)^{-1} and verified there.

S is the multiplied slice-rational function B0^{-*} * S0: both factors
have real denominators, so the star product is one rational whose
values and Taylor coefficients every check reads.
"""

import math
from dataclasses import dataclass

from .blaschke import BALL, HALFSPACE, FactoredProduct, ZeroSet, build_product
from .errors import DomainError, ExpansionError, NumericError, PoleError
from .kernels import (
    SchurFunction,
    estimate_neg_squares,
    kernel_identity_check,
)
from .quat import Quaternion, as_quaternion

# reproducible default budget for acceptance runs ("SC05" read as hex 5C05)
DEFAULT_SEED = 0x5C05


@dataclass(frozen=True)
class Budget:
    """Sampling and truncation budget for one verification run.

    kernel_tol is accepted and echoed in reports but changes no result:
    the Schur kernel is summed in closed form, without truncation.
    """

    trials: int = 200
    batch: int = 40
    rho: float = 0.9
    seed: int = DEFAULT_SEED
    cutoff: float = 1e-8
    kernel_tol: float = 1e-9
    identity_trunc: int = 48
    identity_points: int = 12
    min_eig_tol: float = 1e-8

    def to_json(self):
        return {
            "trials": self.trials,
            "batch": self.batch,
            "rho": self.rho,
            "seed": self.seed,
            "cutoff": self.cutoff,
            "kernel_tol": self.kernel_tol,
            "identity_trunc": self.identity_trunc,
            "identity_points": self.identity_points,
            "min_eig_tol": self.min_eig_tol,
        }


@dataclass
class FactorizationCase:
    b0: FactoredProduct
    s0: SchurFunction
    s: SchurFunction
    expected_kappa: int
    domain: str


def _schur_from_spec(spec, domain):
    """Accept a ZeroSet, FactoredProduct, SchurFunction, Quaternion, or
    real constant as the S0 ingredient."""
    if spec is None:
        return SchurFunction.constant(Quaternion.from_real(1.0), domain=domain)
    if isinstance(spec, SchurFunction):
        return spec
    if isinstance(spec, FactoredProduct):
        return SchurFunction.from_product(spec)
    if isinstance(spec, ZeroSet):
        return SchurFunction.from_product(build_product(spec))
    if isinstance(spec, (int, float)):
        spec = Quaternion.from_real(spec)
    if isinstance(spec, Quaternion):
        if spec.norm() > 1.0 + 1e-14:
            raise DomainError("constant S0 needs norm at most 1")
        return SchurFunction.constant(spec, domain=domain)
    raise DomainError("unsupported S0 specification %r" % (spec,))


def synthesize_generalized_schur(b0_spec, s0_spec=None):
    """Build a FactorizationCase with expected index r deg B0, r the rows of S0.

    b0_spec is a ZeroSet or a ready FactoredProduct; s0_spec is Blaschke
    data (ZeroSet / FactoredProduct), a constant of norm <= 1, a ready
    SchurFunction, or None for the constant 1.  A scalar B0 multiplies an
    r x s S0 as B0 I_r.
    """
    if isinstance(b0_spec, ZeroSet):
        b0 = build_product(b0_spec)
    elif isinstance(b0_spec, FactoredProduct):
        b0 = b0_spec
    elif b0_spec is None:
        b0 = None
    else:
        raise DomainError("unsupported B0 specification %r" % (b0_spec,))

    domain = b0.domain if b0 is not None else BALL
    s0 = _schur_from_spec(s0_spec, domain)
    if b0 is not None and s0.domain != domain:
        raise DomainError("B0 and S0 live in different domains")

    if b0 is None or not b0.factors:
        b0 = FactoredProduct.identity(domain)
        s = s0
    else:
        s = SchurFunction.star_quotient(b0.inverse().rational, s0,
                                        label="B0^{-*} * S0")
    # B0^{-*} acts on S0 as B0^{-*} I_r, a product of degree r deg B0
    return FactorizationCase(
        b0=b0, s0=s0, s=s, expected_kappa=s0.rows * b0.degree(), domain=domain
    )


def _finite_or_none(x):
    """x, or None (JSON null) when it is not a finite number."""
    return x if math.isfinite(x) else None


@dataclass
class VerdictReport:
    """Outcome of one Krein-Langer verification run."""

    verdict: str                  # PASS | FAIL | INCONCLUSIVE
    kappa_hat: int                # None when the sampling leg failed
    deg_b0: int
    identity_residual: float
    min_gram_eig: float
    budget: Budget
    reason: str = ""
    negsq: object = None
    identity: object = None

    def to_json(self):
        out = {
            "verdict": self.verdict,
            "kappa_hat": self.kappa_hat,
            "deg_B0": self.deg_b0,
            "identity_residual": _finite_or_none(self.identity_residual),
            "identity_tail_bound": (None if self.identity is None
                                    else _finite_or_none(self.identity.tail_bound)),
            "min_gram_eig": _finite_or_none(self.min_gram_eig),
            "budget": self.budget.to_json(),
        }
        if self.reason:
            out["reason"] = self.reason
        if self.identity is not None and self.identity.vacuous:
            out["identity_vacuous"] = True
        return out


def krein_langer_check(case, budget=Budget(), expected_kappa=None):
    """Estimate ind S, compare with deg B0, and verify the kernel identity.

    expected_kappa overrides the case target (negative controls inject a
    wrong value and must flip the verdict to FAIL).  An insufficient
    identity truncation or a non-finite identity tail yields INCONCLUSIVE,
    never a silent pass; a kernel identity that deviates beyond a
    certified tail is a FAIL.  The identity leg runs first, and an
    identity expansion that fails (B0 vanishing at the origin) ends the
    check INCONCLUSIVE with kappa_hat None, without sampling.  A sampling
    leg stopped by a pole sphere or a numeric failure leaves kappa_hat
    None and, unless the identity leg fails, the verdict INCONCLUSIVE; when
    both legs are inconclusive the reason names both.  A PASS with a
    vacuous identity leg says so in its reason.
    """
    if case.domain == HALFSPACE:
        case = transport_case_to_ball(case)
    target = case.expected_kappa if expected_kappa is None else int(expected_kappa)

    # each leg seeds its own generator, so the identity leg may run first
    try:
        ident = kernel_identity_check(
            case.s, case.b0, case.s0,
            trunc=budget.identity_trunc,
            gram_points=budget.identity_points,
            seed=budget.seed + 1,
        )
    except ExpansionError as exc:
        return VerdictReport(
            verdict="INCONCLUSIVE",
            kappa_hat=None,
            deg_b0=case.b0.degree(),
            identity_residual=float("nan"),
            min_gram_eig=float("nan"),
            budget=budget,
            reason="identity expansion failed: %s" % exc,
        )

    try:
        negsq = estimate_neg_squares(
            case.s,
            trials=budget.trials,
            batch=budget.batch,
            seed=budget.seed,
            rho=budget.rho,
            cutoff=budget.cutoff,
        )
    except (PoleError, NumericError) as exc:
        negsq, sampling_error = None, exc
    kappa_hat = None if negsq is None else negsq.kappa_hat

    if ident.status == "inconclusive":
        verdict = "INCONCLUSIVE"
        if not math.isfinite(ident.tail_bound):
            reason = "identity tail bound is not finite"
        elif not math.isfinite(ident.max_coeff_dev):
            reason = "identity deviation is not finite"
        else:
            reason = "identity truncation insufficient (tail %.3e)" % ident.tail_bound
        if negsq is None:
            reason += "; sampling leg failed: %s" % sampling_error
    elif ident.status == "fail":
        verdict = "FAIL"
        reason = "identity deviation %.3e with certified tail %.3e" % (
            ident.max_coeff_dev, ident.tail_bound)
    elif negsq is None:
        verdict = "INCONCLUSIVE"
        reason = "sampling leg failed: %s" % sampling_error
    elif kappa_hat != target:
        verdict = "FAIL"
        reason = "kappa-hat %d differs from target %d" % (kappa_hat, target)
    elif ident.min_gram_eig < -budget.min_eig_tol:
        verdict = "FAIL"
        reason = "difference kernel not positive (min eig %.3e)" % ident.min_gram_eig
    else:
        verdict = "PASS"
        # S0 unitary gives S = B: the identity holds trivially and proves nothing
        reason = ("identity leg is vacuous (S = B, so K_S - K_B = 0); "
                  "the kappa leg carries the claim") if ident.vacuous else ""
    return VerdictReport(
        verdict=verdict,
        kappa_hat=kappa_hat,
        deg_b0=case.b0.degree(),
        identity_residual=ident.max_coeff_dev,
        min_gram_eig=ident.min_gram_eig,
        budget=budget,
        reason=reason,
        negsq=negsq,
        identity=ident,
    )


# ---------------------------------------------------------------------------
# Cayley transport
# ---------------------------------------------------------------------------

def cayley_map(p, x0, direction="halfspace_to_ball"):
    """The real Mobius map between the right half-space and the unit ball."""
    p = as_quaternion(p)
    if not x0 > 0.0:
        raise DomainError("x0 must be positive")
    if direction == "halfspace_to_ball":
        den = p + Quaternion.from_real(x0)
        if den.norm() <= 1e-14 * max(1.0, p.norm()):
            raise DomainError("Cayley map pole at p = -x0")
        return (p - Quaternion.from_real(x0)) * den.inverse()
    if direction == "ball_to_halfspace":
        den = Quaternion.from_real(1.0) - p
        if den.norm() <= 1e-14 * max(1.0, p.norm()):
            raise DomainError("inverse Cayley map pole at p = 1")
        return (Quaternion.from_real(x0) + p * x0) * den.inverse()
    raise DomainError("unknown transport direction %r" % (direction,))


def cayley_transport(s, x0, direction="halfspace_to_ball"):
    """Compose a Schur function with the Cayley map, swapping its domain.

    halfspace_to_ball returns w -> S(x0 (1 + w)(1 - w)^{-1}) on the ball;
    ball_to_halfspace returns p -> S((p - x0)(p + x0)^{-1}).  The map has
    real coefficients, so the rational is composed by direct
    substitution; index preservation is checked by the callers that
    compare sampling estimates, not assumed.
    """
    if not x0 > 0.0:
        raise DomainError("x0 must be positive")
    if direction == "halfspace_to_ball":
        if s.domain != HALFSPACE:
            raise DomainError("source must live on the half-space")
        return SchurFunction.compose_real_mobius(
            s, x0, x0, 1.0, -1.0, domain=BALL,
            label=(s.label or "S") + " o cayley",
        )
    if direction == "ball_to_halfspace":
        if s.domain != BALL:
            raise DomainError("source must live on the ball")
        return SchurFunction.compose_real_mobius(
            s, -x0, 1.0, x0, 1.0, domain=HALFSPACE,
            label=(s.label or "S") + " o cayley-inverse",
        )
    raise DomainError("unknown transport direction %r" % (direction,))


class TransportedProduct(FactoredProduct):
    """Ball-side image of a half-space Blaschke product.

    The Cayley image of b_a is contractive with the same zero count but is
    not a normalized ball factor, so it is carried by its rational form
    with the degree and the star inverse fixed from the source product.
    """

    def __init__(self, rational, degree, inverse):
        super().__init__(BALL, [], size=1, rational=rational)
        self._degree = int(degree)
        self._inverse = FactoredProduct(BALL, [], size=1, rational=inverse)

    def degree(self):
        return self._degree

    # the cached inverse of FactoredProduct, bound here too because the
    # benchmark's tracer (perfbench/spans.py) wraps it under this class
    inverse = FactoredProduct.inverse


def transport_case_to_ball(case, x0=1.0):
    """Move a half-space FactorizationCase to the ball for verification.

    B0^{-*} on the ball is the Cayley image of the half-space factor-chain
    inverse, of degree 2 deg B0 like the image of B0 itself.
    """
    if case.domain != HALFSPACE:
        return case
    b0_ball = TransportedProduct(
        case.b0.rational.compose_real_mobius(x0, x0, 1.0, -1.0), case.b0.degree(),
        case.b0.inverse().rational.compose_real_mobius(x0, x0, 1.0, -1.0))
    s0_ball = cayley_transport(case.s0, x0, "halfspace_to_ball")
    s_ball = SchurFunction.star_quotient(
        b0_ball.inverse().rational, s0_ball, label="transported quotient"
    )
    return FactorizationCase(
        b0=b0_ball, s0=s0_ball, s=s_ball,
        expected_kappa=case.expected_kappa, domain=BALL,
    )
