"""End-to-end Krein-Langer verification S = B0^{-*} * S0.

A FactorizationCase packages a Blaschke product B0, a Schur-class S0
(built from contractive constants or Blaschke data, so its own index is
zero), and the star quotient S.  The check estimates the index of S by
Gram sampling, compares it with deg B0, and runs the factorization
kernel identity; a verdict is PASS only when both agree within their
stated tolerances.  Half-space cases are carried to the ball by
kernels.cayley_transport at x0 = CAYLEY_X0 = 1, which keeps the number
of negative squares, and verified there.

S is the multiplied slice-rational function B0^{-*} * S0: both factors
have real denominators, so the star product is one rational whose
values and Taylor coefficients every check reads.
"""

import math
from dataclasses import asdict, dataclass

from .blaschke import BALL, HALFSPACE, FactoredProduct, ZeroSet, build_product
from .errors import DomainError, ExpansionError, NumericError, PoleError
from .kernels import (
    CAYLEY_X0,
    SchurFunction,
    cayley_transport,
    estimate_neg_squares,
    kernel_identity_check,
)
from .quat import Quaternion

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
    # relative to max(1, max |eigenvalue|) of the difference-kernel Gram
    min_eig_tol: float = 1e-8

    def to_json(self):
        return asdict(self)


@dataclass
class FactorizationCase:
    b0: FactoredProduct
    s0: SchurFunction
    s: SchurFunction
    expected_kappa: int
    domain: str


def _schur_from_spec(spec, domain):
    """Accept a ZeroSet, SchurFunction, Quaternion, or real constant as
    the S0 ingredient."""
    if spec is None:
        return SchurFunction.constant(Quaternion.from_real(1.0), domain=domain)
    if isinstance(spec, SchurFunction):
        return spec
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
    data (a ZeroSet), a constant of norm <= 1, a ready SchurFunction, or
    None for the constant 1.  A scalar B0 multiplies an r x s S0 as B0 I_r.
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
        s = SchurFunction.star_quotient(b0.inverse().rational, s0)
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
    """Estimate ind S, compare it with the target, and verify the kernel identity.

    The target is the case's expected index unless expected_kappa
    overrides it (negative controls inject a wrong value and must flip
    the verdict to FAIL).  The identity leg runs first; the sampling leg
    then gives kappa_hat, a lower bound on ind S, or None when a pole
    sphere or a numeric failure stopped it.  The verdict is that of the
    first row that applies:

      1. the identity expansion failed (B0 vanishing at the origin):
         INCONCLUSIVE, with kappa_hat None and no sampling;
      2. the identity deviates, relative to the scale of its sides,
         beyond a certified tail: FAIL;
      3. kappa_hat exceeds the target: FAIL, whatever the identity leg
         says, since a lower bound on ind S is already above it;
      4. the identity leg is inconclusive (truncation insufficient, or a
         tail or deviation that is not finite): INCONCLUSIVE, the reason
         also naming a failed sampling leg;
      5. the sampling leg failed: INCONCLUSIVE;
      6. kappa_hat is below a target above r deg B0 (r the rows of S0):
         FAIL, since an ok identity leg bounds ind S by r deg B0;
      7. the Gram of the difference kernel has an eigenvalue below
         -min_eig_tol max(1, max |eigenvalue|), the relative rule of
         herm_eigen_neg: FAIL;
      8. kappa_hat is below the target: INCONCLUSIVE, since a lower
         bound that falls short of the target refutes nothing;
      9. otherwise PASS, whose reason notes a vacuous identity leg.
    """
    if case.domain == HALFSPACE:
        case = transport_case_to_ball(case)
    target = case.expected_kappa if expected_kappa is None else int(expected_kappa)
    # an ok identity leg gives ind S <= ind K_B = r deg B0, as K_{S0} >= 0
    bound = case.s0.rows * case.b0.degree()

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

    if ident.status == "fail":
        verdict = "FAIL"
        reason = "identity deviation %.3e with certified tail %.3e" % (
            ident.max_coeff_dev, ident.tail_bound)
    elif kappa_hat is not None and kappa_hat > target:
        verdict = "FAIL"
        reason = "kappa-hat %d exceeds target %d" % (kappa_hat, target)
    elif ident.status == "inconclusive":
        verdict = "INCONCLUSIVE"
        if not math.isfinite(ident.tail_bound):
            reason = "identity tail bound is not finite"
        elif not math.isfinite(ident.max_coeff_dev):
            reason = "identity deviation is not finite"
        else:
            reason = "identity truncation insufficient (tail %.3e)" % ident.tail_bound
        if negsq is None:
            reason += "; sampling leg failed: %s" % sampling_error
    elif negsq is None:
        verdict = "INCONCLUSIVE"
        reason = "sampling leg failed: %s" % sampling_error
    elif kappa_hat < target and target > bound:
        verdict = "FAIL"
        reason = "kappa-hat %d below target %d, which exceeds the bound r deg B0 = %d" % (
            kappa_hat, target, bound)
    elif ident.min_gram_eig < -budget.min_eig_tol * max(1.0, ident.max_abs_gram_eig):
        verdict = "FAIL"
        reason = "difference kernel not positive (min eig %.3e)" % ident.min_gram_eig
    elif kappa_hat < target:
        verdict = "INCONCLUSIVE"
        reason = "kappa-hat %d below target %d after %d trials" % (
            kappa_hat, target, negsq.trials)
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
# half-space cases
# ---------------------------------------------------------------------------

class TransportedProduct(FactoredProduct):
    """Ball-side image of a half-space Blaschke product.

    The Cayley image of b_a is contractive with the same zero count but is
    not a normalized ball factor, so it is carried by its rational form
    with the degree and the star inverse fixed from the source product.
    """

    def __init__(self, rational, degree, inverse):
        super().__init__(BALL, [], rational=rational)
        self._degree = int(degree)
        self._inverse = FactoredProduct(BALL, [], rational=inverse)

    def degree(self):
        return self._degree

    # the cached inverse of FactoredProduct, bound here too because the
    # benchmark's tracer (perfbench/spans.py) wraps it under this class
    inverse = FactoredProduct.inverse


def transport_case_to_ball(case):
    """Move a half-space FactorizationCase to the ball for verification.

    Every part goes through cayley_transport at CAYLEY_X0.  B0^{-*} on
    the ball is the Cayley image of the half-space factor-chain inverse,
    of degree 2 deg B0 like the image of B0 itself.  S and S0 are the
    Cayley images of the case's own S and S0, so the ball check reads
    the S it was given.
    """
    if case.domain != HALFSPACE:
        return case
    b0_ball = TransportedProduct(
        cayley_transport(case.b0, CAYLEY_X0).rational, case.b0.degree(),
        cayley_transport(case.b0.inverse(), CAYLEY_X0).rational)
    s0_ball = cayley_transport(case.s0, CAYLEY_X0)
    s_ball = cayley_transport(case.s, CAYLEY_X0)
    return FactorizationCase(
        b0=b0_ball, s0=s0_ball, s=s_ball,
        expected_kappa=case.expected_kappa, domain=BALL,
    )
