"""kl-sample and kl-identity: the two legs of the Krein-Langer check on six cases.

factorcheck.krein_langer_check runs a sampling leg and a kernel-identity
leg.  kl-sample times the first, kernels.estimate_neg_squares, and
kl-identity the second, kernels.kernel_identity_check, each on the ball
form of every case, as krein_langer_check passes it.  The cases are
the four Krein-Langer acceptance cases (kappa = 0..3), a ball case with
a spherical zero and a half-space case.  The zero data is kept here as
plain numbers, so the checks count deg B0 themselves: a point of
multiplicity n counts n, a sphere of multiplicity m counts 2m.  The
workload seed is the sampling seed; the cases do not depend on it.
"""

import numpy as np

import oracle

# name, domain, B0 points ((a, n), ...), B0 spheres ((c, m), ...), S0;
# S0 is a real constant, None for the constant 1, or ball points of a
# Blaschke S0.
CASES = (
    ("kappa0", "ball", (), (), 0.7),
    ("kappa1", "ball", (((0, .5, 0, 0), 1),), (), None),
    ("kappa2", "ball", (((0, .5, 0, 0), 1), ((.3, 0, .5, 0), 1)), (),
     (((0, 0, .3, 0), 1),)),
    ("kappa3", "ball", (((.2, .5, 0, 0), 2), ((-.3, 0, .4, 0), 1)), (), 0.8),
    ("sphere", "ball", (((0, .5, 0, 0), 1),), (((.2, 0, .5, 0), 1),), 0.7),
    ("halfspace", "halfspace", (((.6, .5, 0, 0), 1), ((1.0, 0, .6, 0), 1)), (), 0.7),
)

# Small budgets keep an operation under about a second, so that a run
# repeats each case often enough for its fastest time to be steady.
# kl-sample: 10 trials of 40 points at rho 0.9 (the standard budget has
# 200); every case reaches deg B0 at trial 0 on the seeds tried.
SAMPLING_TRIALS = 10
# kl-identity: krein_langer_check takes the Gram radius 0.45 x the
# smallest pole modulus (at most 0.6), and then needs truncation 32 on
# four of the cases; at 0.25 x (at most 0.35) truncation 20 certifies
# all six.
IDENTITY_TRUNC = 20
IDENTITY_RADIUS = (0.25, 0.35)

CAYLEY_X0 = 1.0          # transport_case_to_ball's default
DIFF_POINTS = 16         # sample size of the K_S - K_B positivity check


def degree(points, spheres):
    return sum(n for _, n in points) + sum(2 * m for _, m in spheres)


def pole_radius(domain, points, spheres):
    """Smallest modulus of a ball-side zero of B0, where B0^{-*} has its poles."""
    zeros = np.array([z for z, _ in points + spheres], dtype=float).reshape(-1, 4)
    if domain == "halfspace":
        zeros = oracle.cayley(zeros, CAYLEY_X0)
    return float(np.min(np.linalg.norm(zeros, axis=-1))) if len(zeros) else np.inf


class CaseOp:
    """One leg of the Krein-Langer check on one case, given the case's ball form."""

    def __init__(self, index, spec, budget):
        from qschur.blaschke import ZeroSet
        from qschur.factorcheck import synthesize_generalized_schur, transport_case_to_ball
        from qschur.quat import Quaternion

        self.index = index
        self.label, self.domain, self.points, self.spheres, s0 = spec
        self.budget = budget

        def zero_set(domain, points, spheres):
            return ZeroSet(domain, [(Quaternion(*a), n) for a, n in points],
                           [(Quaternion(*c), m) for c, m in spheres])

        b0 = zero_set(self.domain, self.points, self.spheres) if self.points or self.spheres else None
        if isinstance(s0, tuple):
            s0 = zero_set(self.domain, s0, ())
        self.ball = transport_case_to_ball(synthesize_generalized_schur(b0, s0))
        # values from the multiplied rational, not the lazy quotient the program uses
        self.s_at = self.ball.s.rational.eval_many

    def failed(self, output):
        return False


class SamplingOp(CaseOp):
    def run(self, round_index):
        from qschur import kernels

        b = self.budget
        return kernels.estimate_neg_squares(self.ball.s, trials=b.trials, batch=b.batch,
                                            seed=b.seed, rho=b.rho, cutoff=b.cutoff,
                                            tol=b.kernel_tol)

    def digest(self, rep, round_index):
        return (rep.kappa_hat, rep.witness_eigenvalues, rep.witness_points)

    def check(self, rep, digest):
        deg = degree(self.points, self.spheres)
        problems = [] if rep.kappa_hat == deg else [
            "kappa-hat %d, deg B0 from the zero data %d" % (rep.kappa_hat, deg)]
        pts = np.array(rep.witness_points)
        vecs = np.array(rep.witness_vectors)[:, 0, :]
        return problems + oracle.check_witness(
            rep.witness_eigenvalues, rep.kappa_hat, self.budget.cutoff,
            self.budget.kernel_tol, pts, vecs, self.s_at(pts)[:, 0, 0])


class IdentityOp(CaseOp):
    def __init__(self, index, spec, budget):
        super().__init__(index, spec, budget)
        scale, cap = IDENTITY_RADIUS
        self.gram_radius = min(cap, scale * pole_radius(self.domain, self.points, self.spheres))

    def run(self, round_index):
        from qschur import kernels

        b, c = self.budget, self.ball
        return kernels.kernel_identity_check(c.s, c.b0, c.s0, trunc=b.identity_trunc,
                                             gram_points=b.identity_points,
                                             gram_radius=self.gram_radius, seed=b.seed + 1)

    def digest(self, rep, round_index):
        return (rep.status, rep.max_coeff_dev, rep.min_gram_eig, rep.hermitian_residual,
                rep.tail_bound)

    def check(self, rep, digest):
        problems = oracle.check_identity(rep, self.budget.min_eig_tol)
        rng = np.random.default_rng([self.budget.seed, 1, self.index])
        dirs = rng.normal(size=(DIFF_POINTS, 4))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        pts = dirs * (self.gram_radius * rng.random(DIFF_POINTS) ** 0.25)[:, None]
        bvals = self.ball.b0.inverse().rational.eval_many(pts)[:, 0, 0]
        return problems + oracle.check_difference_kernel(pts, self.s_at(pts)[:, 0, 0], bvals)


def build(workload, seed, workdir):
    """One round: one operation per case."""
    from qschur.factorcheck import Budget

    if workload == "kl-sample":
        op, budget = SamplingOp, Budget(seed=seed, trials=SAMPLING_TRIALS)
    else:
        op, budget = IdentityOp, Budget(seed=seed, identity_trunc=IDENTITY_TRUNC)
    return [op(i, spec, budget) for i, spec in enumerate(CASES)]
