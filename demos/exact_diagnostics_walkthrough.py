#!/usr/bin/env python3
"""
Every theoretical quantity, computed exactly on an enumerable instance.

At desk scale (a handful of parameter nodes, a handful of outcomes) all the
expectations in the risk decomposition and the negative-transfer bound are
finite sums, so the identities can be checked to machine precision rather
than Monte-Carlo tolerance.  This script builds one random instance and
prints each quantity, with the decomposition closing to floating-point
dust and the information-gain ceiling holding.
"""
SEED = 42

import numpy as np

from relbayes.harness.runner import toy_verify_instance
from relbayes import toy_diagnostics_report

rng = np.random.default_rng(SEED)
# proxy_table is the proxy's (Z, B) log-likelihood table: row z holds
# log p(z | psi_b) at every task node, for payloads z = 0 (reject) and 1 (endorse)
model, truth, grid, weight_table, weights_provider, proxy_table = \
    toy_verify_instance(rng)

print(f"instance: {grid.n_theta} shared nodes, {grid.n_psi} task nodes, "
      f"{truth.n} source observations, {len(proxy_table)} proxy payloads")

report = toy_diagnostics_report(model, truth, grid, grid.psi_prior_mass,
                                proxy_table, weights_provider)

print(f"""
information gain, classic learner      {report.ig_classic:+.6f}
information gain, weighted learner     {report.ig_rweighted:+.6f}
posterior risk gap, classic            {report.delta_classic:.6f}
posterior risk gap, weighted           {report.delta_rweighted:.6f}
weight-likelihood coupling (rho)       {report.rho_fidelity:+.6f}
expected effective-sample discrepancy  {report.ess_dis_expectation:+.6f}
entropy of the true outcome law        {report.entropy_true:.6f}
""")

# the weighted risk gap decomposes into the coupling, the discrepancy term,
# and the truth's entropy; at desk scale the residual is floating-point dust
print(f"decomposition residual                 {report.decomposition_residual:.3e}")
assert abs(report.decomposition_residual) < 1e-9

bound = report.bound_classic
print(f"\nexcluded prior mass                    {bound.prior_mass_excluded:.6f}")
print(f"divergence from excluded mixture       {bound.kl_excluded_mixture:.6f}")
ceiling = bound.prior_mass_excluded * (bound.kl_excluded_mixture
                                       - bound.delta_classic)
print(f"classic info gain                      {bound.info_gain:+.6f}")
print(f"negative-transfer ceiling              {ceiling:+.6f}")
print("bound holds" if bound.satisfied else "bound VIOLATED")
assert bound.satisfied
