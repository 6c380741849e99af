#!/usr/bin/env python3
"""
Collinear cousins of a regression task, plus an oracle rating their resemblance.

The shared effect theta is unidentifiable from the collinear source design
alone because every source task mixes it with its own nuisance psi_i.  A
classic learner that pools the sources with the usual exchangeable prior
gets dragged toward whichever psi values the draw happened to produce.
The relevance-weighted learner asks a proxy (here a noisy expert rating of
how much each source resembles the target) how much each observation
should count, and spends its likelihood budget accordingly.

Run it a few times with different SEED values; the weighted learner's
information gain at the true theta should usually be the larger one.
"""
SEED = 7
MULTICOLLINEARITY = 2.0
GRID_RESOLUTION = 101

import numpy as np

from relbayes import (GridProblem, LinearScenario, classic_posterior,
                      gen_linear_instance, linear_model, proxy_loglik_vector,
                      refine_relevance, task_rng)
from relbayes.grids import ParameterGrid, midpoint_nodes

rng = task_rng(SEED, 0)
scenario = LinearScenario(multicollinearity=MULTICOLLINEARITY)
inst = gen_linear_instance(scenario, rng)
model = linear_model()

nodes = midpoint_nodes(-4.0, 4.0, GRID_RESOLUTION)[:, None]
logs = -0.5 * nodes[:, 0] ** 2
mass = np.exp(logs - logs.max())
mass /= mass.sum()
grid = ParameterGrid(nodes, nodes, mass, mass)

theta_true = inst.theta_star.value
a_star, dist = grid.nearest_theta(theta_true)
print(f"true theta {float(theta_true[0]):+.3f}, "
      f"nearest grid node {float(nodes[a_star, 0]):+.3f} (off by {dist:.3f})")
print(f"{inst.source.n} source observations, "
      f"{len(inst.proxy.payload)} proxy ratings\n")

# both learners read one log-likelihood tensor, built here
problem = GridProblem(model, inst.source, grid)
classic = classic_posterior(problem, grid.psi_prior_mass)

# inst.proxy holds every expert rating; it enters as one log-likelihood
# vector over the psi nodes, and refinement returns the weighted posterior
# under its final weights
refined = refine_relevance(problem, proxy_loglik_vector(inst.proxy, grid.psi_nodes))
weighted = refined.posterior

# relevance profile under the proxy-informed task belief, a few entries
w_bar = refined.weights_per_psi.mean(axis=0)
order = np.argsort(w_bar)
print("least relevant observations (mean weight over task nodes):")
for i in order[:3]:
    print(f"  obs {i:2d}  weight {w_bar[i]:.3f}")
print("most relevant:")
for i in order[-3:]:
    print(f"  obs {i:2d}  weight {w_bar[i]:.3f}")

def info_gain(marginal):
    return float(np.log(marginal[a_star]) - np.log(grid.theta_prior_mass[a_star]))

ig_c = info_gain(classic.theta_marginal())
ig_r = info_gain(weighted.theta_marginal())
print(f"\ninformation gain at true theta, classic   {ig_c:+.4f}")
print(f"information gain at true theta, weighted  {ig_r:+.4f}")
print(f"advantage (weighted - classic)            {ig_r - ig_c:+.4f}")
