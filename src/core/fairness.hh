/**
 * @file
 * Game-theoretic fairness checks: sharing incentives (SI),
 * envy-freeness (EF), and Pareto efficiency (PE), per paper
 * Sections 3.1-3.3 and the feasibility conditions of Eq. 11.
 */

#ifndef REF_CORE_FAIRNESS_HH
#define REF_CORE_FAIRNESS_HH

#include <string>
#include <vector>

#include "core/agent.hh"
#include "core/allocation.hh"

namespace ref::core {

/** Outcome of one property check. */
struct PropertyCheck
{
    bool satisfied = false;
    /**
     * Worst slack over all constraints of the property, measured in
     * log-utility units: positive means the tightest constraint
     * holds with room to spare; negative measures the violation.
     */
    double worstSlack = 0;
    /** Human-readable description of the tightest constraint. */
    std::string binding;
};

/** Results of all fairness checks for one allocation. */
struct FairnessReport
{
    PropertyCheck sharingIncentives;
    PropertyCheck envyFreeness;
    PropertyCheck paretoEfficiency;
    PropertyCheck capacity;

    /** The game-theoretic definition of fair: EF and PE [37]. */
    bool fair() const
    {
        return envyFreeness.satisfied && paretoEfficiency.satisfied;
    }

    /** All of SI, EF, PE and capacity hold. */
    bool allHold() const
    {
        return sharingIncentives.satisfied && fair() &&
               capacity.satisfied;
    }
};

/** Tolerances for the fairness checks. */
struct FairnessTolerance
{
    /** Slack allowed on SI/EF comparisons, in log-utility units. */
    double utility = 1e-6;
    /** Relative mismatch allowed between agents' MRS values for PE. */
    double mrs = 1e-6;
    /** Relative capacity slack. */
    double capacity = 1e-9;
};

/**
 * Check SI for every agent (Eq. 3): each agent weakly prefers its
 * bundle to the equal split C/N. When @p perAgent is given it
 * receives each agent's own slack, in allocation-row order.
 */
PropertyCheck checkSharingIncentives(
    const AgentList &agents, const SystemCapacity &capacity,
    const Allocation &allocation, const FairnessTolerance &tol = {},
    std::vector<double> *perAgent = nullptr);

/**
 * Check EF for every ordered pair (Section 3.2): agent i weakly
 * prefers its own bundle to agent j's. Exact, and the same result as
 * checkEnvyFreenessPairwise() (worstSlack equal up to rounding near
 * exact ties; binding always names a pair with exactly that slack),
 * but each agent's best rival bundle is found without visiting every
 * pair: for R = 2 it is a maximum-dot-product query over the upper
 * convex hull of the bundles' logs, O(N log N) time and O(N) memory
 * in all; other R use an O(N^2 R) loop over precomputed logs. When
 * @p perAgent is given it receives each agent's tightest EF slack,
 * min over j != i, in allocation-row order (+inf with no rival).
 */
PropertyCheck checkEnvyFreeness(
    const AgentList &agents, const Allocation &allocation,
    const FairnessTolerance &tol = {},
    std::vector<double> *perAgent = nullptr);

/**
 * Reference EF check: the plain O(N^2 R) sweep over every ordered
 * pair. Tests and benches use it as the oracle for
 * checkEnvyFreeness().
 */
PropertyCheck checkEnvyFreenessPairwise(
    const AgentList &agents, const Allocation &allocation,
    const FairnessTolerance &tol = {});

/**
 * Check PE (Section 3.3). For interior allocations under
 * Cobb-Douglas, PE holds iff (a) every resource is fully allocated
 * and (b) all agents' marginal rates of substitution agree for every
 * resource pair (the contract-curve tangency condition, Eq. 10).
 * Allocations that zero out some agent-resource amount are PE only
 * in degenerate corners; we report them as not PE, matching the
 * paper's observation that such corners are never selected.
 */
PropertyCheck checkParetoEfficiency(
    const AgentList &agents, const SystemCapacity &capacity,
    const Allocation &allocation, const FairnessTolerance &tol = {});

/** Check per-resource capacity: sum_i x_ir <= C_r. */
PropertyCheck checkCapacity(
    const SystemCapacity &capacity, const Allocation &allocation,
    const FairnessTolerance &tol = {});

/** Run all four checks. */
FairnessReport checkFairness(
    const AgentList &agents, const SystemCapacity &capacity,
    const Allocation &allocation, const FairnessTolerance &tol = {});

} // namespace ref::core

#endif // REF_CORE_FAIRNESS_HH
