/**
 * @file
 * Registry of live agents for the online allocation service.
 *
 * The REF closed form (paper Eq. 13) allocates each resource in
 * proportion to the agents' re-scaled elasticities; the only
 * cross-agent state it needs is the per-resource sum of those
 * re-scaled elasticities. The registry therefore maintains each
 * resource's denominator in an order-independent ExactSum as agents
 * are admitted, updated and departed — O(changed agents) bookkeeping
 * per epoch — and emits allocations that are bit-identical to a
 * from-scratch ProportionalElasticityMechanism run over the
 * surviving agents (the recompute path kept for verification).
 */

#ifndef REF_SVC_AGENT_REGISTRY_HH
#define REF_SVC_AGENT_REGISTRY_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/agent.hh"
#include "core/allocation.hh"
#include "core/resource.hh"
#include "util/digest.hh"
#include "util/exact_sum.hh"

namespace ref::svc {

/** One live agent with its derived allocation state. */
struct RegisteredAgent
{
    std::string name;
    /** Reported elasticities, as admitted/updated. */
    linalg::Vector elasticities;
    /** The same elasticities re-scaled to sum to one (Eq. 12). */
    linalg::Vector rescaled;
    /** Epoch at which the agent was admitted (0 = before any tick). */
    std::uint64_t admittedEpoch = 0;
};

/**
 * Live-agent bookkeeping with incremental REF denominators.
 *
 * Not thread-safe on its own; the AllocationService facade
 * serializes mutation. Agents keep admission order, so the n-th row
 * of an allocation always corresponds to the n-th surviving agent.
 */
class AgentRegistry
{
  public:
    explicit AgentRegistry(core::SystemCapacity capacity);

    /**
     * Admit a new agent. Throws FatalError when the name is empty,
     * contains whitespace, or is already registered, or when the
     * elasticity vector has the wrong width or any non-positive or
     * non-finite entry (which would otherwise poison every agent's
     * share with NaN).
     */
    void admit(const std::string &name,
               const linalg::Vector &elasticities,
               std::uint64_t epoch = 0);

    /** Remove an agent. Throws FatalError when unknown. */
    void depart(const std::string &name);

    /**
     * Replace an agent's reported elasticities (on-line
     * re-profiling, paper §4.4). Same validation as admit().
     */
    void update(const std::string &name,
                const linalg::Vector &elasticities);

    std::size_t size() const { return agents_.size(); }
    bool empty() const { return agents_.empty(); }
    bool contains(const std::string &name) const;

    /** Index of @p name in admission order. Throws when unknown. */
    std::size_t indexOf(const std::string &name) const;

    /** Agents in admission order. */
    const std::vector<RegisteredAgent> &agents() const
    {
        return agents_;
    }

    /** The surviving agents as a core::AgentList (admission order). */
    core::AgentList agentList() const;

    const core::SystemCapacity &capacity() const { return capacity_; }

    /**
     * REF allocation over the live agents using the incrementally
     * maintained denominators. O(agents x resources) share writes,
     * but no cross-agent reduction. @pre !empty().
     */
    core::Allocation allocate() const;

    /**
     * Verification path: run the stock
     * ProportionalElasticityMechanism from scratch over the
     * surviving agents. Bit-identical to allocate() by construction;
     * the epoch driver's self-check and the churn property tests
     * assert this. @pre !empty().
     */
    core::Allocation allocateFromScratch() const;

    /** Total admits + departs + updates applied so far. */
    std::uint64_t churnEvents() const { return churnEvents_; }

    /**
     * Agent part of the service state digest (util/digest.hh): the
     * live records and their admission order, kept current by every
     * mutation in O(1) digest work.
     */
    std::uint64_t digest() const { return digest_.value(); }

    /**
     * Recovery only: restore the lifetime churn counter after a
     * snapshot re-admitted the surviving agents (each re-admission
     * bumped it once, which would otherwise undercount the departed
     * agents' history).
     */
    void restoreChurnEvents(std::uint64_t events)
    {
        churnEvents_ = events;
    }

  private:
    void validate(const std::string &name,
                  const linalg::Vector &elasticities) const;

    core::SystemCapacity capacity_;
    std::vector<RegisteredAgent> agents_;  //!< Admission order.
    std::unordered_map<std::string, std::size_t> index_;
    /** Per-resource exact sums of the re-scaled elasticities. */
    std::vector<ExactSum> denominators_;
    std::uint64_t churnEvents_ = 0;
    AgentDigest digest_;
};

} // namespace ref::svc

#endif // REF_SVC_AGENT_REGISTRY_HH
