#include "agent_registry.hh"

#include <cctype>
#include <cmath>

#include "core/proportional_elasticity.hh"
#include "util/logging.hh"
#include "util/math.hh"

namespace ref::svc {
namespace {

/** Flat agents persist with an empty pool path. */
std::uint64_t
termOf(const RegisteredAgent &agent)
{
    return agentDigestTerm(agent.name, agent.elasticities,
                           agent.admittedEpoch, std::string_view());
}

} // namespace

AgentRegistry::AgentRegistry(core::SystemCapacity capacity)
    : capacity_(std::move(capacity)), denominators_(capacity_.count())
{}

void
AgentRegistry::validate(const std::string &name,
                        const linalg::Vector &elasticities) const
{
    REF_REQUIRE(!name.empty(), "agent name must not be empty");
    for (char c : name) {
        REF_REQUIRE(!std::isspace(static_cast<unsigned char>(c)),
                    "agent name '" << name
                        << "' must not contain whitespace");
    }
    REF_REQUIRE(elasticities.size() == capacity_.count(),
                "agent '" << name << "' reports "
                    << elasticities.size()
                    << " elasticities, system has "
                    << capacity_.count() << " resources");
    for (std::size_t r = 0; r < elasticities.size(); ++r) {
        REF_REQUIRE(std::isfinite(elasticities[r]) &&
                        elasticities[r] > 0,
                    "agent '" << name << "' reports elasticity "
                        << elasticities[r] << " for resource " << r
                        << "; elasticities must be positive and "
                           "finite");
    }
}

void
AgentRegistry::admit(const std::string &name,
                     const linalg::Vector &elasticities,
                     std::uint64_t epoch)
{
    validate(name, elasticities);
    REF_REQUIRE(!contains(name),
                "agent '" << name << "' is already registered");

    RegisteredAgent agent;
    agent.name = name;
    agent.elasticities = elasticities;
    agent.rescaled = normalizeToUnitSum(elasticities);
    agent.admittedEpoch = epoch;
    for (std::size_t r = 0; r < capacity_.count(); ++r)
        denominators_[r].add(agent.rescaled[r]);
    digest_.append(agents_.empty() ? nullptr : &agents_.back().name,
                   agent.name, termOf(agent));

    index_.emplace(name, agents_.size());
    agents_.push_back(std::move(agent));
    ++churnEvents_;
}

void
AgentRegistry::depart(const std::string &name)
{
    const std::size_t position = indexOf(name);
    const RegisteredAgent &agent = agents_[position];
    for (std::size_t r = 0; r < capacity_.count(); ++r)
        denominators_[r].subtract(agent.rescaled[r]);
    digest_.remove(
        position > 0 ? &agents_[position - 1].name : nullptr,
        agent.name,
        position + 1 < agents_.size() ? &agents_[position + 1].name
                                      : nullptr,
        termOf(agent));

    agents_.erase(agents_.begin() + position);
    index_.erase(name);
    for (auto &entry : index_) {
        if (entry.second > position)
            --entry.second;
    }
    ++churnEvents_;
}

void
AgentRegistry::update(const std::string &name,
                      const linalg::Vector &elasticities)
{
    validate(name, elasticities);
    RegisteredAgent &agent = agents_[indexOf(name)];
    const linalg::Vector rescaled = normalizeToUnitSum(elasticities);
    for (std::size_t r = 0; r < capacity_.count(); ++r) {
        denominators_[r].subtract(agent.rescaled[r]);
        denominators_[r].add(rescaled[r]);
    }
    const std::uint64_t oldTerm = termOf(agent);
    agent.elasticities = elasticities;
    agent.rescaled = rescaled;
    digest_.replace(oldTerm, termOf(agent));
    ++churnEvents_;
}

bool
AgentRegistry::contains(const std::string &name) const
{
    return index_.find(name) != index_.end();
}

std::size_t
AgentRegistry::indexOf(const std::string &name) const
{
    const auto found = index_.find(name);
    REF_REQUIRE(found != index_.end(),
                "agent '" << name << "' is not registered");
    return found->second;
}

core::AgentList
AgentRegistry::agentList() const
{
    core::AgentList list;
    list.reserve(agents_.size());
    for (const auto &agent : agents_) {
        list.emplace_back(agent.name,
                          core::CobbDouglasUtility(agent.elasticities));
    }
    return list;
}

core::Allocation
AgentRegistry::allocate() const
{
    REF_REQUIRE(!empty(), "no agents to allocate to");
    core::Allocation allocation(agents_.size(), capacity_.count());
    for (std::size_t r = 0; r < capacity_.count(); ++r) {
        const double denominator = denominators_[r].round();
        REF_ASSERT(denominator > 0,
                   "re-scaled elasticities sum to zero for resource "
                       << r);
        // Same expression as the from-scratch mechanism, applied to
        // the same doubles: the exact denominators make the two
        // paths bit-identical.
        for (std::size_t i = 0; i < agents_.size(); ++i) {
            allocation.at(i, r) = agents_[i].rescaled[r] /
                                  denominator * capacity_.capacity(r);
        }
    }
    return allocation;
}

core::Allocation
AgentRegistry::allocateFromScratch() const
{
    REF_REQUIRE(!empty(), "no agents to allocate to");
    return core::ProportionalElasticityMechanism().allocate(
        agentList(), capacity_);
}

} // namespace ref::svc
