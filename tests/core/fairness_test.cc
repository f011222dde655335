#include "core/fairness.hh"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "core/proportional_elasticity.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace {

using namespace ref::core;

AgentList
paperAgents()
{
    AgentList agents;
    agents.emplace_back("user1", CobbDouglasUtility({0.6, 0.4}));
    agents.emplace_back("user2", CobbDouglasUtility({0.2, 0.8}));
    return agents;
}

Allocation
paperRefAllocation()
{
    Allocation allocation(2, 2);
    allocation.setAgentShare(0, {18.0, 4.0});
    allocation.setAgentShare(1, {6.0, 8.0});
    return allocation;
}

TEST(Fairness, PaperAllocationSatisfiesEverything)
{
    const auto capacity = SystemCapacity::cacheAndBandwidthExample();
    const auto report = checkFairness(paperAgents(), capacity,
                                      paperRefAllocation());
    EXPECT_TRUE(report.sharingIncentives.satisfied);
    EXPECT_TRUE(report.envyFreeness.satisfied);
    EXPECT_TRUE(report.paretoEfficiency.satisfied);
    EXPECT_TRUE(report.capacity.satisfied);
    EXPECT_TRUE(report.fair());
    EXPECT_TRUE(report.allHold());
}

TEST(Fairness, EqualSplitIsEnvyFreeButNotPareto)
{
    // The midpoint is always EF and SI (weakly), but the two users'
    // MRS differ there, so it is not PE.
    const auto capacity = SystemCapacity::cacheAndBandwidthExample();
    const auto equal = Allocation::equalSplit(2, capacity);
    const auto report = checkFairness(paperAgents(), capacity, equal);
    EXPECT_TRUE(report.sharingIncentives.satisfied);
    EXPECT_TRUE(report.envyFreeness.satisfied);
    EXPECT_FALSE(report.paretoEfficiency.satisfied);
}

TEST(Fairness, LopsidedAllocationViolatesSiAndEf)
{
    const auto capacity = SystemCapacity::cacheAndBandwidthExample();
    Allocation lopsided(2, 2);
    lopsided.setAgentShare(0, {22.0, 11.0});
    lopsided.setAgentShare(1, {2.0, 1.0});
    const auto agents = paperAgents();
    const auto si = checkSharingIncentives(agents, capacity, lopsided);
    const auto ef = checkEnvyFreeness(agents, lopsided);
    EXPECT_FALSE(si.satisfied);
    EXPECT_FALSE(ef.satisfied);
    // The starved agent is the binding one.
    EXPECT_NE(si.binding.find("user2"), std::string::npos);
    EXPECT_LT(si.worstSlack, 0.0);
    EXPECT_LT(ef.worstSlack, 0.0);
}

TEST(Fairness, WastefulAllocationIsNotPareto)
{
    const auto capacity = SystemCapacity::cacheAndBandwidthExample();
    Allocation wasteful(2, 2);
    wasteful.setAgentShare(0, {9.0, 2.0});
    wasteful.setAgentShare(1, {3.0, 4.0});  // Half of everything idle.
    const auto pe = checkParetoEfficiency(paperAgents(), capacity,
                                          wasteful);
    EXPECT_FALSE(pe.satisfied);
    EXPECT_NE(pe.binding.find("unallocated"), std::string::npos);
}

TEST(Fairness, CornerAllocationReportedNotPareto)
{
    // All of one resource to each user: zero utilities, EF holds
    // trivially, but we report PE false (degenerate corner).
    const auto capacity = SystemCapacity::cacheAndBandwidthExample();
    Allocation corner(2, 2);
    corner.setAgentShare(0, {24.0, 0.0});
    corner.setAgentShare(1, {0.0, 12.0});
    const auto agents = paperAgents();
    EXPECT_TRUE(checkEnvyFreeness(agents, corner).satisfied);
    EXPECT_FALSE(
        checkParetoEfficiency(agents, capacity, corner).satisfied);
}

TEST(Fairness, CapacityCheckCatchesViolations)
{
    const auto capacity = SystemCapacity::cacheAndBandwidthExample();
    Allocation over(2, 2);
    over.setAgentShare(0, {20.0, 8.0});
    over.setAgentShare(1, {6.0, 8.0});
    EXPECT_FALSE(checkCapacity(capacity, over).satisfied);

    Allocation negative(2, 2);
    negative.setAgentShare(0, {25.0, 4.0});
    negative.setAgentShare(1, {-1.0, 8.0});
    const auto check = checkCapacity(capacity, negative);
    EXPECT_FALSE(check.satisfied);
    EXPECT_EQ(check.binding, "negative amount");
}

TEST(Fairness, MrsMismatchScalesWithDistanceFromContractCurve)
{
    const auto capacity = SystemCapacity::cacheAndBandwidthExample();
    const auto agents = paperAgents();
    // Start at the fair point and push user 1 off the curve.
    Allocation near = paperRefAllocation();
    near.at(0, 1) += 0.1;
    near.at(1, 1) -= 0.1;
    Allocation far = paperRefAllocation();
    far.at(0, 1) += 2.0;
    far.at(1, 1) -= 2.0;
    const auto near_pe =
        checkParetoEfficiency(agents, capacity, near);
    const auto far_pe = checkParetoEfficiency(agents, capacity, far);
    EXPECT_FALSE(near_pe.satisfied);
    EXPECT_FALSE(far_pe.satisfied);
    EXPECT_GT(near_pe.worstSlack, far_pe.worstSlack);
}

TEST(Fairness, SingleAgentGetsEverything)
{
    const auto capacity = SystemCapacity::cacheAndBandwidthExample();
    AgentList agents;
    agents.emplace_back("solo", CobbDouglasUtility({0.5, 0.5}));
    Allocation allocation(1, 2);
    allocation.setAgentShare(0, capacity.capacities());
    const auto report = checkFairness(agents, capacity, allocation);
    EXPECT_TRUE(report.allHold());
}

TEST(Fairness, RejectsShapeMismatches)
{
    const auto capacity = SystemCapacity::cacheAndBandwidthExample();
    const auto agents = paperAgents();
    Allocation wrong_agents(3, 2);
    EXPECT_THROW(checkFairness(agents, capacity, wrong_agents),
                 ref::FatalError);
    Allocation wrong_resources(2, 3);
    EXPECT_THROW(checkFairness(agents, capacity, wrong_resources),
                 ref::FatalError);
    EXPECT_THROW(checkFairness({}, capacity, Allocation(1, 2)),
                 ref::FatalError);
}

TEST(Fairness, ToleranceControlsStrictness)
{
    const auto capacity = SystemCapacity::cacheAndBandwidthExample();
    Allocation almost = paperRefAllocation();
    almost.at(0, 0) -= 1e-5;  // Leaves 1e-5 GB/s unallocated.
    FairnessTolerance loose;
    loose.mrs = 1e-2;
    loose.capacity = 1e-4;
    FairnessTolerance strict;
    strict.mrs = 1e-9;
    strict.capacity = 1e-12;
    EXPECT_TRUE(checkParetoEfficiency(paperAgents(), capacity, almost,
                                      loose)
                    .satisfied);
    EXPECT_FALSE(checkParetoEfficiency(paperAgents(), capacity, almost,
                                       strict)
                     .satisfied);
}

// Oracle property test: the EF certificate against the pairwise sweep
// over seeded populations of every shape the certificate special-cases.

enum class Shape
{
    ClosedForm,     //!< REF's Eq. 13: every agent is its own maximiser.
    EqualSplit,     //!< One site holding every agent.
    Interior,       //!< Random bundles: most maximisers are rivals.
    Duplicated,     //!< Four elasticity vectors: many twin rows.
    Collinear,      //!< Log points on one line, shared directions.
    ZeroAmount,     //!< Random bundles, a fifth of them worthless.
};

const char *
shapeName(Shape shape)
{
    switch (shape) {
    case Shape::ClosedForm: return "ClosedForm";
    case Shape::EqualSplit: return "EqualSplit";
    case Shape::Interior: return "Interior";
    case Shape::Duplicated: return "Duplicated";
    case Shape::Collinear: return "Collinear";
    case Shape::ZeroAmount: return "ZeroAmount";
    }
    return "?";
}

void
PrintTo(Shape shape, std::ostream *os)
{
    *os << shapeName(shape);
}

struct Population
{
    AgentList agents;
    Allocation allocation;
};

Population
makePopulation(Shape shape, std::size_t n, std::size_t resources,
               std::uint64_t seed)
{
    ref::Rng rng(seed);
    Vector capacities(resources);
    for (double &capacity : capacities)
        capacity = rng.uniform(4.0, 32.0);
    const auto capacity = SystemCapacity::fromCapacities(capacities);

    std::vector<Vector> palette(4, Vector(resources));
    for (Vector &alphas : palette)
        for (double &alpha : alphas)
            alpha = rng.uniform(0.1, 1.0);
    Population population;
    for (std::size_t i = 0; i < n; ++i) {
        Vector alphas(resources);
        if (shape == Shape::Duplicated) {
            alphas = palette[rng.uniformInt(palette.size())];
        } else if (shape == Shape::Collinear) {
            // Half the agents share a direction along the line.
            for (double &alpha : alphas)
                alpha = rng.bernoulli(0.5) ? 0.5 : rng.uniform(0.1, 1.0);
        } else {
            for (double &alpha : alphas)
                alpha = rng.uniform(0.1, 1.0);
        }
        population.agents.emplace_back("a" + std::to_string(i),
                                       CobbDouglasUtility(alphas));
    }

    switch (shape) {
    case Shape::ClosedForm:
    case Shape::Duplicated:
        population.allocation = ProportionalElasticityMechanism().allocate(
            population.agents, capacity);
        break;
    case Shape::EqualSplit:
        population.allocation = Allocation::equalSplit(n, capacity);
        break;
    case Shape::Interior:
    case Shape::ZeroAmount:
        population.allocation = Allocation(n, resources);
        for (std::size_t i = 0; i < n; ++i) {
            const bool worthless =
                shape == Shape::ZeroAmount && rng.bernoulli(0.2);
            const std::size_t zero = rng.uniformInt(resources);
            for (std::size_t r = 0; r < resources; ++r)
                population.allocation.at(i, r) =
                    worthless && r == zero ? 0.0
                                           : rng.uniform(0.01, 10.0);
        }
        break;
    case Shape::Collinear:
        // log x_i0 + log x_i1 = 12 log 2 on a 13-point grid, so the
        // direction (0.5, 0.5) ties every point.
        population.allocation = Allocation(n, resources);
        for (std::size_t i = 0; i < n; ++i) {
            const auto k = static_cast<int>(rng.uniformInt(13));
            for (std::size_t r = 0; r < resources; ++r)
                population.allocation.at(i, r) = std::ldexp(
                    1.0, r == 0 ? k : r == 1 ? 12 - k : 3);
        }
        break;
    }
    return population;
}

/** Pairwise EF slack of agent i against bundle j, by logValue(). */
double
pairSlack(const Population &population, const std::vector<Vector> &rows,
          std::size_t i, std::size_t j)
{
    const auto &utility = population.agents[i].utility();
    const double own = utility.logValue(rows[i]);
    const double other = utility.logValue(rows[j]);
    if (std::isinf(own) && std::isinf(other))
        return 0;
    return own - other;
}

std::size_t
agentIndex(const std::string &binding, const std::string &prefix)
{
    const std::size_t at = binding.find(prefix);
    EXPECT_NE(at, std::string::npos) << binding;
    return at == std::string::npos
               ? 0
               : std::stoul(binding.substr(at + prefix.size()));
}

void
expectSlackNear(double expected, double actual, const std::string &where)
{
    if (std::isinf(expected))
        EXPECT_EQ(expected, actual) << where;
    else
        EXPECT_NEAR(expected, actual, 1e-12) << where;
}

class EnvyCertificate
    : public ::testing::TestWithParam<std::tuple<Shape, std::size_t>>
{
};

TEST_P(EnvyCertificate, MatchesPairwiseOracle)
{
    const auto [shape, n] = GetParam();
    for (std::size_t resources = 1; resources <= 3; ++resources) {
        const std::string where = std::string(shapeName(shape)) +
                                  " N=" + std::to_string(n) +
                                  " R=" + std::to_string(resources);
        const Population population = makePopulation(
            shape, n, resources, 1000 * n + 10 * resources +
                                     static_cast<int>(shape));
        std::vector<double> perAgent;
        const PropertyCheck certificate = checkEnvyFreeness(
            population.agents, population.allocation, {}, &perAgent);
        const PropertyCheck oracle = checkEnvyFreenessPairwise(
            population.agents, population.allocation);

        EXPECT_EQ(oracle.satisfied, certificate.satisfied) << where;
        expectSlackNear(oracle.worstSlack, certificate.worstSlack,
                        where);

        std::vector<Vector> rows;
        for (std::size_t i = 0; i < n; ++i)
            rows.push_back(population.allocation.agentShare(i));
        if (std::isinf(certificate.worstSlack) &&
            certificate.worstSlack > 0) {
            EXPECT_TRUE(certificate.binding.empty()) << where;
        } else {
            const std::size_t i =
                agentIndex(certificate.binding, "agent 'a");
            const std::size_t j =
                agentIndex(certificate.binding, "bundle of 'a");
            ASSERT_LT(i, n) << where;
            ASSERT_LT(j, n) << where;
            EXPECT_NE(i, j) << where;
            EXPECT_EQ(pairSlack(population, rows, i, j),
                      certificate.worstSlack)
                << where << ": " << certificate.binding;
        }

        // Every agent's best rival, not only the global minimum.
        ASSERT_EQ(perAgent.size(), n) << where;
        for (std::size_t i = 0; i < n; ++i) {
            double expected = std::numeric_limits<double>::infinity();
            for (std::size_t j = 0; j < n; ++j)
                if (j != i)
                    expected = std::min(
                        expected, pairSlack(population, rows, i, j));
            expectSlackNear(expected, perAgent[i],
                            where + " agent " + std::to_string(i));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Populations, EnvyCertificate,
    ::testing::Combine(::testing::Values(Shape::ClosedForm,
                                         Shape::EqualSplit,
                                         Shape::Interior,
                                         Shape::Duplicated,
                                         Shape::Collinear,
                                         Shape::ZeroAmount),
                       ::testing::Values(1, 2, 3, 17, 500, 2000)),
    [](const auto &info) {
        return std::string(shapeName(std::get<0>(info.param))) + "_N" +
               std::to_string(std::get<1>(info.param));
    });

TEST(EnvyCertificate, ClosedFormSlackIsGibbsDivergence)
{
    // Under Eq. 13 with rescaled utilities, agent i's slack against
    // j is KL(a_i || a_j) >= 0 (Gibbs' inequality), so each agent's
    // tightest constraint is its nearest neighbour in divergence.
    for (std::size_t resources = 2; resources <= 3; ++resources) {
        const Population raw = makePopulation(Shape::ClosedForm, 500,
                                              resources, 77 + resources);
        AgentList agents;
        for (const Agent &agent : raw.agents)
            agents.emplace_back(agent.name(), agent.utility().rescaled());
        std::vector<double> perAgent;
        const PropertyCheck check = checkEnvyFreeness(
            agents, raw.allocation, {}, &perAgent);
        EXPECT_TRUE(check.satisfied);
        for (std::size_t i = 0; i < agents.size(); ++i) {
            const Vector &a = agents[i].utility().elasticities();
            double nearest = std::numeric_limits<double>::infinity();
            for (std::size_t j = 0; j < agents.size(); ++j) {
                if (j == i)
                    continue;
                const Vector &b = agents[j].utility().elasticities();
                double divergence = 0;
                for (std::size_t r = 0; r < resources; ++r)
                    divergence += a[r] * std::log(a[r] / b[r]);
                nearest = std::min(nearest, divergence);
            }
            EXPECT_NEAR(nearest, perAgent[i], 1e-9) << "agent " << i;
            EXPECT_GE(perAgent[i], -1e-12) << "agent " << i;
        }
    }
}

} // namespace
