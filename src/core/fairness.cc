#include "fairness.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>

#include "util/logging.hh"

namespace ref::core {

namespace {

void
requireShapes(const AgentList &agents, const Allocation &allocation)
{
    REF_REQUIRE(!agents.empty(), "no agents to check");
    REF_REQUIRE(agents.size() == allocation.agents(),
                "allocation covers " << allocation.agents()
                    << " agents, got " << agents.size());
    for (const Agent &agent : agents) {
        REF_REQUIRE(agent.utility().resources() ==
                        allocation.resources(),
                    "agent '" << agent.name() << "' utility covers "
                        << agent.utility().resources()
                        << " resources, allocation has "
                        << allocation.resources());
    }
}

} // namespace

PropertyCheck
checkSharingIncentives(const AgentList &agents,
                       const SystemCapacity &capacity,
                       const Allocation &allocation,
                       const FairnessTolerance &tol,
                       std::vector<double> *perAgent)
{
    requireShapes(agents, allocation);
    REF_REQUIRE(capacity.count() == allocation.resources(),
                "capacity/allocation resource mismatch");

    const Vector equal_share = capacity.equalShare(agents.size());

    PropertyCheck check;
    check.worstSlack = std::numeric_limits<double>::infinity();
    check.satisfied = true;
    if (perAgent)
        perAgent->assign(agents.size(), 0.0);
    std::size_t worst = agents.size();
    for (std::size_t i = 0; i < agents.size(); ++i) {
        const auto &utility = agents[i].utility();
        const double own = utility.logValue(allocation.agentShare(i));
        const double split = utility.logValue(equal_share);
        const double slack = own - split;
        if (perAgent)
            (*perAgent)[i] = slack;
        if (slack < check.worstSlack) {
            check.worstSlack = slack;
            worst = i;
        }
        if (slack < -tol.utility)
            check.satisfied = false;
    }
    if (worst < agents.size()) {
        std::ostringstream detail;
        detail << "agent '" << agents[worst].name()
               << "' vs equal split (log-utility slack "
               << check.worstSlack << ")";
        check.binding = detail.str();
    }
    return check;
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/**
 * Every bundle's logs, taken once: N x R logs instead of the
 * pairwise sweep's N^2 x R. A bundle holding a zero amount is
 * worthless to every agent (logValue() is -inf), so it is flagged
 * rather than evaluated.
 */
class BundleLogs
{
  public:
    explicit BundleLogs(const Allocation &allocation)
        : resources_(allocation.resources()),
          logs_(allocation.agents() * resources_),
          worthless_(allocation.agents(), false)
    {
        for (std::size_t j = 0; j < allocation.agents(); ++j) {
            for (std::size_t r = 0; r < resources_; ++r) {
                const double amount = allocation.at(j, r);
                REF_REQUIRE(amount >= 0, "negative allocation "
                                             << amount
                                             << " for resource " << r);
                worthless_[j] = worthless_[j] || amount == 0;
                logs_[j * resources_ + r] = std::log(amount);
            }
        }
    }

    std::size_t resources() const { return resources_; }
    const double *row(std::size_t j) const
    {
        return logs_.data() + j * resources_;
    }
    bool worthless(std::size_t j) const { return worthless_[j]; }

  private:
    std::size_t resources_;
    std::vector<double> logs_;
    std::vector<bool> worthless_;
};

/**
 * One agent weighing bundles: log u_i(x_j) from the bundles' logs,
 * with logValue()'s expression and summation order so every value
 * is bit-identical to it, and the agent's EF slack against each
 * bundle. Also tracks the tightest slack found so far.
 */
class Envier
{
  public:
    Envier(const Agent &agent, std::size_t self,
           const BundleLogs &bundles)
        : alpha_(agent.utility().elasticities().data()),
          logScale_(std::log(agent.utility().scale())),
          bundles_(bundles), own_(value(self))
    {}

    const double *alpha() const { return alpha_; }

    /** log u_i of a bundle with logs @p logs. */
    double value(const double *logs) const
    {
        double total = logScale_;
        for (std::size_t r = 0; r < bundles_.resources(); ++r)
            total += alpha_[r] * logs[r];
        return total;
    }

    double value(std::size_t j) const
    {
        return bundles_.worthless(j) ? -kInf : value(bundles_.row(j));
    }

    /** Weigh bundle j. */
    void consider(std::size_t j) { weigh(j, value(j)); }

    /** Weigh valuable bundle j, whose logs are @p logs. */
    void consider(std::size_t j, const double *logs)
    {
        weigh(j, value(logs));
    }

    double slack = kInf;   //!< Tightest EF slack so far.
    std::size_t rival = 0; //!< Bundle that sets it.

  private:
    /** Two worthless bundles leave no envy either way, as in the
     *  pairwise sweep. Keeps the smaller slack, and the lower index
     *  among exact ties, as the sweep's first-strictly-smaller rule
     *  does. */
    void weigh(std::size_t j, double other)
    {
        const double candidate =
            std::isinf(own_) && std::isinf(other) ? 0 : own_ - other;
        if (candidate < slack || (candidate == slack && j < rival)) {
            slack = candidate;
            rival = j;
        }
    }

    const double *alpha_;
    double logScale_;
    const BundleLogs &bundles_;
    double own_;
};

/** Every agent against every other bundle, over precomputed logs. */
void
allPairsRivals(std::vector<Envier> &enviers)
{
    for (std::size_t i = 0; i < enviers.size(); ++i)
        for (std::size_t j = 0; j < enviers.size(); ++j)
            if (j != i)
                enviers[i].consider(j);
}

/**
 * R = 2: agent i's best rival maximises alpha_i . L_j over the other
 * bundles' log points L_j, so it lies on their upper convex hull.
 * Identical points form one site. When agent i's own site is the
 * maximiser, its rival is another member of the site, if any, or
 * else lies between the site's hull neighbours (see DESIGN.md,
 * "Envy-freeness certificate").
 */
void
hullRivals(const BundleLogs &bundles, std::vector<Envier> &enviers)
{
    // Indices are 32-bit to keep the sorted sites compact.
    REF_REQUIRE(enviers.size() < std::numeric_limits<std::uint32_t>::max(),
                "too many agents for the EF certificate");
    const auto n = static_cast<std::uint32_t>(enviers.size());
    constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
    struct Site
    {
        double xy[2];                //!< The bundle's logs.
        std::uint32_t first, second; //!< Two lowest agent indices.
        std::uint32_t hullAt;        //!< Position on the hull.
        double x() const { return xy[0]; }
        double y() const { return xy[1]; }
    };

    std::vector<Site> sites;
    sites.reserve(n);
    for (std::uint32_t j = 0; j < n; ++j)
        if (!bundles.worthless(j))
            sites.push_back(Site{{bundles.row(j)[0], bundles.row(j)[1]},
                                 j, kNone, kNone});
    std::sort(sites.begin(), sites.end(),
              [](const Site &a, const Site &b) {
                  if (a.x() != b.x())
                      return a.x() < b.x();
                  if (a.y() != b.y())
                      return a.y() < b.y();
                  return a.first < b.first;
              });
    // Merge identical points, keeping their two lowest indices.
    std::vector<std::uint32_t> siteOf(n, kNone);
    std::uint32_t merged = 0;
    for (std::size_t s = 0; s < sites.size(); ++s) {
        if (merged > 0 && sites[merged - 1].x() == sites[s].x() &&
            sites[merged - 1].y() == sites[s].y()) {
            if (sites[merged - 1].second == kNone)
                sites[merged - 1].second = sites[s].first;
        } else {
            sites[merged++] = sites[s];
        }
        siteOf[sites[s].first] = merged - 1;
    }
    sites.resize(merged);

    // Upper hull (monotone chain) over the highest site of each x.
    const auto cross = [&](std::size_t o, std::size_t a,
                           std::size_t b) {
        return (sites[a].x() - sites[o].x()) *
                   (sites[b].y() - sites[o].y()) -
               (sites[a].y() - sites[o].y()) *
                   (sites[b].x() - sites[o].x());
    };
    std::vector<std::uint32_t> hull;
    for (std::uint32_t s = 0; s < sites.size(); ++s) {
        if (s + 1 < sites.size() && sites[s + 1].x() == sites[s].x())
            continue;
        while (hull.size() >= 2 &&
               cross(hull[hull.size() - 2], hull.back(), s) >= 0)
            hull.pop_back();
        hull.push_back(s);
    }
    for (std::uint32_t k = 0; k < hull.size(); ++k)
        sites[hull[k]].hullAt = k;

    for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint32_t self = siteOf[i];
        if (self == kNone)
            continue;  // Worthless: envies valuable bundles by -inf.
        Envier &envier = enviers[i];
        const double *alpha = envier.alpha();
        const auto considerSite = [&](std::size_t s) {
            if (s != self)
                envier.consider(sites[s].first, sites[s].xy);
        };
        // With alpha > 0, alpha . (h[k+1] - h[k]) decreases along an
        // upper hull: the maximiser is the first vertex after which
        // the value stops rising. Under Eq. 13 that is the agent's
        // own vertex, so check it before searching.
        const auto rises = [&](std::size_t k) {
            const Site &a = sites[hull[k]], &b = sites[hull[k + 1]];
            return alpha[0] * (b.x() - a.x()) +
                       alpha[1] * (b.y() - a.y()) >
                   0;
        };
        std::size_t k = sites[self].hullAt;
        if (sites[self].hullAt == kNone || (k > 0 && !rises(k - 1)) ||
            (k + 1 < hull.size() && rises(k))) {
            std::size_t lo = 0, hi = hull.size() - 1;
            while (lo < hi) {
                const std::size_t mid = lo + (hi - lo) / 2;
                if (rises(mid))
                    lo = mid + 1;
                else
                    hi = mid;
            }
            k = lo;
        }
        if (hull[k] != self) {
            // The neighbours settle rounding-level ties on an edge.
            for (std::size_t h = k == 0 ? 0 : k - 1;
                 h <= std::min(k + 1, hull.size() - 1); ++h)
                considerSite(hull[h]);
        } else if (sites[self].second != kNone) {
            envier.consider(sites[self].first == i ? sites[self].second
                                                   : sites[self].first,
                            sites[self].xy);
        } else {
            // Own site wins: scan its pocket, the sites between its
            // hull neighbours. Each site lies in at most three such
            // ranges and each range is scanned by one agent at most.
            const std::size_t from = k == 0 ? 0 : hull[k - 1];
            const std::size_t to =
                k + 1 < hull.size() ? hull[k + 1] : sites.size() - 1;
            for (std::size_t s = from; s <= to; ++s)
                considerSite(s);
        }
    }

    // A worthless bundle's owner envies every valuable bundle
    // infinitely and no worthless one.
    std::uint32_t firstValuable = kNone, firstWorthless = kNone,
                  secondWorthless = kNone;
    for (std::uint32_t j = 0; j < n; ++j) {
        if (!bundles.worthless(j))
            firstValuable = std::min(firstValuable, j);
        else if (firstWorthless == kNone)
            firstWorthless = j;
        else if (secondWorthless == kNone)
            secondWorthless = j;
    }
    for (std::uint32_t i = 0; i < n; ++i) {
        if (!bundles.worthless(i))
            continue;
        if (firstValuable != kNone)
            enviers[i].consider(firstValuable);
        else if (secondWorthless != kNone)
            enviers[i].consider(i == firstWorthless ? secondWorthless
                                                    : firstWorthless);
    }
}

/** Reduce per-agent rivals to the pairwise sweep's PropertyCheck. */
PropertyCheck
summarizeEnvy(const AgentList &agents,
              const std::vector<Envier> &enviers,
              const FairnessTolerance &tol)
{
    PropertyCheck check;
    check.worstSlack = kInf;
    std::size_t worst = agents.size();
    for (std::size_t i = 0; i < agents.size(); ++i) {
        if (enviers[i].slack < check.worstSlack) {
            check.worstSlack = enviers[i].slack;
            worst = i;
        }
    }
    check.satisfied = !(check.worstSlack < -tol.utility);
    if (worst < agents.size()) {
        std::ostringstream detail;
        detail << "agent '" << agents[worst].name()
               << "' vs bundle of '"
               << agents[enviers[worst].rival].name()
               << "' (log-utility slack " << check.worstSlack << ")";
        check.binding = detail.str();
    }
    return check;
}

} // namespace

PropertyCheck
checkEnvyFreeness(const AgentList &agents, const Allocation &allocation,
                  const FairnessTolerance &tol,
                  std::vector<double> *perAgent)
{
    requireShapes(agents, allocation);

    const BundleLogs bundles(allocation);
    std::vector<Envier> enviers;
    enviers.reserve(agents.size());
    for (std::size_t i = 0; i < agents.size(); ++i)
        enviers.emplace_back(agents[i], i, bundles);
    if (allocation.resources() == 2)
        hullRivals(bundles, enviers);
    else
        allPairsRivals(enviers);

    if (perAgent) {
        perAgent->resize(agents.size());
        for (std::size_t i = 0; i < agents.size(); ++i)
            (*perAgent)[i] = enviers[i].slack;
    }
    return summarizeEnvy(agents, enviers, tol);
}

PropertyCheck
checkEnvyFreenessPairwise(const AgentList &agents,
                          const Allocation &allocation,
                          const FairnessTolerance &tol)
{
    requireShapes(agents, allocation);

    PropertyCheck check;
    check.worstSlack = std::numeric_limits<double>::infinity();
    check.satisfied = true;
    for (std::size_t i = 0; i < agents.size(); ++i) {
        const auto &utility = agents[i].utility();
        const double own = utility.logValue(allocation.agentShare(i));
        for (std::size_t j = 0; j < agents.size(); ++j) {
            if (i == j)
                continue;
            const double other =
                utility.logValue(allocation.agentShare(j));
            // Both bundles worthless: no envy either way.
            double slack;
            if (std::isinf(own) && std::isinf(other)) {
                slack = 0;
            } else {
                slack = own - other;
            }
            if (slack < check.worstSlack) {
                check.worstSlack = slack;
                std::ostringstream detail;
                detail << "agent '" << agents[i].name()
                       << "' vs bundle of '" << agents[j].name()
                       << "' (log-utility slack " << slack << ")";
                check.binding = detail.str();
            }
            if (slack < -tol.utility)
                check.satisfied = false;
        }
    }
    return check;
}

PropertyCheck
checkParetoEfficiency(const AgentList &agents,
                      const SystemCapacity &capacity,
                      const Allocation &allocation,
                      const FairnessTolerance &tol)
{
    requireShapes(agents, allocation);
    REF_REQUIRE(capacity.count() == allocation.resources(),
                "capacity/allocation resource mismatch");

    PropertyCheck check;
    check.satisfied = true;
    check.worstSlack = std::numeric_limits<double>::infinity();

    // (a) No resource may be left on the table: a Cobb-Douglas agent
    // always benefits from more of any resource.
    const Vector sums = allocation.totals();
    for (std::size_t r = 0; r < capacity.count(); ++r) {
        const double cap = capacity.capacity(r);
        const double slack_frac = (cap - sums[r]) / cap;
        const double slack = -slack_frac;  // negative when wasteful
        if (slack < check.worstSlack) {
            check.worstSlack = slack;
            std::ostringstream detail;
            detail << "resource '" << capacity.resource(r).name
                   << "' leaves " << slack_frac * 100
                   << "% of capacity unallocated";
            check.binding = detail.str();
        }
        if (slack_frac > tol.capacity + tol.mrs)
            check.satisfied = false;
    }

    // (b) Interior tangency: all agents' MRS agree (Eq. 10). A zero
    // amount makes the MRS undefined; such corner allocations are
    // reported as not PE (see header).
    for (std::size_t i = 0; i < agents.size(); ++i) {
        for (std::size_t r = 0; r < allocation.resources(); ++r) {
            if (allocation.at(i, r) <= 0) {
                check.satisfied = false;
                std::ostringstream detail;
                detail << "agent '" << agents[i].name()
                       << "' holds none of resource '"
                       << capacity.resource(r).name << "'";
                check.binding = detail.str();
                check.worstSlack =
                    -std::numeric_limits<double>::infinity();
                return check;
            }
        }
    }

    for (std::size_t r = 1; r < allocation.resources(); ++r) {
        const double reference_mrs =
            agents[0].utility().marginalRateOfSubstitution(
                r, 0, allocation.agentShare(0));
        for (std::size_t i = 1; i < agents.size(); ++i) {
            const double mrs =
                agents[i].utility().marginalRateOfSubstitution(
                    r, 0, allocation.agentShare(i));
            const double mismatch =
                std::abs(std::log(mrs) - std::log(reference_mrs));
            const double slack = tol.mrs - mismatch;
            if (slack < check.worstSlack) {
                check.worstSlack = slack;
                std::ostringstream detail;
                detail << "MRS(" << capacity.resource(r).name << "/"
                       << capacity.resource(0).name << ") of '"
                       << agents[i].name() << "' differs from '"
                       << agents[0].name() << "' by factor "
                       << std::exp(mismatch);
                check.binding = detail.str();
            }
            if (mismatch > tol.mrs)
                check.satisfied = false;
        }
    }
    return check;
}

PropertyCheck
checkCapacity(const SystemCapacity &capacity,
              const Allocation &allocation, const FairnessTolerance &tol)
{
    REF_REQUIRE(capacity.count() == allocation.resources(),
                "capacity/allocation resource mismatch");

    PropertyCheck check;
    check.satisfied = true;
    check.worstSlack = std::numeric_limits<double>::infinity();

    for (std::size_t i = 0; i < allocation.agents(); ++i) {
        for (std::size_t r = 0; r < allocation.resources(); ++r) {
            if (allocation.at(i, r) < 0) {
                check.satisfied = false;
                check.worstSlack = allocation.at(i, r);
                check.binding = "negative amount";
                return check;
            }
        }
    }

    const Vector sums = allocation.totals();
    for (std::size_t r = 0; r < capacity.count(); ++r) {
        const double cap = capacity.capacity(r);
        const double slack = (cap - sums[r]) / cap;
        if (slack < check.worstSlack) {
            check.worstSlack = slack;
            std::ostringstream detail;
            detail << "resource '" << capacity.resource(r).name
                   << "' allocated " << sums[r] << " of " << cap;
            check.binding = detail.str();
        }
        if (slack < -tol.capacity)
            check.satisfied = false;
    }
    return check;
}

FairnessReport
checkFairness(const AgentList &agents, const SystemCapacity &capacity,
              const Allocation &allocation, const FairnessTolerance &tol)
{
    FairnessReport report;
    report.sharingIncentives =
        checkSharingIncentives(agents, capacity, allocation, tol);
    report.envyFreeness = checkEnvyFreeness(agents, allocation, tol);
    report.paretoEfficiency =
        checkParetoEfficiency(agents, capacity, allocation, tol);
    report.capacity = checkCapacity(capacity, allocation, tol);
    return report;
}

} // namespace ref::core
