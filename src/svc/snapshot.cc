#include "snapshot.hh"

#include <cstring>
#include <string_view>

#include "obs/trace.hh"
#include "svc/journal.hh"
#include "util/digest.hh"
#include "util/logging.hh"
#include "util/record_io.hh"

namespace ref::svc {
namespace {

constexpr std::string_view kMagic = "REFSNAP1";

void
putStrings(ByteWriter &writer,
           const std::vector<std::string> &values)
{
    writer.u32(static_cast<std::uint32_t>(values.size()));
    for (const auto &value : values)
        writer.str(value);
}

std::vector<std::string>
getStrings(ByteReader &reader)
{
    const std::uint32_t count = reader.u32();
    std::vector<std::string> values;
    values.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i)
        values.push_back(reader.str());
    return values;
}

void
putAllocation(ByteWriter &writer, const core::Allocation &allocation)
{
    writer.u32(static_cast<std::uint32_t>(allocation.agents()));
    writer.u32(static_cast<std::uint32_t>(allocation.resources()));
    for (std::size_t i = 0; i < allocation.agents(); ++i)
        for (std::size_t r = 0; r < allocation.resources(); ++r)
            writer.f64(allocation.at(i, r));
}

core::Allocation
getAllocation(ByteReader &reader)
{
    const std::uint32_t agents = reader.u32();
    const std::uint32_t resources = reader.u32();
    if (agents == 0 && resources == 0)
        return core::Allocation();
    core::Allocation allocation(agents, resources);
    for (std::uint32_t i = 0; i < agents; ++i)
        for (std::uint32_t r = 0; r < resources; ++r)
            allocation.at(i, r) = reader.f64();
    return allocation;
}

void
putCheck(ByteWriter &writer, const core::PropertyCheck &check)
{
    writer.u8(check.satisfied ? 1 : 0);
    writer.f64(check.worstSlack);
    writer.str(check.binding);
}

core::PropertyCheck
getCheck(ByteReader &reader)
{
    core::PropertyCheck check;
    check.satisfied = reader.u8() != 0;
    check.worstSlack = reader.f64();
    check.binding = reader.str();
    return check;
}

/** Seed of the remainder stream (distinct from the agent terms'). */
constexpr std::uint64_t kStateSeed = 0x7374617465ull;  // "state"

void
digestStrings(Digest64 &digest, const std::vector<std::string> &values)
{
    digest.u64(values.size());
    for (const auto &value : values)
        digest.str(value);
}

void
digestAllocation(Digest64 &digest, const core::Allocation &allocation)
{
    digest.u64(allocation.agents());
    digest.u64(allocation.resources());
    for (std::size_t i = 0; i < allocation.agents(); ++i)
        for (std::size_t r = 0; r < allocation.resources(); ++r)
            digest.f64(allocation.at(i, r));
}

void
digestCheck(Digest64 &digest, const core::PropertyCheck &check)
{
    digest.u64(check.satisfied ? 1 : 0);
    digest.f64(check.worstSlack);
    digest.str(check.binding);
}

} // namespace

std::string
encodeServiceState(const ServiceState &state)
{
    ByteWriter writer;
    writer.u64(state.generation);
    writer.doubles(state.capacities);

    writer.u32(static_cast<std::uint32_t>(state.agents.size()));
    for (const auto &agent : state.agents) {
        writer.str(agent.name);
        writer.doubles(agent.elasticities);
        writer.u64(agent.admittedEpoch);
    }
    writer.u64(state.churnEvents);

    writer.u64(state.epoch);
    writer.u64(state.lastEnforcedEpoch);
    putStrings(writer, state.enforcedNames);
    putAllocation(writer, state.enforced);

    writer.u64(state.publishedEpoch);
    putStrings(writer, state.publishedAgents);
    putAllocation(writer, state.publishedAllocation);
    writer.u8(state.propertiesChecked ? 1 : 0);
    putCheck(writer, state.sharingIncentives);
    putCheck(writer, state.envyFreeness);

    // v2 section. Appended after everything v1 decoded (v1 readers
    // required the payload to end above, so they fail loudly on a v2
    // snapshot instead of misreading it); v2 readers treat an
    // early end as a v1 payload with the section defaulted.
    writer.u32(kSnapshotFormatVersion);
    writer.u8(state.pooled ? 1 : 0);
    writer.u32(static_cast<std::uint32_t>(state.pools.size()));
    for (const auto &pool : state.pools) {
        writer.str(pool.path);
        writer.f64(pool.weight);
        writer.u64(pool.createdEpoch);
    }
    std::vector<std::string> agentPools;
    agentPools.reserve(state.agents.size());
    for (const auto &agent : state.agents)
        agentPools.push_back(agent.pool);
    putStrings(writer, agentPools);
    return writer.take();
}

std::uint64_t
stateDigest(std::uint64_t agentDigest, const StateRemainder &rest)
{
    Digest64 digest(kStateSeed);
    digest.u64(agentDigest);
    digest.doubles(rest.capacities);
    digest.u64(rest.agentCount);
    digest.u64(rest.churnEvents);
    digest.u64(rest.epoch);
    digest.u64(rest.lastEnforcedEpoch);
    digestStrings(digest, rest.enforcedNames);
    digestAllocation(digest, rest.enforced);
    digest.u64(rest.publishedEpoch);
    digestStrings(digest, rest.publishedAgents);
    digestAllocation(digest, rest.publishedAllocation);
    digest.u64(rest.propertiesChecked ? 1 : 0);
    digestCheck(digest, rest.sharingIncentives);
    digestCheck(digest, rest.envyFreeness);
    digest.u64(rest.pooled ? 1 : 0);
    digest.u64(rest.pools.size());
    for (const auto &pool : rest.pools) {
        digest.str(pool.path);
        digest.f64(pool.weight);
        digest.u64(pool.createdEpoch);
    }
    return digest.value();
}

std::uint64_t
digestOf(const ServiceState &state)
{
    AgentDigest agents;
    const std::string *tail = nullptr;
    for (const auto &agent : state.agents) {
        agents.append(tail, agent.name,
                      agentDigestTerm(agent.name, agent.elasticities,
                                      agent.admittedEpoch, agent.pool));
        tail = &agent.name;
    }
    return stateDigest(
        agents.value(),
        StateRemainder{state.capacities, state.agents.size(),
                       state.churnEvents, state.epoch,
                       state.lastEnforcedEpoch, state.enforcedNames,
                       state.enforced, state.publishedEpoch,
                       state.publishedAgents, state.publishedAllocation,
                       state.propertiesChecked, state.sharingIncentives,
                       state.envyFreeness, state.pooled, state.pools});
}

ServiceState
decodeServiceState(std::string_view payload)
{
    ByteReader reader(payload);
    ServiceState state;
    state.generation = reader.u64();
    state.capacities = reader.doubles();

    const std::uint32_t agents = reader.u32();
    state.agents.reserve(agents);
    for (std::uint32_t i = 0; i < agents; ++i) {
        PersistedAgent agent;
        agent.name = reader.str();
        agent.elasticities = reader.doubles();
        agent.admittedEpoch = reader.u64();
        state.agents.push_back(std::move(agent));
    }
    state.churnEvents = reader.u64();

    state.epoch = reader.u64();
    state.lastEnforcedEpoch = reader.u64();
    state.enforcedNames = getStrings(reader);
    state.enforced = getAllocation(reader);

    state.publishedEpoch = reader.u64();
    state.publishedAgents = getStrings(reader);
    state.publishedAllocation = getAllocation(reader);
    state.propertiesChecked = reader.u8() != 0;
    state.sharingIncentives = getCheck(reader);
    state.envyFreeness = getCheck(reader);

    if (reader.atEnd())
        return state;  // v1 payload: no pooled section.
    const std::uint32_t version = reader.u32();
    REF_REQUIRE(version >= 2 && version <= kSnapshotFormatVersion,
                "snapshot format version "
                    << version << " is outside the supported range "
                    << "[2, " << kSnapshotFormatVersion
                    << "]; refusing to load with older semantics");
    state.pooled = reader.u8() != 0;
    const std::uint32_t pools = reader.u32();
    state.pools.reserve(pools);
    for (std::uint32_t i = 0; i < pools; ++i) {
        PersistedPool pool;
        pool.path = reader.str();
        pool.weight = reader.f64();
        pool.createdEpoch = reader.u64();
        state.pools.push_back(std::move(pool));
    }
    const std::vector<std::string> agentPools = getStrings(reader);
    REF_REQUIRE(agentPools.size() == state.agents.size(),
                "snapshot has " << agentPools.size()
                                << " agent pool paths for "
                                << state.agents.size() << " agents");
    for (std::size_t i = 0; i < agentPools.size(); ++i)
        state.agents[i].pool = agentPools[i];
    REF_REQUIRE(reader.atEnd(),
                "snapshot has " << reader.remaining()
                                << " trailing bytes");
    return state;
}

bool
writeSnapshotFile(const std::string &directory,
                  const std::string &tmpPath,
                  const std::string &finalPath,
                  const ServiceState &state, std::string &error)
{
    obs::Span span("snapshot.write", "journal");
    std::string bytes(kMagic);
    bytes += frameRecord(encodeServiceState(state));

    const auto fail = [&error](const char *site, int err) {
        error = std::string(site) + ": " + std::strerror(err);
        return false;
    };

    int fd = -1;
    if (const int err = io::openTrunc(tmpPath, fd, "snapshot.open"))
        return fail("snapshot.open", err);
    if (const int err = io::writeAll(fd, bytes, "snapshot.write")) {
        io::closeFd(fd);
        return fail("snapshot.write", err);
    }
    if (const int err = io::syncFd(fd, "snapshot.fsync")) {
        io::closeFd(fd);
        return fail("snapshot.fsync", err);
    }
    io::closeFd(fd);
    if (const int err =
            io::renameFile(tmpPath, finalPath, "snapshot.rename"))
        return fail("snapshot.rename", err);
    if (const int err = io::syncDir(directory, "snapshot.dirsync"))
        return fail("snapshot.dirsync", err);
    return true;
}

SnapshotReadStatus
readSnapshotFile(const std::string &path, ServiceState &state,
                 std::string &error)
{
    std::string bytes;
    if (!io::readFile(path, bytes))
        return SnapshotReadStatus::Missing;
    if (bytes.size() < kMagic.size() ||
        std::string_view(bytes).substr(0, kMagic.size()) != kMagic) {
        error = "bad snapshot magic";
        return SnapshotReadStatus::Bad;
    }
    std::size_t offset = kMagic.size();
    std::string_view payload;
    const FrameStatus status =
        readFrame(bytes, offset, payload);
    if (status != FrameStatus::Ok) {
        error = status == FrameStatus::Corrupt
                    ? "snapshot CRC mismatch"
                    : "snapshot truncated";
        return SnapshotReadStatus::Bad;
    }
    try {
        state = decodeServiceState(payload);
    } catch (const FatalError &parseError) {
        error = parseError.what();
        return SnapshotReadStatus::Bad;
    }
    return SnapshotReadStatus::Ok;
}

} // namespace ref::svc
