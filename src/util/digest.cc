#include "digest.hh"

#include <algorithm>
#include <bit>

namespace ref {
namespace {

// xxHash64's primes.
constexpr std::uint64_t kPrime1 = 0x9e3779b185ebca87ull;
constexpr std::uint64_t kPrime2 = 0xc2b2ae3d27d4eb4full;
constexpr std::uint64_t kPrime3 = 0x165667b19e3779f9ull;
constexpr std::uint64_t kPrime4 = 0x85ebca77c2b2ae63ull;
constexpr std::uint64_t kPrime5 = 0x27d4eb2f165667c5ull;

/** Domain seeds, so an agent term never equals an order term. */
constexpr std::uint64_t kAgentSeed = 0x6167656e74ull;   // "agent"
constexpr std::uint64_t kOrderSeed = 0x6f72646572ull;   // "order"

} // namespace

Digest64::Digest64(std::uint64_t seed) : state_(seed + kPrime5) {}

void
Digest64::u64(std::uint64_t value)
{
    const std::uint64_t round =
        std::rotl(value * kPrime2, 31) * kPrime1;
    state_ = std::rotl(state_ ^ round, 27) * kPrime1 + kPrime4;
    ++words_;
}

void
Digest64::f64(double value)
{
    u64(std::bit_cast<std::uint64_t>(value));
}

void
Digest64::str(std::string_view value)
{
    u64(value.size());
    for (std::size_t at = 0; at < value.size(); at += 8) {
        std::uint64_t word = 0;
        const std::size_t end = std::min(value.size(), at + 8);
        for (std::size_t i = at; i < end; ++i)
            word |= static_cast<std::uint64_t>(
                        static_cast<unsigned char>(value[i]))
                    << (8 * (i - at));
        u64(word);
    }
}

void
Digest64::doubles(const std::vector<double> &values)
{
    u64(values.size());
    for (const double value : values)
        f64(value);
}

std::uint64_t
Digest64::value() const
{
    std::uint64_t hash = state_ + words_ * 8;
    hash ^= hash >> 33;
    hash *= kPrime2;
    hash ^= hash >> 29;
    hash *= kPrime3;
    hash ^= hash >> 32;
    return hash;
}

std::uint64_t
agentDigestTerm(std::string_view name,
                const std::vector<double> &elasticities,
                std::uint64_t admittedEpoch, std::string_view pool)
{
    Digest64 digest(kAgentSeed);
    digest.str(name);
    digest.doubles(elasticities);
    digest.u64(admittedEpoch);
    digest.str(pool);
    return digest.value();
}

std::uint64_t
orderDigestTerm(const std::string *predecessor,
                std::string_view successor)
{
    Digest64 digest(kOrderSeed);
    digest.u64(predecessor != nullptr ? 1 : 0);
    if (predecessor != nullptr)
        digest.str(*predecessor);
    digest.str(successor);
    return digest.value();
}

void
AgentDigest::append(const std::string *tail, const std::string &name,
                    std::uint64_t term)
{
    value_ += term + orderDigestTerm(tail, name);
}

void
AgentDigest::remove(const std::string *predecessor,
                    const std::string &name,
                    const std::string *successor, std::uint64_t term)
{
    value_ -= term + orderDigestTerm(predecessor, name);
    if (successor != nullptr) {
        value_ -= orderDigestTerm(&name, *successor);
        value_ += orderDigestTerm(predecessor, *successor);
    }
}

} // namespace ref
