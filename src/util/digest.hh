/**
 * @file
 * Fixed 64-bit hashing for the service's state digest.
 *
 * The replication divergence check compares a digest of the whole
 * service state after every epoch, on machines that may differ in
 * word size, byte order and standard library, so the hash must not
 * be std::hash. Digest64 consumes the field vocabulary of ByteWriter
 * (integers, raw IEEE-754 bits, length-prefixed strings) as 64-bit
 * words, each folded in with the xxHash64 8-byte round and finished
 * with its avalanche; bytes are packed little-endian explicitly.
 *
 * The agent part of the digest is a sum mod 2^64 of one term per
 * live agent record plus one term per adjacent pair in admission
 * order (with a head sentinel before the first agent). The multiset
 * of pair terms fixes the order, and every admit, depart, update or
 * re-assignment changes at most three terms, so the owners of the
 * agents (svc::AgentRegistry, pool::PoolTree) keep the sum current
 * in O(1) per mutation — see AgentDigest.
 */

#ifndef REF_UTIL_DIGEST_HH
#define REF_UTIL_DIGEST_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ref {

/** Streaming, platform-independent 64-bit hash. */
class Digest64
{
  public:
    explicit Digest64(std::uint64_t seed = 0);

    void u64(std::uint64_t value);
    /** Raw IEEE-754 bits, so -0.0 and NaN payloads are distinct. */
    void f64(double value);
    /** Length word, then the bytes little-endian, zero-padded. */
    void str(std::string_view value);
    /** Count word, then each value's bits. */
    void doubles(const std::vector<double> &values);

    /** The finished hash of everything consumed so far. */
    std::uint64_t value() const;

  private:
    std::uint64_t state_;
    std::uint64_t words_ = 0;
};

/** Digest term of one live agent's canonical record. */
std::uint64_t agentDigestTerm(std::string_view name,
                              const std::vector<double> &elasticities,
                              std::uint64_t admittedEpoch,
                              std::string_view pool);

/**
 * Digest term of two agents adjacent in admission order;
 * @p predecessor is null for the head sentinel before the first.
 */
std::uint64_t orderDigestTerm(const std::string *predecessor,
                              std::string_view successor);

/**
 * The agent part of a state digest over an admission-ordered list,
 * kept current by the list's owner as it mutates. Arithmetic is
 * mod 2^64, so every removal exactly cancels its addition and the
 * value depends only on the current list, never on its history.
 */
class AgentDigest
{
  public:
    /** @p name (record term @p term) joined after @p tail (null
     *  when the list was empty). */
    void append(const std::string *tail, const std::string &name,
                std::uint64_t term);

    /** @p name (record term @p term) left from between
     *  @p predecessor and @p successor (either may be null). */
    void remove(const std::string *predecessor,
                const std::string &name,
                const std::string *successor, std::uint64_t term);

    /** An agent's record changed in place (update, re-assign). */
    void replace(std::uint64_t oldTerm, std::uint64_t newTerm)
    {
        value_ += newTerm - oldTerm;
    }

    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

} // namespace ref

#endif // REF_UTIL_DIGEST_HH
