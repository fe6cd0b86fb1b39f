/**
 * @file
 * Seeded session inputs for the session benchmark.
 *
 * Every workload is a list of SessionSpecs built from the workload
 * seed alone. Each spec carries the answer the benchmark checks the
 * verdict against; for generated guests that answer is derived from
 * what the generator emitted (the paper's section 4.3 flow matrix
 * applied to each emitted operation), never from HTH's own output.
 */

#ifndef SESSIONBENCH_GUESTS_HH
#define SESSIONBENCH_GUESTS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "os/Kernel.hh"
#include "secpert/Warning.hh"

namespace sessionbench
{

/** splitmix64: a small, fully specified generator, so the same seed
 * gives the same inputs with any standard library. */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : state_(seed) {}

    uint64_t
    next()
    {
        uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, n). */
    uint32_t below(uint32_t n) { return (uint32_t)(next() % n); }

    /** Fisher-Yates shuffle. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[below((uint32_t)i)]);
    }

  private:
    uint64_t state_;
};

/** The verdict a session must reach. */
struct Expected
{
    bool malicious = false;
    hth::secpert::Severity severity = hth::secpert::Severity::Low;
    /** Corpus answers are a floor (the paper's tables); generated
     * guests know their exact maximum severity. */
    bool atLeast = false;
};

/** One monitored session: the guest world, the run, the answer. */
struct SessionSpec
{
    std::string id;
    bool disableTaint = false;
    std::function<void(hth::os::Kernel &)> setup;
    std::string path;
    std::vector<std::string> argv;
    std::vector<std::string> env;
    std::string stdinData;
    Expected expect;
};

/** Every shipped scenario (execution-flow, resource-abuse, info-flow,
 * macro, trusted, exploit and anomaly lists) in a seeded order, with
 * seeded variants for scenarios that have a reseed hook. */
std::vector<SessionSpec> corpusSessions(uint64_t seed);

/** @p count compute-heavy guests: byte loops over untainted buffers
 * and over buffers tainted from stdin or a socket, a fork and a few
 * syscalls. Millions of guest instructions each. */
std::vector<SessionSpec> longGuestSessions(uint64_t seed, int count);

/** @p count syscall-heavy guests: a few hundred file, socket, fork
 * and exec operations each, with seeded taint origins. */
std::vector<SessionSpec> eventStormSessions(uint64_t seed, int count);

} // namespace sessionbench

#endif // SESSIONBENCH_GUESTS_HH
