/**
 * @file
 * One monitored session, timed from outside the program.
 *
 * runSession() builds an Hth the way runScenario() and the fleet
 * worker do, and stamps the clock around each public call: the
 * constructor, the guest-world setup through kernel(), monitor(),
 * and the destructor. Everything else the benchmark reports about a
 * session is read from the Report the program returns.
 */

#ifndef SESSIONBENCH_SESSION_HH
#define SESSIONBENCH_SESSION_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "Guests.hh"
#include "core/Hth.hh"

namespace sessionbench
{

/** Steady-clock nanoseconds, the epoch the program's spans use. */
uint64_t nowNs();

/** Deterministic work done by one session: its fingerprint. */
struct Counts
{
    uint64_t instructions = 0;
    uint64_t syscalls = 0;
    uint64_t events = 0;
    uint64_t fires = 0;
    std::array<uint64_t, 4> warnings{};  //!< by (int)Severity
    uint64_t staticFindings = 0;
    uint64_t fireTraceHash = 0;

    bool operator==(const Counts &) const = default;

    void add(const Counts &other);
};

/** Layer figures of one session, read from its Report. */
struct LayerSample
{
    hth::obs::PhaseBreakdown phases;
    uint64_t vmInstructions = 0;
    uint64_t superblockInsns = 0;
    uint64_t deopts = 0;
    uint64_t blockHits = 0;
    uint64_t blockMisses = 0;
    uint64_t shadowPages = 0;
    uint64_t imagesAnalyzed = 0;
    uint64_t harrierEvents = 0;
    uint64_t syscalls = 0;
    uint64_t secpertEvents = 0;
    uint64_t rulesFired = 0;

    void read(const hth::Report &report);
};

/** Outcome and timing of one session. */
struct SessionResult
{
    std::string error;      //!< why the session failed; "" when correct
    Counts counts;
    LayerSample layers;

    /** Clock stamps: begin, constructed, set up, monitored, torn
     * down. Session latency is stamps[4] - stamps[0]. */
    std::array<uint64_t, 5> stamps{};

    /** Recorded event stream (when the session records one). */
    std::string trace;
    uint64_t traceEvents = 0;
    uint64_t traceBytes = 0;
    /** Time spent writing the trace (traced runs only), split by the
     * program phase the write happened in. */
    uint64_t traceWriteNs = 0;        //!< event dispatch
    uint64_t traceWriteStaticNs = 0;  //!< static analysis

    std::vector<hth::secpert::Warning> warnings;   //!< when recording
    std::vector<hth::obs::SpanRecord> programSpans; //!< when kept

    /** Distinct images the session loaded (traced runs only). */
    std::vector<std::shared_ptr<const hth::vm::Image>> images;

    uint64_t latencyNs() const { return stamps[4] - stamps[0]; }
};

struct SessionOptions
{
    bool traced = false;        //!< spanTrace on + layer extras
    bool keepSpans = false;     //!< copy Report.spans out
    bool recordTrace = false;   //!< tee events into a TraceWriter
    size_t spanRingCapacity = 0;
};

/** Options the program gets for @p spec (defaults otherwise). */
hth::HthOptions optionsFor(const SessionSpec &spec);

/** Run @p spec once and check its verdict against the answer. */
SessionResult runSession(const SessionSpec &spec,
                         const SessionOptions &options);

/** Check a finished Report against @p expect; "" when correct. */
std::string checkVerdict(const hth::Report &report,
                         const Expected &expect);

/** Work counts of a finished Report. */
Counts countsOf(const hth::Report &report);

/** FNV-1a over an image's code, data and link tables. */
uint64_t imageHash(const hth::vm::Image &image);

} // namespace sessionbench

#endif // SESSIONBENCH_SESSION_HH
