/**
 * @file
 * The HTH session benchmark.
 *
 *   sessionbench --workload W --seed N --seconds S --trace 0|1 [--smoke]
 *
 * Workloads (each input list is generated from the seed alone):
 *   corpus       every shipped scenario, seeded order, closed loop on
 *                one thread, one fresh Hth per session
 *   long_guest   generated compute-heavy guests (millions of guest
 *                instructions), closed loop on one thread
 *   event_storm  generated syscall-heavy guests, each session's event
 *                stream tee'd into an in-memory TraceWriter
 *   fleet        the corpus, replicated, through FleetService with
 *                nproc - 1 workers as backpressured batches
 *
 * --trace 0 prints the end-to-end metrics; --trace 1 is a separate run
 * that alternates untraced and traced rounds and prints the per-layer
 * metrics, a layer table, and a Chrome trace_event file under
 * .bench_out/. The last stdout line is always one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * Every verdict is checked against its known answer and every
 * session's work counts against the first run of the same input; the
 * process exits 1 when anything failed.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "Guests.hh"
#include "Session.hh"
#include "analysis/Analyzer.hh"
#include "fleet/FleetService.hh"
#include "obs/StatsSink.hh"
#include "secpert/Secpert.hh"
#include "trace/TraceReader.hh"

using namespace hth;
using namespace sessionbench;

namespace
{

//
// Small statistics and output helpers
//

/** Linear-interpolated quantile of @p v (sorted copy). */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = q * (double)(v.size() - 1);
    size_t lo = (size_t)pos;
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - (double)lo) * (v[hi] - v[lo]);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    return "\"" + obs::jsonEscape(s) + "\"";
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return (double)ru.ru_maxrss / 1024.0;   // ru_maxrss is KiB
}

//
// Machine context: recorded with every result so machine drift is
// not read as a regression.
//

uint64_t
spin(uint64_t iterations)
{
    uint64_t x = 88172645463325252ull;
    for (uint64_t i = 0; i < iterations; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    return x;
}

struct MachineContext
{
    unsigned nproc = 1;
    double calibMs = 0;      //!< median time of a fixed spin
    double parallelism = 0;  //!< (nproc-1)-thread speedup over 1
};

MachineContext
measureMachine()
{
    constexpr uint64_t WORK = 20000000;
    MachineContext m;
    m.nproc = std::max(1u, std::thread::hardware_concurrency());
    std::vector<double> calib, par;
    volatile uint64_t sink = 0;
    for (int rep = 0; rep < 5; ++rep) {
        uint64_t t0 = nowNs();
        sink = sink + spin(WORK);
        calib.push_back((double)(nowNs() - t0) / 1e6);
    }
    const unsigned n = std::max(1u, m.nproc - 1);
    // The first round wakes idle cores and is not counted.
    for (int rep = 0; rep < 4; ++rep) {
        uint64_t t0 = nowNs();
        sink = sink + spin(WORK);
        double one = (double)(nowNs() - t0);
        std::vector<uint64_t> out(n);
        t0 = nowNs();
        {
            std::vector<std::thread> threads;
            for (unsigned i = 0; i < n; ++i)
                threads.emplace_back([&out, i] { out[i] = spin(WORK); });
            for (std::thread &t : threads)
                t.join();
        }
        double many = (double)(nowNs() - t0);
        for (uint64_t v : out)
            sink = sink + v;
        if (rep > 0)
            par.push_back(n * one / many);
    }
    m.calibMs = quantile(calib, 0.5);
    m.parallelism = quantile(par, 0.5);
    return m;
}

//
// Workloads
//

struct Workload
{
    std::string name;
    std::function<std::vector<SessionSpec>(uint64_t, bool)> make;
    double tailQ;           //!< the tail percentile this workload uses
    bool recordTrace = false;
    size_t spanRingCapacity = 0;
    bool fleet = false;
};

std::vector<SessionSpec>
limit(std::vector<SessionSpec> specs, bool smoke, size_t n)
{
    if (smoke && specs.size() > n)
        specs.resize(n);
    return specs;
}

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = {
        {"corpus",
         [](uint64_t seed, bool smoke) {
             return limit(corpusSessions(seed), smoke, 6);
         },
         0.99},
        {"long_guest",
         [](uint64_t seed, bool smoke) {
             return longGuestSessions(seed, smoke ? 2 : 24);
         },
         0.90},
        {"event_storm",
         [](uint64_t seed, bool smoke) {
             return eventStormSessions(seed, smoke ? 3 : 24);
         },
         0.99, true, 1 << 16},
        {"fleet",
         [](uint64_t seed, bool smoke) {
             return limit(corpusSessions(seed), smoke, 6);
         },
         0.99, false, 0, true},
    };
    return all;
}

/** Corpus copies per fleet batch. */
constexpr int FLEET_REPLICAS = 4;

/** Fleet workers: nproc - 1, so the workers and the submitting
 * thread fit the cores. */
unsigned
fleetWorkers()
{
    return std::max(1u, std::max(1u, std::thread::hardware_concurrency()) - 1);
}

/** Cap on program spans kept for the Chrome trace export. */
constexpr size_t MAX_PROGRAM_SPANS = 50000;

//
// Layer accounting (traced runs)
//

struct Span
{
    const char *name;
    const char *layer;
    uint64_t begin;
    uint64_t end;
    int parent;     //!< index into the span log, -1 for roots
    int session;
    int lane;       //!< 0: benchmark spans, 1+: program spans
};

struct LayerTotals
{
    uint64_t sessions = 0;
    std::vector<double> constructUs, setupUs, monitorUs, teardownUs;
    uint64_t construct = 0, setup = 0, monitor = 0, teardown = 0;
    uint64_t iteration = 0;     //!< closed-loop time per session, summed
    obs::PhaseBreakdown phases;
    LayerSample sums;
    uint64_t traceWrite = 0, traceWriteStatic = 0;
    uint64_t traceEvents = 0, traceBytes = 0;

    std::map<uint64_t, std::shared_ptr<const vm::Image>> distinctImages;
    uint64_t imagesSeen = 0, imageRepeats = 0;

    void
    addLayers(const LayerSample &l)
    {
        ++sessions;
        phases.merge(l.phases);
        sums.vmInstructions += l.vmInstructions;
        sums.superblockInsns += l.superblockInsns;
        sums.deopts += l.deopts;
        sums.blockHits += l.blockHits;
        sums.blockMisses += l.blockMisses;
        sums.shadowPages += l.shadowPages;
        sums.imagesAnalyzed += l.imagesAnalyzed;
        sums.harrierEvents += l.harrierEvents;
        sums.syscalls += l.syscalls;
        sums.secpertEvents += l.secpertEvents;
        sums.rulesFired += l.rulesFired;
    }

    void
    add(SessionResult &r, uint64_t iterationNs)
    {
        addLayers(r.layers);
        const auto &s = r.stamps;
        constructUs.push_back((double)(s[1] - s[0]) / 1e3);
        setupUs.push_back((double)(s[2] - s[1]) / 1e3);
        monitorUs.push_back((double)(s[3] - s[2]) / 1e3);
        teardownUs.push_back((double)(s[4] - s[3]) / 1e3);
        construct += s[1] - s[0];
        setup += s[2] - s[1];
        monitor += s[3] - s[2];
        teardown += s[4] - s[3];
        iteration += iterationNs;
        traceWrite += r.traceWriteNs;
        traceWriteStatic += r.traceWriteStaticNs;
        traceEvents += r.traceEvents;
        traceBytes += r.traceBytes;
        for (auto &image : r.images) {
            ++imagesSeen;
            if (!distinctImages.emplace(imageHash(*image), image).second)
                ++imageRepeats;
        }
        r.images.clear();
    }

    double
    perSession(double total) const
    {
        return ratio(total, (double)sessions);
    }

    double
    phaseUs(obs::Phase p) const
    {
        return perSession((double)phases.phaseNs(p) / 1e3);
    }
};

/** Self time of each layer over the traced sessions. The session
 * span's children are the four public calls; monitor()'s children are
 * the program's phase segments (exclusive by construction); trace
 * writes are children of the phase they happened in. */
std::vector<std::pair<std::string, uint64_t>>
layerRows(const LayerTotals &t, bool fleet)
{
    auto phase = [&](obs::Phase p) { return t.phases.phaseNs(p); };
    auto minus = [](uint64_t a, uint64_t b) { return a > b ? a - b : 0; };
    std::vector<std::pair<std::string, uint64_t>> rows = {
        {"os      spawn + image load", phase(obs::Phase::Setup)},
        {"vm      execute", phase(obs::Phase::VmExecute)},
        {"taint   bulk tag ops", phase(obs::Phase::TaintOps)},
        {"os      kernel", phase(obs::Phase::Kernel)},
        {"harrier event dispatch",
         minus(phase(obs::Phase::EventDispatch), t.traceWrite)},
        {"trace   write", t.traceWrite + t.traceWriteStatic},
        {"clips   match", phase(obs::Phase::ClipsMatch)},
        {"clips   fire", phase(obs::Phase::ClipsFire)},
        {"analysis static", minus(phase(obs::Phase::StaticAnalysis),
                                  t.traceWriteStatic)},
        {"core    other (unclaimed phase)", phase(obs::Phase::Other)},
    };
    if (fleet) {
        // Sessions run inside workers: only their busy time and the
        // program's own phases are visible from outside.
        rows.push_back({"core    in-worker ctor/setup/report/dtor",
                        minus(t.iteration, t.phases.totalNs)});
        return rows;
    }
    rows.insert(rows.end(), {
        {"core    construct (Hth ctor)", t.construct},
        {"os      world setup (kernel())", t.setup},
        {"core    monitor self (report)",
         minus(t.monitor, t.phases.totalNs)},
        {"core    teardown (~Hth)", t.teardown},
        {"bench   loop (checks, report free)",
         minus(t.iteration,
               t.construct + t.setup + t.monitor + t.teardown)},
    });
    return rows;
}

void
printLayerTable(const std::string &workload, const LayerTotals &t,
                bool fleet)
{
    auto rows = layerRows(t, fleet);
    std::sort(rows.begin(), rows.end(),
              [](const auto &a, const auto &b) {
                  return a.second > b.second;
              });
    std::printf("layer table: %s, %llu traced sessions, self time per "
                "session and share of session wall time\n",
                workload.c_str(), (unsigned long long)t.sessions);
    for (const auto &[name, ns] : rows)
        std::printf("  %-40s %12.2f us  %6.2f%%\n", name.c_str(),
                    t.perSession((double)ns / 1e3),
                    100.0 * ratio((double)ns, (double)t.iteration));
}

void
writeChromeTrace(const std::string &path, const std::vector<Span> &spans,
                 const std::vector<std::string> &lanes)
{
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path());
    std::ofstream out(path);
    uint64_t epoch = UINT64_MAX;
    for (const Span &s : spans)
        epoch = std::min(epoch, s.begin);
    auto us = [](uint64_t ns) {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%llu.%03llu",
                      (unsigned long long)(ns / 1000),
                      (unsigned long long)(ns % 1000));
        return std::string(buf);
    };
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    const char *sep = "\n";
    for (size_t lane = 0; lane < lanes.size(); ++lane) {
        out << sep << "{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,"
            << "\"pid\":1,\"tid\":" << lane + 1
            << ",\"args\":{\"name\":\"" << lanes[lane] << "\"}}";
        sep = ",\n";
    }
    for (const Span &s : spans)
        out << sep << "{\"name\":\"" << s.name << "\",\"cat\":\""
            << s.layer << "\",\"ph\":\"X\",\"ts\":"
            << us(s.begin - epoch) << ",\"dur\":"
            << us(s.end > s.begin ? s.end - s.begin : 0)
            << ",\"pid\":1,\"tid\":" << s.lane + 1
            << ",\"args\":{\"session\":" << s.session
            << ",\"parent\":" << s.parent << "}}";
    out << "\n]}\n";
}

const char *
layerOfSpan(obs::SpanId id)
{
    switch (id) {
      case obs::SpanId::VmExecute:
      case obs::SpanId::SuperblockForm: return "vm";
      case obs::SpanId::TaintOps: return "taint";
      case obs::SpanId::Setup:
      case obs::SpanId::Kernel:
      case obs::SpanId::ImageLoad: return "os";
      case obs::SpanId::EventDispatch: return "harrier";
      case obs::SpanId::ClipsMatch:
      case obs::SpanId::ClipsFire: return "clips";
      case obs::SpanId::ClipsPump: return "secpert";
      case obs::SpanId::StaticAnalysis:
      case obs::SpanId::ImageAnalysis: return "analysis";
      case obs::SpanId::AnomalyScore: return "anomaly";
      default: return "core";
    }
}

//
// The run
//

struct Run
{
    Run(const Workload &workload, uint64_t s, double secs, bool smokeMode)
        : w(workload), seed(s), seconds(secs), smoke(smokeMode)
    {
    }

    const Workload &w;
    uint64_t seed;
    double seconds;
    bool smoke;

    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<SessionSpec> specs;
    std::vector<Counts> reference;  //!< per spec, from the first run

    /** Count a session's outcome; checks its work against the first
     * run of the same input. */
    void
    judge(size_t specIndex, const std::string &error,
          const Counts &counts)
    {
        ++attempted;
        std::string why = error;
        if (why.empty() && reference.size() == specs.size() &&
            !(counts == reference[specIndex]))
            why = "work counts differ from the first run of this input";
        if (!why.empty()) {
            if (failed < 20)
                std::fprintf(stderr, "FAILED %s: %s\n",
                             specs[specIndex].id.c_str(), why.c_str());
            ++failed;
        }
    }

    /** Generate the inputs and warm up: one untraced run of every
     * input, which also records the reference work counts. */
    void
    setUp()
    {
        specs = w.make(seed, smoke);
        std::vector<Counts> first;
        if (w.fleet) {
            fleetBatch(smoke ? 1 : FLEET_REPLICAS, false, nullptr, nullptr,
                       nullptr, &first);
        } else {
            for (size_t i = 0; i < specs.size(); ++i) {
                SessionResult r =
                    runSession(specs[i], sessionOptions(false));
                judge(i, r.error, r.counts);
                first.push_back(r.counts);
            }
        }
        if (reference.empty())
            reference = first;
    }

    SessionOptions
    sessionOptions(bool tracedSession) const
    {
        SessionOptions o;
        o.traced = tracedSession;
        o.recordTrace = w.recordTrace;
        o.spanRingCapacity = w.spanRingCapacity;
        return o;
    }

    //
    // Closed loop on one thread
    //

    /** Sessions of one untraced or traced stretch. */
    struct Stretch
    {
        std::vector<double> latencyMs;
        uint64_t wallNs = 0;
    };

    /** Run sessions in input order, round after round, until
     * @p deadline (at least @p minSessions). */
    void
    closedLoop(uint64_t deadline, size_t minSessions, bool tracedSessions,
               Stretch &out, LayerTotals *layers,
               std::vector<Span> *spans,
               std::vector<SessionResult> *firstRound)
    {
        uint64_t begin = nowNs();
        size_t n = 0;
        while (n < minSessions || nowNs() < deadline) {
            const uint64_t iterBegin = nowNs();
            size_t i = n % specs.size();
            SessionOptions o = sessionOptions(tracedSessions);
            o.keepSpans = spans && n < specs.size() &&
                          spans->size() < MAX_PROGRAM_SPANS;
            SessionResult r = runSession(specs[i], o);
            judge(i, r.error, r.counts);
            const uint64_t iterEnd = nowNs();
            out.latencyMs.push_back((double)r.latencyNs() / 1e6);
            if (layers) {
                if (spans)
                    recordSpans(r, (int)layers->sessions, iterBegin,
                                iterEnd, *spans);
                layers->add(r, iterEnd - iterBegin);
            }
            if (firstRound && n < specs.size())
                firstRound->push_back(std::move(r));
            ++n;
        }
        out.wallNs += nowNs() - begin;
    }

    static void
    recordSpans(const SessionResult &r, int session, uint64_t iterBegin,
                uint64_t iterEnd, std::vector<Span> &spans)
    {
        const auto &s = r.stamps;
        int root = (int)spans.size();
        spans.push_back({"session", "bench", iterBegin, iterEnd, -1,
                         session, 0});
        spans.push_back({"construct", "core", s[0], s[1], root, session, 0});
        spans.push_back({"world_setup", "os", s[1], s[2], root, session, 0});
        int mon = (int)spans.size();
        spans.push_back({"monitor", "core", s[2], s[3], root, session, 0});
        spans.push_back({"teardown", "core", s[3], s[4], root, session, 0});
        for (const obs::SpanRecord &p : r.programSpans)
            spans.push_back({obs::spanName(p.id), layerOfSpan(p.id),
                             p.beginNs, p.endNs, mon, session, 1});
    }

    //
    // Fleet batches
    //

    /** Per-job clock stamps; the end stamp is written by the job's
     * own setup closure when the fleet releases the job. */
    struct JobStamps
    {
        uint64_t submit = 0;
        uint64_t start = 0;
        uint64_t end = 0;
    };

    struct EndStamp
    {
        explicit EndStamp(uint64_t *s) : slot(s) {}
        ~EndStamp() { *slot = nowNs(); }
        EndStamp(const EndStamp &) = delete;
        EndStamp &operator=(const EndStamp &) = delete;
        uint64_t *slot;
    };

    struct BatchOut
    {
        std::vector<double> latencyMs;
        std::vector<double> queueWaitMs;
        uint64_t wallNs = 0;
        uint64_t sessions = 0;
        uint64_t submitBlockedNs = 0;
        double workerBusyNs = 0;
        double workerCapacityNs = 0;
    };

    /** One backpressured batch of @p replicas corpus copies. */
    void
    fleetBatch(int replicas, bool tracedSessions, BatchOut *out,
               LayerTotals *layers, std::vector<Span> *spans,
               std::vector<Counts> *first)
    {
        const size_t n = specs.size() * (size_t)replicas;
        std::vector<JobStamps> stamps(n);
        fleet::FleetConfig config;
        config.workers = fleetWorkers();

        uint64_t begin = nowNs();
        uint64_t blocked = 0;
        fleet::FleetReport report;
        {
            fleet::FleetService service(config);
            for (size_t j = 0; j < n; ++j) {
                const SessionSpec &spec = specs[j % specs.size()];
                fleet::FleetJob job;
                job.id = spec.id;
                job.options = optionsFor(spec);
                job.options.spanTrace = tracedSessions;
                job.path = spec.path;
                job.argv = spec.argv;
                job.env = spec.env;
                job.stdinData = spec.stdinData;
                auto end = std::make_shared<EndStamp>(&stamps[j].end);
                job.setup = [inner = spec.setup, start = &stamps[j].start,
                             end](os::Kernel &k) {
                    *start = nowNs();
                    if (inner)
                        inner(k);
                };
                end.reset();
                stamps[j].submit = nowNs();
                service.submit(std::move(job));
                blocked += nowNs() - stamps[j].submit;
            }
            report = service.finish();
        }
        uint64_t wall = nowNs() - begin;

        for (size_t j = 0; j < n; ++j) {
            const fleet::FleetResult &res = report.results[j];
            std::string error = res.error;
            Counts counts;
            if (error.empty() && !res.completed)
                error = "not completed";
            if (error.empty()) {
                error = checkVerdict(res.report,
                                     specs[j % specs.size()].expect);
                counts = countsOf(res.report);
            }
            judge(j % specs.size(), error, counts);
            if (first && j < specs.size())
                first->push_back(counts);
            if (layers && res.completed) {
                LayerSample l;
                l.read(res.report);
                layers->addLayers(l);
            }
            // One timeline lane per worker, as hthd --trace-spans.
            if (spans && res.completed &&
                spans->size() < MAX_PROGRAM_SPANS)
                for (const obs::SpanRecord &p : res.report.spans)
                    spans->push_back({obs::spanName(p.id),
                                      layerOfSpan(p.id), p.beginNs,
                                      p.endNs, -1, (int)j,
                                      1 + res.worker});
        }
        if (!out)
            return;
        for (const JobStamps &s : stamps) {
            out->latencyMs.push_back((double)(s.end - s.submit) / 1e6);
            out->queueWaitMs.push_back((double)(s.start - s.submit) / 1e6);
        }
        out->wallNs += wall;
        out->sessions += n;
        out->submitBlockedNs += blocked;
        const obs::MetricSnapshot &m = report.telemetry.metrics;
        for (unsigned i = 0; i < config.workers; ++i)
            out->workerBusyNs +=
                1e3 * (double)m.counter("fleet.worker." +
                                        std::to_string(i) + ".busy_us");
        out->workerCapacityNs += (double)config.workers * (double)wall;
    }

    //
    // Result assembly
    //

    std::vector<Metric> endToEnd();
    std::vector<Metric> perLayer();

    /** Work fingerprint: the reference round's summed counts. */
    void
    printFingerprint() const
    {
        Counts total;
        for (const Counts &c : reference)
            total.add(c);
        std::printf(
            "fingerprint {\"workload\":\"%s\",\"seed\":%llu,"
            "\"sessions\":%zu,\"instructions\":%llu,\"syscalls\":%llu,"
            "\"events\":%llu,\"rule_fires\":%llu,"
            "\"warnings_low\":%llu,\"warnings_medium\":%llu,"
            "\"warnings_high\":%llu,\"static_findings\":%llu,"
            "\"fire_trace_hash\":\"%016llx\"}\n",
            w.name.c_str(), (unsigned long long)seed, reference.size(),
            (unsigned long long)total.instructions,
            (unsigned long long)total.syscalls,
            (unsigned long long)total.events,
            (unsigned long long)total.fires,
            (unsigned long long)total.warnings[1],
            (unsigned long long)total.warnings[2],
            (unsigned long long)total.warnings[3],
            (unsigned long long)total.staticFindings,
            (unsigned long long)total.fireTraceHash);
    }
};

std::vector<Metric>
Run::endToEnd()
{
    // Set up several times and report the median: input generation
    // plus a warm-up run of every input.
    const int setups = smoke ? 1 : 3;
    std::vector<double> setupS;
    for (int k = 0; k < setups; ++k) {
        uint64_t t0 = nowNs();
        setUp();
        setupS.push_back((double)(nowNs() - t0) / 1e9);
    }

    const uint64_t deadline = nowNs() + (uint64_t)(seconds * 1e9);
    std::vector<double> latency;
    double wallNs = 0;
    if (w.fleet) {
        BatchOut out;
        while (out.sessions == 0 || nowNs() < deadline)
            fleetBatch(smoke ? 1 : FLEET_REPLICAS, false, &out, nullptr,
                       nullptr, nullptr);
        latency = std::move(out.latencyMs);
        wallNs = (double)out.wallNs;
    } else {
        Stretch out;
        closedLoop(deadline, 1, false, out, nullptr, nullptr, nullptr);
        latency = std::move(out.latencyMs);
        wallNs = (double)out.wallNs;
    }
    const double beyond = (double)latency.size() * (1.0 - w.tailQ);
    std::printf("sessions %zu, tail p%.0f with %.0f samples beyond it\n",
                latency.size(), w.tailQ * 100, beyond);
    if (beyond < 10)
        std::fprintf(stderr, "warning: fewer than 10 samples beyond "
                             "the tail percentile\n");
    return {
        {"sessions_per_s", (double)latency.size() / (wallNs / 1e9), "1/s"},
        {"session_p50_ms", quantile(latency, 0.5), "ms"},
        {"session_tail_ms", quantile(latency, w.tailQ), "ms"},
        {"setup_s", quantile(setupS, 0.5), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
}

std::vector<Metric>
Run::perLayer()
{
    setUp();

    // Construction side of the policy, measured standalone.
    std::vector<double> secpertUs;
    size_t rules = 0, alpha = 0, beta = 0;
    for (int k = 0; k < (smoke ? 2 : 15); ++k) {
        uint64_t t0 = nowNs();
        secpert::Secpert sp{secpert::PolicyConfig{}};
        secpertUs.push_back((double)(nowNs() - t0) / 1e3);
        rules = sp.env().ruleCount();
        alpha = sp.env().reteAlphaNodes();
        beta = sp.env().reteBetaNodes();
    }

    // Alternate untraced and traced stretches; layer figures come
    // from the traced ones only.
    LayerTotals layers;
    std::vector<Span> spans;
    std::vector<SessionResult> firstTraced;
    std::vector<double> plainMs, tracedMs;
    BatchOut fleetPlain, fleetTraced;
    const uint64_t deadline = nowNs() + (uint64_t)(seconds * 1e9);
    bool tracedTurn = false;
    do {
        if (w.fleet) {
            BatchOut &out = tracedTurn ? fleetTraced : fleetPlain;
            fleetBatch(smoke ? 1 : FLEET_REPLICAS, tracedTurn, &out,
                       tracedTurn ? &layers : nullptr,
                       tracedTurn ? &spans : nullptr, nullptr);
        } else {
            // One stretch is a full round of the inputs.
            Stretch out;
            closedLoop(0, specs.size(), tracedTurn, out,
                       tracedTurn ? &layers : nullptr,
                       tracedTurn ? &spans : nullptr,
                       tracedTurn && firstTraced.empty() ? &firstTraced
                                                         : nullptr);
            auto &dst = tracedTurn ? tracedMs : plainMs;
            dst.insert(dst.end(), out.latencyMs.begin(),
                       out.latencyMs.end());
        }
        tracedTurn = !tracedTurn;
    } while (tracedTurn || nowNs() < deadline);

    // Recorded event streams replayed into a fresh Secpert must
    // reproduce the live warnings.
    uint64_t replayNs = 0, replayEvents = 0;
    for (size_t i = 0; i < firstTraced.size(); ++i) {
        const SessionResult &r = firstTraced[i];
        if (r.trace.empty())
            continue;
        secpert::Secpert sp{secpert::PolicyConfig{}};
        std::istringstream in(r.trace);
        trace::TraceReader reader(in);
        uint64_t t0 = nowNs();
        replayEvents += reader.replay(sp);
        replayNs += nowNs() - t0;
        bool same = sp.warnings().size() == r.warnings.size();
        for (size_t k = 0; same && k < r.warnings.size(); ++k) {
            const auto &a = sp.warnings()[k];
            const auto &b = r.warnings[k];
            same = a.severity == b.severity && a.rule == b.rule &&
                   a.message == b.message && a.pid == b.pid;
        }
        judge(i, same ? "" : "replayed warnings differ from live",
              r.counts);
    }

    // Static analysis cost per distinct image.
    std::vector<double> analyzeUs;
    for (const auto &[hash, image] : layers.distinctImages) {
        std::vector<double> t;
        for (int k = 0; k < 3; ++k) {
            uint64_t t0 = nowNs();
            analysis::StaticReport rep = analysis::analyzeImage(*image);
            t.push_back((double)(nowNs() - t0) / 1e3);
        }
        analyzeUs.push_back(quantile(t, 0.5));
    }

    double traceOverhead;
    std::vector<std::string> lanes = {"benchmark calls", "program spans"};
    if (w.fleet) {
        traceOverhead = ratio(quantile(fleetTraced.latencyMs, 0.5),
                              quantile(fleetPlain.latencyMs, 0.5));
        layers.iteration = (uint64_t)fleetTraced.workerBusyNs;
        lanes = {"submitter"};
        for (unsigned i = 0; i < fleetWorkers(); ++i)
            lanes.push_back("worker " + std::to_string(i));
    } else {
        traceOverhead =
            ratio(quantile(tracedMs, 0.5), quantile(plainMs, 0.5));
    }
    printLayerTable(w.name, layers, w.fleet);
    std::string path = ".bench_out/sessionbench-" + w.name + "-seed" +
                       std::to_string(seed) + ".trace.json";
    writeChromeTrace(path, spans, lanes);
    std::printf("spans: %zu written to %s\n", spans.size(), path.c_str());

    const LayerTotals &t = layers;
    const double coreNs =
        (double)(t.construct + t.setup + t.monitor + t.teardown);
    using obs::Phase;
    return {
        {"core.construct_us", quantile(t.constructUs, 0.5), "us"},
        {"core.setup_us", quantile(t.setupUs, 0.5), "us"},
        {"core.monitor_us", quantile(t.monitorUs, 0.5), "us"},
        {"core.teardown_us", quantile(t.teardownUs, 0.5), "us"},
        {"core.coverage", ratio(coreNs, (double)t.iteration), "ratio"},
        {"secpert.construct_us", quantile(secpertUs, 0.5), "us"},
        {"clips.rules", (double)rules, "count"},
        {"clips.rete_alpha_nodes", (double)alpha, "count"},
        {"clips.rete_beta_nodes", (double)beta, "count"},
        {"clips.match_us", t.phaseUs(Phase::ClipsMatch), "us"},
        {"clips.fire_us", t.phaseUs(Phase::ClipsFire), "us"},
        {"secpert.events", t.perSession((double)t.sums.secpertEvents),
         "count"},
        {"clips.rules_fired", t.perSession((double)t.sums.rulesFired),
         "count"},
        {"secpert.replay_us_per_event",
         ratio((double)replayNs / 1e3, (double)replayEvents), "us"},
        {"harrier.dispatch_us",
         t.perSession(((double)t.phases.phaseNs(Phase::EventDispatch) -
                       (double)t.traceWrite) / 1e3),
         "us"},
        {"harrier.events", t.perSession((double)t.sums.harrierEvents),
         "count"},
        {"analysis.static_us", t.phaseUs(Phase::StaticAnalysis), "us"},
        {"harrier.images_analyzed",
         t.perSession((double)t.sums.imagesAnalyzed), "count"},
        {"analysis.analyze_image_us", quantile(analyzeUs, 0.5), "us"},
        {"analysis.repeat_image_share",
         ratio((double)t.imageRepeats, (double)t.imagesSeen), "ratio"},
        {"vm.exec_us", t.phaseUs(Phase::VmExecute), "us"},
        {"vm.minsns_per_s",
         ratio((double)t.sums.vmInstructions,
               (double)t.phases.phaseNs(Phase::VmExecute) / 1e3),
         "Minsn/s"},
        {"vm.superblock_insn_share",
         ratio((double)t.sums.superblockInsns,
               (double)t.sums.vmInstructions),
         "ratio"},
        {"vm.superblock_deopts", t.perSession((double)t.sums.deopts),
         "count"},
        {"vm.block_cache_hit_share",
         ratio((double)t.sums.blockHits,
               (double)(t.sums.blockHits + t.sums.blockMisses)),
         "ratio"},
        {"taint.ops_us", t.phaseUs(Phase::TaintOps), "us"},
        {"taint.shadow_pages", t.perSession((double)t.sums.shadowPages),
         "count"},
        {"os.kernel_us", t.phaseUs(Phase::Kernel), "us"},
        {"os.syscalls", t.perSession((double)t.sums.syscalls), "count"},
        {"trace.write_us_per_event",
         ratio((double)(t.traceWrite + t.traceWriteStatic) / 1e3,
               (double)t.traceEvents),
         "us"},
        {"trace.bytes_per_event",
         ratio((double)t.traceBytes, (double)t.traceEvents), "B"},
        {"fleet.queue_wait_p50_ms", quantile(fleetPlain.queueWaitMs, 0.5),
         "ms"},
        {"fleet.submit_blocked_s",
         (double)fleetPlain.submitBlockedNs / 1e9, "s"},
        {"fleet.worker_busy_share",
         ratio(fleetPlain.workerBusyNs, fleetPlain.workerCapacityNs),
         "ratio"},
        {"obs.trace_overhead", traceOverhead, "ratio"},
    };
}

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "sessionbench: %s\nusage: sessionbench --workload "
                 "corpus|long_guest|event_storm|fleet --seed N "
                 "--seconds S --trace 0|1 [--smoke]\n",
                 why.c_str());
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    int traceMode = 0;
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + a);
            return argv[++i];
        };
        try {
            if (a == "--workload")
                workload = value();
            else if (a == "--seed")
                seed = std::stoull(value());
            else if (a == "--seconds")
                seconds = std::stod(value());
            else if (a == "--trace")
                traceMode = std::stoi(value());
            else if (a == "--smoke")
                smoke = true;
            else
                usage("unknown argument " + a);
        } catch (const std::logic_error &) {
            usage("bad value for " + a);
        }
    }
    const Workload *w = nullptr;
    for (const Workload &cand : workloads())
        if (cand.name == workload)
            w = &cand;
    if (!w)
        usage("unknown workload '" + workload + "'");
    if (seconds <= 0 || (traceMode != 0 && traceMode != 1))
        usage("bad --seconds or --trace");

    Run run(*w, seed, seconds, smoke);
    std::vector<Metric> metrics;
    MachineContext machine;
    try {
        metrics = traceMode == 1 ? run.perLayer() : run.endToEnd();
        machine = measureMachine();
        if (traceMode == 1)
            metrics.insert(metrics.end(), {
                {"machine.nproc", (double)machine.nproc, "count"},
                {"machine.calib_ms", machine.calibMs, "ms"},
                {"machine.parallelism", machine.parallelism, "ratio"},
            });
    } catch (const std::exception &e) {
        std::fprintf(stderr, "sessionbench: %s\n", e.what());
        return 1;
    }
    run.printFingerprint();
    std::printf("context {\"nproc\":%u,\"calib_ms\":%s,"
                "\"parallelism\":%s,\"fleet_workers\":%u}\n",
                machine.nproc, num(machine.calibMs).c_str(),
                num(machine.parallelism).c_str(), fleetWorkers());

    const bool correct = run.failed == 0;
    std::ostringstream out;
    out << "{\"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << run.attempted
        << ", \"failed\": " << run.failed << ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i)
        out << (i ? ", " : "") << jsonString(metrics[i].name)
            << ": {\"value\": " << num(metrics[i].value)
            << ", \"unit\": " << jsonString(metrics[i].unit) << "}";
    out << "}}";
    std::cout << out.str() << std::endl;
    return correct ? 0 : 1;
}
