#include "Session.hh"

#include <set>
#include <sstream>

#include "trace/TraceWriter.hh"

namespace sessionbench
{

using namespace hth;

uint64_t
nowNs()
{
    return obs::SpanTracer::nowNs();
}

void
Counts::add(const Counts &other)
{
    instructions += other.instructions;
    syscalls += other.syscalls;
    events += other.events;
    fires += other.fires;
    for (size_t i = 0; i < warnings.size(); ++i)
        warnings[i] += other.warnings[i];
    staticFindings += other.staticFindings;
    fireTraceHash ^= other.fireTraceHash;
}

namespace
{

struct Fnv
{
    uint64_t h = 1469598103934665603ull;

    void
    bytes(const void *p, size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (size_t i = 0; i < n; ++i)
            h = (h ^ b[i]) * 1099511628211ull;
    }

    void str(const std::string &s) { bytes(s.data(), s.size() + 1); }

    void
    u64(uint64_t v)
    {
        bytes(&v, sizeof v);
    }
};

/** Times every event the session tees into its TraceWriter. */
class TimedSink : public harrier::EventSink
{
  public:
    explicit TimedSink(harrier::EventSink &inner) : inner_(inner) {}

    void
    onResourceAccess(const harrier::ResourceAccessEvent &ev) override
    {
        uint64_t t0 = nowNs();
        inner_.onResourceAccess(ev);
        ns += nowNs() - t0;
    }

    void
    onResourceIo(const harrier::ResourceIoEvent &ev) override
    {
        uint64_t t0 = nowNs();
        inner_.onResourceIo(ev);
        ns += nowNs() - t0;
    }

    void
    onStaticFinding(const harrier::StaticFindingEvent &ev) override
    {
        uint64_t t0 = nowNs();
        inner_.onStaticFinding(ev);
        staticNs += nowNs() - t0;
    }

    uint64_t ns = 0;        //!< inside Harrier's event dispatch
    uint64_t staticNs = 0;  //!< inside static analysis

  private:
    harrier::EventSink &inner_;
};

} // namespace

void
LayerSample::read(const Report &report)
{
    const obs::MetricSnapshot &m = report.telemetry.metrics;
    phases = report.telemetry.phases;
    vmInstructions = m.counter("vm.instructions");
    superblockInsns = m.counter("vm.dispatch.superblock_insns");
    deopts = m.counter("vm.superblock.deopts");
    blockHits = m.counter("vm.block_cache.hits");
    blockMisses = m.counter("vm.block_cache.misses");
    shadowPages = m.gauge("taint.shadow.pages_live").value;
    imagesAnalyzed = m.counter("harrier.images_analyzed");
    harrierEvents = m.counter("harrier.access_events") +
                    m.counter("harrier.io_events");
    syscalls = m.counter("os.syscalls");
    secpertEvents = m.counter("secpert.events_analyzed");
    rulesFired = m.counter("secpert.rules_fired");
}

HthOptions
optionsFor(const SessionSpec &spec)
{
    HthOptions options;
    if (spec.disableTaint)
        options.taintTracking = false;
    return options;
}

std::string
checkVerdict(const Report &report, const Expected &expect)
{
    if (report.status != os::RunStatus::Done)
        return "run status " + std::to_string((int)report.status);
    if (report.flagged() != expect.malicious)
        return report.flagged() ? "flagged a clean session"
                                : "missed a malicious session";
    if (!expect.malicious)
        return "";
    const bool severityOk =
        expect.atLeast ? report.flagged(expect.severity)
                       : report.maxSeverity() == expect.severity;
    if (!severityOk)
        return std::string("max severity ") +
               secpert::severityName(report.maxSeverity()) +
               ", expected " + (expect.atLeast ? "at least " : "") +
               secpert::severityName(expect.severity);
    return "";
}

Counts
countsOf(const Report &report)
{
    Counts c;
    const obs::MetricSnapshot &m = report.telemetry.metrics;
    c.instructions = m.counter("vm.instructions");
    c.syscalls = m.counter("os.syscalls");
    c.events = m.counter("secpert.events_analyzed");
    c.fires = m.counter("clips.fires");
    for (const secpert::Warning &w : report.warnings)
        ++c.warnings[(size_t)w.severity];
    c.staticFindings = report.staticFindings.size();
    Fnv h;
    h.str(report.fireTrace);
    c.fireTraceHash = h.h;
    return c;
}

uint64_t
imageHash(const vm::Image &image)
{
    Fnv h;
    h.str(image.path);
    for (const vm::Instruction &insn : image.text) {
        h.u64((uint64_t)insn.op << 16 | (uint64_t)insn.r1 << 8 |
              (uint64_t)insn.r2);
        h.u64((uint64_t)(uint32_t)insn.imm);
    }
    h.bytes(image.data.data(), image.data.size());
    h.u64(image.bssSize);
    h.u64(image.entry);
    for (const auto &[name, addr] : image.symbols) {
        h.str(name);
        h.u64(addr);
    }
    for (const std::string &s : image.imports)
        h.str(s);
    for (const std::string &s : image.natives)
        h.str(s);
    for (const vm::Relocation &r : image.relocs) {
        h.u64(r.textIndex);
        h.str(r.symbol);
    }
    return h.h;
}

SessionResult
runSession(const SessionSpec &spec, const SessionOptions &so)
{
    SessionResult r;
    HthOptions options = optionsFor(spec);
    if (so.traced) {
        options.spanTrace = true;
        if (so.spanRingCapacity)
            options.spanRingCapacity = so.spanRingCapacity;
    }

    // Sessions that record tee their events into an in-memory
    // TraceWriter, as hthd --trace-dir does into a file.
    std::ostringstream traceOut;
    std::unique_ptr<trace::TraceWriter> writer;
    std::unique_ptr<TimedSink> timed;
    if (so.recordTrace) {
        writer = std::make_unique<trace::TraceWriter>(traceOut);
        options.eventTap = writer.get();
        if (so.traced) {
            timed = std::make_unique<TimedSink>(*writer);
            options.eventTap = timed.get();
        }
    }

    std::vector<std::string> argv = spec.argv;
    if (argv.empty())
        argv.push_back(spec.path);

    Report report;
    try {
        r.stamps[0] = nowNs();
        auto hth = std::make_unique<Hth>(options);
        r.stamps[1] = nowNs();
        if (spec.setup)
            spec.setup(hth->kernel());
        r.stamps[2] = nowNs();
        report = hth->monitor(spec.path, argv, spec.env,
                              spec.stdinData);
        if (writer)
            writer->finish();
        r.stamps[3] = nowNs();
        if (so.traced) {
            // Outside the timed segments: note which images the
            // session loaded (Harrier screens each distinct one).
            std::set<const vm::Image *> seen;
            for (const auto &p : hth->kernel().processes())
                for (const vm::LoadedImage &li : p->machine.images())
                    if (li.image && seen.insert(li.image.get()).second)
                        r.images.push_back(li.image);
            uint64_t gap = nowNs() - r.stamps[3];
            hth.reset();
            r.stamps[4] = nowNs() - gap;
        } else {
            hth.reset();
            r.stamps[4] = nowNs();
        }
    } catch (const std::exception &e) {
        r.error = std::string("threw: ") + e.what();
        return r;
    }

    r.error = checkVerdict(report, spec.expect);
    r.counts = countsOf(report);
    r.layers.read(report);
    if (writer) {
        r.trace = traceOut.str();
        r.traceEvents = writer->stats().events;
        r.traceBytes = writer->stats().bytes;
        r.warnings = report.warnings;
    }
    if (timed) {
        r.traceWriteNs = timed->ns;
        r.traceWriteStaticNs = timed->staticNs;
    }
    if (so.keepSpans)
        r.programSpans = std::move(report.spans);
    return r;
}

} // namespace sessionbench
