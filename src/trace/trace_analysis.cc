#include "trace/trace_analysis.hh"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <unordered_map>

namespace flexsnoop
{

namespace
{

/** Primitive encoding of HopDecision `a` (snoop/primitives.hh order). */
constexpr std::string_view
primitiveName(std::uint16_t a)
{
    switch (a) {
      case 0: return "ForwardThenSnoop";
      case 1: return "SnoopThenForward";
      case 2: return "Forward";
    }
    return "?";
}

/** MsgType encoding of Hop `a` (net/message.hh order). */
constexpr std::string_view
msgTypeName(std::uint16_t a)
{
    switch (a) {
      case 0: return "SnoopRequest";
      case 1: return "SnoopReply";
      case 2: return "CombinedRR";
    }
    return "?";
}

std::string
hexAddr(Addr addr)
{
    std::ostringstream oss;
    oss << "0x" << std::hex << addr;
    return oss.str();
}

/** Phase the transaction enters after @p r (criticalPath state step). */
enum class Phase
{
    IssueLocal,
    RingTransit,
    SnoopWait,
    GatewayHold,
    DataNetwork,
    Memory,
    Other
};

Phase
phaseAfter(const TraceRecord &r, Phase current)
{
    switch (r.event()) {
      case TraceEvent::TxnStart: return Phase::IssueLocal;
      case TraceEvent::RingIssue: return Phase::RingTransit;
      case TraceEvent::Hop: return Phase::RingTransit;
      case TraceEvent::HopDecision:
        // SnoopThenForward serializes the snoop on the request path;
        // the other primitives keep the message moving.
        return r.a == 1 ? Phase::SnoopWait : Phase::RingTransit;
      case TraceEvent::GateDefer: return Phase::GatewayHold;
      case TraceEvent::GateResume: return Phase::RingTransit;
      case TraceEvent::SnoopDone: return Phase::RingTransit;
      case TraceEvent::SupplierHit: return Phase::DataNetwork;
      case TraceEvent::MemFetch: return Phase::Memory;
      case TraceEvent::MemData: return Phase::Other;
      case TraceEvent::RetryScheduled: return Phase::Other;
      case TraceEvent::WatchdogExpire: return Phase::Other;
      default:
        // Annotations (collisions, faults, snapshots, ...) do
        // not change what the transaction is waiting on.
        return current;
    }
}

std::uint64_t &
bucket(CriticalPath &cp, Phase p)
{
    switch (p) {
      case Phase::IssueLocal: return cp.issueLocal;
      case Phase::RingTransit: return cp.ringTransit;
      case Phase::SnoopWait: return cp.snoopWait;
      case Phase::GatewayHold: return cp.gatewayHold;
      case Phase::DataNetwork: return cp.dataNetwork;
      case Phase::Memory: return cp.memory;
      case Phase::Other: break;
    }
    return cp.other;
}

/** One-line payload description for the top-N timelines. */
std::string
describe(const TraceRecord &r)
{
    std::ostringstream oss;
    switch (r.event()) {
      case TraceEvent::TxnStart:
        oss << (r.a ? "write " : "read ") << hexAddr(r.arg0) << " core "
            << r.arg1 << " attempt " << r.b;
        break;
      case TraceEvent::RingDone:
        oss << (r.a ? "found" : "negative");
        break;
      case TraceEvent::MemFetch:
        oss << "latency " << r.arg1;
        break;
      case TraceEvent::DataDelivered:
        oss << "latency " << r.arg1 << (r.a ? " (memory)" : " (cache)");
        break;
      case TraceEvent::WriteComplete:
        oss << "latency " << r.arg1;
        break;
      case TraceEvent::RetryScheduled:
        oss << "backoff " << r.arg1 << " attempt " << r.a;
        break;
      case TraceEvent::Hop:
        oss << msgTypeName(r.a) << " arrive " << r.arg1;
        if (r.b & 1)
            oss << " found";
        if (r.b & 2)
            oss << " squashed";
        if (r.b & 4)
            oss << " write";
        if (r.b & 8)
            oss << " global";
        break;
      case TraceEvent::HopDecision:
        oss << primitiveName(r.a)
            << (r.b == 2 ? "" : r.b == 1 ? " pred:yes" : " pred:no");
        break;
      case TraceEvent::SnoopDone:
        oss << (r.a ? "found" : "miss") << (r.b ? " abandoned" : "");
        break;
      case TraceEvent::SupplierHit:
        oss << "data-net latency " << r.arg1;
        break;
      case TraceEvent::Collision:
        oss << "with txn " << r.arg1;
        break;
      case TraceEvent::WatchdogExpire:
        oss << (r.a ? "finish" : "reissue");
        break;
      case TraceEvent::FaultDelay:
        oss << "extra " << r.arg1;
        break;
      case TraceEvent::CounterSnapshot:
        oss << toString(static_cast<TraceCounterId>(r.a)) << " = "
            << r.arg0;
        break;
      default:
        break;
    }
    return oss.str();
}

/** Minimal JSON string escaping (our strings are ASCII identifiers). */
std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

} // namespace

std::size_t
TraceAnalysis::completed() const
{
    std::size_t n = 0;
    for (const TxnTimeline &t : txns)
        if (t.complete)
            ++n;
    return n;
}

TraceAnalysis
analyzeTrace(const TraceFile &file)
{
    TraceAnalysis out;
    std::unordered_map<std::uint64_t, std::size_t> index;
    index.reserve(1024);

    for (std::size_t i = 0; i < file.records.size(); ++i) {
        const TraceRecord &r = file.records[i];
        if (r.txn == 0)
            continue; // machine-level record, not tied to a transaction
        auto [it, fresh] = index.try_emplace(r.txn, out.txns.size());
        if (fresh) {
            out.txns.emplace_back();
            out.txns.back().txn = r.txn;
        }
        TxnTimeline &t = out.txns[it->second];
        t.events.push_back(i);

        switch (r.event()) {
          case TraceEvent::TxnStart:
            if (t.events.size() == 1 || r.cycle < t.start)
                t.start = r.cycle;
            t.addr = r.arg0;
            t.core = static_cast<std::uint32_t>(r.arg1);
            t.requester = r.node;
            t.isWrite = r.a != 0;
            break;
          case TraceEvent::Hop:
            ++t.hops;
            break;
          case TraceEvent::RetryScheduled:
            ++t.retries;
            break;
          case TraceEvent::DataDelivered:
            t.complete = true;
            t.deliver = r.cycle;
            t.latency = r.arg1;
            t.fromMemory = r.a != 0;
            break;
          case TraceEvent::WriteComplete:
            t.complete = true;
            t.deliver = r.cycle;
            t.latency = r.arg1;
            break;
          default:
            break;
        }
    }

    for (TxnTimeline &t : out.txns) {
        std::stable_sort(t.events.begin(), t.events.end(),
                         [&](std::size_t a, std::size_t b) {
                             return file.records[a].cycle <
                                    file.records[b].cycle;
                         });
        if (!t.events.empty() && t.start == 0)
            t.start = file.records[t.events.front()].cycle;
    }
    return out;
}

CriticalPath
criticalPath(const TraceFile &file, const TxnTimeline &t)
{
    CriticalPath cp;
    if (!t.complete)
        return cp;

    // Anchor on the completion record: partition exactly the window the
    // reported latency covers, so the components always sum to it.
    const Cycle win_end = t.deliver;
    const Cycle win_start =
        t.latency <= win_end ? win_end - t.latency : 0;

    Phase phase = Phase::IssueLocal;
    Cycle prev = win_start;
    for (std::size_t idx : t.events) {
        const TraceRecord &r = file.records[idx];
        if (r.cycle > win_end)
            break;
        const Cycle at = std::max(r.cycle, win_start);
        if (at > prev) {
            bucket(cp, phase) += at - prev;
            prev = at;
        }
        if ((r.event() == TraceEvent::DataDelivered ||
             r.event() == TraceEvent::WriteComplete) &&
            r.cycle == win_end)
            break;
        phase = phaseAfter(r, phase);
    }
    if (win_end > prev)
        bucket(cp, phase) += win_end - prev;
    return cp;
}

void
writeChromeTrace(std::ostream &os, const TraceFile &file,
                 const TraceAnalysis &analysis)
{
    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
    bool first = true;
    auto sep = [&]() -> std::ostream & {
        if (!first)
            os << ",\n";
        first = false;
        return os;
    };

    sep() << "{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\","
             "\"args\":{\"name\":\"flexsnoop\"}}";
    for (std::uint32_t n = 0; n < file.header.numNodes; ++n)
        sep() << "{\"ph\":\"M\",\"pid\":0,\"tid\":" << n
              << ",\"name\":\"thread_name\",\"args\":{\"name\":\"node "
              << n << "\"}}";

    // Transaction spans: one async begin/end pair per completed
    // transaction, on the requester node's track.
    for (const TxnTimeline &t : analysis.txns) {
        if (!t.complete)
            continue;
        const std::uint32_t tid =
            t.requester == kTraceNoNode ? 0 : t.requester;
        const std::string name = jsonEscape(
            std::string(t.isWrite ? "wr " : "rd ") + hexAddr(t.addr));
        sep() << "{\"ph\":\"b\",\"cat\":\"txn\",\"id\":" << t.txn
              << ",\"pid\":0,\"tid\":" << tid << ",\"ts\":" << t.start
              << ",\"name\":\"" << name << "\",\"args\":{\"core\":"
              << t.core << ",\"hops\":" << t.hops
              << ",\"retries\":" << t.retries << "}}";
        sep() << "{\"ph\":\"e\",\"cat\":\"txn\",\"id\":" << t.txn
              << ",\"pid\":0,\"tid\":" << tid << ",\"ts\":" << t.deliver
              << ",\"name\":\"" << name << "\",\"args\":{\"latency\":"
              << t.latency << "}}";
    }

    for (const TraceRecord &r : file.records) {
        const std::uint32_t tid = r.node == kTraceNoNode ? 0 : r.node;
        switch (r.event()) {
          case TraceEvent::Hop: {
            const std::uint64_t dur =
                r.arg1 > r.cycle ? r.arg1 - r.cycle : 0;
            sep() << "{\"ph\":\"X\",\"cat\":\"hop\",\"pid\":0,\"tid\":"
                  << tid << ",\"ts\":" << r.cycle << ",\"dur\":" << dur
                  << ",\"name\":\"hop " << msgTypeName(r.a)
                  << "\",\"args\":{\"txn\":" << r.txn << ",\"line\":\""
                  << hexAddr(r.arg0) << "\",\"flags\":" << r.b << "}}";
            break;
          }
          case TraceEvent::HopDecision:
            sep() << "{\"ph\":\"X\",\"cat\":\"snoop\",\"pid\":0,"
                     "\"tid\":"
                  << tid << ",\"ts\":" << r.cycle
                  << ",\"dur\":" << r.arg1 << ",\"name\":\""
                  << primitiveName(r.a) << "\",\"args\":{\"txn\":"
                  << r.txn << ",\"predictor\":" << r.b << "}}";
            break;
          case TraceEvent::CounterSnapshot:
            sep() << "{\"ph\":\"C\",\"pid\":0,\"ts\":" << r.cycle
                  << ",\"name\":\""
                  << toString(static_cast<TraceCounterId>(r.a))
                  << "\",\"args\":{\"value\":" << r.arg0 << "}}";
            break;
          case TraceEvent::TxnStart:
          case TraceEvent::DataDelivered:
          case TraceEvent::WriteComplete:
          case TraceEvent::TxnRetire:
            break; // covered by the spans above
          default:
            sep() << "{\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":"
                  << tid << ",\"ts\":" << r.cycle << ",\"name\":\""
                  << toString(r.event()) << "\",\"args\":{\"txn\":"
                  << r.txn << ",\"detail\":\""
                  << jsonEscape(describe(r)) << "\"}}";
            break;
        }
    }
    os << "\n]}\n";
}

void
writeSummary(std::ostream &os, const TraceFile &file,
             const TraceAnalysis &analysis)
{
    const TraceFileHeader &h = file.header;
    os << "trace: version " << h.version << ", " << h.numNodes
       << " nodes, " << h.numCores << " cores, mode "
       << (h.mode == static_cast<std::uint32_t>(TraceMode::Drop)
               ? "drop"
               : "spill")
       << ", buffer " << h.ringKb << " KiB\n";
    os << "records: " << file.records.size() << " (dropped "
       << h.dropped << ", spills " << h.spills << ")\n";
    os << "transactions: " << analysis.txns.size() << "\n";
    os << "spans: " << analysis.completed() << "\n";

    std::uint64_t counts[static_cast<std::size_t>(
        TraceEvent::NumEvents)] = {};
    for (const TraceRecord &r : file.records)
        if (r.type < static_cast<std::uint16_t>(TraceEvent::NumEvents))
            ++counts[r.type];
    os << "events by type:\n";
    for (std::size_t i = 1;
         i < static_cast<std::size_t>(TraceEvent::NumEvents); ++i)
        if (counts[i] > 0)
            os << "  " << std::left << std::setw(20)
               << toString(static_cast<TraceEvent>(i)) << " "
               << counts[i] << "\n";
}

void
writeCriticalPathTable(std::ostream &os, const TraceFile &file,
                       const TraceAnalysis &analysis)
{
    os << std::right << std::setw(8) << "txn" << std::setw(16) << "line"
       << std::setw(6) << "node" << std::setw(6) << "kind"
       << std::setw(10) << "latency" << std::setw(8) << "issue"
       << std::setw(8) << "ring" << std::setw(8) << "snoop"
       << std::setw(8) << "gate" << std::setw(8) << "data"
       << std::setw(8) << "mem" << std::setw(8) << "other"
       << std::setw(10) << "sum" << "\n";

    CriticalPath agg;
    std::uint64_t agg_latency = 0;
    std::size_t rows = 0;
    for (const TxnTimeline &t : analysis.txns) {
        if (!t.complete)
            continue;
        const CriticalPath cp = criticalPath(file, t);
        os << std::setw(8) << t.txn << std::setw(16) << hexAddr(t.addr)
           << std::setw(6) << t.requester << std::setw(6)
           << (t.isWrite ? "wr" : "rd") << std::setw(10) << t.latency
           << std::setw(8) << cp.issueLocal << std::setw(8)
           << cp.ringTransit << std::setw(8) << cp.snoopWait
           << std::setw(8) << cp.gatewayHold << std::setw(8)
           << cp.dataNetwork << std::setw(8) << cp.memory
           << std::setw(8) << cp.other << std::setw(10) << cp.total()
           << "\n";
        agg.issueLocal += cp.issueLocal;
        agg.ringTransit += cp.ringTransit;
        agg.snoopWait += cp.snoopWait;
        agg.gatewayHold += cp.gatewayHold;
        agg.dataNetwork += cp.dataNetwork;
        agg.memory += cp.memory;
        agg.other += cp.other;
        agg_latency += t.latency;
        ++rows;
    }
    os << std::setw(8) << "total" << std::setw(16) << "" << std::setw(6)
       << "" << std::setw(6) << "" << std::setw(10) << agg_latency
       << std::setw(8) << agg.issueLocal << std::setw(8)
       << agg.ringTransit << std::setw(8) << agg.snoopWait
       << std::setw(8) << agg.gatewayHold << std::setw(8)
       << agg.dataNetwork << std::setw(8) << agg.memory << std::setw(8)
       << agg.other << std::setw(10) << agg.total() << "\n";
    os << rows << " transactions; components "
       << (agg.total() == agg_latency ? "sum to" : "DO NOT sum to")
       << " the reported latencies\n";
}

void
writeTopSlowest(std::ostream &os, const TraceFile &file,
                const TraceAnalysis &analysis, std::size_t n)
{
    std::vector<const TxnTimeline *> done;
    for (const TxnTimeline &t : analysis.txns)
        if (t.complete)
            done.push_back(&t);
    std::stable_sort(done.begin(), done.end(),
                     [](const TxnTimeline *a, const TxnTimeline *b) {
                         return a->latency > b->latency;
                     });
    if (done.size() > n)
        done.resize(n);

    os << "top " << done.size() << " slowest transactions\n";
    for (const TxnTimeline *t : done) {
        os << "\ntxn " << t->txn << " " << (t->isWrite ? "wr" : "rd")
           << " " << hexAddr(t->addr) << " node " << t->requester
           << " core " << t->core << ": latency " << t->latency
           << " cycles, " << t->hops << " hops, " << t->retries
           << " retries" << (t->fromMemory ? ", from memory" : "")
           << "\n";
        Cycle prev = t->start;
        for (std::size_t idx : t->events) {
            const TraceRecord &r = file.records[idx];
            os << "  " << std::right << std::setw(10) << r.cycle << " +"
               << std::left << std::setw(8)
               << (r.cycle >= prev ? r.cycle - prev : 0) << std::setw(20)
               << toString(r.event());
            if (r.node != kTraceNoNode)
                os << " node " << std::setw(3) << r.node;
            const std::string d = describe(r);
            if (!d.empty())
                os << "  " << d;
            os << "\n";
            prev = r.cycle;
        }
    }
}

} // namespace flexsnoop
