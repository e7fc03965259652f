/**
 * @file
 * On-disk format of the transaction-level trace subsystem
 * (docs/TRACING.md).
 *
 * A `.fstrace` file is a fixed-size header followed by a stream of
 * fixed-size binary records, one per traced event, in the order they
 * were recorded. Records are plain PODs written in host byte order
 * (like the workload trace files of workload/trace_io.hh): the capture
 * side stays a single struct store per event, and the decoder runs on
 * the same machine class that produced the file.
 */

#ifndef FLEXSNOOP_TRACE_TRACE_FORMAT_HH
#define FLEXSNOOP_TRACE_TRACE_FORMAT_HH

#include <cstdint>
#include <string_view>

#include "sim/types.hh"

namespace flexsnoop
{

/**
 * Every trace point of the simulator. The per-event payload lives in
 * TraceRecord's generic fields; the catalog in docs/TRACING.md
 * documents the encoding per event type.
 */
enum class TraceEvent : std::uint16_t
{
    Invalid = 0,

    // --- Transaction lifecycle (requester side) ---
    TxnStart,       ///< ring transaction created (arg1 = core, a = kind,
                    ///< b = retry attempt)
    RingIssue,      ///< first ring message leaves the requester
    RingDone,       ///< conclusion returned (a = 1 found / 0 negative)
    MemFetch,       ///< ring negative; memory read issued (arg1 = latency)
    MemData,        ///< memory data arrived at the requester
    DataDelivered,  ///< read data handed to the core(s)
                    ///< (arg1 = read latency in cycles, a = from memory)
    WriteComplete,  ///< write ownership installed (arg1 = write latency)
    TxnRetire,      ///< transaction record erased
    RetryScheduled, ///< squash/timeout reissue (arg1 = backoff, a = attempt)

    // --- Per-hop ring activity (gateway side) ---
    Hop,            ///< link traversal (node = from, arg1 = arrival cycle,
                    ///< a = MsgType, b = flag bits: 1 found, 2 squashed,
                    ///< 4 write, 8 global-ring leg)
    HopDecision,    ///< primitive chosen at a gateway (a = Primitive,
                    ///< b = predictor answer 0/1, 2 = no predictor,
                    ///< arg1 = decision latency)
    GateDefer,      ///< message parked behind a line gate
    GateResume,     ///< parked message re-entered processing
    SnoopDone,      ///< CMP snoop finished (a = found, b = abandoned)
    SupplierHit,    ///< node supplies the line (arg1 = data-net latency)
    Collision,      ///< address collision (a = CollisionOutcome,
                    ///< arg1 = colliding local transaction id)
    IncompleteRejected, ///< fault mode: conclusion with missing visits
                        ///< (a = visits, b = expected)
    StaleAbsorbed,  ///< traffic of a dead transaction absorbed

    // --- Recovery & fault injection ---
    WatchdogExpire, ///< per-txn watchdog fired (a = 1 finish / 0 reissue)
    FaultDrop,      ///< injector dropped a link traversal (node = from)
    FaultDup,       ///< injector duplicated a link traversal
    FaultDelay,     ///< injector delayed a link traversal (arg1 = extra)
    PredictorFlip,  ///< injector inverted a predictor answer
                    ///< (a = 1 presence / 0 supplier predictor)

    // --- Simulator-level markers ---
    CounterSnapshot,///< periodic StatGroup sample (a = TraceCounterId,
                    ///< arg0 = counter value)
    MeasureStart,   ///< warmup barrier: statistics were reset here

    NumEvents
};

/** Collision record outcomes (TraceEvent::Collision `a` field). */
enum class CollisionOutcome : std::uint16_t
{
    PassingSquashed = 0, ///< the passing message lost and was squashed
    LocalSquashed = 1,   ///< the node's own transaction lost
    InvalidateOnFill = 2 ///< local read wins but must drop its fill
};

/** Counters sampled by CounterSnapshot records. */
enum class TraceCounterId : std::uint16_t
{
    ReadRingRequests = 0,
    ReadSnoops,
    ReadLinkMessages,
    WriteRingRequests,
    Collisions,
    Retries,
    WatchdogTimeouts,
    NumCounters
};

constexpr std::string_view
toString(TraceEvent e)
{
    switch (e) {
      case TraceEvent::Invalid: return "Invalid";
      case TraceEvent::TxnStart: return "TxnStart";
      case TraceEvent::RingIssue: return "RingIssue";
      case TraceEvent::RingDone: return "RingDone";
      case TraceEvent::MemFetch: return "MemFetch";
      case TraceEvent::MemData: return "MemData";
      case TraceEvent::DataDelivered: return "DataDelivered";
      case TraceEvent::WriteComplete: return "WriteComplete";
      case TraceEvent::TxnRetire: return "TxnRetire";
      case TraceEvent::RetryScheduled: return "RetryScheduled";
      case TraceEvent::Hop: return "Hop";
      case TraceEvent::HopDecision: return "HopDecision";
      case TraceEvent::GateDefer: return "GateDefer";
      case TraceEvent::GateResume: return "GateResume";
      case TraceEvent::SnoopDone: return "SnoopDone";
      case TraceEvent::SupplierHit: return "SupplierHit";
      case TraceEvent::Collision: return "Collision";
      case TraceEvent::IncompleteRejected: return "IncompleteRejected";
      case TraceEvent::StaleAbsorbed: return "StaleAbsorbed";
      case TraceEvent::WatchdogExpire: return "WatchdogExpire";
      case TraceEvent::FaultDrop: return "FaultDrop";
      case TraceEvent::FaultDup: return "FaultDup";
      case TraceEvent::FaultDelay: return "FaultDelay";
      case TraceEvent::PredictorFlip: return "PredictorFlip";
      case TraceEvent::CounterSnapshot: return "CounterSnapshot";
      case TraceEvent::MeasureStart: return "MeasureStart";
      case TraceEvent::NumEvents: break;
    }
    return "?";
}

constexpr std::string_view
toString(TraceCounterId id)
{
    switch (id) {
      case TraceCounterId::ReadRingRequests: return "read_ring_requests";
      case TraceCounterId::ReadSnoops: return "read_snoops";
      case TraceCounterId::ReadLinkMessages: return "read_link_messages";
      case TraceCounterId::WriteRingRequests: return "write_ring_requests";
      case TraceCounterId::Collisions: return "collisions";
      case TraceCounterId::Retries: return "retries";
      case TraceCounterId::WatchdogTimeouts: return "watchdog_timeouts";
      case TraceCounterId::NumCounters: break;
    }
    return "?";
}

/** `node` value of records not tied to a ring node. */
constexpr std::uint16_t kTraceNoNode = 0xffff;

/**
 * One traced event: 40 bytes, no padding, trivially copyable. The
 * generic fields mean different things per TraceEvent (see the
 * catalog); `arg0` is the line address for every protocol event.
 */
struct TraceRecord
{
    std::uint64_t cycle = 0; ///< simulated cycle of the event
    std::uint64_t txn = 0;   ///< transaction id, 0 when not applicable
    std::uint64_t arg0 = 0;  ///< usually the line address
    std::uint64_t arg1 = 0;  ///< event-specific payload
    std::uint16_t type = 0;  ///< TraceEvent
    std::uint16_t node = kTraceNoNode; ///< ring node, kTraceNoNode if none
    std::uint16_t a = 0;     ///< small event-specific payload
    std::uint16_t b = 0;     ///< small event-specific payload

    TraceEvent event() const { return static_cast<TraceEvent>(type); }
};

static_assert(sizeof(TraceRecord) == 40,
              "record size is part of the file format");

constexpr char kTraceMagic[8] = {'F', 'S', 'T', 'R', 'A', 'C', 'E', '1'};
/** Version 2 removed a v1 simulator-marker event, renumbering
 *  CounterSnapshot and MeasureStart; the reader rejects any other
 *  version. */
constexpr std::uint32_t kTraceVersion = 2;

/** Buffer-overflow policy of the capture ring (TraceConfig::Mode). */
enum class TraceMode : std::uint32_t
{
    Drop = 0,  ///< keep the first N records, count the rest as dropped
    Spill = 1, ///< flush the full buffer to the file and keep recording
};

/**
 * Fixed 64-byte file header. `recorded` / `dropped` / `spills` are
 * patched in when the sink finishes; a crashed run leaves them zero,
 * which the reader treats as "trust the file length".
 */
struct TraceFileHeader
{
    char magic[8] = {};           ///< kTraceMagic
    std::uint32_t version = 0;    ///< kTraceVersion
    std::uint32_t recordSize = 0; ///< sizeof(TraceRecord)
    std::uint32_t numNodes = 0;   ///< ring nodes of the traced machine
    std::uint32_t numCores = 0;   ///< cores of the traced machine
    std::uint32_t mode = 0;       ///< TraceMode
    std::uint32_t ringKb = 0;     ///< capture buffer size
    std::uint64_t recorded = 0;   ///< records written to the file
    std::uint64_t dropped = 0;    ///< records lost to a full buffer
    std::uint64_t spills = 0;     ///< buffer flushes (spill mode)
    std::uint64_t reserved = 0;   ///< pads the header to 64 bytes
};

static_assert(sizeof(TraceFileHeader) == 64,
              "header size is part of the file format");

} // namespace flexsnoop

#endif // FLEXSNOOP_TRACE_TRACE_FORMAT_HH
