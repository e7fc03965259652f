/**
 * @file
 * The coherence protocol controller: drives read/write transactions
 * through the local CMP, the embedded ring (running the configured
 * Flexible Snooping algorithm at every gateway), the data network, and
 * memory.
 *
 * This class implements the message semantics of paper Table 2:
 * splitting a combined request/reply into request + trailing reply at
 * Forward-Then-Snoop nodes, re-fusing them at Snoop-Then-Forward nodes,
 * passing them through untouched at Forward nodes, plus collision
 * detection with squash-and-retry and the home-node prefetch heuristic.
 */

#ifndef FLEXSNOOP_COHERENCE_CONTROLLER_HH
#define FLEXSNOOP_COHERENCE_CONTROLLER_HH

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "coherence/cmp_node.hh"
#include "coherence/coherence_params.hh"
#include "coherence/request_port.hh"
#include "coherence/transaction.hh"
#include "energy/energy_model.hh"
#include "mem/memory_controller.hh"
#include "net/data_network.hh"
#include "net/ring.hh"
#include "sim/event_queue.hh"
#include "sim/flat_map.hh"
#include "sim/slot_pool.hh"
#include "sim/stats.hh"
#include "snoop/snoop_policy.hh"
#include "trace/trace_sink.hh"

namespace flexsnoop
{

class FaultInjector;
class Topology;

/**
 * A transaction exceeded CoherenceParams::maxRetries. what() carries a
 * diagnostic dump of all in-flight protocol state; line() names the
 * contended line.
 */
class RetryStormError : public std::runtime_error
{
  public:
    RetryStormError(Addr line, unsigned retries, const std::string &what)
        : std::runtime_error(what), _line(line), _retries(retries)
    {
    }

    Addr line() const { return _line; }
    unsigned retries() const { return _retries; }

  private:
    Addr _line;
    unsigned _retries;
};

class CoherenceController : public RequestPort
{
  public:
    /**
     * All references must outlive the controller.
     *
     * @param nodes one CmpNode per ring position, predictors installed
     */
    CoherenceController(EventQueue &queue, RingNetwork &ring,
                        DataNetwork &data, MemoryController &memory,
                        EnergyModel &energy, SnoopPolicy &policy,
                        std::vector<std::unique_ptr<CmpNode>> &nodes,
                        const CoherenceParams &params);

    void
    setCompletionHandler(CompletionFn fn) override
    {
        _onComplete = std::move(fn);
    }

    /** Number of cores per CMP (uniform). */
    std::size_t coresPerCmp() const { return _coresPerCmp; }
    std::size_t numNodes() const { return _nodes.size(); }

    NodeId nodeOf(CoreId core) const
    {
        return static_cast<NodeId>(core / _coresPerCmp);
    }
    std::size_t localOf(CoreId core) const { return core % _coresPerCmp; }

    /**
     * Core @p core reads @p addr. Completion is always reported through
     * the completion handler (even L2 hits, after the L2 round trip).
     */
    void coreRead(CoreId core, Addr addr, unsigned retries = 0) override;

    /** Core @p core writes @p addr. */
    void coreWrite(CoreId core, Addr addr,
                   unsigned retries = 0) override;

    /** In-flight transactions (for drain checks). */
    std::size_t outstanding() const { return _transactions.size(); }

    /** Lines currently write-gated across all nodes — with
     *  outstanding(), the in-flight pressure the telemetry sampler
     *  records (docs/TELEMETRY.md). */
    std::size_t
    gatedLines() const
    {
        std::size_t total = 0;
        for (const auto &per_node : _gates)
            total += per_node.size();
        return total;
    }

    /** Dump every in-flight transaction and pending gateway state. */
    void dumpOutstanding(std::ostream &os) const;

    CmpNode &node(NodeId n) { return *_nodes[n]; }

    StatGroup &stats() { return _stats; }
    const StatGroup &stats() const { return _stats; }

    /** Always nullptr; kept only because the repository benchmark
     *  (perfbench) still reads it. */
    const StatGroup *expressStats() const { return nullptr; }

    /** Install the fault injector (unreliable-ring mode). */
    void setFaultInjector(FaultInjector *faults) { _faults = faults; }

    /**
     * Install the event trace sink (docs/TRACING.md), or remove it with
     * nullptr. Unset by default: every trace point is a single branch
     * on this cached pointer.
     */
    void setTraceSink(TraceSink *trace) { _trace = trace; }

    /**
     * Install the hierarchical topology (docs/TOPOLOGY.md). Block heads
     * become bridge gateways: each aggregates its local ring's snoop
     * answer and either descends a message into the block (flat path,
     * unchanged) or skips the whole block over the global ring.
     *
     * @param topo           hierarchy geometry; nullptr restores flat
     * @param global_policy  per-level action table governing skips (the
     *                       node algorithm when the config names none)
     * @param bridge_supplier per-block supplier aggregates (counting
     *                       Blooms mirroring every member's supplier
     *                       set); may be null when @p global_policy
     *                       cannot skip reads
     * @param bridge_presence per-block presence aggregates for write
     *                       filtering; may be null when write filtering
     *                       is off
     */
    void setTopology(
        const Topology *topo, SnoopPolicy *global_policy,
        std::vector<std::unique_ptr<PresencePredictor>> *bridge_supplier,
        std::vector<std::unique_ptr<PresencePredictor>> *bridge_presence);

    /** Whole-block skips performed by bridge gateways (hier only). */
    std::uint64_t bridgeSkips() const { return _c.bridgeSkips.value(); }
    /** Active messages bridges descended into their block (hier only). */
    std::uint64_t bridgeDescends() const
    {
        return _c.bridgeDescends.value();
    }

    /** Allocation behaviour of one object pool (docs/METRICS.md). */
    struct PoolUsage
    {
        std::uint64_t acquires = 0;
        std::uint64_t releases = 0;
        std::size_t live = 0;
        std::size_t slotsAllocated = 0;
        std::uint64_t chunkAllocs = 0;
    };
    PoolUsage txnPoolUsage() const;
    PoolUsage pendingPoolUsage() const;

    // Aggregate metrics used by the benches ------------------------------

    /** Read ring transactions issued (including retries). */
    std::uint64_t readRequests() const
    {
        return _c.readRingRequests.value();
    }
    /** CMP snoop operations triggered by read requests. */
    std::uint64_t readSnoops() const { return _c.readSnoops.value(); }
    /** Ring link traversals by read snoop messages. */
    std::uint64_t readLinkMessages() const
    {
        return _c.readLinkMessages.value();
    }
    double
    snoopsPerReadRequest() const
    {
        const auto reqs = readRequests();
        return reqs ? static_cast<double>(readSnoops()) / reqs : 0.0;
    }
    double
    linkMessagesPerReadRequest() const
    {
        const auto reqs = readRequests();
        return reqs ? static_cast<double>(readLinkMessages()) / reqs : 0.0;
    }

  private:
    // --- Requester side -------------------------------------------------
    void startRingTransaction(CoreId core, Addr line, SnoopKind kind,
                              Cycle extra_delay, unsigned retries);
    void issueRingMessage(Transaction &txn);
    void finishAndErase(TransactionId id);
    void deliverReadData(Transaction &txn, bool from_memory);
    void completeWrite(Transaction &txn);
    void goToMemory(Transaction &txn);
    void retryTransaction(const Transaction &txn);
    void scheduleRetry(CoreId core, Addr line, SnoopKind kind,
                       unsigned retries, std::vector<CoreId> waiters);
    void complete(CoreId core, Addr line, bool is_write, Cycle delay);

    // --- Fault recovery (docs/FAULTS.md) --------------------------------
    /**
     * True when fault tolerance is active: stale/duplicate traffic is
     * absorbed instead of asserting, and closed transactions sweep
     * their leftover gateway state. Off by default so the fault-free
     * protocol path is bit-identical to a build without the hooks.
     */
    bool
    hardened() const
    {
        return _faults != nullptr || _params.watchdogCycles > 0;
    }
    void scheduleWatchdog(TransactionId id);
    void watchdogExpire(TransactionId id);
    /** Reclaim pending snoop state and line gates held by @p id. */
    void sweepTransactionState(TransactionId id, Addr line);

    // --- Bridge gateway side (hier topology, docs/TOPOLOGY.md) ----------
    /** What a bridge does with a message: fall through to the flat path
     *  inside its block, or hop the global ring past the whole block. */
    enum class BridgeAction : std::uint8_t
    {
        Descend = 1,
        Skip = 2,
    };

    /**
     * Run the bridge gateway of block head @p node. Returns true when
     * the message was consumed (skipped over the block); false hands it
     * to the unchanged flat path. Never called for the requester's own
     * block, so every round still terminates at the requester.
     */
    bool bridgeHandle(NodeId node, const SnoopMessage &msg);
    /** First-arrival decision for an active request at a bridge. */
    BridgeAction decideBridge(NodeId node, const SnoopMessage &msg,
                              Cycle &decision_latency,
                              std::uint16_t &pred_trace);
    /** Apply the recorded Skip to @p msg (visit/filter accounting). */
    void bridgeSkipForward(NodeId node, const SnoopMessage &msg,
                           Cycle decision_latency);
    /** Energy/link accounting + the global-ring hop itself. */
    void sendSkipAccounted(NodeId node, const SnoopMessage &msg,
                           Cycle decision_latency);
    /** Any member of @p block has a conflicting outstanding txn? */
    bool blockConflicts(std::size_t block, const SnoopMessage &msg);
    /** Any member of @p block holds @p line in a supplier state? */
    bool blockHasSupplier(std::size_t block, Addr line) const;
    /** Any member of @p block holds a valid copy of @p line? */
    bool blockHasAnyCopy(std::size_t block, Addr line) const;

    // --- Ring gateway side ----------------------------------------------
    void onRingMessage(NodeId node, const SnoopMessage &msg);
    void handleAtRequester(Transaction &txn, const SnoopMessage &msg);
    /**
     * @param from_gate the message was just popped from the line gate's
     *        deferred queue and must not re-defer behind the messages
     *        still queued there
     */
    void handleIntermediate(NodeId node, SnoopMessage msg,
                            bool from_gate = false);
    void snoopComplete(NodeId node, SnoopMessage msg);
    void handleTrailingReply(NodeId node, const SnoopMessage &msg);
    void supplierHit(NodeId node, SnoopMessage msg, NodePending &p);
    void forwardMessage(NodeId node, const SnoopMessage &msg);
    bool detectCollision(NodeId node, SnoopMessage &msg);

    NodePending &pending(NodeId node, TransactionId txn);
    NodePending *findPending(NodeId node, TransactionId txn);
    void erasePending(NodeId node, TransactionId txn);

    /**
     * Per-line gateway FIFO: while a SnoopThenForward message for a line
     * is held at a node (snooping, or fused-waiting for its trailing
     * reply), active messages of *other* transactions to the same line
     * are deferred so they cannot overtake it -- the ring's
     * serialization guarantee (paper §2.1.4) depends on this order.
     */
    struct GateLine
    {
        TransactionId active = kInvalidTransaction;
        std::deque<SnoopMessage> deferred;
    };

    /** True if @p msg must wait (and was queued) at @p node. */
    bool deferIfGated(NodeId node, const SnoopMessage &msg);
    /** Mark @p txn as holding the line gate at @p node. */
    void acquireGate(NodeId node, Addr line, TransactionId txn);
    /** Release the gate and reprocess the next deferred message. */
    void releaseGate(NodeId node, Addr line, TransactionId txn);
    /** Pop deferred messages until one takes the gate or none remain. */
    void drainGate(NodeId node, Addr line);

    /** Ring snoop of @p node for a read: true if it can supply. */
    bool ringSnoopRead(NodeId node, Addr line);
    /** Ring snoop for a write: invalidate; true if data is supplied. */
    bool ringSnoopWrite(NodeId node, const SnoopMessage &msg);

    Transaction *findTransaction(TransactionId id);

    /** Any CMP marked this line as predictor-downgraded? (energy attr.) */
    bool consumeDowngradeMarkAnywhere(Addr line);

    /**
     * Stat handles resolved once at construction. Every per-event
     * increment on the protocol hot path goes through one of these
     * references instead of a by-name lookup in the StatGroup.
     */
    struct HotStats
    {
        explicit HotStats(StatGroup &g);

        Counter &reads;
        Counter &readL2Hits;
        Counter &readLocalSupplies;
        Counter &readMerged;
        Counter &readLocalConflictDelays;
        Counter &writes;
        Counter &writeL2Hits;
        Counter &writeLocalConflictDelays;
        Counter &readRingRequests;
        Counter &writeRingRequests;
        Counter &readLinkMessages;
        Counter &writeLinkMessages;
        Counter &readFiltered;
        Counter &writeFiltered;
        Counter &readSnoops;
        Counter &writeSnoops;
        Counter &readCacheSupplies;
        Counter &readMemorySupplies;
        Counter &memoryFetches;
        Counter &collisions;
        Counter &squashes;
        Counter &staleSquashes;
        Counter &retries;
        Counter &gateDeferrals;
        Counter &ringRoundsFound;
        Counter &ringRoundsNegative;
        Counter &invalidateOnFill;
        ScalarStat &readLatency;
        ScalarStat &writeLatency;
        Histogram &readLatencyHist;
        // Fault recovery (docs/FAULTS.md); zero in fault-free runs.
        Counter &watchdogTimeouts;
        Counter &staleAbsorbed;
        Counter &flipDegrades;
        Counter &incompleteRejected;
        Counter &retryStormAborts;
        // Bridge gateways (hier topology); zero in flat runs.
        Counter &bridgeSkips;
        Counter &bridgeDescends;
    };

    EventQueue &_queue;
    RingNetwork &_ring;
    DataNetwork &_data;
    MemoryController &_memory;
    EnergyModel &_energy;
    SnoopPolicy &_policy;
    std::vector<std::unique_ptr<CmpNode>> &_nodes;
    CoherenceParams _params;
    std::size_t _coresPerCmp;

    CompletionFn _onComplete;

    TransactionId _nextTxnId = 1;

    /**
     * In-flight records live in slot pools (stable addresses, recycled
     * rather than reallocated) and are indexed by open-addressing maps:
     * once the pools and tables reach their high-water mark, the
     * steady-state protocol path performs no heap allocation.
     */
    SlotPool<Transaction> _txnPool;
    SlotPool<NodePending> _pendingPool;
    SlotPool<GateLine> _gatePool;
    FlatMap<Transaction *> _transactions;
    /** per node: line -> outstanding local txn (merging + collisions). */
    std::vector<FlatMap<TransactionId>> _outstandingByLine;
    /** per node: txn -> pending gateway state. */
    std::vector<FlatMap<NodePending *>> _pending;
    /** per node: line -> gateway FIFO gate. Gates live in a slot pool
     *  and the map holds pointers: a recycled GateLine's deque keeps
     *  its allocated chunk, so per-hop gate churn (and FlatMap slot
     *  moves) never touches the heap in steady state. */
    std::vector<FlatMap<GateLine *>> _gates;

    /** Unreliable-ring mode; null (zero-cost) by default. */
    FaultInjector *_faults = nullptr;

    // Hierarchical topology (docs/TOPOLOGY.md); all null in flat mode so
    // the flat instruction path is untouched (degenerate bit-equality).
    const Topology *_topo = nullptr;
    SnoopPolicy *_globalPolicy = nullptr; ///< per-level action table
    /** Per-block supplier aggregates (owned by Machine; may be null). */
    std::vector<std::unique_ptr<PresencePredictor>> *_bridgeSupplier =
        nullptr;
    /** Per-block presence aggregates (owned by Machine; may be null). */
    std::vector<std::unique_ptr<PresencePredictor>> *_bridgePresence =
        nullptr;
    /** Per block: txn -> recorded BridgeAction. Every later message of
     *  a transaction follows the first decision, so a round's request,
     *  trailing reply and conclusion see a consistent geometry. */
    std::vector<FlatMap<std::uint8_t>> _bridgeDecisions;
    /** line -> live ring rounds on it, machine-wide. A bridge may skip
     *  an active request only while its round is the line's sole live
     *  round: a skip that hopped past another round's request on the
     *  global ring would break the flat ring's per-line message order,
     *  which is what guarantees a write invalidates every copy that
     *  existed when its request passed (later same-line rounds descend
     *  and hit the flat collision/gate rules instead). */
    FlatMap<std::uint32_t> _liveLineRounds;

    /** Event tracing (docs/TRACING.md); null (zero-cost) by default. */
    TraceSink *_trace = nullptr;

    StatGroup _stats;
    HotStats _c; ///< pre-resolved handles into _stats (must follow it)
};

} // namespace flexsnoop

#endif // FLEXSNOOP_COHERENCE_CONTROLLER_HH
