/**
 * @file
 * Embedded unidirectional ring(s) for snoop messages (paper §2.2).
 *
 * Each ring is a cycle of point-to-point links with fixed latency and a
 * serialization time per message; links model occupancy, so heavy snoop
 * traffic queues. Several rings may be embedded; addresses are
 * interleaved across them to balance load. Every CMP registers a handler
 * that is invoked when a message arrives at that node.
 */

#ifndef FLEXSNOOP_NET_RING_HH
#define FLEXSNOOP_NET_RING_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/message.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace flexsnoop
{

class FaultInjector;
class Topology;
class TraceSink;

/** Timing configuration of one embedded ring. */
struct RingParams
{
    Cycle linkLatency = 39;       ///< CMP-to-CMP latency (Table 4)
    Cycle serialization = 8;      ///< link occupancy per message
                                  ///< (~11 B msg at 8 GB/s, 6 GHz)
};

/**
 * One unidirectional ring over @p numNodes CMPs.
 *
 * send() puts a message on the link leaving @p from; it arrives at
 * (from+1) % N after the link latency, later if the link is busy.
 */
class Ring
{
  public:
    /** Arrival handler. The message is owned by the arrival event and
     *  stays valid for the whole call; a handler that keeps it past
     *  the call copies it. */
    using Handler = std::function<void(const SnoopMessage &)>;

    Ring(EventQueue &queue, std::size_t num_nodes, const RingParams &params,
         const std::string &name);

    std::size_t numNodes() const { return _numNodes; }

    /** Next node downstream of @p n. Compare-and-subtract instead of
     *  `%`: this runs once per hop of every message. */
    NodeId
    successor(NodeId n) const
    {
        const std::size_t s = static_cast<std::size_t>(n) + 1;
        return static_cast<NodeId>(s == _numNodes ? 0 : s);
    }

    /**
     * Ring distance from @p from to @p to travelling downstream
     * (0 when equal).
     */
    std::uint32_t
    distance(NodeId from, NodeId to) const
    {
        return static_cast<std::uint32_t>(
            to >= from ? to - from : to + _numNodes - from);
    }

    /** Register the arrival handler of node @p n. */
    void setHandler(NodeId n, Handler h);

    /**
     * Transmit @p msg on the link leaving node @p from; it is delivered
     * to the successor node. Accounts one link-message (energy/stats).
     *
     * With a fault injector installed, the traversal may be dropped
     * (link occupied, message never arrives), duplicated (a second
     * copy follows back-to-back), or delayed.
     */
    void send(NodeId from, const SnoopMessage &msg);

    /**
     * Hierarchical topology only: transmit @p msg over the global ring
     * from bridge @p head directly to the next block head, skipping the
     * local ring in between. One global-link traversal; the Hop trace
     * record carries the global-level flag bit.
     */
    void sendSkip(NodeId head, const SnoopMessage &msg);

    /**
     * Install (or remove, with nullptr) the hierarchy geometry. With a
     * hierarchical topology installed, the link leaving the last member
     * of each block wraps through its own head and crosses one
     * global-ring hop (separate latency and occupancy), and sendSkip()
     * becomes available at block heads. Unset by default: the flat
     * send path is untouched.
     */
    void setTopology(const Topology *topo);

    /**
     * Install (or remove, with nullptr) the fault injector consulted
     * on every link traversal. Unset by default: the hook is a single
     * null-pointer check on the send path.
     */
    void setFaultInjector(FaultInjector *faults) { _faults = faults; }

    /**
     * Install (or remove, with nullptr) the event trace sink recording
     * one Hop record per link traversal (docs/TRACING.md). Unset by
     * default: a single null-pointer check on the send path.
     */
    void setTraceSink(TraceSink *trace) { _trace = trace; }

    /** Total messages that traversed any link of this ring. */
    std::uint64_t linkTraversals() const
    {
        return _linkTraversals.value();
    }

    /** Messages that traversed a global-ring link (hier topology). */
    std::uint64_t globalLinkTraversals() const
    {
        return _globalTraversals.value();
    }

    const RingParams &params() const { return _params; }

    /** Links still occupied at @p now — the instantaneous ring
     *  occupancy the telemetry sampler records (docs/TELEMETRY.md). */
    std::size_t
    busyLinks(Cycle now) const
    {
        std::size_t busy = 0;
        for (const Cycle free_at : _linkFree)
            busy += free_at > now ? 1 : 0;
        return busy;
    }

    StatGroup &stats() { return _stats; }
    const StatGroup &stats() const { return _stats; }

  private:
    /**
     * Common tail of send()/sendSkip(): fault decision, Hop trace
     * record, and the arrival event. @p link_free is the occupancy slot
     * a duplicated copy re-books (the local link for member hops, the
     * block's global link for cross-block and skip hops).
     */
    void finishSend(NodeId from, NodeId to, Cycle now, Cycle start,
                    Cycle latency, Cycle &link_free, bool global_leg,
                    const SnoopMessage &msg);

    EventQueue &_queue;
    std::size_t _numNodes;
    RingParams _params;
    std::vector<Handler> _handlers;
    std::vector<Cycle> _linkFree; ///< next cycle each outgoing link is idle
    /** Per-block global-link occupancy (hier topology; empty in flat). */
    std::vector<Cycle> _globalFree;
    const Topology *_topo = nullptr; ///< hierarchy geometry; null = flat
    FaultInjector *_faults = nullptr; ///< unreliable-ring mode hook
    TraceSink *_trace = nullptr;      ///< per-hop tracing hook
    StatGroup _stats;
    Counter &_linkTraversals;   ///< cached handle (send() hot path)
    Counter &_globalTraversals; ///< global-ring traversals (hier only)
    ScalarStat &_linkQueueing;  ///< cached handle (send() hot path)
};

/**
 * The set of rings embedded in the machine's network.
 *
 * Snoop requests are mapped to a ring by line address (paper: "snoop
 * requests may be mapped to different rings according to their memory
 * address").
 */
class RingNetwork
{
  public:
    RingNetwork(EventQueue &queue, std::size_t num_nodes,
                std::size_t num_rings, const RingParams &params);

    std::size_t numRings() const { return _rings.size(); }
    std::size_t numNodes() const { return _numNodes; }

    /** Ring used by @p line. */
    std::size_t
    ringIndex(Addr line) const
    {
        return static_cast<std::size_t>(lineIndex(line)) % _rings.size();
    }

    Ring &ring(std::size_t i) { return *_rings[i]; }
    Ring &ringFor(Addr line) { return *_rings[ringIndex(line)]; }

    /** Register node @p n's handler on every ring. */
    void setHandler(NodeId n, Ring::Handler h);

    /** Install the fault injector on every ring. */
    void setFaultInjector(FaultInjector *faults);

    /** Install the trace sink on every ring. */
    void setTraceSink(TraceSink *trace);

    /** Install the hierarchy geometry on every ring. */
    void setTopology(const Topology *topo);

    /** Send @p msg (routed by its line address) out of node @p from. */
    void
    send(NodeId from, const SnoopMessage &msg)
    {
        ringFor(msg.line).send(from, msg);
    }

    /** Global-ring skip (routed by line) out of bridge @p head. */
    void
    sendSkip(NodeId head, const SnoopMessage &msg)
    {
        ringFor(msg.line).sendSkip(head, msg);
    }

    /** Aggregate link traversals over all rings. */
    std::uint64_t linkTraversals() const;

    /** Aggregate global-ring traversals over all rings (hier only). */
    std::uint64_t globalLinkTraversals() const;

  private:
    std::size_t _numNodes;
    std::vector<std::unique_ptr<Ring>> _rings;
};

} // namespace flexsnoop

#endif // FLEXSNOOP_NET_RING_HH
