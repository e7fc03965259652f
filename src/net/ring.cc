#include "net/ring.hh"

#include <cassert>
#include <memory>
#include <utility>

#include "sim/fault_injector.hh"
#include "sim/log.hh"
#include "topology/topology.hh"
#include "trace/trace_sink.hh"

namespace flexsnoop
{

namespace
{

/** Hop-record flag bits (TraceEvent::Hop `b` field). Bit 8 marks a
 *  traversal that included a global-ring link (hier topology). */
std::uint16_t
hopFlags(const SnoopMessage &msg, bool global_leg)
{
    std::uint16_t f = 0;
    if (msg.found)
        f |= 1;
    if (msg.squashed)
        f |= 2;
    if (msg.kind == SnoopKind::Write)
        f |= 4;
    if (global_leg)
        f |= 8;
    return f;
}

} // namespace

Ring::Ring(EventQueue &queue, std::size_t num_nodes,
           const RingParams &params, const std::string &name)
    : _queue(queue), _numNodes(num_nodes), _params(params),
      _handlers(num_nodes), _linkFree(num_nodes, 0), _stats(name),
      _linkTraversals(_stats.counter("link_traversals")),
      _globalTraversals(_stats.counter("global_link_traversals")),
      _linkQueueing(_stats.scalar("link_queueing"))
{
    assert(num_nodes >= 2);
}

void
Ring::setHandler(NodeId n, Handler h)
{
    assert(n < _numNodes);
    _handlers[n] = std::move(h);
}

void
Ring::setTopology(const Topology *topo)
{
    if (topo && topo->hierarchical()) {
        assert(topo->numNodes() == _numNodes);
        _topo = topo;
        _globalFree.assign(topo->numBlocks(), 0);
    } else {
        _topo = nullptr;
        _globalFree.clear();
    }
}

void
Ring::finishSend(NodeId from, NodeId to, Cycle now, Cycle start,
                 Cycle latency, Cycle &link_free, bool global_leg,
                 const SnoopMessage &msg)
{
    Cycle arrive = start + latency;

    FS_LOG(Trace, now, _stats.name(),
           toString(msg.type) << " txn " << msg.txn << " line 0x"
                              << std::hex << msg.line << std::dec << " "
                              << from << "->" << to << " arr " << arrive);

    if (_faults) {
        switch (_faults->onLinkSend(global_leg)) {
          case FaultInjector::LinkAction::Drop:
            // The message occupied the link but never arrives; the
            // requester's watchdog recovers the transaction.
            FS_LOG(Debug, now, _stats.name(),
                   "FAULT drop txn " << msg.txn << " " << from << "->"
                                     << to);
            if (_trace)
                _trace->record(TraceEvent::FaultDrop, now, msg.txn,
                               msg.line, 0,
                               static_cast<std::uint16_t>(from),
                               static_cast<std::uint16_t>(msg.type));
            return;
          case FaultInjector::LinkAction::Duplicate: {
            // A second copy follows back-to-back: it occupies the link
            // again and arrives one serialization slot later.
            const Cycle start2 = link_free;
            link_free = start2 + _params.serialization;
            _linkTraversals.inc();
            if (global_leg)
                _globalTraversals.inc();
            FS_LOG(Debug, now, _stats.name(),
                   "FAULT dup txn " << msg.txn << " " << from << "->"
                                    << to);
            if (_trace) {
                _trace->record(TraceEvent::FaultDup, now, msg.txn,
                               msg.line, start2 + latency,
                               static_cast<std::uint16_t>(from),
                               static_cast<std::uint16_t>(msg.type));
                _trace->record(TraceEvent::Hop, start2, msg.txn,
                               msg.line, start2 + latency,
                               static_cast<std::uint16_t>(from),
                               static_cast<std::uint16_t>(msg.type),
                               hopFlags(msg, global_leg));
            }
            auto deliver_dup = [this, to, msg]() { _handlers[to](msg); };
            static_assert(EventFn::fitsInline<decltype(deliver_dup)>());
            _queue.scheduleAt(start2 + latency, std::move(deliver_dup));
            break;
          }
          case FaultInjector::LinkAction::Delay:
            FS_LOG(Debug, now, _stats.name(),
                   "FAULT delay txn " << msg.txn << " " << from << "->"
                                      << to);
            if (_trace)
                _trace->record(TraceEvent::FaultDelay, now, msg.txn,
                               msg.line, _faults->delayCycles(),
                               static_cast<std::uint16_t>(from),
                               static_cast<std::uint16_t>(msg.type));
            arrive += _faults->delayCycles();
            break;
          case FaultInjector::LinkAction::None:
            break;
        }
    }

    if (_trace)
        _trace->record(TraceEvent::Hop, start, msg.txn, msg.line, arrive,
                       static_cast<std::uint16_t>(from),
                       static_cast<std::uint16_t>(msg.type),
                       hopFlags(msg, global_leg));

    // The event owns its copy of the message: the wheel moves the entry
    // out before running it, so the handler's reference stays valid
    // even when it schedules more events.
    auto deliver = [this, to, msg]() {
        assert(_handlers[to] && "message arrived at node with no handler");
        _handlers[to](msg);
    };
    static_assert(EventFn::fitsInline<decltype(deliver)>());
    _queue.scheduleAt(arrive, std::move(deliver));
}

void
Ring::send(NodeId from, const SnoopMessage &msg)
{
    assert(from < _numNodes);
    const NodeId to = successor(from);
    const Cycle now = _queue.now();
    const Cycle start = std::max(now, _linkFree[from]);
    _linkFree[from] = start + _params.serialization;

    _linkTraversals.inc();
    if (start > now)
        _linkQueueing.sample(static_cast<double>(start - now));

    if (_topo && _topo->linkCrossesBlock(from)) {
        // The flat link leaving the last member of a block physically
        // wraps to its own head (one local link) and then crosses one
        // global-ring hop to the next head. The global leg has its own
        // occupancy: skip traffic and cross-block traffic of the same
        // block contend for the same global link.
        const std::size_t block = _topo->blockOf(from);
        const Cycle at_head = start + _params.linkLatency;
        const Cycle gstart = std::max(at_head, _globalFree[block]);
        _globalFree[block] = gstart + _params.serialization;
        _globalTraversals.inc();
        if (gstart > at_head)
            _linkQueueing.sample(static_cast<double>(gstart - at_head));
        finishSend(from, to, now, start,
                   gstart - start + _topo->globalHopCycles(),
                   _globalFree[block], /*global_leg=*/true, msg);
        return;
    }

    finishSend(from, to, now, start, _params.linkLatency, _linkFree[from],
               /*global_leg=*/false, msg);
}

void
Ring::sendSkip(NodeId head, const SnoopMessage &msg)
{
    assert(_topo && _topo->isHead(head));
    const NodeId to = _topo->nextHead(head);
    const std::size_t block = _topo->blockOf(head);
    const Cycle now = _queue.now();
    const Cycle start = std::max(now, _globalFree[block]);
    _globalFree[block] = start + _params.serialization;

    _linkTraversals.inc();
    _globalTraversals.inc();
    if (start > now)
        _linkQueueing.sample(static_cast<double>(start - now));

    finishSend(head, to, now, start, _topo->globalHopCycles(),
               _globalFree[block], /*global_leg=*/true, msg);
}

RingNetwork::RingNetwork(EventQueue &queue, std::size_t num_nodes,
                         std::size_t num_rings, const RingParams &params)
    : _numNodes(num_nodes)
{
    assert(num_rings >= 1);
    _rings.reserve(num_rings);
    for (std::size_t i = 0; i < num_rings; ++i) {
        _rings.push_back(std::make_unique<Ring>(
            queue, num_nodes, params, "ring" + std::to_string(i)));
    }
}

void
RingNetwork::setHandler(NodeId n, Ring::Handler h)
{
    for (auto &ring : _rings)
        ring->setHandler(n, h);
}

void
RingNetwork::setFaultInjector(FaultInjector *faults)
{
    for (auto &ring : _rings)
        ring->setFaultInjector(faults);
}

void
RingNetwork::setTraceSink(TraceSink *trace)
{
    for (auto &ring : _rings)
        ring->setTraceSink(trace);
}

void
RingNetwork::setTopology(const Topology *topo)
{
    for (auto &ring : _rings)
        ring->setTopology(topo);
}

std::uint64_t
RingNetwork::linkTraversals() const
{
    std::uint64_t total = 0;
    for (const auto &ring : _rings)
        total += ring->linkTraversals();
    return total;
}

std::uint64_t
RingNetwork::globalLinkTraversals() const
{
    std::uint64_t total = 0;
    for (const auto &ring : _rings)
        total += ring->globalLinkTraversals();
    return total;
}

} // namespace flexsnoop
