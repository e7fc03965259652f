#include "coherence/cmp_node.hh"

#include <cassert>

#include "sim/log.hh"

namespace flexsnoop
{

CmpNode::CmpNode(NodeId id, std::size_t num_cores, std::size_t l2_entries,
                 std::size_t l2_ways)
    : _id(id), _stats("cmp" + std::to_string(id)),
      _dirtyEvictions(_stats.counter("dirty_evictions")),
      _localSupplies(_stats.counter("local_supplies")),
      _remoteSupplies(_stats.counter("remote_supplies")),
      _downgradesStat(_stats.counter("downgrades"))
{
    assert(num_cores >= 1);
    _l2s.reserve(num_cores);
    for (std::size_t c = 0; c < num_cores; ++c) {
        auto l2 = std::make_unique<L2Cache>(
            "cmp" + std::to_string(id) + ".l2." + std::to_string(c),
            l2_entries, l2_ways);
        l2->setTransitionHook(
            [this, c](Addr line, LineState from, LineState to) {
                onTransition(c, line, from, to);
            });
        _l2s.push_back(std::move(l2));
    }
}

void
CmpNode::setPredictor(std::unique_ptr<SupplierPredictor> predictor)
{
    _predictor = std::move(predictor);
    if (!_predictor)
        return;
    // Predictors may be installed after lines exist (tests); sync them.
    _suppliers.forEach([this](Addr line, std::size_t) {
        _predictor->supplierGained(line);
    });
}

void
CmpNode::setPresencePredictor(std::unique_ptr<PresencePredictor> pred)
{
    _presence = std::move(pred);
    if (!_presence)
        return;
    _copyCounts.forEach(
        [this](Addr line, unsigned) { _presence->linePresent(line); });
}

void
CmpNode::setAggregateMirrors(PresencePredictor *supplier_agg,
                             PresencePredictor *presence_agg)
{
    _supplierAgg = supplier_agg;
    _presenceAgg = presence_agg;
    if (_supplierAgg) {
        _suppliers.forEach([this](Addr line, std::size_t) {
            _supplierAgg->linePresent(line);
        });
    }
    if (_presenceAgg) {
        _copyCounts.forEach([this](Addr line, unsigned) {
            _presenceAgg->linePresent(line);
        });
    }
}

void
CmpNode::onTransition(std::size_t core, Addr line, LineState from,
                      LineState to)
{
    // Presence tracking: first copy in / last copy out of the CMP.
    if (!isValidState(from) && isValidState(to)) {
        if (++_copyCounts.getOrCreate(line) == 1) {
            if (_presence)
                _presence->linePresent(line);
            if (_presenceAgg)
                _presenceAgg->linePresent(line);
        }
    } else if (isValidState(from) && !isValidState(to)) {
        unsigned *count = _copyCounts.find(line);
        assert(count != nullptr && *count > 0);
        if (--*count == 0) {
            _copyCounts.erase(line);
            if (_presence)
                _presence->lineAbsent(line);
            if (_presenceAgg)
                _presenceAgg->lineAbsent(line);
        }
    }

    const bool was_supplier = isSupplierState(from);
    const bool is_supplier = isSupplierState(to);
    if (was_supplier && !is_supplier) {
        assert(_suppliers.find(line) && *_suppliers.find(line) == core);
        _suppliers.erase(line);
        if (_predictor)
            _predictor->supplierLost(line);
        if (_supplierAgg)
            _supplierAgg->lineAbsent(line);
    } else if (!was_supplier && is_supplier) {
        if (const std::size_t *other = _suppliers.find(line)) {
            FS_LOG(Error, 0, "cmp",
                   "cmp " << _id << " second supplier: line 0x" << std::hex
                          << line << std::dec << " core " << core << " "
                          << toString(from) << "->" << toString(to)
                          << " existing core " << *other << " in "
                          << toString(_l2s[*other]->state(line)));
        }
        assert(!_suppliers.contains(line) &&
               "second supplier copy within one CMP");
        _suppliers.put(line, core);
        if (_predictor)
            _predictor->supplierGained(line);
        if (_supplierAgg)
            _supplierAgg->linePresent(line);
    }

    // Track the local master (SL holder). SG/E/D/T holders implicitly
    // dominate SL for local-supply purposes, so only SL itself is here.
    const bool was_sl = from == LineState::SharedLocal;
    const bool is_sl = to == LineState::SharedLocal;
    if (was_sl && !is_sl)
        _localMasters.erase(line);
    else if (!was_sl && is_sl) {
        assert(!_localMasters.contains(line) &&
               "second local-master copy within one CMP");
        _localMasters.put(line, core);
    }
}

LineState
CmpNode::coreState(std::size_t local_core, Addr line) const
{
    return _l2s[local_core]->state(lineAddr(line));
}

bool
CmpNode::hasSupplier(Addr line) const
{
    return _suppliers.contains(lineAddr(line));
}

std::size_t
CmpNode::supplierCore(Addr line) const
{
    const std::size_t *core = _suppliers.find(lineAddr(line));
    return core ? *core : SIZE_MAX;
}

bool
CmpNode::hasLocalSupplier(Addr line) const
{
    line = lineAddr(line);
    return _suppliers.contains(line) || _localMasters.contains(line);
}

std::size_t
CmpNode::localSupplierCore(Addr line) const
{
    line = lineAddr(line);
    if (const std::size_t *core = _suppliers.find(line))
        return *core;
    if (const std::size_t *core = _localMasters.find(line))
        return *core;
    return SIZE_MAX;
}

bool
CmpNode::hasAnyCopy(Addr line) const
{
    return _copyCounts.contains(lineAddr(line));
}

unsigned
CmpNode::copyCount(Addr line) const
{
    const unsigned *count = _copyCounts.find(lineAddr(line));
    return count ? *count : 0;
}

void
CmpNode::handleEviction(const L2Cache::Eviction &ev)
{
    if (!ev.valid)
        return;
    if (isDirtyState(ev.state)) {
        _dirtyEvictions.inc();
        if (_writeback)
            _writeback(ev.addr, false);
    }
}

void
CmpNode::localSupply(std::size_t reader, Addr line)
{
    line = lineAddr(line);
    const std::size_t src = localSupplierCore(line);
    assert(src != SIZE_MAX && src != reader);
    const LineState src_state = _l2s[src]->state(line);
    // Sharing adjusts the supplier's state: clean exclusive becomes the
    // global master, dirty exclusive becomes Tagged (dirty-shared).
    if (src_state == LineState::Exclusive)
        _l2s[src]->changeState(line, LineState::SharedGlobal);
    else if (src_state == LineState::Dirty)
        _l2s[src]->changeState(line, LineState::Tagged);
    _l2s[src]->touch(line);
    handleEviction(_l2s[reader]->fill(line, LineState::Shared));
    _localSupplies.inc();
}

void
CmpNode::supplyRemote(Addr line)
{
    line = lineAddr(line);
    const std::size_t src = supplierCore(line);
    assert(src != SIZE_MAX);
    const LineState src_state = _l2s[src]->state(line);
    if (src_state == LineState::Exclusive)
        _l2s[src]->changeState(line, LineState::SharedGlobal);
    else if (src_state == LineState::Dirty)
        _l2s[src]->changeState(line, LineState::Tagged);
    _l2s[src]->touch(line);
    _remoteSupplies.inc();
}

void
CmpNode::fillFromRemote(std::size_t reader, Addr line)
{
    line = lineAddr(line);
    // The reader brought the line into the CMP from outside: it becomes
    // the local master -- unless a concurrent transaction beat it to it.
    const LineState st = hasLocalSupplier(line) ? LineState::Shared
                                                : LineState::SharedLocal;
    handleEviction(_l2s[reader]->fill(line, st));
}

void
CmpNode::fillFromMemory(std::size_t reader, Addr line)
{
    line = lineAddr(line);
    // The reader brought the line from memory: global master. If a
    // concurrent transaction installed a supplier first, demote to S.
    const LineState st = hasSupplier(line) || _localMasters.contains(line)
                             ? LineState::Shared
                             : LineState::SharedGlobal;
    handleEviction(_l2s[reader]->fill(line, st));
}

bool
CmpNode::invalidateAll(Addr line, std::size_t skip_core)
{
    line = lineAddr(line);
    // All local L2s share geometry: resolve the set once instead of
    // re-deriving it per core and per state/invalidate call.
    const std::size_t set = _l2s[0]->setIndex(line);
    bool had_supplier = false;
    for (std::size_t c = 0; c < _l2s.size(); ++c) {
        if (c == skip_core)
            continue;
        const LineState st = _l2s[c]->state(line, set);
        if (!isValidState(st))
            continue;
        if (isSupplierState(st))
            had_supplier = true;
        _l2s[c]->invalidate(line, set);
    }
    return had_supplier;
}

void
CmpNode::fillForWrite(std::size_t writer, Addr line)
{
    line = lineAddr(line);
    handleEviction(_l2s[writer]->fill(line, LineState::Dirty));
}

void
CmpNode::upgradeToDirty(std::size_t writer, Addr line)
{
    line = lineAddr(line);
    assert(isValidState(_l2s[writer]->state(line)));
    _l2s[writer]->changeState(line, LineState::Dirty);
    _l2s[writer]->touch(line);
}

bool
CmpNode::downgrade(Addr line)
{
    line = lineAddr(line);
    const std::size_t src = supplierCore(line);
    if (src == SIZE_MAX)
        return false; // already lost supplier state (e.g. race)
    const LineState st = _l2s[src]->state(line);
    assert(isSupplierState(st));
    bool wrote_back = false;
    if (isDirtyState(st)) {
        if (_writeback)
            _writeback(line, true);
        wrote_back = true;
    }
    FS_LOG(Debug, 0, "cmp",
           "downgrade cmp " << _id << " core " << src << " line 0x"
                            << std::hex << line << std::dec << " from "
                            << toString(st));
    // SL is unique per CMP; a supplier holder excludes other SL copies
    // in the same CMP, so demoting to SL is always legal here.
    _l2s[src]->changeState(line, LineState::SharedLocal);
    _downgradeMarks.put(line, 1);
    _downgradesStat.inc();
    return wrote_back;
}

bool
CmpNode::consumeDowngradeMark(Addr line)
{
    return _downgradeMarks.erase(lineAddr(line));
}

} // namespace flexsnoop
