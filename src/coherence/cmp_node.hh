/**
 * @file
 * One CMP of the machine: several cores with private L2s, the intra-CMP
 * shared bus, and the ring gateway's Supplier Predictor.
 *
 * The CmpNode owns all protocol state transitions of its L2s and keeps
 * the CMP's supplier set (lines held in SG/E/D/T by one of its caches)
 * coherent with the Supplier Predictor through the L2 transition hooks.
 */

#ifndef FLEXSNOOP_COHERENCE_CMP_NODE_HH
#define FLEXSNOOP_COHERENCE_CMP_NODE_HH

#include <functional>
#include <memory>
#include <vector>

#include "mem/l2_cache.hh"
#include "mem/line_state.hh"
#include "predictor/presence_predictor.hh"
#include "predictor/supplier_predictor.hh"
#include "sim/flat_map.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace flexsnoop
{

class CmpNode
{
  public:
    /** Writeback sink: a dirty line leaves the CMP towards memory. */
    using WritebackFn = std::function<void(Addr line, bool from_downgrade)>;

    /**
     * @param id        ring position of this CMP
     * @param num_cores cores (= private L2s) in the CMP
     * @param l2_entries / @p l2_ways geometry of each L2
     */
    CmpNode(NodeId id, std::size_t num_cores, std::size_t l2_entries,
            std::size_t l2_ways);

    NodeId id() const { return _id; }
    std::size_t numCores() const { return _l2s.size(); }

    /** Install the (optional) Supplier Predictor; may be nullptr. */
    void setPredictor(std::unique_ptr<SupplierPredictor> predictor);
    SupplierPredictor *predictor() { return _predictor.get(); }
    const SupplierPredictor *predictor() const { return _predictor.get(); }

    /**
     * Install the (optional) presence predictor for write-snoop
     * filtering; synchronizes with the lines already cached.
     */
    void setPresencePredictor(std::unique_ptr<PresencePredictor> pred);
    PresencePredictor *presencePredictor() { return _presence.get(); }
    const PresencePredictor *presencePredictor() const
    {
        return _presence.get();
    }

    /**
     * Install (or remove, with nullptrs) the bridge gateway's aggregate
     * predictors of this CMP's block (hier topology). They mirror this
     * node's supplier-set and presence transitions: @p supplier_agg is
     * trained on supplier gained/lost, @p presence_agg on first-copy-in
     * / last-copy-out. Both counting Blooms, so the per-member updates
     * of one block compose; not owned. Synchronizes with the lines
     * already cached on install.
     */
    void setAggregateMirrors(PresencePredictor *supplier_agg,
                             PresencePredictor *presence_agg);

    void setWritebackFn(WritebackFn fn) { _writeback = std::move(fn); }

    // --- State queries -------------------------------------------------

    /** State of @p line in local core @p local_core's L2. */
    LineState coreState(std::size_t local_core, Addr line) const;

    /** Does any local L2 hold @p line in a ring-supplier state? */
    bool hasSupplier(Addr line) const;

    /** Local L2 index holding the supplier copy, or SIZE_MAX. */
    std::size_t supplierCore(Addr line) const;

    /** Does any local L2 hold @p line in a *local*-supplier state? */
    bool hasLocalSupplier(Addr line) const;

    /** Local L2 index that can supply locally (SL or supplier). */
    std::size_t localSupplierCore(Addr line) const;

    /** Does any local L2 hold a valid copy of @p line? */
    bool hasAnyCopy(Addr line) const;

    /** Number of local L2s holding a valid copy of @p line (checker
     *  support: the coherence checker audits its scan against this). */
    unsigned copyCount(Addr line) const;

    /** Number of lines currently in the CMP's supplier set. */
    std::size_t supplierSetSize() const { return _suppliers.size(); }

    // --- Read-transaction transitions ----------------------------------

    /**
     * Local core @p reader reads a line another local L2 supplies.
     * Adjusts the supplier's state (E->SG, D->T) and fills the reader in
     * S. Requires hasLocalSupplier(line).
     */
    void localSupply(std::size_t reader, Addr line);

    /**
     * A ring read snoop hit: this CMP supplies @p line to another CMP.
     * Adjusts the supplier state (E->SG, D->T). Requires
     * hasSupplier(line).
     */
    void supplyRemote(Addr line);

    /** Fill @p line into @p reader's L2 after a remote cache supplied it
     *  (state SL, or S when a local master already exists). */
    void fillFromRemote(std::size_t reader, Addr line);

    /** Fill @p line into @p reader's L2 after memory supplied it (SG). */
    void fillFromMemory(std::size_t reader, Addr line);

    // --- Write-transaction transitions ---------------------------------

    /**
     * A write invalidation (local or from the ring) hits this CMP.
     * Invalidates every local copy of @p line.
     *
     * @param skip_core local L2 to preserve (the writer), SIZE_MAX = none
     * @return true if an invalidated copy was in a supplier state (its
     *         data travels to the writer, so no writeback is needed)
     */
    bool invalidateAll(Addr line, std::size_t skip_core = SIZE_MAX);

    /** Fill @p line as Dirty into @p writer's L2 (write completion). */
    void fillForWrite(std::size_t writer, Addr line);

    /** Upgrade @p writer's existing copy to Dirty (write completion). */
    void upgradeToDirty(std::size_t writer, Addr line);

    // --- Exact-predictor downgrade path ---------------------------------

    /**
     * Demote @p line from its supplier state (paper §4.3.3): SG/E become
     * SL silently; D/T are written back and kept in SL.
     * @return true if a writeback was issued.
     */
    bool downgrade(Addr line);

    /** Lines downgraded by the predictor whose next memory read is
     *  attributable to Exact (consumed by the controller). */
    bool consumeDowngradeMark(Addr line);

    // --- Infrastructure -------------------------------------------------

    L2Cache &l2(std::size_t local_core) { return *_l2s[local_core]; }
    const L2Cache &l2(std::size_t local_core) const
    {
        return *_l2s[local_core];
    }

    StatGroup &stats() { return _stats; }
    const StatGroup &stats() const { return _stats; }

    /** Visit every valid line of every local L2 (checker support). */
    template <typename Fn>
    void
    forEachLine(Fn &&fn) const
    {
        for (std::size_t c = 0; c < _l2s.size(); ++c) {
            _l2s[c]->forEachLine([&](Addr a, LineState s) { fn(c, a, s); });
        }
    }

  private:
    void onTransition(std::size_t core, Addr line, LineState from,
                      LineState to);
    void handleEviction(const L2Cache::Eviction &ev);

    NodeId _id;
    std::vector<std::unique_ptr<L2Cache>> _l2s;
    std::unique_ptr<SupplierPredictor> _predictor;
    std::unique_ptr<PresencePredictor> _presence;
    // Bridge aggregates of this node's block (hier topology; not owned).
    PresencePredictor *_supplierAgg = nullptr;
    PresencePredictor *_presenceAgg = nullptr;
    WritebackFn _writeback;

    // Per-line CMP state, all on the per-hop snoop path: open-addressing
    // FlatMaps (sim/flat_map.hh) — no per-insert node allocation, and a
    // probe touches one contiguous table instead of chasing buckets.
    /** line -> number of local L2s holding a valid copy. */
    FlatMap<unsigned> _copyCounts;
    /** line -> local L2 index holding the supplier copy. */
    FlatMap<std::size_t> _suppliers;
    /** line -> local L2 index holding the SL (local master) copy. */
    FlatMap<std::size_t> _localMasters;
    /** lines force-downgraded by the Exact predictor (energy
     *  attribution); value is a presence byte (FlatMap<bool> would hit
     *  the vector<bool> proxy). */
    FlatMap<std::uint8_t> _downgradeMarks;

    StatGroup _stats;
    // Cached handles for per-transaction supply/eviction accounting.
    Counter &_dirtyEvictions;
    Counter &_localSupplies;
    Counter &_remoteSupplies;
    Counter &_downgradesStat;
};

} // namespace flexsnoop

#endif // FLEXSNOOP_COHERENCE_CMP_NODE_HH
