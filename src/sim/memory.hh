/**
 * @file
 * Sparse byte-addressed memory with two fault models.
 *
 * Two regions are backed: the static data segment (plus a heap slack
 * area after it) and the stack. Misaligned word/halfword accesses
 * always trap (MIPS semantics -- one of the realistic crash vectors
 * for corrupted address arithmetic). Out-of-region accesses depend on
 * the model:
 *
 *  - MemoryModel::Lenient (default): reads return 0 and writes are
 *    dropped, like SimpleScalar's zero-filled functional memory on
 *    which the paper ran. Corrupted data addresses then produce
 *    garbage *data*, not crashes -- the behaviour behind the paper's
 *    near-zero with-protection failure rates.
 *  - MemoryModel::Strict: out-of-region accesses fault. Our ablation
 *    for a bounds-checking (MMU-enforcing) platform.
 *
 * Pages live in a flat two-level table: each of the two segments owns
 * a dense vector of lazily allocated page slots, so a guest access is
 * one compare (which segment) plus one array index, and a whole-memory
 * walk (clear, checkpoint snapshot/restore) is a linear scan. clear()
 * zeroes and *reuses* allocated pages instead of freeing them, so the
 * per-trial reset of a Monte-Carlo campaign does no allocator work.
 *
 * The guest accessors read()/write() and the bounds check and
 * page-slot lookup under them are defined here, in the header, so the
 * scalar interpreter's loads and stores compile to inline code; only
 * a page's first touch (which allocates it) leaves the fast path.
 *
 * For checkpointing, the table tracks which pages have been written
 * since the last drainDirtyPages() call; CheckpointStore turns those
 * into page-granular deltas between checkpoints.
 */

#ifndef ETC_SIM_MEMORY_HH
#define ETC_SIM_MEMORY_HH

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "asm/program.hh"

namespace etc::sim {

/** Result of a guest memory access. */
enum class MemStatus : uint8_t
{
    Ok,
    OutOfBounds,
    Misaligned,
};

/** Out-of-region access policy. */
enum class MemoryModel : uint8_t
{
    Lenient, //!< zero-filled reads, dropped writes (SimpleScalar-like)
    Strict,  //!< out-of-region accesses fault
};

/**
 * The checks a guest access of @p width bytes at @p addr makes before
 * it touches a page, shared by Memory and the gang's lane overlays:
 * misaligned accesses trap, and out-of-region ones fault under the
 * strict model. An Ok access touches its page only when in bounds: a
 * lenient out-of-region read yields zero and its write is dropped.
 */
inline MemStatus
checkAccess(uint32_t addr, uint32_t width, bool inBounds, MemoryModel model)
{
    if (addr & (width - 1))
        return MemStatus::Misaligned;
    if (!inBounds && model == MemoryModel::Strict)
        return MemStatus::OutOfBounds;
    return MemStatus::Ok;
}

/**
 * Paged sparse memory with two backed segments (data + stack).
 */
class Memory
{
  public:
    static constexpr uint32_t PAGE_BITS = 12;
    static constexpr uint32_t PAGE_SIZE = 1u << PAGE_BITS;

    /** Extra valid bytes past the static data (acts as a small heap). */
    static constexpr uint32_t HEAP_SLACK = 1u << 20;

    /**
     * @param dataBase  first valid data address
     * @param dataLimit one past the last initialized data byte
     * @param model     out-of-region access policy
     */
    Memory(uint32_t dataBase, uint32_t dataLimit,
           MemoryModel model = MemoryModel::Lenient);

    /** @return the active out-of-region policy. */
    MemoryModel model() const { return model_; }

    /** Load a program's initial data segment. */
    void loadData(const std::vector<assembly::DataChunk> &chunks);

    /** Zero all contents (allocated pages are kept and reused). Any
     *  baseline snapshot is dropped: the zeroed state no longer
     *  matches it, so a later revert must re-establish one. */
    void clear();

    /// @name Guest accesses of a uint8_t, uint16_t, or uint32_t
    /// (alignment- and bounds-checked; see checkAccess())
    /// @{
    template <typename T>
    MemStatus
    read(uint32_t addr, T &value)
    {
        const bool in = inBounds(addr, sizeof(T));
        MemStatus status = checkAccess(addr, sizeof(T), in, model_);
        value = 0;
        // An aligned access never crosses a page boundary.
        if (status == MemStatus::Ok && in)
            std::memcpy(&value, pagePtr(addr), sizeof(T));
        return status;
    }

    template <typename T>
    MemStatus
    write(uint32_t addr, T value)
    {
        const bool in = inBounds(addr, sizeof(T));
        MemStatus status = checkAccess(addr, sizeof(T), in, model_);
        if (status == MemStatus::Ok && in)
            std::memcpy(pagePtrForWrite(addr), &value, sizeof(T));
        return status;
    }
    /// @}

    /// @name Host accesses (for harness setup/extraction; panic on OOB)
    /// @{
    uint32_t hostRead32(uint32_t addr);
    uint8_t hostRead8(uint32_t addr);
    void hostWrite32(uint32_t addr, uint32_t value);
    void hostWrite8(uint32_t addr, uint8_t value);
    std::vector<uint8_t> hostReadBlock(uint32_t addr, uint32_t len);
    void hostWriteBlock(uint32_t addr, const std::vector<uint8_t> &bytes);
    /// @}

    /// @name Page-level snapshot interface (checkpointing)
    /// @{
    /**
     * Forget all dirty-page records: the current contents become the
     * snapshot baseline. Call after the initial data load, before the
     * profiled run whose deltas a CheckpointStore captures.
     */
    void resetDirtyTracking();

    /**
     * @return the flat page numbers (addr >> PAGE_BITS) written since
     *         the last drain (or resetDirtyTracking), ascending. The
     *         records are cleared.
     */
    std::vector<uint32_t> drainDirtyPages();

    /**
     * @return a read-only view of one whole page, or nullptr if the
     *         page was never touched (reads as zeroes) or lies outside
     *         both segments.
     */
    const uint8_t *pageData(uint32_t pageNumber) const;

    /** Overwrite one whole page (PAGE_SIZE bytes; panics if outside
     *  both segments). Used to restore checkpoint snapshots. */
    void setPage(uint32_t pageNumber, const uint8_t *bytes);

    /**
     * Snapshot the current contents as the revert target and clear the
     * dirty records. Campaign trials snapshot the post-reset image
     * once, then rewind with revertToBaseline() instead of a full
     * clear()+reload.
     */
    void setBaseline();

    /** @return true once setBaseline() has been called. */
    bool hasBaseline() const { return hasBaseline_; }

    /**
     * Rewind every page written since the last revert (or
     * setBaseline()) to its baseline contents -- O(pages actually
     * touched), the fast per-trial reset. Pages listed in @p skip
     * (sorted flat page numbers) are left as-is and their dirty flags
     * cleared; callers pass the pages they are about to overwrite
     * anyway (checkpoint restore). Panics without a baseline.
     *
     * @return the number of pages actually copied/zeroed back (dirty
     *         and not skipped) -- telemetry only.
     */
    size_t revertToBaseline(const std::vector<uint32_t> &skip = {});
    /// @}

    /** @return true if [addr, addr+len) lies entirely in a valid segment. */
    bool
    inBounds(uint32_t addr, uint32_t len) const
    {
        uint64_t end = uint64_t{addr} + len;
        return (addr >= dataBase_ && end <= dataLimit_) ||
               (addr >= stackBase_ && end <= stackLimit_);
    }

    /// @name Segment geometry (gang lanes mirror the bounds checks)
    /// @{
    uint32_t dataBase() const { return dataBase_; }
    uint32_t dataLimit() const { return dataLimit_; }
    uint32_t stackBase() const { return stackBase_; }
    uint32_t stackLimit() const { return stackLimit_; }
    /// @}

  private:
    /** One segment's dense page-slot array (second table level). */
    struct Segment
    {
        uint32_t firstPage = 0; //!< flat page number of the first slot
        std::vector<std::unique_ptr<uint8_t[]>> pages;
        std::vector<uint8_t> dirty; //!< parallel to pages
        std::vector<std::unique_ptr<uint8_t[]>> baseline; //!< revert image
    };

    void initSegment(Segment &seg, uint32_t base, uint32_t limit);

    /** @return the segment backing in-bounds address @p addr. */
    Segment &
    segmentFor(uint32_t addr)
    {
        return addr >= stackBase_ ? stack_ : data_;
    }

    Segment *segmentForPage(uint32_t pageNumber);
    const Segment *segmentForPage(uint32_t pageNumber) const;

    /** Allocate (zeroed) the never-touched page of @p slot. */
    uint8_t *allocatePage(Segment &seg, uint32_t slot);

    /** @return the page of @p slot, allocated on first touch. */
    uint8_t *
    slotPtr(Segment &seg, uint32_t slot)
    {
        uint8_t *page = seg.pages[slot].get();
        return page ? page : allocatePage(seg, slot);
    }

    /** @return the byte of in-bounds address @p addr. */
    uint8_t *
    pagePtr(uint32_t addr)
    {
        Segment &seg = segmentFor(addr);
        uint32_t slot = (addr >> PAGE_BITS) - seg.firstPage;
        return slotPtr(seg, slot) + (addr & (PAGE_SIZE - 1));
    }

    /** pagePtr() that also marks the page dirty. */
    uint8_t *
    pagePtrForWrite(uint32_t addr)
    {
        Segment &seg = segmentFor(addr);
        uint32_t slot = (addr >> PAGE_BITS) - seg.firstPage;
        if (!seg.dirty[slot]) {
            seg.dirty[slot] = 1;
            dirtyList_.push_back(addr >> PAGE_BITS);
        }
        return slotPtr(seg, slot) + (addr & (PAGE_SIZE - 1));
    }

    MemoryModel model_;
    uint32_t dataBase_;
    uint32_t dataLimit_; //!< end of valid data region (incl. heap slack)
    uint32_t stackBase_;
    uint32_t stackLimit_;
    Segment data_;
    Segment stack_;
    std::vector<uint32_t> dirtyList_; //!< flat page numbers, unsorted
    bool hasBaseline_ = false;
};

} // namespace etc::sim

#endif // ETC_SIM_MEMORY_HH
