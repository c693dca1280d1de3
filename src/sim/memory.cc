#include "sim/memory.hh"

#include <algorithm>
#include <cstring>

#include "support/logging.hh"

namespace etc::sim {

Memory::Memory(uint32_t dataBase, uint32_t dataLimit, MemoryModel model)
    : model_(model), dataBase_(dataBase),
      dataLimit_(dataLimit + HEAP_SLACK),
      stackBase_(assembly::STACK_TOP + 4 - assembly::STACK_SIZE),
      stackLimit_(assembly::STACK_TOP + 4)
{
    initSegment(data_, dataBase_, dataLimit_);
    initSegment(stack_, stackBase_, stackLimit_);
}

void
Memory::initSegment(Segment &seg, uint32_t base, uint32_t limit)
{
    seg.firstPage = base >> PAGE_BITS;
    uint32_t lastPage = (limit - 1) >> PAGE_BITS;
    seg.pages.resize(lastPage - seg.firstPage + 1);
    seg.dirty.assign(seg.pages.size(), 0);
}

void
Memory::loadData(const std::vector<assembly::DataChunk> &chunks)
{
    for (const auto &chunk : chunks)
        hostWriteBlock(chunk.addr, chunk.bytes);
}

void
Memory::clear()
{
    for (Segment *seg : {&data_, &stack_}) {
        for (auto &slot : seg->pages)
            if (slot)
                std::memset(slot.get(), 0, PAGE_SIZE);
        std::fill(seg->dirty.begin(), seg->dirty.end(), uint8_t{0});
        // The zeroed state diverges from any baseline snapshot with no
        // dirty record of it; keeping the snapshot would make a later
        // revertToBaseline() silently wrong.
        seg->baseline.clear();
    }
    dirtyList_.clear();
    hasBaseline_ = false;
}

uint8_t *
Memory::allocatePage(Segment &seg, uint32_t slot)
{
    auto &page = seg.pages[slot];
    page = std::make_unique<uint8_t[]>(PAGE_SIZE);
    std::memset(page.get(), 0, PAGE_SIZE);
    return page.get();
}

uint32_t
Memory::hostRead32(uint32_t addr)
{
    if (!inBounds(addr, 4) || (addr & 3))
        panic("hostRead32: bad address 0x", std::hex, addr);
    uint32_t value = 0;
    std::memcpy(&value, pagePtr(addr), 4);
    return value;
}

uint8_t
Memory::hostRead8(uint32_t addr)
{
    if (!inBounds(addr, 1))
        panic("hostRead8: bad address 0x", std::hex, addr);
    return *pagePtr(addr);
}

void
Memory::hostWrite32(uint32_t addr, uint32_t value)
{
    if (!inBounds(addr, 4) || (addr & 3))
        panic("hostWrite32: bad address 0x", std::hex, addr);
    std::memcpy(pagePtrForWrite(addr), &value, 4);
}

void
Memory::hostWrite8(uint32_t addr, uint8_t value)
{
    if (!inBounds(addr, 1))
        panic("hostWrite8: bad address 0x", std::hex, addr);
    *pagePtrForWrite(addr) = value;
}

std::vector<uint8_t>
Memory::hostReadBlock(uint32_t addr, uint32_t len)
{
    std::vector<uint8_t> out(len);
    if (len == 0)
        return out;
    if (!inBounds(addr, len))
        panic("hostReadBlock: bad range 0x", std::hex, addr, "+", len);
    uint32_t offset = 0;
    while (offset < len) {
        uint32_t a = addr + offset;
        uint32_t chunk = std::min(PAGE_SIZE - (a & (PAGE_SIZE - 1)),
                                  len - offset);
        std::memcpy(out.data() + offset, pagePtr(a), chunk);
        offset += chunk;
    }
    return out;
}

void
Memory::hostWriteBlock(uint32_t addr, const std::vector<uint8_t> &bytes)
{
    auto len = static_cast<uint32_t>(bytes.size());
    if (len == 0)
        return;
    if (!inBounds(addr, len))
        panic("hostWriteBlock: bad range 0x", std::hex, addr, "+", len);
    uint32_t offset = 0;
    while (offset < len) {
        uint32_t a = addr + offset;
        uint32_t chunk = std::min(PAGE_SIZE - (a & (PAGE_SIZE - 1)),
                                  len - offset);
        std::memcpy(pagePtrForWrite(a), bytes.data() + offset, chunk);
        offset += chunk;
    }
}

void
Memory::resetDirtyTracking()
{
    for (uint32_t pageNumber : dirtyList_) {
        Segment *seg = segmentForPage(pageNumber);
        seg->dirty[pageNumber - seg->firstPage] = 0;
    }
    dirtyList_.clear();
}

std::vector<uint32_t>
Memory::drainDirtyPages()
{
    std::sort(dirtyList_.begin(), dirtyList_.end());
    for (uint32_t pageNumber : dirtyList_) {
        Segment *seg = segmentForPage(pageNumber);
        seg->dirty[pageNumber - seg->firstPage] = 0;
    }
    std::vector<uint32_t> out;
    out.swap(dirtyList_);
    return out;
}

Memory::Segment *
Memory::segmentForPage(uint32_t pageNumber)
{
    Segment &seg = pageNumber >= stack_.firstPage ? stack_ : data_;
    uint32_t slot = pageNumber - seg.firstPage;
    if (pageNumber < seg.firstPage || slot >= seg.pages.size())
        return nullptr;
    return &seg;
}

const Memory::Segment *
Memory::segmentForPage(uint32_t pageNumber) const
{
    return const_cast<Memory *>(this)->segmentForPage(pageNumber);
}

const uint8_t *
Memory::pageData(uint32_t pageNumber) const
{
    const Segment *seg = segmentForPage(pageNumber);
    if (!seg)
        return nullptr;
    return seg->pages[pageNumber - seg->firstPage].get();
}

void
Memory::setBaseline()
{
    for (Segment *seg : {&data_, &stack_}) {
        seg->baseline.clear();
        seg->baseline.resize(seg->pages.size());
        for (size_t i = 0; i < seg->pages.size(); ++i) {
            if (!seg->pages[i])
                continue;
            auto copy = std::make_unique<uint8_t[]>(PAGE_SIZE);
            std::memcpy(copy.get(), seg->pages[i].get(), PAGE_SIZE);
            seg->baseline[i] = std::move(copy);
        }
    }
    resetDirtyTracking();
    hasBaseline_ = true;
}

size_t
Memory::revertToBaseline(const std::vector<uint32_t> &skip)
{
    if (!hasBaseline_)
        panic("revertToBaseline: no baseline snapshot");
    size_t reverted = 0;
    for (uint32_t pageNumber : dirtyList_) {
        Segment *seg = segmentForPage(pageNumber);
        uint32_t slot = pageNumber - seg->firstPage;
        seg->dirty[slot] = 0;
        if (std::binary_search(skip.begin(), skip.end(), pageNumber))
            continue;
        uint8_t *page = slotPtr(*seg, slot);
        if (seg->baseline[slot])
            std::memcpy(page, seg->baseline[slot].get(), PAGE_SIZE);
        else
            std::memset(page, 0, PAGE_SIZE);
        ++reverted;
    }
    dirtyList_.clear();
    return reverted;
}

void
Memory::setPage(uint32_t pageNumber, const uint8_t *bytes)
{
    Segment *seg = segmentForPage(pageNumber);
    if (!seg)
        panic("setPage: page 0x", std::hex, pageNumber,
              " outside both segments");
    uint32_t slot = pageNumber - seg->firstPage;
    std::memcpy(slotPtr(*seg, slot), bytes, PAGE_SIZE);
    if (!seg->dirty[slot]) {
        seg->dirty[slot] = 1;
        dirtyList_.push_back(pageNumber);
    }
}

} // namespace etc::sim
