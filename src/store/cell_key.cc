#include "store/cell_key.hh"

#include <cstring>
#include <stdexcept>

#include "isa/encoding.hh"

namespace etc::store {

bool
isFingerprint(const std::string &text)
{
    return text.size() == 16 &&
           text.find_first_not_of("0123456789abcdef") == std::string::npos;
}

uint64_t
fnv1a(const void *data, size_t size, uint64_t hash)
{
    const auto *bytes = static_cast<const uint8_t *>(data);
    for (size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001b3ull;
    }
    return hash;
}

std::string
hexU64(uint64_t value)
{
    static const char digits[] = "0123456789abcdef";
    std::string out = "0x";
    bool seen = false;
    for (int shift = 60; shift >= 0; shift -= 4) {
        unsigned nibble = (value >> shift) & 0xf;
        if (nibble || seen || shift == 0) {
            out += digits[nibble];
            seen = true;
        }
    }
    return out;
}

uint64_t
parseHexU64(const std::string &text)
{
    if (text.size() < 3 || text.compare(0, 2, "0x") != 0 ||
        text.size() > 2 + 16)
        throw std::invalid_argument("bad hex literal '" + text + "'");
    uint64_t value = 0;
    for (size_t i = 2; i < text.size(); ++i) {
        char c = text[i];
        value <<= 4;
        if (c >= '0' && c <= '9')
            value |= static_cast<uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            value |= static_cast<uint64_t>(c - 'a' + 10);
        else
            throw std::invalid_argument("bad hex literal '" + text + "'");
    }
    return value;
}

uint64_t
doubleBits(double value)
{
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

double
doubleFromBits(uint64_t bits)
{
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
}

std::string
fingerprintProgram(const assembly::Program &program,
                   const std::vector<bool> &injectable)
{
    uint64_t hash = fnv1a("etc-program-v1", 14);
    for (const auto &ins : program.code) {
        uint64_t word = isa::encode(ins);
        hash = fnv1a(&word, sizeof(word), hash);
    }
    for (const auto &chunk : program.data) {
        hash = fnv1a(&chunk.addr, sizeof(chunk.addr), hash);
        uint64_t size = chunk.bytes.size();
        hash = fnv1a(&size, sizeof(size), hash);
        hash = fnv1a(chunk.bytes.data(), chunk.bytes.size(), hash);
    }
    hash = fnv1a(&program.entry, sizeof(program.entry), hash);
    // vector<bool> has no contiguous storage; hash it bit-serially.
    uint64_t bits = injectable.size();
    hash = fnv1a(&bits, sizeof(bits), hash);
    uint8_t accum = 0;
    size_t filled = 0;
    for (bool b : injectable) {
        accum = static_cast<uint8_t>((accum << 1) | (b ? 1 : 0));
        if (++filled == 8) {
            hash = fnv1a(&accum, 1, hash);
            accum = 0;
            filled = 0;
        }
    }
    if (filled)
        hash = fnv1a(&accum, 1, hash);
    return hexU64(hash);
}

std::string
CellKey::canonical() const
{
    std::string out = "schema=1";
    out += ";workload=" + workload;
    out += ";mode=" + policy;
    out += ";errors=" + std::to_string(errors);
    out += ";trials=" + std::to_string(trials);
    out += ";seed=" + hexU64(seed);
    out += ";budget_bits=" + hexU64(doubleBits(budgetFactor));
    out += ";memory_model=" + memoryModel;
    out += ";program=" + programHash;
    // Appended only for non-legacy policies: the legacy canonical
    // form (and its fingerprint) must stay byte-stable so stores
    // written before the policy layer keep serving records.
    if (!policyHash.empty())
        out += ";policy=" + policyHash;
    return out;
}

std::string
CellKey::fingerprint() const
{
    std::string text = canonical();
    uint64_t hash = fnv1a(text.data(), text.size());
    // Fixed-width form so on-disk names sort and align uniformly.
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<size_t>(i)] = digits[hash & 0xf];
        hash >>= 4;
    }
    return out;
}

} // namespace etc::store
