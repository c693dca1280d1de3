/**
 * @file
 * CellKey: the canonical identity of one campaign cell.
 *
 * PR 1 made every cell a pure function of a small key -- trial t draws
 * its randomness from Rng::forStream(seed, t), so the cell's entire
 * result is determined by (program, injection policy, error count,
 * trial count, master seed, budget factor, memory model). Thread count
 * and checkpoint interval are deliberately NOT part of the key:
 * results are bit-identical across both (see CampaignRunner), so a
 * record computed at any parallelism serves every future request.
 *
 * The program and its policy-specific injectable bitmap are folded
 * into a single content hash, which makes the key content-addressed:
 * any change to a workload's code, baked-in input, or the protection
 * analysis produces a different key and can never alias a stale
 * record. Non-legacy policies additionally fold their descriptor hash
 * in (the bitmap alone cannot distinguish, say, single-flip from
 * burst errors over the same target set); the two legacy policies
 * omit it, keeping their canonical form -- and therefore their
 * on-disk fingerprints -- byte-stable with every record written
 * before the policy layer existed.
 */

#ifndef ETC_STORE_CELL_KEY_HH
#define ETC_STORE_CELL_KEY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "asm/program.hh"

namespace etc::store {

/** Canonical identity of one campaign cell. */
struct CellKey
{
    std::string workload;    //!< workload name ("gsm", ...)
    std::string policy;      //!< injection policy name ("protected",
                             //!< "control-only", ...); serialized as
                             //!< "mode" for legacy byte-stability
    unsigned errors = 0;     //!< bit flips per trial
    unsigned trials = 0;     //!< trials in the cell
    uint64_t seed = 0;       //!< study master seed
    double budgetFactor = 0; //!< timeout factor over the golden length
    std::string memoryModel; //!< "lenient" | "strict"
    std::string programHash; //!< content hash of program + injectable
    std::string policyHash;  //!< policy descriptor hash ("0x...");
                             //!< empty for the two legacy policies

    /**
     * @return the canonical single-line text form; two keys identify
     *         the same cell iff their canonical forms are equal.
     */
    std::string canonical() const;

    /**
     * @return the 16-hex-digit fingerprint of canonical(), used as
     *         the on-disk record address.
     */
    std::string fingerprint() const;

    bool
    operator==(const CellKey &other) const
    {
        return canonical() == other.canonical();
    }
};

/** @return true if @p text has a fingerprint's form: 16 lowercase hex
 *  digits (so it can never name a file outside its directory). */
bool isFingerprint(const std::string &text);

/** FNV-1a 64-bit over @p data, continuing from @p hash. */
uint64_t fnv1a(const void *data, size_t size,
               uint64_t hash = 0xcbf29ce484222325ull);

/** @return @p value as a "0x..." lower-case hex literal. */
std::string hexU64(uint64_t value);

/** Parse a "0x..." hex literal; throws std::invalid_argument. */
uint64_t parseHexU64(const std::string &text);

/** @return the IEEE-754 bit pattern of @p value (for exact codecs). */
uint64_t doubleBits(double value);

/** @return the double whose IEEE-754 bit pattern is @p bits. */
double doubleFromBits(uint64_t bits);

/**
 * Content hash of a program plus its injectable-instruction bitmap:
 * every instruction's fixed binary encoding, every data chunk
 * (address + bytes), the entry point, and the bitmap.
 */
std::string fingerprintProgram(const assembly::Program &program,
                               const std::vector<bool> &injectable);

} // namespace etc::store

#endif // ETC_STORE_CELL_KEY_HH
