/**
 * @file
 * Composable injection policies.
 *
 * The paper's experimental axis is *which results faults may corrupt*:
 * its two points are "only CVar-tagged low-reliability instructions"
 * (protection ON) and "every result" (protection OFF). An
 * InjectionPolicy promotes that axis to a first-class, self-describing
 * descriptor so the implicit ablation space opens up without touching
 * the engine for each new scenario:
 *
 *  - which static instructions are injectable (tag scope x the result
 *    kinds the instruction produces);
 *  - which result of a retired instruction gets corrupted (register
 *    def, stored memory value, or a control transfer's next PC);
 *  - how bits get corrupted (single uniform flip -- the paper's
 *    model -- or a restricted bit range, or a k-adjacent burst).
 *
 * Policies are pure data, so a policy's behavior is hashable: the
 * descriptor hash is folded into the result store's cell keys, and a
 * record can never alias results produced under different semantics.
 * The two legacy policies ("protected", "unprotected") reproduce the
 * paper's modes bit-for-bit -- same RNG draws, same flips, same store
 * fingerprints as the historical binary protection switch.
 *
 * The registry is one constant table (policy.cc): the two legacy
 * policies, then the five ablation policies. A new policy is one more
 * row there.
 */

#ifndef ETC_FAULT_POLICY_HH
#define ETC_FAULT_POLICY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "asm/program.hh"

namespace etc::fault {

/** Corruptible result kinds of a retired instruction (bitmask). */
enum ResultKind : unsigned
{
    RK_REGISTER = 1u << 0, //!< the destination register (incl. links)
    RK_MEMORY = 1u << 1,   //!< the value a store wrote
    RK_CONTROL = 1u << 2,  //!< a control transfer's next PC
};

/** Every result kind: the paper's "without protection" reach. */
constexpr unsigned RK_ALL = RK_REGISTER | RK_MEMORY | RK_CONTROL;

/** Which static instructions a policy may target. */
enum class TagScope
{
    Tagged, //!< only instructions the CVar analysis tagged
    All,    //!< every instruction (ignore the analysis)
};

/** How the bits of one corrupted result are drawn. */
struct BitErrorModel
{
    enum class Kind
    {
        SingleFlip, //!< one uniform bit in [lo, hi) (paper model)
        Burst,      //!< `burst` adjacent bits from a uniform start
    };

    Kind kind = Kind::SingleFlip;
    unsigned lo = 0;    //!< lowest eligible bit (inclusive)
    unsigned hi = 32;   //!< one past the highest eligible bit
    unsigned burst = 1; //!< Burst: adjacent bits flipped per error

    /** @return a human-readable one-liner ("single-flip [0,32)"). */
    std::string describe() const;

    /** @return true iff this is the paper's uniform single flip. */
    bool
    isLegacySingleFlip() const
    {
        return kind == Kind::SingleFlip && lo == 0 && hi == 32;
    }

    bool operator==(const BitErrorModel &o) const
    {
        return kind == o.kind && lo == o.lo && hi == o.hi &&
               burst == o.burst;
    }
};

/**
 * One named injection policy: a pure-data descriptor of where faults
 * may land and what they corrupt.
 */
struct InjectionPolicy
{
    std::string name;        //!< registry key ("protected", ...)
    std::string description; //!< one-line summary for listings
    std::string chartLabel;  //!< series label in rendered figures

    TagScope scope = TagScope::All;
    unsigned resultKinds = RK_ALL; //!< ResultKind bitmask
    BitErrorModel bitModel{};

    /**
     * True for the two policies that reproduce the paper's original
     * protected/unprotected semantics. Legacy policies keep their
     * pre-policy CellKey canonical form (no policy hash folded in), so
     * stores written before this layer existed keep serving records.
     */
    bool legacy = false;

    /**
     * The injectable-instruction bitmap of @p program under this
     * policy: instructions inside the tag scope that produce at least
     * one corruptible result kind.
     *
     * @param tagged the CVar analysis tag bitmap (one per static
     *               instruction; required -- even TagScope::All
     *               policies validate its size)
     */
    std::vector<bool> injectableBitmap(
        const assembly::Program &program,
        const std::vector<bool> &tagged) const;

    /**
     * Hash of the policy's *behavior* (scope, result kinds, bit
     * model -- not the name or prose). Folded into non-legacy cell
     * keys so redefining a policy can never alias stale records.
     */
    uint64_t descriptorHash() const;

    /** descriptorHash() as the key-embeddable "0x..." literal. */
    std::string descriptorHashHex() const;

    /**
     * Per-cell seed salt: legacy policies keep their historical
     * 0x1/0x2 salts (bit-identical campaign streams), non-legacy
     * policies derive a distinct salt from the descriptor hash.
     */
    uint64_t seedSalt() const;

    /** @return "register|memory|control"-style kinds summary. */
    std::string resultKindsName() const;
};

/** Names of the two legacy policies (the paper's two modes). */
inline constexpr const char *PROTECTED_POLICY = "protected";
inline constexpr const char *UNPROTECTED_POLICY = "unprotected";

/**
 * The policy registry, a constant table: the two legacy modes, then
 * the ablation policies.
 */
const std::vector<InjectionPolicy> &injectionPolicies();

/** @return the registry's policy named @p name, or nullptr. */
const InjectionPolicy *findInjectionPolicy(const std::string &name);

/**
 * The one string->policy resolver every layer routes through (CLI
 * flags, HTTP job fields, store records).
 *
 * @throws std::invalid_argument naming the known policies when @p name
 *         is not in the registry.
 */
const InjectionPolicy &resolveInjectionPolicy(const std::string &name);

/** @return comma-separated policy names (for usage/errors). */
std::string injectionPolicyNames();

/** One row of the shared policy listing (CLI table + HTTP JSON). */
struct PolicyDescription
{
    std::string name;
    std::string description;
    std::string scope;       //!< "tagged" | "all"
    std::string resultKinds; //!< "register|memory|control" style
    std::string bitModel;    //!< BitErrorModel::describe()
    std::string hash;        //!< descriptor hash ("0x...")
    bool legacy = false;
};

/**
 * The registry rendered as data rows. `etc_lab policies` and the
 * service's GET /v1/policies both render exactly these rows, so the
 * two listings can never drift apart.
 */
std::vector<PolicyDescription> describeInjectionPolicies();

} // namespace etc::fault

#endif // ETC_FAULT_POLICY_HH
