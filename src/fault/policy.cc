#include "fault/policy.hh"

#include <stdexcept>

#include "isa/instruction.hh"
#include "store/cell_key.hh"
#include "support/logging.hh"

namespace etc::fault {

namespace {

const char *
bitModelKindName(BitErrorModel::Kind kind)
{
    switch (kind) {
      case BitErrorModel::Kind::SingleFlip: return "single-flip";
      case BitErrorModel::Kind::Burst: return "burst";
    }
    return "unknown";
}

const char *
tagScopeName(TagScope scope)
{
    return scope == TagScope::Tagged ? "tagged" : "all";
}

} // namespace

std::string
BitErrorModel::describe() const
{
    std::string out;
    out += bitModelKindName(kind);
    if (kind == Kind::Burst) {
        out += '(';
        out += std::to_string(burst);
        out += ')';
    }
    out += " [";
    out += std::to_string(lo);
    out += ',';
    out += std::to_string(hi);
    out += ')';
    return out;
}

std::vector<bool>
InjectionPolicy::injectableBitmap(const assembly::Program &program,
                                  const std::vector<bool> &tagged) const
{
    if (tagged.size() != program.size())
        panic("policy '", name, "': tag bitmap size mismatch (",
              tagged.size(), " tags, ", program.size(),
              " instructions)");
    std::vector<bool> out(program.size(), false);
    for (uint32_t i = 0; i < program.size(); ++i) {
        if (scope == TagScope::Tagged && !tagged[i])
            continue;
        const auto &ins = program.code[i];
        out[i] =
            ((resultKinds & RK_REGISTER) && ins.def().has_value()) ||
            ((resultKinds & RK_MEMORY) && ins.isStore()) ||
            ((resultKinds & RK_CONTROL) && ins.isControl());
    }
    return out;
}

uint64_t
InjectionPolicy::descriptorHash() const
{
    // Behavior only -- renaming a policy or rewording its description
    // must not invalidate records, but any semantic change must.
    uint64_t hash = store::fnv1a("etc-policy-v1", 13);
    uint32_t fields[] = {
        static_cast<uint32_t>(scope),
        resultKinds,
        static_cast<uint32_t>(bitModel.kind),
        bitModel.lo,
        bitModel.hi,
        bitModel.burst,
    };
    for (uint32_t field : fields)
        hash = store::fnv1a(&field, sizeof(field), hash);
    return hash;
}

std::string
InjectionPolicy::descriptorHashHex() const
{
    return store::hexU64(descriptorHash());
}

uint64_t
InjectionPolicy::seedSalt() const
{
    if (legacy)
        return name == PROTECTED_POLICY ? 0x1 : 0x2;
    // Salt non-legacy policies on the *name* as well as the behavior:
    // two differently-named policies with identical descriptors still
    // draw independent trial streams, mirroring how the legacy pair
    // is distinguished by mode, not bitmap.
    return store::fnv1a(name.data(), name.size(), descriptorHash());
}

std::string
InjectionPolicy::resultKindsName() const
{
    std::string out;
    auto append = [&](const char *kind) {
        if (!out.empty())
            out += '|';
        out += kind;
    };
    if (resultKinds & RK_REGISTER)
        append("register");
    if (resultKinds & RK_MEMORY)
        append("memory");
    if (resultKinds & RK_CONTROL)
        append("control");
    return out;
}

const std::vector<InjectionPolicy> &
injectionPolicies()
{
    static const std::vector<InjectionPolicy> policies = {
        {.name = PROTECTED_POLICY,
         .description = "paper baseline: inject only into CVar-tagged "
                        "(low-reliability) register results",
         .chartLabel = "static analysis ON",
         .scope = TagScope::Tagged,
         .resultKinds = RK_REGISTER,
         .legacy = true},
        {.name = UNPROTECTED_POLICY,
         .description = "paper baseline: inject into every result -- "
                        "register defs, stored values, and next-PCs",
         .chartLabel = "static analysis OFF",
         .scope = TagScope::All,
         .resultKinds = RK_ALL,
         .legacy = true},
        {.name = "control-only",
         .description = "corrupt only control flow: the next PC of "
                        "branches, jumps, and calls",
         .chartLabel = "control-only",
         .scope = TagScope::All,
         .resultKinds = RK_CONTROL},
        {.name = "data-only",
         .description = "corrupt only data results (register defs and "
                        "stored values); control transfers keep their "
                        "PCs",
         .chartLabel = "data-only",
         .scope = TagScope::All,
         .resultKinds = RK_REGISTER | RK_MEMORY},
        {.name = "unprotected-regs",
         .description = "every register def is fair game (tagged or "
                        "not), but memory and control results are safe",
         .chartLabel = "unprotected-regs",
         .scope = TagScope::All,
         .resultKinds = RK_REGISTER},
        {.name = "protected-burst2",
         .description = "the protected target set under a harsher error "
                        "model: each error flips 2 adjacent bits",
         .chartLabel = "protected-burst2",
         .scope = TagScope::Tagged,
         .resultKinds = RK_REGISTER,
         .bitModel = {.kind = BitErrorModel::Kind::Burst, .burst = 2}},
        {.name = "unprotected-low16",
         .description = "every result, but flips land only in the low "
                        "half-word (bits 0..15) -- a magnitude-bounded "
                        "error model",
         .chartLabel = "unprotected-low16",
         .scope = TagScope::All,
         .resultKinds = RK_ALL,
         .bitModel = {.hi = 16}},
    };
    return policies;
}

const InjectionPolicy *
findInjectionPolicy(const std::string &name)
{
    for (const auto &policy : injectionPolicies())
        if (policy.name == name)
            return &policy;
    return nullptr;
}

const InjectionPolicy &
resolveInjectionPolicy(const std::string &name)
{
    if (const InjectionPolicy *policy = findInjectionPolicy(name))
        return *policy;
    throw std::invalid_argument("unknown injection policy '" + name +
                                "' (known: " + injectionPolicyNames() +
                                ")");
}

std::string
injectionPolicyNames()
{
    std::string names;
    for (const auto &policy : injectionPolicies()) {
        if (!names.empty())
            names += ", ";
        names += policy.name;
    }
    return names;
}

std::vector<PolicyDescription>
describeInjectionPolicies()
{
    std::vector<PolicyDescription> rows;
    for (const auto &policy : injectionPolicies()) {
        PolicyDescription row;
        row.name = policy.name;
        row.description = policy.description;
        row.scope = tagScopeName(policy.scope);
        row.resultKinds = policy.resultKindsName();
        row.bitModel = policy.bitModel.describe();
        row.hash = policy.descriptorHashHex();
        row.legacy = policy.legacy;
        rows.push_back(std::move(row));
    }
    return rows;
}

} // namespace etc::fault
