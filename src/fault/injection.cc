#include "fault/injection.hh"

#include "support/bits.hh"
#include "support/logging.hh"

namespace etc::fault {

using namespace isa;

std::vector<bool>
injectableWithProtection(const assembly::Program &program,
                         const std::vector<bool> &tagged)
{
    return resolveInjectionPolicy(PROTECTED_POLICY)
        .injectableBitmap(program, tagged);
}

std::vector<bool>
injectableWithoutProtection(const assembly::Program &program)
{
    // TagScope::All never reads the tags; pass an empty-equivalent
    // bitmap of the right size to satisfy the shared validation.
    return resolveInjectionPolicy(UNPROTECTED_POLICY)
        .injectableBitmap(program,
                          std::vector<bool>(program.size(), false));
}

namespace {

/** One flip mask drawn from @p model (nonzero by construction). */
uint32_t
sampleMask(const BitErrorModel &model, Rng &rng)
{
    unsigned span = model.hi - model.lo;
    unsigned start = model.lo + static_cast<unsigned>(rng.below(span));
    if (model.kind == BitErrorModel::Kind::SingleFlip)
        return uint32_t{1} << start;
    // Burst: `burst` adjacent bits from the drawn start, wrapping
    // inside [lo, hi) so every error has the full burst width.
    uint32_t mask = 0;
    for (unsigned j = 0; j < model.burst; ++j)
        mask |= uint32_t{1} << (model.lo + (start - model.lo + j) % span);
    return mask;
}

} // namespace

InjectionPlan
samplePlan(uint64_t injectableDynamicCount, unsigned numErrors,
           const BitErrorModel &model, Rng &rng)
{
    if (model.lo >= model.hi || model.hi > 32)
        panic("samplePlan: bad bit range [", model.lo, ", ", model.hi,
              ")");
    if (model.kind == BitErrorModel::Kind::Burst &&
        (model.burst == 0 || model.burst > 32))
        panic("samplePlan: bad burst width ", model.burst);
    InjectionPlan plan;
    plan.sites = rng.sampleDistinct(injectableDynamicCount, numErrors);
    plan.masks.reserve(plan.sites.size());
    for (size_t i = 0; i < plan.sites.size(); ++i)
        plan.masks.push_back(sampleMask(model, rng));
    return plan;
}

Injector::Injector(const std::vector<bool> &injectable, InjectionPlan plan,
                   unsigned resultKinds)
    : injectable_(injectable), plan_(std::move(plan)),
      resultKinds_(resultKinds)
{
}

void
Injector::onRetire(uint32_t staticIdx, const isa::Instruction &ins,
                   sim::Machine &machine, sim::Memory &memory)
{
    if (staticIdx >= injectable_.size() || !injectable_[staticIdx])
        return;
    if (cursor_ < plan_.sites.size() &&
        counter_ == plan_.sites[cursor_]) {
        if (flipResult(ins, plan_.masks[cursor_], resultKinds_, machine,
                       memory))
            ++injected_;
        ++cursor_;
    }
    ++counter_;
}

} // namespace etc::fault
