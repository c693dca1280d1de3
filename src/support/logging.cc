#include "support/logging.hh"

namespace etc {

namespace {
bool quietFlag = false;
} // namespace

// Each line goes out as one write, so lines from concurrent threads
// never interleave.

void
warnMessage(const std::string &msg)
{
    std::cerr << "warn: " + msg + "\n" << std::flush;
}

void
informMessage(const std::string &msg)
{
    if (!quietFlag)
        std::cerr << "info: " + msg + "\n" << std::flush;
}

void
setQuiet(bool quiet)
{
    quietFlag = quiet;
}

bool
isQuiet()
{
    return quietFlag;
}

} // namespace etc
