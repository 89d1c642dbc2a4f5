#include "common/publish.hh"

#include <exception>
#include <filesystem>
#include <system_error>

#include "common/logging.hh"

namespace fs = std::filesystem;

namespace tdc {

void
publishFile(const std::string &dest,
            const std::function<void(const std::string &staging)> &write,
            const std::string &stagingDir)
{
    const fs::path to(dest);
    const fs::path staging =
        (stagingDir.empty() ? to.parent_path() : fs::path(stagingDir))
        / (to.filename().string() + ".tmp");
    std::string error;
    try {
        // Capture even when the caller does not, so a fatal() inside
        // `write` cannot exit before the staging file is removed.
        ScopedFatalCapture capture;
        write(staging.string());
        std::error_code ec;
        fs::rename(staging, to, ec);
        if (!ec)
            return;
        error = format("cannot publish '{}': {}", dest, ec.message());
    } catch (const std::exception &e) {
        error = e.what();
    }
    std::error_code ec;
    fs::remove(staging, ec);
    fatal("{}", error);
}

} // namespace tdc
