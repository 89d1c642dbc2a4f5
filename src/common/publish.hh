/**
 * @file
 * publishFile(): the one way a whole file is replaced atomically.
 */

#ifndef TDC_COMMON_PUBLISH_HH
#define TDC_COMMON_PUBLISH_HH

#include <functional>
#include <string>

namespace tdc {

/**
 * Runs `write` on the staging file `<dest name>.tmp` -- beside `dest`,
 * or in `stagingDir` on the same filesystem -- then renames it over
 * `dest`, so a reader sees the old file or the new one, never a torn
 * one. On any failure (`write` calling fatal() or throwing, or the
 * rename) the staging file is removed first and the failure is then
 * reported through fatal(); the caller's ScopedFatalCapture decides
 * whether that ends the process. The staging name is deterministic,
 * so one left by a crash is overwritten by the next publish of
 * `dest`. Nothing is fsync'd: the rename orders the publish, it does
 * not make it durable.
 */
void publishFile(const std::string &dest,
                 const std::function<void(const std::string &staging)>
                     &write,
                 const std::string &stagingDir = "");

} // namespace tdc

#endif // TDC_COMMON_PUBLISH_HH
