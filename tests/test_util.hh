/**
 * @file
 * Shared fixtures for the unit and integration tests.
 */

#ifndef TDC_TESTS_TEST_UTIL_HH
#define TDC_TESTS_TEST_UTIL_HH

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <string>

#include "dram/dram_device.hh"
#include "dram/dram_params.hh"
#include "sim/clock.hh"
#include "vm/page_table.hh"
#include "vm/phys_mem.hh"

namespace tdc {
namespace test {

/** A bare machine: clocks, DRAM devices, physical memory, one process. */
struct Machine
{
    ClockDomain cpuClk{3'000'000'000ULL};
    DramDevice inPkg;
    DramDevice offPkg;
    PhysMem phys;
    PageTable pt;

    explicit Machine(std::uint64_t l3_bytes = 64ULL << 20,
                     std::uint64_t off_pages = 1ULL << 20,
                     std::uint64_t in_pages = 0)
        : inPkg("in_pkg", inPackageTiming(l3_bytes), inPackageEnergy()),
          offPkg("off_pkg", offPackageTiming(off_pages * pageBytes),
                 offPackageEnergy()),
          phys("phys", off_pages, in_pages),
          pt("pt0", 0, phys)
    {}
};

/** This process's resident set in KiB, from /proc/self/status. */
inline long
residentKib()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmRSS:", 0) == 0)
            return std::stol(line.substr(6));
    }
    ADD_FAILURE() << "no VmRSS line";
    return 0;
}

} // namespace test
} // namespace tdc

#endif // TDC_TESTS_TEST_UTIL_HH
