/**
 * @file
 * Public-format converter into tdc-mtrace-v1: ChampSim instruction
 * traces.
 */

#include <cstring>
#include <fstream>

#include "common/format.hh"
#include "common/logging.hh"
#include "trace/mtrace.hh"

namespace tdc {
namespace mtrace {

namespace {

/**
 * The ChampSim input_instr layout: 64 bytes, naturally aligned, little
 * endian. NUM_INSTR_DESTINATIONS = 2, NUM_INSTR_SOURCES = 4.
 */
struct ChampSimInstr
{
    std::uint64_t ip;
    std::uint8_t isBranch;
    std::uint8_t branchTaken;
    std::uint8_t destRegs[2];
    std::uint8_t srcRegs[4];
    std::uint64_t destMem[2];
    std::uint64_t srcMem[4];
};
static_assert(sizeof(ChampSimInstr) == 64,
              "ChampSim record layout drifted");

} // namespace

ConvertStats
convertChampSim(const std::string &in, const std::string &out,
                std::uint64_t block_records)
{
    std::ifstream f(in, std::ios::binary);
    if (!f)
        fatal("cannot open ChampSim trace '{}'", in);

    MtraceWriter writer(out, /*cores=*/1, /*shared_page_table=*/false,
                        format("champsim:{}", in), block_records);
    ConvertStats st;
    std::uint32_t pending = 0; //!< non-memory instructions accumulated

    ChampSimInstr ci{};
    std::uint64_t offset = 0;
    while (true) {
        f.read(reinterpret_cast<char *>(&ci), sizeof(ci));
        const auto got = static_cast<std::uint64_t>(f.gcount());
        if (got == 0)
            break;
        if (got != sizeof(ci))
            fatal("ChampSim trace '{}': truncated record at offset {} "
                  "({} of {} bytes)",
                  in, offset, got, sizeof(ci));
        offset += sizeof(ci);
        ++st.instructions;

        bool first = true;
        auto emit = [&](Addr vaddr, AccessType type) {
            TraceRecord rec;
            rec.vaddr = vaddr;
            rec.type = type;
            rec.nonMemInsts = first ? pending : 0;
            // A branch that loads steers control with the loaded
            // value: the core cannot run ahead of it.
            rec.dependent =
                type == AccessType::Load && ci.isBranch != 0;
            writer.append(0, rec);
            ++st.records;
            if (type == AccessType::Load)
                ++st.loads;
            else
                ++st.stores;
            if (first) {
                pending = 0;
                first = false;
            }
        };
        for (std::uint64_t a : ci.srcMem)
            if (a != 0)
                emit(a, AccessType::Load);
        for (std::uint64_t a : ci.destMem)
            if (a != 0)
                emit(a, AccessType::Store);
        if (first) {
            // No memory operand: fold into the next record's gap.
            if (pending != 0xFFFF'FFFFu)
                ++pending;
        }
    }
    if (st.records == 0)
        fatal("ChampSim trace '{}' contains no memory references", in);
    writer.close();
    return st;
}

} // namespace mtrace
} // namespace tdc
