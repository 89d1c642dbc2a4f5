/** @file Tests for the GIPT and the free queue. */

#include <gtest/gtest.h>

#include <vector>

#include "dramcache/free_queue.hh"
#include "dramcache/frame_space.hh"
#include "dramcache/gipt.hh"

using namespace tdc;

TEST(Gipt, InstallAndInvalidate)
{
    Gipt g(16);
    Pte pte;
    g.install(3, 777, &pte);
    EXPECT_TRUE(g.at(3).valid());
    EXPECT_EQ(g.at(3).ppn, 777u);
    EXPECT_EQ(g.at(3).ptep, &pte);
    g.invalidate(3);
    EXPECT_FALSE(g.at(3).valid());
    EXPECT_EQ(g.at(3).ptep, nullptr);
}

TEST(GiptDeath, DoubleInstall)
{
    Gipt g(4);
    Pte pte;
    g.install(0, 1, &pte);
    EXPECT_DEATH(g.install(0, 2, &pte), "already valid");
}

TEST(Gipt, ResidenceCounts)
{
    Gipt g(4);
    Pte pte;
    g.install(1, 9, &pte);
    EXPECT_FALSE(g.at(1).residentAnywhere());
    g.addResidence(1, 0);
    g.addResidence(1, 0); // L1 and L2 TLB of the same core
    g.addResidence(1, 3);
    EXPECT_TRUE(g.at(1).residentAnywhere());
    g.removeResidence(1, 0);
    EXPECT_TRUE(g.at(1).residentAnywhere());
    g.removeResidence(1, 0);
    g.removeResidence(1, 3);
    EXPECT_FALSE(g.at(1).residentAnywhere());
}

TEST(GiptDeath, ResidenceUnderflow)
{
    Gipt g(4);
    Pte pte;
    g.install(1, 9, &pte);
    EXPECT_DEATH(g.removeResidence(1, 0), "underflow");
}

TEST(Gipt, InstallClearsStaleResidence)
{
    Gipt g(4);
    Pte pte;
    g.install(2, 9, &pte);
    g.addResidence(2, 1);
    g.invalidate(2);
    g.install(2, 10, &pte);
    EXPECT_FALSE(g.at(2).residentAnywhere());
}

TEST(Gipt, StorageBitsMatchPaper)
{
    // 1GB cache / 4KB pages = 256K entries * 82 bits = 2.56 MB.
    Gipt g((1ULL << 30) / 4096);
    EXPECT_EQ(g.storageBits(), 262144ULL * 82);
    EXPECT_NEAR(static_cast<double>(g.storageBits()) / 8 / 1e6, 2.68,
                0.1); // ~2.56 MiB == ~2.68 MB
}

TEST(GiptDeath, OutOfRange)
{
    Gipt g(4);
    EXPECT_DEATH(g.at(4), "out of range");
}

TEST(FreeQueue, FifoOrder)
{
    FreeQueue q;
    q.push(1, 10);
    q.push(2, 20);
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.front().frame, 1u);
    const auto a = q.pop();
    EXPECT_EQ(a.frame, 1u);
    EXPECT_EQ(a.readyTick, 10u);
    EXPECT_EQ(q.pop().frame, 2u);
    EXPECT_TRUE(q.empty());
}

TEST(FreeQueue, KeepsRunsAndPopsInFifoOrder)
{
    FreeQueue q;
    q.pushRun(0, 4, 0); // a fresh cache: one run
    q.push(9, 5);
    q.push(10, 5); // continues [9, 10) with the same tick
    q.push(11, 6); // a new tick starts a new run
    ASSERT_EQ(q.runCount(), 3u);
    EXPECT_EQ(q.run(1).first, 9u);
    EXPECT_EQ(q.run(1).count, 2u);
    EXPECT_EQ(q.size(), 7u);

    std::vector<std::uint64_t> frames;
    std::vector<Tick> ticks;
    while (!q.empty()) {
        const auto b = q.pop();
        frames.push_back(b.frame);
        ticks.push_back(b.readyTick);
    }
    EXPECT_EQ(frames, (std::vector<std::uint64_t>{0, 1, 2, 3, 9, 10, 11}));
    EXPECT_EQ(ticks, (std::vector<Tick>{0, 0, 0, 0, 5, 5, 6}));
    EXPECT_EQ(q.runCount(), 0u);

    // Churn: the runs wrap around their ring and it grows while
    // wrapped, and frames still come out in the order they went in.
    std::uint64_t in = 0, out = 0;
    for (int step = 0; step < 40; ++step) {
        for (int k = 0; k < 3; ++k, ++in)
            q.push(2 * in, in); // never adjacent: one run each
        for (int k = 0; k < 2; ++k, ++out)
            ASSERT_EQ(q.pop().frame, 2 * out) << "step " << step;
    }
    EXPECT_EQ(q.runCount(), in - out);
}

TEST(FreeQueue, RemoveDropsARangeAndKeepsTheRestInOrder)
{
    FreeQueue q;
    q.push(20, 1);
    q.pushRun(0, 16, 0);
    q.push(30, 2);
    q.remove(4, 8);
    EXPECT_EQ(q.size(), 14u);
    std::vector<std::uint64_t> frames;
    while (!q.empty())
        frames.push_back(q.pop().frame);
    EXPECT_EQ(frames, (std::vector<std::uint64_t>{20, 0, 1, 2, 3, 8, 9, 10,
                                                  11, 12, 13, 14, 15, 30}));
}

TEST(FreeQueueDeath, PopEmpty)
{
    FreeQueue q;
    EXPECT_DEATH(q.pop(), "empty");
}

TEST(FrameSpace, Tagging)
{
    const Addr pa = paAddr(123, 456);
    const Addr ca = caAddr(123, 456);
    EXPECT_FALSE(isCaSpace(pa));
    EXPECT_TRUE(isCaSpace(ca));
    EXPECT_EQ(frameNumOf(pa), 123u);
    EXPECT_EQ(frameNumOf(ca), 123u);
    EXPECT_EQ(pageOffset(ca), 456u);
    EXPECT_NE(pa, ca);
}
