#include <gtest/gtest.h>
#include <sys/mman.h>

#include <atomic>
#include <csignal>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/alloc_tracker.h"
#include "common/crash_reporter.h"
#include "common/failpoint.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"

namespace secview {
namespace {

TEST(AllocTrackerTest, ScopedCounterSeesHeapChurn) {
  if (!AllocTrackingAvailable()) GTEST_SKIP() << "tracker compiled out";
  uint64_t bytes = 0, count = 0;
  {
    ScopedAllocCounter counter(&bytes, &count);
    for (int i = 0; i < 16; ++i) {
      // Volatile sink so the allocation cannot be elided.
      auto p = std::make_unique<char[]>(1 << 12);
      volatile char c = p[0];
      (void)c;
    }
  }
  EXPECT_GE(count, 16u);
  EXPECT_GE(bytes, 16u << 12);
}

TEST(AllocTrackerTest, DeltaExcludesWorkOutsideScope) {
  if (!AllocTrackingAvailable()) GTEST_SKIP() << "tracker compiled out";
  auto before = std::make_unique<char[]>(1 << 20);
  uint64_t bytes = 0, count = 0;
  {
    ScopedAllocCounter counter(&bytes, &count);
    AllocCounts mid = counter.Delta();
    EXPECT_EQ(mid.bytes, bytes);  // Nothing allocated yet in scope.
  }
  volatile char c = before[0];
  (void)c;
  EXPECT_LT(bytes, 1u << 20);  // The pre-scope megabyte is not charged.
}

TEST(AllocTrackerTest, CountsAreThreadLocal) {
  if (!AllocTrackingAvailable()) GTEST_SKIP() << "tracker compiled out";
  uint64_t bytes = 0, count = 0;
  {
    ScopedAllocCounter counter(&bytes, &count);
    std::thread t([] {
      auto p = std::make_unique<char[]>(1 << 22);
      volatile char c = p[0];
      (void)c;
    });
    t.join();
  }
  // The 4MB allocated on the other thread is charged there, not here.
  // std::thread itself may allocate on this thread; allow that slack.
  EXPECT_LT(bytes, 1u << 22);
}

TEST(AllocTrackerTest, NewDeleteRoundTripUnderTracker) {
  // Exercises the full operator family (scalar, array, nothrow,
  // over-aligned) so ASan can vet the hooks' malloc/free pairing.
  uint64_t bytes = 0, count = 0;
  ScopedAllocCounter counter(&bytes, &count);
  int* scalar = new int(7);
  delete scalar;
  char* arr = new char[257];
  delete[] arr;
  int* soft = new (std::nothrow) int(9);
  EXPECT_NE(soft, nullptr);
  delete soft;
  struct alignas(64) Wide {
    char pad[64];
  };
  Wide* wide = new Wide();
  EXPECT_EQ(reinterpret_cast<uintptr_t>(wide) % 64, 0u);
  delete wide;
  std::vector<std::string> strings;
  for (int i = 0; i < 64; ++i) strings.push_back(std::string(100, 'x'));
  strings.clear();
  if (AllocTrackingAvailable()) {
    EXPECT_GT(counter.Delta().count, 0u);
  }
}

TEST(AllocTrackerTest, ThreadCountsMonotonic) {
  AllocCounts a = ThreadAllocCounts();
  auto p = std::make_unique<char[]>(128);
  volatile char c = p[0];
  (void)c;
  AllocCounts b = ThreadAllocCounts();
  EXPECT_GE(b.bytes, a.bytes);
  EXPECT_GE(b.count, a.count);
  if (AllocTrackingAvailable()) {
    EXPECT_GT(b.count, a.count);
  }
}

/// Makes an allocation observable: the optimizer may elide a new/delete
/// pair whose pointer never escapes, which would dodge the counters this
/// suite is checking.
void EscapePointer(void* p) { asm volatile("" : : "g"(p) : "memory"); }

TEST(AllocTrackerTest, FullNewDeleteFamilyIsChargedAndPaired) {
  if (!AllocTrackingAvailable()) GTEST_SKIP() << "tracker compiled out";
  struct alignas(128) Wide {
    char pad[256];
  };
  const AllocCounts before = ThreadAllocCounts();

  // Every operator-new/delete pairing the standard names: scalar with
  // its sized delete (the compiler emits it for delete of a complete
  // type), array, nothrow, over-aligned, over-aligned array, and
  // nothrow over-aligned. Each new is charged once. That each delete
  // is replaced too, so the block goes back to the std::free matching
  // the wrapper's malloc, is what ASan's alloc-dealloc-mismatch check
  // proves when this suite runs under -DSECVIEW_SANITIZE=address.
  int* scalar = new int(1);
  EscapePointer(scalar);
  delete scalar;
  char* arr = new char[333];
  EscapePointer(arr);
  delete[] arr;
  int* soft = new (std::nothrow) int(2);
  EscapePointer(soft);
  ASSERT_NE(soft, nullptr);
  delete soft;
  Wide* wide = new Wide();
  EscapePointer(wide);
  delete wide;
  Wide* wides = new Wide[3];
  EscapePointer(wides);
  delete[] wides;
  auto* soft_wide = new (std::nothrow) Wide();
  EscapePointer(soft_wide);
  ASSERT_NE(soft_wide, nullptr);
  delete soft_wide;

  const AllocCounts after = ThreadAllocCounts();
  EXPECT_EQ(after.count, before.count + 6);
  EXPECT_GE(after.bytes - before.bytes,
            2 * sizeof(int) + 333 + 5 * sizeof(Wide));
}

TEST(AllocTrackerTest, ResidentAndPeakResidentAreOrdered) {
#if defined(__linux__)
  // The kernel's RSS counters are batched per CPU and the high-water
  // mark is only refreshed at some unmaps, so a peak read just after an
  // RSS read may trail it slightly (seen under ASan, whose allocator
  // returns pages in the background); 1 MB covers that.
  constexpr uint64_t kSlack = 1u << 20;
  const uint64_t rss = ProcessResidentBytes();
  const uint64_t peak = ProcessPeakResidentBytes();
  EXPECT_GT(rss, 0u);
  EXPECT_GT(peak, 0u);
  EXPECT_GE(peak + kSlack, rss)
      << "peak is a high-water mark of the resident set";
  // The crash reporter's raw readers see the same quantities.
  const uint64_t raw_rss = alloc_internal::ResidentBytesRaw();
  const uint64_t raw_peak = alloc_internal::PeakResidentBytesRaw();
  EXPECT_GT(raw_rss, 0u);
  EXPECT_GE(raw_peak + kSlack, raw_rss);
#else
  (void)ProcessPeakResidentBytes();  // portable fallback: 0 is acceptable
#endif
}

TEST(AllocTrackerTest, TouchedBlockRaisesPeakResident) {
#if defined(__linux__)
  const uint64_t rss_before = ProcessResidentBytes();
  const uint64_t peak_before = ProcessPeakResidentBytes();
  // 8 MB of fresh pages, plus whatever an earlier test left between the
  // high-water mark and today's RSS, so touching them must lift the
  // peak. mmap (not malloc) guarantees none of the pages is resident yet.
  const size_t block =
      (8u << 20) + (peak_before > rss_before ? peak_before - rss_before : 0);
  void* mem = ::mmap(nullptr, block, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(mem, MAP_FAILED);
  std::memset(mem, 1, block);
  EscapePointer(mem);
  const uint64_t peak_during = ProcessPeakResidentBytes();
  const uint64_t raw_peak_during = alloc_internal::PeakResidentBytesRaw();
  ::munmap(mem, block);
  // The kernel's RSS counters are batched per CPU; 1 MB covers that.
  EXPECT_GE(peak_during + (1u << 20), rss_before + block);
  EXPECT_GT(peak_during, peak_before);
  EXPECT_GE(raw_peak_during + (1u << 20), rss_before + block);
  EXPECT_GE(ProcessPeakResidentBytes(), peak_during)
      << "peak is monotone after the block is unmapped";
#else
  GTEST_SKIP() << "RSS readings need /proc";
#endif
}

TEST(AllocTrackerTest, ResidentBytesReadsProcStatm) {
#if defined(__linux__)
  EXPECT_GT(ProcessResidentBytes(), 0u);
#else
  (void)ProcessResidentBytes();  // portable fallback: 0 is acceptable
#endif
}

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad query");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad query");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad query");
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kFailedPrecondition, StatusCode::kOutOfRange,
        StatusCode::kInternal, StatusCode::kUnimplemented,
        StatusCode::kAborted}) {
    EXPECT_STRNE(StatusCodeToString(code), "Unknown");
  }
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Result<int> Doubled(int x) {
  SECVIEW_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return v * 2;
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = ParsePositive(21);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 21);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = ParsePositive(-1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(Doubled(4).value(), 8);
  EXPECT_FALSE(Doubled(-4).ok());
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("hello");
  std::string s = std::move(r).value();
  EXPECT_EQ(s, "hello");
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"a"}, ","), "a");
  EXPECT_EQ(Join({"a", "b", "c"}, " | "), "a | b | c");
}

TEST(StringUtilTest, Split) {
  EXPECT_EQ(Split("a,b,c", ',').size(), 3u);
  EXPECT_EQ(Split("a,,c", ',')[1], "");
  EXPECT_EQ(Split("", ',').size(), 1u);
}

TEST(StringUtilTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  x y  "), "x y");
  EXPECT_EQ(StripWhitespace("\t\n"), "");
  EXPECT_EQ(StripWhitespace("abc"), "abc");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("<!ELEMENT", "<!"));
  EXPECT_FALSE(StartsWith("<", "<!"));
  EXPECT_TRUE(EndsWith("a.dtd", ".dtd"));
  EXPECT_FALSE(EndsWith("dtd", "a.dtd"));
}

TEST(StringUtilTest, XmlEscape) {
  EXPECT_EQ(XmlEscape("a<b>&'\""), "a&lt;b&gt;&amp;&apos;&quot;");
  EXPECT_EQ(XmlEscape("plain"), "plain");
}

TEST(StringUtilTest, XmlNames) {
  EXPECT_TRUE(IsValidXmlName("r-e.warranty"));
  EXPECT_TRUE(IsValidXmlName("_x1"));
  EXPECT_FALSE(IsValidXmlName(""));
  EXPECT_FALSE(IsValidXmlName("1abc"));
  EXPECT_FALSE(IsValidXmlName("-abc"));
  EXPECT_FALSE(IsValidXmlName("a b"));
}

TEST(RngTest, Deterministic) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, SeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, BelowInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
}

TEST(RngTest, RangeInclusiveCoversEndpoints) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    int v = rng.RangeInclusive(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    saw_lo |= (v == 2);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(9);
  EXPECT_FALSE(rng.Chance(0.0));
  EXPECT_TRUE(rng.Chance(1.0));
}

TEST(RngTest, AlphaString) {
  Rng rng(11);
  std::string s = rng.AlphaString(20);
  EXPECT_EQ(s.size(), 20u);
  for (char c : s) {
    EXPECT_GE(c, 'a');
    EXPECT_LE(c, 'z');
  }
}

// --- failpoints ---

class FailPointTest : public testing::Test {
 protected:
  void SetUp() override { FailPointRegistry::Instance().DisarmAll(); }
  void TearDown() override { FailPointRegistry::Instance().DisarmAll(); }
  FailPointRegistry& registry() { return FailPointRegistry::Instance(); }
};

TEST_F(FailPointTest, OffByDefaultAndNeverFires) {
  FailPoint& fp = registry().Get("test.off");
  EXPECT_EQ(fp.policy(), "off");
  const uint64_t before = fp.fires();
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(fp.Fire());
  EXPECT_EQ(fp.fires(), before);
}

TEST_F(FailPointTest, OnceFiresExactlyOnceThenDisarms) {
  ASSERT_TRUE(registry().Arm("test.once", "once").ok());
  FailPoint& fp = registry().Get("test.once");
  const uint64_t before = fp.fires();
  EXPECT_TRUE(fp.Fire());
  for (int i = 0; i < 50; ++i) EXPECT_FALSE(fp.Fire());
  EXPECT_EQ(fp.fires(), before + 1);
  EXPECT_EQ(fp.policy(), "off");
}

TEST_F(FailPointTest, EveryNFiresOnExactMultiples) {
  ASSERT_TRUE(registry().Arm("test.every", "every:3").ok());
  FailPoint& fp = registry().Get("test.every");
  std::vector<bool> fired;
  for (int i = 0; i < 9; ++i) fired.push_back(fp.Fire());
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, false, false, true,
                                      false, false, true}));
}

TEST_F(FailPointTest, ProbabilityIsDeterministicPerSeed) {
  auto run = [this](const std::string& policy) {
    FailPointRegistry::Instance().DisarmAll();
    EXPECT_TRUE(registry().Arm("test.prob", policy).ok());
    FailPoint& fp = registry().Get("test.prob");
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) fired.push_back(fp.Fire());
    return fired;
  };
  std::vector<bool> a = run("prob:0.5:1234");
  std::vector<bool> b = run("prob:0.5:1234");
  std::vector<bool> c = run("prob:0.5:4321");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  size_t fires = 0;
  for (bool f : a) fires += f ? 1 : 0;
  EXPECT_GT(fires, 16u);  // loose sanity band around p=0.5
  EXPECT_LT(fires, 48u);
}

TEST_F(FailPointTest, SpecGrammarParsesAndRejects) {
  ASSERT_TRUE(registry()
                  .ArmFromSpec("a.b=once,c.d=every:2,e.f=prob:0.25:9,g.h=off")
                  .ok());
  EXPECT_EQ(registry().Get("a.b").policy(), "once");
  EXPECT_EQ(registry().Get("c.d").policy(), "every:2");
  EXPECT_EQ(registry().Get("e.f").policy(), "prob:0.25:9");
  EXPECT_EQ(registry().Get("g.h").policy(), "off");

  EXPECT_FALSE(registry().ArmFromSpec("missing-equals").ok());
  EXPECT_FALSE(registry().ArmFromSpec("a.b=bogus").ok());
  EXPECT_FALSE(registry().ArmFromSpec("a.b=every:0").ok());
  EXPECT_FALSE(registry().ArmFromSpec("a.b=every:x").ok());
  EXPECT_FALSE(registry().ArmFromSpec("a.b=prob:1.5").ok());
  EXPECT_FALSE(registry().ArmFromSpec("a.b=prob:x").ok());
  EXPECT_FALSE(registry().ArmFromSpec("=once").ok());
  // Empty entries (trailing commas) are tolerated.
  EXPECT_TRUE(registry().ArmFromSpec("a.b=once,").ok());
  EXPECT_TRUE(registry().ArmFromSpec("").ok());
}

TEST_F(FailPointTest, ListReportsArmedPoints) {
  ASSERT_TRUE(registry().ArmFromSpec("list.x=every:2").ok());
  registry().Get("list.x").Fire();
  registry().Get("list.x").Fire();
  bool found = false;
  for (const auto& info : registry().List()) {
    if (info.name != "list.x") continue;
    found = true;
    EXPECT_EQ(info.policy, "every:2");
    EXPECT_GE(info.fires, 1u);
  }
  EXPECT_TRUE(found);
}

TEST_F(FailPointTest, ConcurrentFiresAreCountedExactly) {
  ASSERT_TRUE(registry().Arm("test.race", "every:2").ok());
  FailPoint& fp = registry().Get("test.race");
  const uint64_t before = fp.fires();
  constexpr int kThreads = 8;
  constexpr int kCalls = 1000;
  std::vector<std::thread> threads;
  std::atomic<uint64_t> observed{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      uint64_t mine = 0;
      for (int i = 0; i < kCalls; ++i) {
        if (fp.Fire()) ++mine;
      }
      observed.fetch_add(mine);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(fp.fires() - before, observed.load());
  EXPECT_EQ(observed.load(), kThreads * kCalls / 2);
}

// --- crash reporter ---

TEST(CrashReporterTest, InstallIsIdempotentAndTracksActiveQueries) {
  InstallCrashReporter();
  EXPECT_TRUE(CrashReporterInstalled());
  InstallCrashReporter();  // second install is a no-op
  EXPECT_TRUE(CrashReporterInstalled());

  const int64_t before = CrashReporterActiveQueries();
  {
    ScopedActiveQuery a;
    ScopedActiveQuery b;
    EXPECT_EQ(CrashReporterActiveQueries(), before + 2);
  }
  EXPECT_EQ(CrashReporterActiveQueries(), before);
}

TEST(CrashReporterTest, LastSlowQueryIsTruncatedAndSanitized) {
  const std::string line = "slow\nquery\rwith newlines";
  CrashReporterSetLastSlowQuery(line.c_str(), line.size());
  // No direct accessor (the buffer is crash-handler state); setting a
  // fresh value and oversized values must simply not crash or overflow.
  std::string big(4096, 'x');
  CrashReporterSetLastSlowQuery(big.c_str(), big.size());
  CrashReporterSetLastSlowQuery("", 0);
}

TEST(CrashReporterDeathTest, SegfaultReportPrintsBannerAndCounts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        InstallCrashReporter();
        ScopedActiveQuery active;
        const char slow[] = "[ok] 123us policy=nurse query=//bill";
        CrashReporterSetLastSlowQuery(slow, sizeof(slow) - 1);
        raise(SIGSEGV);
      },
      "secview crash reporter.*rss [0-9]+B, peak rss [0-9]+B");
}

}  // namespace
}  // namespace secview
