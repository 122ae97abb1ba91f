#ifndef HARBOR_TESTS_TEST_UTIL_H_
#define HARBOR_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <mutex>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "obs/observer.h"
#include "storage/schema.h"
#include "storage/tuple.h"

/// Asserts that a Status-returning expression is OK.
#define ASSERT_OK(expr)                                 \
  do {                                                  \
    ::harbor::Status _st = (expr);                      \
    ASSERT_TRUE(_st.ok()) << _st.ToString();            \
  } while (0)

#define EXPECT_OK(expr)                                 \
  do {                                                  \
    ::harbor::Status _st = (expr);                      \
    EXPECT_TRUE(_st.ok()) << _st.ToString();            \
  } while (0)

/// Asserts a Result is OK and assigns its value.
#define ASSERT_OK_AND_ASSIGN(lhs, rexpr)                       \
  ASSERT_OK_AND_ASSIGN_IMPL(                                   \
      HARBOR_RESULT_CONCAT(_assert_result_, __LINE__), lhs, rexpr)

#define ASSERT_OK_AND_ASSIGN_IMPL(tmp, lhs, rexpr)             \
  auto tmp = (rexpr);                                          \
  ASSERT_TRUE(tmp.ok()) << tmp.status().ToString();            \
  lhs = std::move(tmp).value()

namespace harbor::test {

/// Derives a test-case seed from a base value and the run-level seed
/// (HARBOR_SEED). With HARBOR_SEED unset the base is returned unchanged, so
/// default runs are byte-identical to historical ones; setting HARBOR_SEED
/// shifts every seeded test in the run together.
inline uint64_t MixSeed(uint64_t base) {
  const uint64_t global = Random::GlobalSeed();
  if (global == 42) return base;  // default seed: keep historical streams
  uint64_t mixed = base * 0x9e3779b97f4a7c15ULL ^ global;
  return mixed != 0 ? mixed : 1;
}

/// Removes the directories MakeTempDir made during a test when that test
/// ends (the test object, and with it every file user, is gone by then).
class TempDirCleaner : public ::testing::EmptyTestEventListener {
 public:
  /// The process's cleaner, appended to gtest's listeners on first use
  /// (gtest owns it from then on).
  static TempDirCleaner& Get() {
    static TempDirCleaner* cleaner = [] {
      auto* c = new TempDirCleaner;
      ::testing::UnitTest::GetInstance()->listeners().Append(c);
      return c;
    }();
    return *cleaner;
  }

  void Add(std::string dir) {
    std::lock_guard<std::mutex> lock(mu_);
    dirs_.push_back(std::move(dir));
  }

  void OnTestEnd(const ::testing::TestInfo&) override {
    std::vector<std::string> dirs;
    {
      std::lock_guard<std::mutex> lock(mu_);
      dirs.swap(dirs_);
    }
    for (const std::string& dir : dirs) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  }

 private:
  std::mutex mu_;
  std::vector<std::string> dirs_;
};

/// Fresh scratch directory under the test temp root, removed when the
/// current test ends.
inline std::string MakeTempDir(const std::string& hint) {
  std::string tmpl = ::testing::TempDir() + "harbor-" + hint + "-XXXXXX";
  char* buf = tmpl.data();
  char* dir = ::mkdtemp(buf);
  EXPECT_NE(dir, nullptr);
  if (dir == nullptr) return std::string();
  TempDirCleaner::Get().Add(dir);
  return std::string(dir);
}

/// The evaluation tuple shape: 16 4-byte integer fields including the two
/// timestamp fields (§6.2) — so 14 user INT32 columns, 64 bytes + tuple id.
inline Schema EvalSchema() {
  std::vector<Column> cols;
  for (int i = 0; i < 14; ++i) {
    cols.push_back(Column::Int32("f" + std::to_string(i)));
  }
  return Schema(std::move(cols));
}

/// A small 3-column schema for focused tests.
inline Schema SmallSchema() {
  return Schema({Column::Int64("id"), Column::Int64("qty"),
                 Column::Char("name", 16)});
}

inline std::vector<Value> SmallRow(int64_t id, int64_t qty,
                                   const std::string& name) {
  return {Value(id), Value(qty), Value(name)};
}

/// \brief Dumps an observer's merged event trace to stderr if the current
/// gtest test has failed by the time this guard is destroyed.
///
/// ASSERT_* macros return out of the enclosing function, so dump-on-failure
/// must live in a destructor. Declare the guard AFTER the cluster whose
/// observer it dumps, so the guard runs before the cluster is torn down —
/// a failing chaos replay then prints the ordered protocol timeline
/// including every fired fault point. Construction enables tracing.
class TraceDumpOnFailure {
 public:
  explicit TraceDumpOnFailure(obs::Observer& observer) : observer_(observer) {
    observer_.EnableTrace();
  }
  ~TraceDumpOnFailure() {
    if (!::testing::Test::HasFailure()) return;
    std::cerr << observer_.TraceToString();
  }
  TraceDumpOnFailure(const TraceDumpOnFailure&) = delete;
  TraceDumpOnFailure& operator=(const TraceDumpOnFailure&) = delete;

 private:
  obs::Observer& observer_;
};

}  // namespace harbor::test

#endif  // HARBOR_TESTS_TEST_UTIL_H_
