// Failpoint framework suite (core/failpoint.h): the spec parser, seeded
// firing, and the "any site armed" gate that the REACH_FAILPOINT() sites
// compiled into every build check before they reach Evaluate().

#include "core/failpoint.h"

#include <chrono>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace reach {
namespace {

// Each test works on its own site names and disarms them on exit, so the
// process-global registry never leaks configuration across tests.
class FailpointTest : public ::testing::Test {
 protected:
  void TearDown() override { FailpointRegistry::Global().DisarmAll(); }
};

TEST_F(FailpointTest, UnarmedSiteNeverFires) {
  FailpointRegistry& reg = FailpointRegistry::Global();
  for (int i = 0; i < 100; ++i) {
    const FailpointHit hit = reg.Evaluate("fp_test.unarmed");
    EXPECT_FALSE(hit);
    EXPECT_EQ(hit.action, FailpointAction::kNone);
  }
  EXPECT_EQ(reg.HitCount("fp_test.unarmed"), 0u);
}

TEST_F(FailpointTest, ArmErrorAlwaysFires) {
  FailpointRegistry& reg = FailpointRegistry::Global();
  std::string error;
  ASSERT_TRUE(reg.Arm("fp_test.err", "error", &error)) << error;
  for (int i = 0; i < 10; ++i) {
    const FailpointHit hit = reg.Evaluate("fp_test.err");
    EXPECT_TRUE(hit);
    EXPECT_EQ(hit.action, FailpointAction::kError);
  }
  EXPECT_EQ(reg.HitCount("fp_test.err"), 10u);
  reg.Disarm("fp_test.err");
  EXPECT_FALSE(reg.Evaluate("fp_test.err"));
}

TEST_F(FailpointTest, ConfigureArmsSeveralSitesAtOnce) {
  FailpointRegistry& reg = FailpointRegistry::Global();
  std::string error;
  ASSERT_TRUE(reg.Configure(
      "fp_test.a=error;fp_test.b=partial(bytes=4096),fp_test.c=delay(ms=0)",
      &error))
      << error;
  EXPECT_EQ(reg.Evaluate("fp_test.a").action, FailpointAction::kError);
  const FailpointHit partial = reg.Evaluate("fp_test.b");
  EXPECT_EQ(partial.action, FailpointAction::kPartial);
  EXPECT_EQ(partial.arg, 4096u);
  EXPECT_EQ(reg.Evaluate("fp_test.c").action, FailpointAction::kDelay);
  const std::vector<std::string> armed = reg.ArmedSites();
  EXPECT_EQ(armed.size(), 3u);
}

TEST_F(FailpointTest, InvalidSpecsRejectedWithoutArmingAnything) {
  FailpointRegistry& reg = FailpointRegistry::Global();
  std::string error;
  for (const char* bad :
       {"", "explode", "error(p=2.5)", "error(p=nope)", "partial(bytes=)",
        "error(unknown=1)", "error(p=0.5"}) {
    EXPECT_FALSE(reg.Arm("fp_test.x", bad, &error)) << "'" << bad << "'";
    EXPECT_FALSE(reg.Evaluate("fp_test.x"));
  }
  for (const char* bad : {"fp_test.x", "fp_test.x=", "=error"}) {
    EXPECT_FALSE(reg.Configure(bad, &error)) << "'" << bad << "'";
  }
  // Configure is all-or-nothing: one bad entry arms none of them.
  EXPECT_FALSE(reg.Configure("fp_test.good=error;fp_test.bad=nope", &error));
  EXPECT_FALSE(reg.Evaluate("fp_test.good"));
  EXPECT_TRUE(reg.ArmedSites().empty());
}

TEST_F(FailpointTest, ProbabilityIsDeterministicPerSeed) {
  FailpointRegistry& reg = FailpointRegistry::Global();
  std::string error;
  const auto sample = [&]() {
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(static_cast<bool>(reg.Evaluate("fp_test.p")));
    }
    return fired;
  };
  ASSERT_TRUE(reg.Arm("fp_test.p", "error(p=0.5,seed=7)", &error)) << error;
  const std::vector<bool> first = sample();
  ASSERT_TRUE(reg.Arm("fp_test.p", "error(p=0.5,seed=7)", &error)) << error;
  const std::vector<bool> second = sample();
  EXPECT_EQ(first, second);  // same seed, same firing pattern
  size_t fires = 0;
  for (const bool f : first) fires += f;
  EXPECT_GT(fires, 0u);   // p=0.5 over 64 draws: both outcomes occur
  EXPECT_LT(fires, 64u);
}

TEST_F(FailpointTest, TimesBudgetAndSkipPrefix) {
  FailpointRegistry& reg = FailpointRegistry::Global();
  std::string error;
  ASSERT_TRUE(reg.Arm("fp_test.times", "error(times=3)", &error)) << error;
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    fired += static_cast<bool>(reg.Evaluate("fp_test.times"));
  }
  EXPECT_EQ(fired, 3);  // budget exhausted, then silent

  ASSERT_TRUE(reg.Arm("fp_test.skip", "error(skip=2,times=1)", &error))
      << error;
  EXPECT_FALSE(reg.Evaluate("fp_test.skip"));  // skipped
  EXPECT_FALSE(reg.Evaluate("fp_test.skip"));  // skipped
  EXPECT_TRUE(reg.Evaluate("fp_test.skip"));   // third evaluation fires
  EXPECT_FALSE(reg.Evaluate("fp_test.skip"));  // times budget spent
}

TEST_F(FailpointTest, DelayActuallySleeps) {
  FailpointRegistry& reg = FailpointRegistry::Global();
  std::string error;
  ASSERT_TRUE(reg.Arm("fp_test.delay", "delay(ms=20)", &error)) << error;
  const auto start = std::chrono::steady_clock::now();
  const FailpointHit hit = reg.Evaluate("fp_test.delay");
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(hit.action, FailpointAction::kDelay);
  EXPECT_EQ(hit.arg, 20u);
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            20);
}

TEST_F(FailpointTest, OffSpecDisarms) {
  FailpointRegistry& reg = FailpointRegistry::Global();
  std::string error;
  ASSERT_TRUE(reg.Arm("fp_test.off", "error", &error)) << error;
  EXPECT_TRUE(reg.Evaluate("fp_test.off"));
  ASSERT_TRUE(reg.Arm("fp_test.off", "off", &error)) << error;
  EXPECT_FALSE(reg.Evaluate("fp_test.off"));
  EXPECT_FALSE(reg.AnyArmed());

  // Entries apply in order: armed, then disarmed by the same spec.
  ASSERT_TRUE(reg.Configure("fp_test.off=error;fp_test.off=off", &error))
      << error;
  EXPECT_FALSE(reg.AnyArmed());
  EXPECT_FALSE(REACH_FAILPOINT("fp_test.off"));
}

// The gate: with nothing armed a site returns an empty hit; arming any
// site opens it, and disarming the last one closes it again.
TEST_F(FailpointTest, SitesFireOnlyWhileSomethingIsArmed) {
  FailpointRegistry& reg = FailpointRegistry::Global();
  ASSERT_FALSE(reg.AnyArmed());
  EXPECT_EQ(REACH_FAILPOINT("fp_test.gate").action, FailpointAction::kNone);
  EXPECT_EQ(reg.HitCount("fp_test.gate"), 0u);

  std::string error;
  ASSERT_TRUE(reg.Configure("fp_test.gate=error;fp_test.other=error", &error))
      << error;
  EXPECT_TRUE(reg.AnyArmed());
  EXPECT_EQ(REACH_FAILPOINT("fp_test.gate").action, FailpointAction::kError);
  reg.Disarm("fp_test.gate");
  EXPECT_TRUE(reg.AnyArmed());  // fp_test.other is still armed
  EXPECT_FALSE(REACH_FAILPOINT("fp_test.gate"));
  reg.Disarm("fp_test.other");
  EXPECT_FALSE(reg.AnyArmed());
  EXPECT_FALSE(REACH_FAILPOINT("fp_test.gate"));
  EXPECT_EQ(reg.HitCount("fp_test.gate"), 0u);

  // Re-arming opens the gate again, and DisarmAll closes it.
  ASSERT_TRUE(reg.Arm("fp_test.gate", "error", &error)) << error;
  EXPECT_TRUE(REACH_FAILPOINT("fp_test.gate"));
  EXPECT_EQ(reg.HitCount("fp_test.gate"), 1u);
  reg.DisarmAll();
  EXPECT_FALSE(reg.AnyArmed());
  EXPECT_FALSE(REACH_FAILPOINT("fp_test.gate"));
}

TEST_F(FailpointTest, FailpointErrorIsARuntimeError) {
  const FailpointError err("boom");
  const std::runtime_error& base = err;
  EXPECT_STREQ(base.what(), "boom");
}

}  // namespace
}  // namespace reach
