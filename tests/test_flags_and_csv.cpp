// Tests for the CLI flag parser and the machine-readable hvprof CSV export.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hpp"
#include "common/flags.hpp"
#include "common/units.hpp"
#include "prof/hvprof.hpp"

namespace dlsr {
namespace {

std::vector<const char*> argv_of(std::initializer_list<const char*> args) {
  return {args.begin(), args.end()};
}

TEST(FlagsTest, ParsesSpaceAndEqualsForms) {
  Flags flags;
  flags.define("nodes", "node count", "1");
  flags.define("backend", "backend name");
  const auto argv =
      argv_of({"prog", "--nodes", "16", "--backend=MPI-Opt", "extra"});
  flags.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(flags.get_int("nodes"), 16);
  EXPECT_EQ(flags.get("backend"), "MPI-Opt");
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "extra");
}

TEST(FlagsTest, DefaultsAndPresence) {
  Flags flags;
  flags.define("steps", "steps", "30");
  flags.define("timeline", "optional output path");
  const auto argv = argv_of({"prog"});
  flags.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(flags.has("steps"));
  EXPECT_EQ(flags.get_int("steps"), 30);
  EXPECT_FALSE(flags.has("timeline"));
  EXPECT_EQ(flags.get_or("timeline", "/tmp/x"), "/tmp/x");
  EXPECT_THROW(flags.get("timeline"), Error);
}

TEST(FlagsTest, BooleanForms) {
  Flags flags;
  flags.define("csv", "csv output", "false");
  flags.define("verbose", "verbosity", "false");
  const auto argv = argv_of({"prog", "--csv", "--verbose=off"});
  flags.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(flags.get_bool("csv"));
  EXPECT_FALSE(flags.get_bool("verbose"));
}

TEST(FlagsTest, ErrorsOnBadInput) {
  Flags flags;
  flags.define("steps", "steps", "30");
  const auto unknown = argv_of({"prog", "--oops", "1"});
  EXPECT_THROW(flags.parse(static_cast<int>(unknown.size()), unknown.data()),
               Error);

  Flags flags2;
  flags2.define("steps", "steps");
  const auto bad_int = argv_of({"prog", "--steps", "12x"});
  flags2.parse(static_cast<int>(bad_int.size()), bad_int.data());
  EXPECT_THROW(flags2.get_int("steps"), Error);
  EXPECT_THROW(flags2.get_bool("steps"), Error);

  Flags flags3;
  EXPECT_THROW(flags3.define("--dashed", "bad name"), Error);
  flags3.define("x", "once");
  EXPECT_THROW(flags3.define("x", "twice"), Error);
}

TEST(FlagsTest, UsageListsFlags) {
  Flags flags;
  flags.define("nodes", "how many nodes", "4");
  const std::string usage = flags.usage("dlsr");
  EXPECT_NE(usage.find("--nodes"), std::string::npos);
  EXPECT_NE(usage.find("how many nodes"), std::string::npos);
  EXPECT_NE(usage.find("default: 4"), std::string::npos);
}

TEST(HvprofCsv, EmitsOnlyPopulatedBuckets) {
  prof::Hvprof prof;
  prof.record(prof::Collective::Allreduce, 64 * MiB, 0.025);
  prof.record(prof::Collective::Broadcast, 1 * KiB, 0.001);
  const std::string csv = prof.to_csv();
  EXPECT_NE(csv.find("collective,bucket,count,bytes,time_ms"),
            std::string::npos);
  EXPECT_NE(csv.find("MPI_Allreduce,32 MB - 64 MB,1,"), std::string::npos);
  EXPECT_NE(csv.find("MPI_Bcast,1-128 KB,1,"), std::string::npos);
  // Empty buckets omitted: exactly header + 2 rows.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
}

}  // namespace
}  // namespace dlsr
