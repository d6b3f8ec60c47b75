// Unit and property tests for the string utilities, with emphasis on the
// brace-template machinery log analysis depends on.
#include "src/common/strings.h"

#include <gtest/gtest.h>

#include "src/common/interner.h"
#include "src/common/rng.h"

namespace ctcommon {
namespace {

TEST(Split, KeepsEmptyPieces) {
  EXPECT_EQ(Split("a,b,,c", ','), (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(SplitSkipEmpty, DropsEmptyPieces) {
  EXPECT_EQ(SplitSkipEmpty("a,,b,", ','), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(SplitSkipEmpty(",,,", ',').empty());
}

TEST(Join, RoundTripsWithSplit) {
  std::vector<std::string> pieces{"x", "yy", "zzz"};
  EXPECT_EQ(Split(Join(pieces, "|"), '|'), pieces);
}

TEST(Contains, Basics) {
  EXPECT_TRUE(Contains("NodeManager from host", "from"));
  EXPECT_FALSE(Contains("abc", "abcd"));
  EXPECT_TRUE(Contains("abc", ""));
}

TEST(ToLower, Ascii) { EXPECT_EQ(ToLower("GetScheNode"), "getschenode"); }

TEST(ReplaceAll, Basics) {
  EXPECT_EQ(ReplaceAll("a{}b{}", "{}", "(.*)"), "a(.*)b(.*)");
  EXPECT_EQ(ReplaceAll("aaa", "aa", "b"), "ba");
  EXPECT_EQ(ReplaceAll("abc", "", "x"), "abc");
}

TEST(FormatBraces, SubstitutesInOrder) {
  EXPECT_EQ(FormatBraces("Assigned container {} on host {}", {"c_1", "node1:42349"}),
            "Assigned container c_1 on host node1:42349");
}

TEST(FormatBraces, SurplusPlaceholdersKept) {
  EXPECT_EQ(FormatBraces("a {} b {}", {"x"}), "a x b {}");
}

TEST(FormatBraces, SurplusArgsIgnored) { EXPECT_EQ(FormatBraces("a {}", {"x", "y"}), "a x"); }

TEST(CountPlaceholders, Counts) {
  EXPECT_EQ(CountPlaceholders("no holes"), 0);
  EXPECT_EQ(CountPlaceholders("{}{}{}"), 3);
  EXPECT_EQ(CountPlaceholders("a {} b {} c"), 2);
}

TEST(TemplateFragments, SplitsAroundPlaceholders) {
  EXPECT_EQ(TemplateFragments("a {} b {} c"), (std::vector<std::string>{"a ", " b ", " c"}));
  EXPECT_EQ(TemplateFragments("{} tail"), (std::vector<std::string>{"", " tail"}));
  EXPECT_EQ(TemplateFragments("head {}"), (std::vector<std::string>{"head ", ""}));
}

TEST(MatchTemplate, RecoversValues) {
  std::vector<std::string> values;
  ASSERT_TRUE(MatchTemplate("NodeManager from {} registered as {}",
                            "NodeManager from node3 registered as node3:42349", &values));
  EXPECT_EQ(values, (std::vector<std::string>{"node3", "node3:42349"}));
}

TEST(MatchTemplate, RejectsDifferentLiteral) {
  std::vector<std::string> values;
  EXPECT_FALSE(MatchTemplate("Assigned container {} on host {}",
                             "Assigned block b1 on host node1", &values));
}

TEST(MatchTemplate, TrailingPlaceholderIsGreedy) {
  std::vector<std::string> values;
  // A final placeholder absorbs the rest of the line (log payloads may
  // contain spaces); a literal *after* the placeholder must still anchor.
  ASSERT_TRUE(MatchTemplate("done {}", "done x extra stuff", &values));
  EXPECT_EQ(values[0], "x extra stuff");
  EXPECT_FALSE(MatchTemplate("done {} end", "done x", &values));
}

TEST(MatchTemplate, FinalLiteralAnchorsAtEnd) {
  std::vector<std::string> values;
  ASSERT_TRUE(MatchTemplate("JVM with ID: {} given task: {}",
                            "JVM with ID: jvm_1_m_4 given task: attempt_1_m_4_0", &values));
  EXPECT_EQ(values[0], "jvm_1_m_4");
  EXPECT_EQ(values[1], "attempt_1_m_4_0");
}

TEST(MatchTemplate, EmptyTemplateMatchesEmpty) {
  std::vector<std::string> values;
  EXPECT_TRUE(MatchTemplate("", "", &values));
  EXPECT_FALSE(MatchTemplate("", "x", &values));
}

// Property: FormatBraces followed by MatchTemplate recovers the arguments for
// templates whose literals do not appear inside values.
class FormatMatchRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(FormatMatchRoundTrip, RoundTrips) {
  Rng rng(GetParam());
  static const char* kTemplates[] = {
      "Assigned container {} on host {}",
      "NodeManager from {} registered as {}",
      "JVM with ID: {} given task: {}",
      "Submitted application {}",
      "Region {} assigned to {}",
      "Block pool {} on datanode {} registered",
  };
  const std::string tmpl = kTemplates[rng.Index(std::size(kTemplates))];
  int n = CountPlaceholders(tmpl);
  std::vector<std::string> args;
  for (int i = 0; i < n; ++i) {
    std::string arg = "v";
    arg.append(std::to_string(rng.Uniform(0, 999))).append("_").append(std::to_string(i));
    args.push_back(std::move(arg));
  }
  std::string instance = FormatBraces(tmpl, args);
  std::vector<std::string> recovered;
  ASSERT_TRUE(MatchTemplate(tmpl, instance, &recovered)) << instance;
  EXPECT_EQ(recovered, args) << instance;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FormatMatchRoundTrip, ::testing::Range(1, 41));

TEST(ToString, Basics) {
  EXPECT_EQ(ToString(std::string("s")), "s");
  EXPECT_EQ(ToString(42), "42");
  EXPECT_EQ(ToString(static_cast<uint64_t>(7)), "7");
}

TEST(InternTable, InternIsIdempotentAndIdsAreDense) {
  InternTable table;
  const Symbol a = table.Intern("alpha");
  const Symbol b = table.Intern("beta");
  EXPECT_EQ(table.Intern("alpha").id(), a.id());
  EXPECT_NE(a.id(), b.id());
  // Id 0 is the empty string, always present.
  EXPECT_EQ(table.Intern("").id(), 0u);
  EXPECT_TRUE(table.Intern("").empty());
  EXPECT_EQ(table.size(), 3u);
}

TEST(InternTable, FindDoesNotCreate) {
  InternTable table;
  EXPECT_TRUE(table.Find("missing").empty());
  EXPECT_EQ(table.size(), 1u);  // only ""
  table.Intern("present");
  EXPECT_EQ(table.Find("present").str(), "present");
}

TEST(InternTable, SymbolsSurviveTableGrowth) {
  InternTable table;
  const Symbol first = table.Intern("first");
  const std::string* address = &first.str();
  for (int i = 0; i < 10000; ++i) {
    table.Intern("filler" + std::to_string(i));
  }
  // Storage is address-stable: the symbol's text never reallocates.
  EXPECT_EQ(&first.str(), address);
  EXPECT_EQ(table.At(first.id()).str(), "first");
}

TEST(Symbol, ComparesByIdButOrdersByText) {
  InternTable table;
  const Symbol z = table.Intern("zebra");  // lower id
  const Symbol a = table.Intern("ant");    // higher id
  EXPECT_TRUE(z == z);
  EXPECT_TRUE(z != a);
  EXPECT_TRUE(a < z);  // lexicographic, not id order
  EXPECT_TRUE(z == "zebra");
  EXPECT_TRUE(z == std::string("zebra"));
  EXPECT_EQ(z + "!", "zebra!");
  EXPECT_EQ("<" + z, "<zebra");
  EXPECT_EQ(SymbolIdHash{}(a), a.id());
}

}  // namespace
}  // namespace ctcommon
