/**
 * @file
 * Unit and property tests for the common substrate: RNG, alias-method
 * sampler, histogram, stat registry, table printer, JSON edge cases,
 * the checked narrow() conversion, the checked number and flag
 * parsers, and the enum name tables.
 */

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/flags.hpp"
#include "common/histogram.hpp"
#include "common/json.hpp"
#include "common/random.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/types.hpp"
#include "sim/serialize.hpp"

namespace asd
{
namespace
{

TEST(Rng, DeterministicForEqualSeeds)
{
    Rng a(12345);
    Rng b(12345);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.nextBelow(17), 17u);
}

TEST(Rng, NextBelowIsRoughlyUniform)
{
    Rng rng(99);
    std::vector<int> buckets(8, 0);
    const int draws = 80000;
    for (int i = 0; i < draws; ++i)
        ++buckets[rng.nextBelow(8)];
    for (const int count : buckets) {
        EXPECT_NEAR(count, draws / 8, draws / 8 / 5)
            << "bucket far from uniform";
    }
}

TEST(Rng, PowerOfTwoBoundMatchesGenericPath)
{
    // The generic rejection formula, written out: a power-of-two bound
    // must draw the same values from the same number of engine steps.
    const auto generic = [](Rng &rng, std::uint64_t bound) {
        const std::uint64_t max = ~std::uint64_t{0};
        const std::uint64_t limit = max - max % bound;
        std::uint64_t v = rng.next();
        while (v >= limit)
            v = rng.next();
        return v % bound;
    };
    for (const std::uint64_t bound :
         {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{128},
          std::uint64_t{512}, std::uint64_t{1} << 32,
          std::uint64_t{1} << 63}) {
        Rng fast(bound * 31 + 5);
        Rng slow(bound * 31 + 5);
        for (int i = 0; i < 2000; ++i)
            ASSERT_EQ(fast.nextBelow(bound), generic(slow, bound))
                << "bound " << bound << " draw " << i;
        EXPECT_EQ(fast.state(), slow.state()) << "bound " << bound;
    }
}

TEST(Rng, NextInRangeInclusive)
{
    Rng rng(3);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 5000; ++i) {
        const auto v = rng.nextInRange(5, 9);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 9u);
        saw_lo = saw_lo || v == 5;
        saw_hi = saw_hi || v == 9;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng rng(11);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double v = rng.nextDouble();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceEdgeCases)
{
    Rng rng(5);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng rng(21);
    int hits = 0;
    const int trials = 50000;
    for (int i = 0; i < trials; ++i)
        hits += rng.chance(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(DiscreteSampler, MatchesWeights)
{
    const std::vector<double> weights = {1.0, 3.0, 6.0};
    DiscreteSampler sampler(weights);
    Rng rng(17);
    std::vector<int> counts(3, 0);
    const int draws = 100000;
    for (int i = 0; i < draws; ++i)
        ++counts[sampler.sample(rng)];
    EXPECT_NEAR(counts[0] / static_cast<double>(draws), 0.1, 0.01);
    EXPECT_NEAR(counts[1] / static_cast<double>(draws), 0.3, 0.015);
    EXPECT_NEAR(counts[2] / static_cast<double>(draws), 0.6, 0.015);
}

TEST(DiscreteSampler, SingleOutcome)
{
    DiscreteSampler sampler({42.0});
    Rng rng(1);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(sampler.sample(rng), 0u);
}

TEST(DiscreteSampler, ZeroWeightOutcomeNeverDrawn)
{
    DiscreteSampler sampler({1.0, 0.0, 1.0});
    Rng rng(9);
    for (int i = 0; i < 10000; ++i)
        EXPECT_NE(sampler.sample(rng), 1u);
}

TEST(DiscreteSampler, NormalizedProbabilities)
{
    DiscreteSampler sampler({2.0, 2.0, 4.0});
    EXPECT_DOUBLE_EQ(sampler.probability(0), 0.25);
    EXPECT_DOUBLE_EQ(sampler.probability(2), 0.5);
}

TEST(Histogram, AddAndCount)
{
    Histogram hist(4);
    hist.add(1);
    hist.add(2, 5);
    hist.add(4);
    EXPECT_EQ(hist.count(1), 1u);
    EXPECT_EQ(hist.count(2), 5u);
    EXPECT_EQ(hist.count(3), 0u);
    EXPECT_EQ(hist.count(4), 1u);
    EXPECT_EQ(hist.total(), 7u);
}

TEST(Histogram, SaturatesIntoLastBucket)
{
    Histogram hist(3);
    hist.add(3);
    hist.add(7);
    hist.add(100);
    EXPECT_EQ(hist.count(3), 3u);
}

TEST(Histogram, Fractions)
{
    Histogram hist(2);
    hist.add(1, 3);
    hist.add(2, 1);
    EXPECT_DOUBLE_EQ(hist.fraction(1), 0.75);
    EXPECT_DOUBLE_EQ(hist.fraction(2), 0.25);
}

TEST(Histogram, EmptyFractionIsZero)
{
    Histogram hist(4);
    EXPECT_DOUBLE_EQ(hist.fraction(1), 0.0);
}

TEST(Histogram, ClearResets)
{
    Histogram hist(4);
    hist.add(2, 10);
    hist.clear();
    EXPECT_EQ(hist.total(), 0u);
    EXPECT_EQ(hist.count(2), 0u);
}

TEST(Histogram, L1DistanceIdenticalIsZero)
{
    Histogram a(4);
    Histogram b(4);
    a.add(1, 2);
    a.add(3, 2);
    b.add(1, 4);
    b.add(3, 4); // same shape, different scale
    EXPECT_NEAR(a.l1Distance(b), 0.0, 1e-12);
}

TEST(Histogram, L1DistanceDisjointIsTwo)
{
    Histogram a(4);
    Histogram b(4);
    a.add(1, 10);
    b.add(4, 10);
    EXPECT_NEAR(a.l1Distance(b), 2.0, 1e-12);
}

TEST(StatRegistry, RegisterAndRead)
{
    Counter counter;
    StatRegistry registry;
    registry.add("x.y", counter);
    counter.inc(3);
    EXPECT_EQ(registry.value("x.y"), 3u);
    EXPECT_TRUE(registry.has("x.y"));
    EXPECT_FALSE(registry.has("x.z"));
}

TEST(StatRegistry, DumpIsSorted)
{
    Counter a;
    Counter b;
    StatRegistry registry;
    registry.add("b", b);
    registry.add("a", a);
    const auto dump = registry.dump();
    ASSERT_EQ(dump.size(), 2u);
    EXPECT_EQ(dump[0].first, "a");
    EXPECT_EQ(dump[1].first, "b");
}

TEST(Table, AlignedOutputContainsCells)
{
    Table table({"name", "value"});
    table.addRow({"alpha", "1"});
    table.addRow({"b", "22"});
    std::ostringstream os;
    table.print(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("alpha"), std::string::npos);
    EXPECT_NE(text.find("22"), std::string::npos);
}

TEST(Table, CsvOutput)
{
    Table table({"a", "b"});
    table.addRow({"1", "2"});
    std::ostringstream os;
    table.printCsv(os);
    EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, NumFormatsPrecision)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::num(2.0), "2.0");
}

// Edge cases surfaced while building the asdlint JSON sink: escaping
// of backslash and control characters, 64-bit extremes, and deep
// nesting against the checker's recursion cap.

TEST(Json, EscapesBackslashQuoteAndControlChars)
{
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("say \"hi\""), "say \\\"hi\\\"");
    EXPECT_EQ(jsonEscape("tab\there"), "tab\\there");
    EXPECT_EQ(jsonEscape("nl\nend"), "nl\\nend");
    EXPECT_EQ(jsonEscape(std::string("nul\0!", 5)), "nul\\u0000!");
    EXPECT_EQ(jsonEscape("\x01\x1f"), "\\u0001\\u001f");
    // A Windows-style path survives a writer -> checker round trip.
    JsonWriter w;
    w.beginObject().key("path").value("C:\\tmp\\x.json").endObject();
    EXPECT_EQ(w.str(), "{\"path\":\"C:\\\\tmp\\\\x.json\"}");
    EXPECT_TRUE(jsonParse(w.str()).has_value());
}

TEST(Json, Uint64MaxRoundTrips)
{
    JsonWriter w;
    w.beginObject()
        .key("max")
        .value(std::numeric_limits<std::uint64_t>::max())
        .key("min")
        .value(std::numeric_limits<std::int64_t>::min())
        .endObject();
    EXPECT_EQ(w.str(), "{\"max\":18446744073709551615,"
                       "\"min\":-9223372036854775808}");
    EXPECT_TRUE(jsonParse(w.str()).has_value());
}

TEST(Json, DeeplyNestedArraysWithinCheckerCap)
{
    std::string doc;
    for (int i = 0; i < 100; ++i)
        doc += '[';
    doc += '1';
    for (int i = 0; i < 100; ++i)
        doc += ']';
    EXPECT_TRUE(jsonParse(doc).has_value());
}

TEST(Json, AbsurdNestingIsRejectedNotOverflowed)
{
    std::string doc;
    for (int i = 0; i < 100000; ++i)
        doc += '[';
    doc += '1';
    for (int i = 0; i < 100000; ++i)
        doc += ']';
    // The parser bounds recursion depth instead of crashing; a
    // 100k-deep document is rejected as unparseable.
    EXPECT_FALSE(jsonParse(doc).has_value());
}

TEST(Json, WriterHandlesDeepNestingAndEmptyContainers)
{
    JsonWriter w;
    for (int i = 0; i < 64; ++i)
        w.beginArray();
    w.beginObject().endObject();
    for (int i = 0; i < 64; ++i)
        w.endArray();
    EXPECT_TRUE(jsonParse(w.str()).has_value());
    EXPECT_EQ(w.str().substr(0, 10), "[[[[[[[[[[");
}

// --- narrow() ------------------------------------------------------

TEST(Narrow, RoundTripsInRangeValues)
{
    EXPECT_EQ(narrow<std::uint32_t>(std::uint64_t{0}), 0u);
    EXPECT_EQ(narrow<std::uint32_t>(std::uint64_t{0xffffffffULL}),
              0xffffffffu);
    EXPECT_EQ(narrow<std::int32_t>(std::int64_t{-5}), -5);
    EXPECT_EQ(narrow<std::uint8_t>(255u), 255u);
    // Widening and identity conversions are fine too.
    EXPECT_EQ(narrow<std::uint64_t>(std::uint32_t{7}), 7u);
}

TEST(NarrowDeathTest, PanicsOnTruncation)
{
    EXPECT_DEATH(narrow<std::uint32_t>(std::uint64_t{1} << 32),
                 "narrow");
    EXPECT_DEATH(narrow<std::uint8_t>(256u), "narrow");
}

TEST(NarrowDeathTest, PanicsOnSignMismatch)
{
    EXPECT_DEATH(narrow<std::uint32_t>(std::int64_t{-1}), "narrow");
    EXPECT_DEATH(
        narrow<std::int32_t>(std::uint64_t{0xffffffff80000000ULL}),
        "narrow");
}

// --- checked number parsing ----------------------------------------

TEST(ParseUnsigned, AcceptsDigitsThatFit)
{
    EXPECT_EQ(parseUnsigned<std::uint32_t>("0"), 0u);
    EXPECT_EQ(parseUnsigned<std::uint32_t>("42"), 42u);
    EXPECT_EQ(parseUnsigned<std::uint32_t>("4294967295"), 0xffffffffu);
    EXPECT_EQ(parseUnsigned<std::uint64_t>("18446744073709551615"),
              ~std::uint64_t{0});
    EXPECT_EQ(parseUnsigned<int>("2147483647"), 2147483647);
    EXPECT_EQ(parseUnsigned<std::uint32_t>("5", 1, 5), 5u);
}

TEST(ParseUnsigned, RejectsEveryMalformedForm)
{
    for (const char *bad : {"", "-1", "+1", " 1", "1 ", "16x", "abc",
                            "0x10", "1.5", "4294967296"})
        EXPECT_FALSE(parseUnsigned<std::uint32_t>(bad)) << bad;
    EXPECT_FALSE(parseUnsigned<std::uint64_t>("18446744073709551616"));
    EXPECT_FALSE(parseUnsigned<int>("2147483648"));
    EXPECT_FALSE(parseUnsigned<std::uint32_t>("0", 1, 5));
    EXPECT_FALSE(parseUnsigned<std::uint32_t>("6", 1, 5));
}

TEST(ParseFinite, AcceptsFiniteNumbersOnly)
{
    EXPECT_EQ(parseFinite("0.5"), 0.5);
    EXPECT_EQ(parseFinite("2"), 2.0);
    EXPECT_EQ(parseFinite("-3"), -3.0);
    EXPECT_EQ(parseFinite("1e3"), 1000.0);
    for (const char *bad : {"", "banana", "1.5x", " 1", "1 ", "+1", "inf",
                            "-inf", "nan", "1e999"})
        EXPECT_FALSE(parseFinite(bad)) << bad;
}

// --- flag parser -------------------------------------------------------

/** One target of every binder kind, with the flag table over it. */
struct FlagTargets
{
    std::uint32_t buffer = 16;
    std::optional<std::uint64_t> accesses;
    int policy = 0;
    double frac = 0.02;
    PrefetchMode mode = PrefetchMode::PMS;
    std::vector<std::uint32_t> degrees;
    std::vector<McPrefetcherKind> kinds;
    std::vector<std::optional<std::uint64_t>> frames;
    std::vector<std::string> benches;
    std::string out;
    bool csv = false;
    std::uint64_t phys_bytes = 0;

    std::vector<Flag>
    flags()
    {
        return {
            flag("--buffer", "prefetch buffer lines", buffer),
            flag("--accesses", "trace length", accesses),
            flag("--policy", "LPQ policy", policy),
            flag("--frac", "major-fault fraction", frac),
            flag("--mode", "prefetch configuration", mode),
            flag("--degrees", "degree axis",
                 listOf(uintIn<std::uint32_t>(1, 4)), degrees),
            flag("--kinds", "memory-side kinds",
                 valueFor<std::vector<McPrefetcherKind>>(),
                 appendTo(kinds)),
            flag("--frames", "frame-pool sizes",
                 listOf(offOr(uintIn<std::uint64_t>(1, 1ULL << 32))),
                 frames),
            flag("--bench", "benchmark (repeatable)", textValue(),
                 appendTo(benches), "NAME"),
            flag("--out", "output directory", out, "DIR"),
            flag("--csv", "emit CSV", csv),
            flag("--phys-mb", "physical memory",
                 uintIn<std::uint64_t>(0, ~std::uint64_t{0} >> 20),
                 [this](std::uint64_t mb) { phys_bytes = mb << 20; }),
        };
    }
};

/** Run parseFlags over @p args as if they followed a program name. */
void
runFlags(const std::vector<Flag> &flags, const std::vector<std::string> &args)
{
    std::vector<const char *> argv = {"prog"};
    for (const std::string &arg : args)
        argv.push_back(arg.c_str());
    parseFlags(static_cast<int>(argv.size()), argv.data(), "usage: prog",
               flags);
}

TEST(Flags, EveryBinderAcceptsGoodInput)
{
    FlagTargets t;
    runFlags(t.flags(),
             {"--buffer", "32", "--accesses", "12345", "--policy", "3",
              "--frac", "0.25", "--mode", "MS", "--degrees", "1,2,4",
              "--kinds", "asd,perceptron", "--kinds", "ghb", "--frames",
              "off,256", "--bench", "tpcc", "--bench", "lbm", "--out",
              "dir", "--csv", "--phys-mb", "2048"});
    EXPECT_EQ(t.buffer, 32u);
    EXPECT_EQ(t.accesses, 12345u);
    EXPECT_EQ(t.policy, 3);
    EXPECT_EQ(t.frac, 0.25);
    EXPECT_EQ(t.mode, PrefetchMode::MS);
    EXPECT_EQ(t.degrees, (std::vector<std::uint32_t>{1, 2, 4}));
    EXPECT_EQ(t.kinds,
              (std::vector<McPrefetcherKind>{McPrefetcherKind::Asd,
                                             McPrefetcherKind::Perceptron,
                                             McPrefetcherKind::Ghb}));
    EXPECT_EQ(t.frames,
              (std::vector<std::optional<std::uint64_t>>{std::nullopt,
                                                         256}));
    EXPECT_EQ(t.benches, (std::vector<std::string>{"tpcc", "lbm"}));
    EXPECT_EQ(t.out, "dir");
    EXPECT_TRUE(t.csv);
    EXPECT_EQ(t.phys_bytes, std::uint64_t{2048} << 20);
}

TEST(Flags, LaterOccurrenceOfAnAssignedFlagWins)
{
    FlagTargets t;
    runFlags(t.flags(), {"--degrees", "1", "--degrees", "2,3"});
    EXPECT_EQ(t.degrees, (std::vector<std::uint32_t>{2, 3}));
}

TEST(FlagsDeathTest, EveryBinderRejectsMalformedValuesNamingTheFlag)
{
    struct Case
    {
        const char *flag;
        const char *text;
        const char *message;
    };
    const Case cases[] = {
        {"--buffer", "", "--buffer expects an integer in \\[0, 4294967295\\], "
                         "got ''"},
        {"--buffer", "16x", "--buffer expects an integer .*, got '16x'"},
        {"--buffer", "-1", "--buffer expects an integer .*, got '-1'"},
        {"--buffer", "+1", "--buffer expects an integer .*, got '\\+1'"},
        {"--buffer", "4294967296",
         "--buffer expects an integer .*, got '4294967296'"},
        {"--accesses", "abc", "--accesses expects an integer .*, got 'abc'"},
        {"--accesses", "18446744073709551616",
         "--accesses expects .*, got '18446744073709551616'"},
        {"--policy", "-3", "--policy expects an integer in \\[0, "
                           "2147483647\\], got '-3'"},
        {"--frac", "banana", "--frac expects a finite number, got 'banana'"},
        {"--frac", "inf", "--frac expects a finite number, got 'inf'"},
        {"--frac", "nan", "--frac expects a finite number, got 'nan'"},
        {"--frac", "0.5x", "--frac expects a finite number, got '0.5x'"},
        {"--mode", "pms",
         "--mode expects one of NP\\|PS\\|MS\\|PMS, got 'pms'"},
        {"--degrees", "1,,2", "--degrees expects a comma list, each an "
                              "integer in \\[1, 4\\], got '1,,2'"},
        {"--degrees", "1,5", "--degrees expects .*, got '1,5'"},
        {"--degrees", "2,", "--degrees expects .*, got '2,'"},
        {"--kinds", "asd,xx", "--kinds expects a comma list, each one of "
                              "asd\\|nextline.*, got 'asd,xx'"},
        {"--frames", "off,0", "--frames expects a comma list, each 'off' "
                              "or an integer .*, got 'off,0'"},
        {"--frames", "none", "--frames expects .*, got 'none'"},
        {"--bench", "", "--bench expects a non-empty value, got ''"},
        {"--out", "", "--out expects a non-empty value, got ''"},
        {"--phys-mb", "99999999999999999999",
         "--phys-mb expects an integer in \\[0, 17592186044415\\], "
         "got '99999999999999999999'"},
        {"--phys-mb", "17592186044416",
         "--phys-mb expects .*, got '17592186044416'"},
    };
    for (const Case &c : cases) {
        FlagTargets t;
        EXPECT_EXIT(runFlags(t.flags(), {c.flag, c.text}),
                    ::testing::ExitedWithCode(1), c.message)
            << c.flag << " " << c.text;
    }
}

TEST(FlagsDeathTest, UnknownFlagAndMissingValueAreRejected)
{
    FlagTargets t;
    EXPECT_EXIT(runFlags(t.flags(), {"--frob"}),
                ::testing::ExitedWithCode(1), "unknown flag --frob");
    EXPECT_EXIT(runFlags(t.flags(), {"csv"}),
                ::testing::ExitedWithCode(1), "unknown flag csv");
    EXPECT_EXIT(runFlags(t.flags(), {"--csv", "--buffer"}),
                ::testing::ExitedWithCode(1),
                "missing value after --buffer");
}

TEST(FlagsDeathTest, HelpPrintsTheTableAndExitsZero)
{
    FlagTargets t;
    EXPECT_EXIT(runFlags(t.flags(), {"--buffer", "8", "--help"}),
                ::testing::ExitedWithCode(0), "");
}

TEST(Flags, UsageListsEveryFlagWithEnumChoices)
{
    FlagTargets t;
    const std::string usage = flagUsage("usage: prog", t.flags());
    EXPECT_EQ(usage.rfind("usage: prog\n", 0), 0u);
    EXPECT_NE(usage.find("\n  --buffer N             prefetch buffer "
                         "lines\n"),
              std::string::npos);
    EXPECT_NE(usage.find("\n  --mode NP|PS|MS|PMS    prefetch "
                         "configuration\n"),
              std::string::npos);
    // A long name and metavar push the help onto the next line.
    EXPECT_NE(usage.find("\n  --kinds asd,nextline,p5,ghb,stride,dspatch,"
                         "perceptron\n                         memory-side "
                         "kinds\n"),
              std::string::npos);
    EXPECT_NE(usage.find("\n  --frames off,N "), std::string::npos);
    EXPECT_NE(usage.find("\n  --csv  "), std::string::npos);
    EXPECT_NE(usage.find("\n  --out DIR "), std::string::npos);
}

TEST(Flags, UsageWrapsLongHelpAtWordBoundaries)
{
    const std::vector<Flag> flags = {
        {"--x", "", std::string(30, 'a') + " " + std::string(30, 'b'),
         [](const std::string &) {}},
    };
    EXPECT_EQ(flagUsage("u", flags),
              "u\n  --x                    " + std::string(30, 'a') +
                  "\n                         " + std::string(30, 'b') +
                  "\n");
}

// --- enum name tables --------------------------------------------------

/**
 * Every value of @p E with its spelling, as the tables must give it
 * (these strings reach job ids and JSON records). Each value must
 * round-trip and the table must hold nothing else.
 */
template <typename E>
void
expectNames(std::vector<EnumName<E>> expected,
            std::optional<E> (*parse)(const std::string &))
{
    EXPECT_EQ(nameTable(E{}).size(), expected.size());
    for (const EnumName<E> &entry : expected) {
        const std::string name(entry.name);
        EXPECT_EQ(toString(entry.value), name);
        EXPECT_EQ(parse(name), entry.value) << name;
        EXPECT_EQ(parse(toString(entry.value)), entry.value) << name;
    }
    EXPECT_FALSE(parse(""));
    EXPECT_FALSE(parse("bogus"));
}

TEST(EnumNames, EveryValueRoundTripsWithTodaysSpelling)
{
    expectNames<PrefetchMode>({{PrefetchMode::NP, "NP"},
                               {PrefetchMode::PS, "PS"},
                               {PrefetchMode::MS, "MS"},
                               {PrefetchMode::PMS, "PMS"}},
                              parsePrefetchMode);
    expectNames<McPrefetcherKind>(
        {{McPrefetcherKind::Asd, "asd"},
         {McPrefetcherKind::NextLine, "nextline"},
         {McPrefetcherKind::P5Style, "p5"},
         {McPrefetcherKind::Ghb, "ghb"},
         {McPrefetcherKind::Stride, "stride"},
         {McPrefetcherKind::Dspatch, "dspatch"},
         {McPrefetcherKind::Perceptron, "perceptron"}},
        parseMcPrefetcherKind);
    expectNames<PsKind>({{PsKind::Power5, "power5"}, {PsKind::Asd, "asd"}},
                        parsePsKind);
    expectNames<SchedulerKind>({{SchedulerKind::InOrder, "inorder"},
                                {SchedulerKind::Memoryless, "memoryless"},
                                {SchedulerKind::Ahb, "ahb"},
                                {SchedulerKind::FrFcfs, "frfcfs"}},
                               parseSchedulerKind);
    expectNames<FrameAllocPolicy>(
        {{FrameAllocPolicy::Identity, "identity"},
         {FrameAllocPolicy::Sequential, "seq"},
         {FrameAllocPolicy::RandomShuffle, "random"},
         {FrameAllocPolicy::HugePage, "huge"}},
        parseFrameAllocPolicy);
    expectNames<PageWalkerKind>({{PageWalkerKind::Radix, "radix"},
                                 {PageWalkerKind::Hashed, "hashed"}},
                                parsePageWalkerKind);
}

TEST(EnumNames, SpellingsAreCaseSensitive)
{
    EXPECT_FALSE(parsePrefetchMode("pms"));
    EXPECT_FALSE(parseMcPrefetcherKind("ASD"));
    EXPECT_FALSE(parseSchedulerKind("AHB"));
}

} // namespace
} // namespace asd
