#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "support/hash.hpp"
#include "support/log.hpp"
#include "support/sha256.hpp"
#include "support/memtrack.hpp"
#include "support/parallel.hpp"
#include "support/result.hpp"
#include "support/strings.hpp"

namespace es = extractocol::strings;
namespace xlog = extractocol::log;
using extractocol::Error;
using extractocol::Result;
using extractocol::SplitMix64;
using extractocol::Status;

TEST(Strings, SplitBasic) {
    auto parts = es::split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "");
}

TEST(Strings, SplitSingleField) {
    auto parts = es::split("abc", ',');
    ASSERT_EQ(parts.size(), 1u);
    EXPECT_EQ(parts[0], "abc");
}

TEST(Strings, SplitEmptyInput) {
    auto parts = es::split("", ',');
    ASSERT_EQ(parts.size(), 1u);
    EXPECT_EQ(parts[0], "");
}

TEST(Strings, SplitNonempty) {
    auto parts = es::split_nonempty("/a//b/", '/');
    ASSERT_EQ(parts.size(), 2u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[1], "b");
}

TEST(Strings, JoinRoundTrip) {
    std::vector<std::string> parts = {"x", "y", "z"};
    EXPECT_EQ(es::join(parts, "&"), "x&y&z");
    EXPECT_EQ(es::join({}, "&"), "");
}

TEST(Strings, Trim) {
    EXPECT_EQ(es::trim("  hi\t\n"), "hi");
    EXPECT_EQ(es::trim(""), "");
    EXPECT_EQ(es::trim(" \t "), "");
}

TEST(Strings, StartsEndsContains) {
    EXPECT_TRUE(es::starts_with("http://x", "http://"));
    EXPECT_FALSE(es::starts_with("ht", "http://"));
    EXPECT_TRUE(es::ends_with("file.json", ".json"));
    EXPECT_FALSE(es::ends_with("x", ".json"));
    EXPECT_TRUE(es::contains("a=1&b=2", "&b="));
}

TEST(Strings, ReplaceAll) {
    EXPECT_EQ(es::replace_all("a.b.c", ".", "/"), "a/b/c");
    EXPECT_EQ(es::replace_all("aaa", "aa", "b"), "ba");
    EXPECT_EQ(es::replace_all("x", "", "y"), "x");
}

TEST(Strings, CommonPrefixLen) {
    EXPECT_EQ(es::common_prefix_len("http://a", "http://b"), 7u);
    EXPECT_EQ(es::common_prefix_len("", "x"), 0u);
    EXPECT_EQ(es::common_prefix_len("same", "same"), 4u);
}

TEST(Strings, IsAllDigits) {
    EXPECT_TRUE(es::is_all_digits("0123"));
    EXPECT_FALSE(es::is_all_digits(""));
    EXPECT_FALSE(es::is_all_digits("12a"));
}

TEST(Strings, PercentEncodeDecode) {
    EXPECT_EQ(es::percent_encode("a b&c"), "a%20b%26c");
    EXPECT_EQ(es::percent_decode("a%20b%26c"), "a b&c");
    EXPECT_EQ(es::percent_decode(es::percent_encode("key=val ue/?")), "key=val ue/?");
    // Invalid escapes pass through.
    EXPECT_EQ(es::percent_decode("100%zz"), "100%zz");
}

TEST(Strings, ToLower) { EXPECT_EQ(es::to_lower("HtTp"), "http"); }

TEST(Result, ValueAndError) {
    Result<int> ok(42);
    ASSERT_TRUE(ok.ok());
    EXPECT_EQ(ok.value(), 42);

    Result<int> bad(Error("boom"));
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().message, "boom");
    EXPECT_EQ(bad.value_or(7), 7);
}

TEST(Result, ContextAnnotation) {
    Result<int> bad(Error("inner"));
    auto wrapped = std::move(bad).context("outer");
    EXPECT_EQ(wrapped.error().message, "outer: inner");
}

TEST(Status, Basics) {
    Status ok;
    EXPECT_TRUE(ok.ok());
    Status bad = Error("x");
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().message, "x");
}

TEST(Hash, Fnv1aStable) {
    // Known FNV-1a vectors.
    EXPECT_EQ(extractocol::fnv1a(""), 14695981039346656037ull);
    EXPECT_NE(extractocol::fnv1a("a"), extractocol::fnv1a("b"));
}

TEST(Hash, Sha256KnownVectors) {
    // FIPS 180-4 / NIST test vectors. The report cache keys entries by this
    // digest, so the implementation must match the standard exactly —
    // entries written by one build must be found by every other.
    EXPECT_EQ(extractocol::support::sha256_hex(""),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(extractocol::support::sha256_hex("abc"),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    EXPECT_EQ(extractocol::support::sha256_hex(
                  "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
    // One million 'a': exercises the multi-block + length-padding paths.
    EXPECT_EQ(extractocol::support::sha256_hex(std::string(1000000, 'a')),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
    EXPECT_EQ(extractocol::support::sha256_hex128(""),
              "e3b0c44298fc1c149afbf4c8996fb924");
    // Padding boundary cases: 55 bytes fits one final block, 56 forces two.
    EXPECT_EQ(extractocol::support::sha256_hex(std::string(55, 'x')).size(), 64u);
    EXPECT_NE(extractocol::support::sha256_hex(std::string(55, 'x')),
              extractocol::support::sha256_hex(std::string(56, 'x')));
}

TEST(Hash, Sha256PortablePathMatchesDispatch) {
    // On SHA-NI machines the dispatcher never exercises the portable
    // fallback, so pin it explicitly: both paths must produce identical
    // digests or caches written by one build would be invisible to another.
    const std::string inputs[] = {
        "", "abc", "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        std::string(55, 'x'), std::string(56, 'x'), std::string(1000000, 'a'),
    };
    for (const std::string& input : inputs) {
        EXPECT_EQ(extractocol::support::detail::sha256_portable(input),
                  extractocol::support::sha256(input))
            << "input length " << input.size();
    }
}

TEST(Hash, SplitMixDeterministic) {
    SplitMix64 a(1), b(1);
    for (int i = 0; i < 10; ++i) EXPECT_EQ(a.next(), b.next());
    SplitMix64 c(2);
    EXPECT_NE(SplitMix64(1).next(), c.next());
}

TEST(Hash, SplitMixSequencePinned) {
    // The exact raw stream for seed 42. The committed corpus and every
    // golden artifact derive from this generator; a change here silently
    // regenerates all of them, so the sequence is frozen by value.
    SplitMix64 r(42);
    const std::uint64_t expected[] = {
        13679457532755275413ull, 2949826092126892291ull,
        5139283748462763858ull, 6349198060258255764ull,
        701532786141963250ull,
    };
    for (std::uint64_t want : expected) EXPECT_EQ(r.next(), want);
}

TEST(Hash, NextBelowKeepsBiasedMappingFrozen) {
    // next_below is next() % bound — deliberately biased, deliberately
    // frozen (see hash.hpp). Pin the derived small-bound stream too.
    SplitMix64 r(42);
    const std::uint64_t expected[] = {3, 1, 8, 4, 0, 2, 5, 8};
    for (std::uint64_t want : expected) EXPECT_EQ(r.next_below(10), want);
}

TEST(Hash, NextBelowUnbiasedInRangeAndCoversAll) {
    SplitMix64 r(7);
    bool seen[5] = {};
    for (int i = 0; i < 200; ++i) {
        std::uint64_t v = r.next_below_unbiased(5);
        ASSERT_LT(v, 5u);
        seen[v] = true;
    }
    for (bool s : seen) EXPECT_TRUE(s);
    // bound 1 never rejects forever.
    EXPECT_EQ(r.next_below_unbiased(1), 0u);
}

TEST(Hash, StableHashAndCombineAreValueBased) {
    // The stability contract: hashes depend only on the input bytes — never
    // std::hash — so composite keys bucket identically on every platform.
    EXPECT_EQ(extractocol::fnv1a("Cls.method"), 5751672197268471958ull);
    EXPECT_EQ(extractocol::stable_hash(std::string("abc")),
              extractocol::stable_hash(std::string_view("abc")));

    std::size_t seed = 0;
    extractocol::hash_combine(seed, std::uint32_t{7});
    extractocol::hash_combine(seed, std::string_view{"field"});
    EXPECT_EQ(seed, 9285848708581328847ull);

    // Order sensitivity: combining is not commutative.
    std::size_t swapped = 0;
    extractocol::hash_combine(swapped, std::string_view{"field"});
    extractocol::hash_combine(swapped, std::uint32_t{7});
    EXPECT_NE(seed, swapped);
}

// A fixture that captures records and restores global logger state, so these
// tests cannot leak a sink or threshold into other tests.
class LogTest : public ::testing::Test {
protected:
    void SetUp() override {
        previous_sink_ = xlog::set_record_sink(
            [this](const xlog::LogRecord& r) { records_.push_back(r); });
        previous_threshold_ = xlog::threshold();
        xlog::set_threshold(xlog::Level::kDebug);
    }
    void TearDown() override {
        xlog::set_record_sink(previous_sink_);
        xlog::set_threshold(previous_threshold_);
    }

    std::vector<xlog::LogRecord> records_;
    xlog::RecordSink previous_sink_;
    xlog::Level previous_threshold_ = xlog::Level::kWarn;
};

TEST_F(LogTest, RecordStreamingAndFields) {
    xlog::warn().kv("phase", "slicing").kv("sites", 12) << "worklist " << 3;
    ASSERT_EQ(records_.size(), 1u);
    const auto& r = records_[0];
    EXPECT_EQ(r.level, xlog::Level::kWarn);
    EXPECT_EQ(r.message, "worklist 3");
    ASSERT_EQ(r.fields.size(), 2u);
    EXPECT_EQ(r.fields[0], (std::pair<std::string, std::string>{"phase", "slicing"}));
    EXPECT_EQ(r.fields[1], (std::pair<std::string, std::string>{"sites", "12"}));
}

TEST_F(LogTest, FormatQuotesAwkwardValues) {
    xlog::LogRecord r;
    r.message = "done";
    r.fields = {{"plain", "abc"}, {"spaced", "a b"}, {"quoted", "x\"y"}};
    std::string text = r.format();
    EXPECT_EQ(text, "done plain=abc spaced=\"a b\" quoted=\"x\\\"y\"");
}

TEST_F(LogTest, ThresholdFilters) {
    xlog::set_threshold(xlog::Level::kWarn);
    xlog::debug() << "dropped";
    xlog::info() << "dropped too";
    xlog::warn() << "kept";
    xlog::error() << "kept too";
    ASSERT_EQ(records_.size(), 2u);
    EXPECT_EQ(records_[0].message, "kept");
    EXPECT_EQ(records_[1].message, "kept too");
}

TEST_F(LogTest, SetSinkReturnsPrevious) {
    std::vector<std::string> captured;
    auto prev = xlog::set_record_sink(
        [&captured](const xlog::LogRecord& r) { captured.push_back(r.message); });
    xlog::info() << "to replacement";
    xlog::set_record_sink(prev);
    xlog::info() << "to original";
    ASSERT_EQ(captured.size(), 1u);
    EXPECT_EQ(captured[0], "to replacement");
    ASSERT_EQ(records_.size(), 1u);  // fixture sink got the post-restore record
    EXPECT_EQ(records_[0].message, "to original");
}

TEST_F(LogTest, RecordSinkSeesLevelAndFormattedFields) {
    std::vector<std::pair<xlog::Level, std::string>> flat;
    xlog::set_record_sink([&flat](const xlog::LogRecord& record) {
        flat.emplace_back(record.level, record.format());
    });
    xlog::error().kv("regex", "a+") << "compile failed";
    ASSERT_EQ(flat.size(), 1u);
    EXPECT_EQ(flat[0].first, xlog::Level::kError);
    // The formatted record carries the fields after the message.
    EXPECT_EQ(flat[0].second, "compile failed regex=a+");
}

TEST_F(LogTest, EmitPlainMessage) {
    xlog::emit(xlog::Level::kInfo, "plain");
    ASSERT_EQ(records_.size(), 1u);
    EXPECT_EQ(records_[0].message, "plain");
    EXPECT_TRUE(records_[0].fields.empty());
}

TEST(LogLevels, Names) {
    EXPECT_STREQ(xlog::level_name(xlog::Level::kDebug), "DEBUG");
    EXPECT_STREQ(xlog::level_name(xlog::Level::kInfo), "INFO");
    EXPECT_STREQ(xlog::level_name(xlog::Level::kWarn), "WARN");
    EXPECT_STREQ(xlog::level_name(xlog::Level::kError), "ERROR");
}

// ------------------------------------------------------------- memtrack --

namespace {

namespace memtrack = extractocol::support::memtrack;

// The hook is a plain function pointer, so the test observations go through
// file-scope atomics.
std::atomic<unsigned> g_hook_calls{0};
std::atomic<unsigned> g_hook_index_bits{0};

void record_worker_start(unsigned worker_index) {
    g_hook_calls.fetch_add(1, std::memory_order_relaxed);
    if (worker_index < 32) {
        g_hook_index_bits.fetch_or(1u << worker_index, std::memory_order_relaxed);
    }
}

}  // namespace

TEST(Memtrack, DisabledByDefault) {
    EXPECT_FALSE(memtrack::enabled());
    EXPECT_EQ(memtrack::live_bytes(), 0u);
    EXPECT_EQ(memtrack::peak_bytes(), 0u);
    EXPECT_EQ(memtrack::process_peak_bytes(), 0u);
}

TEST(Memtrack, TracksLiveAndPeak) {
    if (!memtrack::available()) GTEST_SKIP() << "no malloc_usable_size";
    memtrack::set_enabled(true);
    ASSERT_TRUE(memtrack::enabled());

    std::uint64_t base = memtrack::live_bytes();
    constexpr std::size_t kBlock = 1 << 20;
    {
        auto block = std::make_unique<char[]>(kBlock);
        block[0] = 1;  // keep the allocation observable
        EXPECT_GE(memtrack::live_bytes(), base + kBlock);
        EXPECT_GE(memtrack::peak_bytes(), base + kBlock);
    }
    // Freed: live drops back, both watermarks keep the high-water mark.
    EXPECT_LT(memtrack::live_bytes(), base + kBlock);
    EXPECT_GE(memtrack::peak_bytes(), base + kBlock);
    EXPECT_GE(memtrack::process_peak_bytes(), base + kBlock);

    // reset_peak rebases the *window* watermark only.
    memtrack::reset_peak();
    EXPECT_LT(memtrack::peak_bytes(), base + kBlock);
    EXPECT_GE(memtrack::process_peak_bytes(), base + kBlock);

    memtrack::set_enabled(false);
    EXPECT_FALSE(memtrack::enabled());
}

TEST(Memtrack, WindowAttributionAfterReset) {
    if (!memtrack::available()) GTEST_SKIP() << "no malloc_usable_size";
    memtrack::set_enabled(true);

    // The analyze_batch attribution pattern: rebase, record base, allocate,
    // read peak - base as the window's contribution.
    memtrack::reset_peak();
    std::uint64_t base = memtrack::live_bytes();
    constexpr std::size_t kBlock = 1 << 19;
    {
        auto block = std::make_unique<char[]>(kBlock);
        block[0] = 1;
    }
    std::uint64_t peak = memtrack::peak_bytes();
    EXPECT_GE(peak - base, kBlock);

    memtrack::set_enabled(false);
}

TEST(Memtrack, AlignedAllocationsBalance) {
    if (!memtrack::available()) GTEST_SKIP() << "no malloc_usable_size";
    memtrack::set_enabled(true);
    std::uint64_t base = memtrack::live_bytes();
    {
        struct alignas(64) Wide {
            char data[256];
        };
        auto wide = std::make_unique<Wide>();
        wide->data[0] = 1;
        EXPECT_GE(memtrack::live_bytes(), base + sizeof(Wide));
    }
    // The aligned delete path must free exactly what the aligned new
    // charged, or live_bytes drifts with every aligned object.
    EXPECT_LE(memtrack::live_bytes(), base + 64);
    memtrack::set_enabled(false);
}

TEST(Parallel, ThreadStartHookRunsOncePerWorker) {
    using extractocol::support::ThreadPool;
    auto* previous = extractocol::support::thread_start_hook();
    g_hook_calls.store(0);
    g_hook_index_bits.store(0);
    extractocol::support::set_thread_start_hook(&record_worker_start);
    {
        ThreadPool pool(3);
        pool.for_each_index(8, [](std::size_t) {});
    }
    extractocol::support::set_thread_start_hook(previous);
    EXPECT_EQ(g_hook_calls.load(), 3u);
    EXPECT_EQ(g_hook_index_bits.load(), 0b111u);  // indices 0,1,2 each seen
}
