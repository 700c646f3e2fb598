#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "cache/cache.hpp"
#include "core/analyzer.hpp"
#include "corpus/corpus.hpp"
#include "support/hash.hpp"
#include "text/json.hpp"
#include "text/regex.hpp"
#include "text/uri.hpp"
#include "text/xml.hpp"
#include "xapk/serialize.hpp"

using namespace extractocol::text;

namespace {

std::string repeat(std::string_view piece, std::size_t times) {
    std::string out;
    out.reserve(piece.size() * times);
    for (std::size_t i = 0; i < times; ++i) out += piece;
    return out;
}

/// `depth` nested arrays: [[...[]...]].
std::string nested_arrays(std::size_t depth) {
    return repeat("[", depth) + repeat("]", depth);
}

/// `depth` nested objects: {"a":{"a":...{"a":1}...}}.
std::string nested_objects(std::size_t depth) {
    return repeat("{\"a\":", depth) + "1" + repeat("}", depth);
}

/// `depth` nested elements: <a><a>...</a></a>.
std::string nested_elements(std::size_t depth) {
    return repeat("<a>", depth) + repeat("</a>", depth);
}

/// Arrays/objects nesting of a parsed document (a scalar is 0).
std::size_t depth_of(const Json& v) {
    std::size_t inner = 0;
    if (v.is_array()) {
        for (const auto& item : v.items()) inner = std::max(inner, depth_of(item));
    } else if (v.is_object()) {
        for (const auto& [key, value] : v.members()) inner = std::max(inner, depth_of(value));
    } else {
        return 0;
    }
    return inner + 1;
}

}  // namespace

// ----------------------------------------------------------------- JSON --

TEST(Json, ParseScalars) {
    EXPECT_TRUE(parse_json("null").value().is_null());
    EXPECT_EQ(parse_json("true").value().as_bool(), true);
    EXPECT_EQ(parse_json("-17").value().as_int(), -17);
    EXPECT_DOUBLE_EQ(parse_json("2.5").value().as_double(), 2.5);
    EXPECT_EQ(parse_json("\"hi\"").value().as_string(), "hi");
}

TEST(Json, ParseNested) {
    auto doc = parse_json(R"({"a":[1,{"b":"x"}],"c":{"d":null}})");
    ASSERT_TRUE(doc.ok());
    const Json& v = doc.value();
    ASSERT_TRUE(v.is_object());
    const Json* a = v.find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(a->is_array());
    EXPECT_EQ(a->items()[0].as_int(), 1);
    EXPECT_EQ(a->items()[1].find("b")->as_string(), "x");
}

TEST(Json, MemberOrderPreserved) {
    auto doc = parse_json(R"({"z":1,"a":2,"m":3})").value();
    ASSERT_EQ(doc.members().size(), 3u);
    EXPECT_EQ(doc.members()[0].first, "z");
    EXPECT_EQ(doc.members()[2].first, "m");
}

TEST(Json, RoundTrip) {
    const char* text = R"({"key":"val","n":5,"arr":[true,null],"o":{"x":1.5}})";
    auto doc = parse_json(text).value();
    auto again = parse_json(doc.dump()).value();
    EXPECT_EQ(doc, again);
}

TEST(Json, EscapesRoundTrip) {
    Json v(std::string("quote\" slash\\ nl\n tab\t"));
    auto again = parse_json(v.dump());
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again.value().as_string(), v.as_string());
}

TEST(Json, UnicodeEscape) {
    auto doc = parse_json(R"("aAb")");
    ASSERT_TRUE(doc.ok());
    EXPECT_EQ(doc.value().as_string(), "aAb");
}

TEST(Json, Errors) {
    EXPECT_FALSE(parse_json("{").ok());
    EXPECT_FALSE(parse_json("[1,]").ok());
    EXPECT_FALSE(parse_json("{\"a\" 1}").ok());
    EXPECT_FALSE(parse_json("12 34").ok());
    EXPECT_FALSE(parse_json("'single'").ok());
    EXPECT_FALSE(parse_json("").ok());
}

TEST(Json, NestingDepthIsBounded) {
    // Hostile depth is an error, not a stack overflow.
    EXPECT_FALSE(parse_json(repeat("[", 1'000'000)).ok());
    EXPECT_FALSE(parse_json(repeat("{\"a\":", 1'000'000)).ok());
    auto too_deep = parse_json(nested_arrays(kMaxJsonDepth + 1));
    ASSERT_FALSE(too_deep.ok());
    EXPECT_NE(too_deep.error().message.find("nesting"), std::string::npos);
    EXPECT_FALSE(parse_json(nested_objects(kMaxJsonDepth + 1)).ok());
    // Documents exactly at the limit parse.
    auto arrays = parse_json(nested_arrays(kMaxJsonDepth));
    ASSERT_TRUE(arrays.ok()) << arrays.error().message;
    EXPECT_EQ(depth_of(arrays.value()), kMaxJsonDepth);
    auto objects = parse_json(nested_objects(kMaxJsonDepth));
    ASSERT_TRUE(objects.ok()) << objects.error().message;
    EXPECT_EQ(depth_of(objects.value()), kMaxJsonDepth);
    // Depth counts nesting, not containers: many siblings are fine.
    EXPECT_TRUE(parse_json("[" + repeat("[],", 10'000) + "[]]").ok());
}

TEST(Json, EveryCorpusReportAndCacheEntryParses) {
    // The depth limit sits far above real documents: every corpus app's
    // public report and cache entry parses and nests well under it.
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() /
                         ("xt_text_test_cache_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    extractocol::cache::CacheOptions options;
    options.dir = dir.string();
    extractocol::cache::ReportCache cache(options);
    std::vector<std::string> apps = extractocol::corpus::open_source_apps();
    for (const auto& n : extractocol::corpus::closed_source_apps()) apps.push_back(n);
    extractocol::core::Analyzer analyzer;
    for (const auto& name : apps) {
        SCOPED_TRACE(name);
        std::string text = extractocol::xapk::write_xapk(
            extractocol::corpus::build_app(name).program);
        auto report = analyzer.analyze_xapk(text);
        ASSERT_TRUE(report.ok()) << report.error().message;
        auto rendered = parse_json(report.value().to_json().dump());
        ASSERT_TRUE(rendered.ok()) << rendered.error().message;
        EXPECT_LT(depth_of(rendered.value()), kMaxJsonDepth / 16);
        ASSERT_TRUE(cache.store(extractocol::cache::ReportCache::key_for(text),
                                report.value()));
    }
    std::size_t entries = 0;
    for (const auto& file : fs::directory_iterator(dir)) {
        if (file.path().extension() != ".xce") continue;  // cache entries only
        SCOPED_TRACE(file.path().string());
        std::ifstream in(file.path(), std::ios::binary);
        std::stringstream raw;
        raw << in.rdbuf();
        const std::string entry = raw.str();
        // Header line, then the codec section (`bytes=`) and the rendered
        // report (the rest); each is one JSON document.
        const std::size_t header_end = entry.find('\n');
        ASSERT_NE(header_end, std::string::npos);
        const std::string header = entry.substr(0, header_end);
        const std::size_t bytes_at = header.find(" bytes=");
        ASSERT_NE(bytes_at, std::string::npos);
        const std::size_t codec_bytes = std::stoul(header.substr(bytes_at + 7));
        const std::string_view body = std::string_view(entry).substr(header_end + 1);
        ASSERT_LE(codec_bytes, body.size());
        for (std::string_view section : {body.substr(0, codec_bytes), body.substr(codec_bytes)}) {
            auto payload = parse_json(section);
            ASSERT_TRUE(payload.ok()) << payload.error().message;
            EXPECT_LT(depth_of(payload.value()), kMaxJsonDepth / 16);
        }
        ++entries;
    }
    EXPECT_EQ(entries, apps.size());
    fs::remove_all(dir);
}

TEST(Json, EscapeThenParseRoundTripsEveryByte) {
    // json_escape and parse_string copy whole runs between escapes; the
    // output must equal the byte-at-a-time encoding they replaced, and
    // escape-then-parse must give the input back, for every byte value and
    // for runs that end exactly at an escape.
    auto reference_escape = [](std::string_view in) {
        std::string out;
        for (unsigned char c : in) {
            switch (c) {
                case '"': out += "\\\""; break;
                case '\\': out += "\\\\"; break;
                case '\b': out += "\\b"; break;
                case '\f': out += "\\f"; break;
                case '\n': out += "\\n"; break;
                case '\r': out += "\\r"; break;
                case '\t': out += "\\t"; break;
                default:
                    if (c < 0x20) {
                        char buf[8];
                        std::snprintf(buf, sizeof buf, "\\u%04x", c);
                        out += buf;
                    } else {
                        out.push_back(static_cast<char>(c));
                    }
            }
        }
        return out;
    };
    std::vector<std::string> cases = {"", "plain", "\"", "\\", "run\"", "run\\",
                                      "run\n", "\x01run", "a\x1f", "\"\"\\\\\n\n"};
    std::string all_bytes;
    for (int c = 0; c < 256; ++c) all_bytes.push_back(static_cast<char>(c));
    cases.push_back(all_bytes);
    extractocol::SplitMix64 rng(0x6a50);
    for (int i = 0; i < 2000; ++i) {
        std::string random(rng.next_below(64), '\0');
        for (char& c : random) c = static_cast<char>(rng.next_below(256));
        cases.push_back(std::move(random));
    }
    for (const auto& name : extractocol::corpus::open_source_apps()) {
        cases.push_back(
            extractocol::xapk::write_xapk(extractocol::corpus::build_app(name).program));
    }
    for (const auto& name : extractocol::corpus::closed_source_apps()) {
        cases.push_back(
            extractocol::xapk::write_xapk(extractocol::corpus::build_app(name).program));
    }
    for (std::size_t i = 0; i < cases.size(); ++i) {
        SCOPED_TRACE("case " + std::to_string(i));
        const std::string escaped = json_escape(cases[i]);
        ASSERT_EQ(escaped, reference_escape(cases[i]));
        ASSERT_EQ(Json(cases[i]).dump(), "\"" + escaped + "\"");
        auto parsed = parse_json("\"" + escaped + "\"");
        ASSERT_TRUE(parsed.ok()) << parsed.error().message;
        ASSERT_EQ(parsed.value().as_string(), cases[i]);
    }
    // The string errors keep their messages.
    EXPECT_EQ(parse_json("\"abc").error().message, "unterminated string");
    EXPECT_EQ(parse_json("\"abc\\").error().message, "unterminated escape");
    EXPECT_EQ(parse_json("\"a\\qb\"").error().message, "unknown escape");
    EXPECT_EQ(parse_json("\"\\u12\"").error().message, "short \\u escape");
    EXPECT_EQ(parse_json("\"\\u12zz\"").error().message, "bad \\u escape");
}

TEST(Json, SetAndFind) {
    Json obj = Json::object();
    obj.set("a", 1);
    obj.set("a", 2);  // replaces
    ASSERT_EQ(obj.members().size(), 1u);
    EXPECT_EQ(obj.find("a")->as_int(), 2);
    EXPECT_EQ(obj.find("zzz"), nullptr);
}

// ------------------------------------------------------------------ XML --

TEST(Xml, ParseBasic) {
    auto doc = parse_xml("<root a=\"1\"><child>text</child><child/></root>");
    ASSERT_TRUE(doc.ok());
    const XmlElement& root = *doc.value();
    EXPECT_EQ(root.name, "root");
    ASSERT_NE(root.attribute("a"), nullptr);
    EXPECT_EQ(*root.attribute("a"), "1");
    EXPECT_EQ(root.children.size(), 2u);
    EXPECT_EQ(root.children[0]->text, "text");
    EXPECT_EQ(root.children_named("child").size(), 2u);
}

TEST(Xml, PrologAndComments) {
    auto doc = parse_xml("<?xml version=\"1.0\"?><!-- hi --><r><!-- inner --><c/></r>");
    ASSERT_TRUE(doc.ok());
    EXPECT_EQ(doc.value()->children.size(), 1u);
}

TEST(Xml, Entities) {
    auto doc = parse_xml("<r a=\"x&amp;y\">1 &lt; 2</r>");
    ASSERT_TRUE(doc.ok());
    EXPECT_EQ(*doc.value()->attribute("a"), "x&y");
    EXPECT_EQ(doc.value()->text, "1 < 2");
}

TEST(Xml, RoundTrip) {
    const char* text = "<ad><url>http://x/v.mp4</url><size w=\"640\" h=\"480\"/></ad>";
    auto doc = std::move(parse_xml(text)).take();
    auto again = parse_xml(doc->dump());
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(doc->dump(), again.value()->dump());
}

TEST(Xml, Clone) {
    auto doc = std::move(parse_xml("<a><b x=\"1\">t</b></a>")).take();
    auto copy = doc->clone();
    EXPECT_EQ(doc->dump(), copy->dump());
}

TEST(Xml, NestingDepthIsBounded) {
    EXPECT_FALSE(parse_xml(repeat("<a>", 1'000'000)).ok());
    EXPECT_FALSE(parse_xml(nested_elements(1'000'000)).ok());
    auto too_deep = parse_xml(nested_elements(kMaxXmlDepth + 1));
    ASSERT_FALSE(too_deep.ok());
    EXPECT_NE(too_deep.error().message.find("nesting"), std::string::npos);
    auto at_limit = parse_xml(nested_elements(kMaxXmlDepth));
    ASSERT_TRUE(at_limit.ok()) << at_limit.error().message;
    std::size_t depth = 0;
    for (const XmlElement* e = at_limit.value().get(); e != nullptr;
         e = e->children.empty() ? nullptr : e->children.front().get()) {
        ++depth;
    }
    EXPECT_EQ(depth, kMaxXmlDepth);
}

TEST(Xml, Errors) {
    EXPECT_FALSE(parse_xml("<a><b></a></b>").ok());
    EXPECT_FALSE(parse_xml("<a").ok());
    EXPECT_FALSE(parse_xml("plain").ok());
    EXPECT_FALSE(parse_xml("<a></a><b></b>").ok());
}

// ------------------------------------------------------------------ URI --

TEST(Uri, ParseFull) {
    auto uri = parse_uri("https://api.example.com:8443/v1/talks/99.json?a=1&b=two#frag");
    ASSERT_TRUE(uri.ok());
    const Uri& u = uri.value();
    EXPECT_EQ(u.scheme, "https");
    EXPECT_EQ(u.host, "api.example.com");
    ASSERT_TRUE(u.port.has_value());
    EXPECT_EQ(*u.port, 8443);
    EXPECT_EQ(u.path, "/v1/talks/99.json");
    ASSERT_EQ(u.query.size(), 2u);
    EXPECT_EQ(u.query[0].key, "a");
    EXPECT_EQ(*u.query_value("b"), "two");
    EXPECT_EQ(u.fragment, "frag");
    auto segments = u.path_segments();
    ASSERT_EQ(segments.size(), 3u);
    EXPECT_EQ(segments[2], "99.json");
}

TEST(Uri, Minimal) {
    auto uri = parse_uri("http://host").value();
    EXPECT_EQ(uri.path, "/");
    EXPECT_TRUE(uri.query.empty());
    EXPECT_EQ(uri.to_string(), "http://host/");
}

TEST(Uri, QueryDecoding) {
    auto uri = parse_uri("http://h/p?q=a%20b&empty=&noval").value();
    EXPECT_EQ(*uri.query_value("q"), "a b");
    EXPECT_EQ(*uri.query_value("empty"), "");
    EXPECT_EQ(*uri.query_value("noval"), "");
}

TEST(Uri, RoundTrip) {
    auto uri = parse_uri("https://h:99/a/b?x=1%202&y=z").value();
    auto again = parse_uri(uri.to_string()).value();
    EXPECT_EQ(uri, again);
}

TEST(Uri, Errors) {
    EXPECT_FALSE(parse_uri("ftp://host/x").ok());
    EXPECT_FALSE(parse_uri("nota uri").ok());
    EXPECT_FALSE(parse_uri("http://").ok());
    EXPECT_FALSE(parse_uri("http://host:notaport/").ok());
}

TEST(Uri, UserinfoStripped) {
    // RFC 3986 authority = [userinfo "@"] host [":" port]. Credentials are
    // dropped; they must poison neither the host nor the port parse.
    auto uri = parse_uri("http://user:pw@api.example.com:8080/v1?a=1").value();
    EXPECT_EQ(uri.host, "api.example.com");
    ASSERT_TRUE(uri.port.has_value());
    EXPECT_EQ(*uri.port, 8080);
    EXPECT_EQ(uri.path, "/v1");

    EXPECT_EQ(parse_uri("https://alice@host/p").value().host, "host");
    // '@' may legally occur inside userinfo; the host starts after the last.
    EXPECT_EQ(parse_uri("http://a@b@host/p").value().host, "host");
    // Userinfo with nothing after it is still a missing host.
    EXPECT_FALSE(parse_uri("http://user:pw@").ok());
    EXPECT_FALSE(parse_uri("http://user:pw@/path").ok());
}

TEST(Uri, UserinfoRoundTrip) {
    // to_string() never re-emits credentials; re-parsing its output is
    // stable (the round trip converges after the first parse).
    auto uri = parse_uri("http://user:pw@h:99/a/b?x=1%202&y=z#f").value();
    EXPECT_EQ(uri.to_string(), "http://h:99/a/b?x=1%202&y=z#f");
    auto again = parse_uri(uri.to_string()).value();
    EXPECT_EQ(uri, again);
}

TEST(Uri, HostCaseNormalized) {
    EXPECT_EQ(parse_uri("HTTP://ExAmPlE.com/P").value().host, "example.com");
    EXPECT_EQ(parse_uri("HTTP://ExAmPlE.com/P").value().path, "/P");
}

// ---------------------------------------------------------------- Regex --

TEST(Regex, LiteralMatch) {
    auto re = Regex::compile("abc").value();
    EXPECT_TRUE(re.full_match("abc"));
    EXPECT_FALSE(re.full_match("ab"));
    EXPECT_FALSE(re.full_match("abcd"));
}

TEST(Regex, DotStar) {
    auto re = Regex::compile("a.*z").value();
    EXPECT_TRUE(re.full_match("az"));
    EXPECT_TRUE(re.full_match("a-lots-of-stuff-z"));
    EXPECT_FALSE(re.full_match("a-lots"));
}

TEST(Regex, Classes) {
    auto re = Regex::compile("[0-9]+").value();
    EXPECT_TRUE(re.full_match("42"));
    EXPECT_FALSE(re.full_match(""));
    EXPECT_FALSE(re.full_match("4a"));
    auto neg = Regex::compile("[^/]+").value();
    EXPECT_TRUE(neg.full_match("abc"));
    EXPECT_FALSE(neg.full_match("a/b"));
}

TEST(Regex, Alternation) {
    auto re = Regex::compile("(save|unsave)").value();
    EXPECT_TRUE(re.full_match("save"));
    EXPECT_TRUE(re.full_match("unsave"));
    EXPECT_FALSE(re.full_match("saved"));
}

TEST(Regex, QuestAndPlus) {
    auto re = Regex::compile("ab?c+").value();
    EXPECT_TRUE(re.full_match("ac"));
    EXPECT_TRUE(re.full_match("abccc"));
    EXPECT_FALSE(re.full_match("abb"));
}

TEST(Regex, EscapedMeta) {
    auto re = Regex::compile("a\\.b\\*").value();
    EXPECT_TRUE(re.full_match("a.b*"));
    EXPECT_FALSE(re.full_match("axb*"));
}

TEST(Regex, PaperStyleUriSignature) {
    auto re = Regex::compile(
                  "http://www\\.reddit\\.com/search/\\.json\\?q=(.*)&sort=(.*)")
                  .value();
    EXPECT_TRUE(re.full_match("http://www.reddit.com/search/.json?q=cats&sort=top"));
    EXPECT_FALSE(re.full_match("http://www.reddit.com/r/pics/.json"));
}

TEST(Regex, Groups) {
    auto re = Regex::compile("(id=)(.*)(&uh=)(.*)").value();
    auto m = re.full_match_info("id=t3_abc&uh=hash123");
    ASSERT_TRUE(m.has_value());
    ASSERT_EQ(m->groups.size(), 5u);
    auto group_text = [&](int g, std::string_view subject) {
        auto [begin, end] = m->groups[static_cast<std::size_t>(g)];
        return std::string(subject.substr(begin, end - begin));
    };
    EXPECT_EQ(group_text(2, "id=t3_abc&uh=hash123"), "t3_abc");
    EXPECT_EQ(group_text(4, "id=t3_abc&uh=hash123"), "hash123");
}

TEST(Regex, ByteAccounting) {
    auto re = Regex::compile("id=(.*)&uh=(.*)").value();
    auto m = re.full_match_info("id=abc&uh=xy");
    ASSERT_TRUE(m.has_value());
    // Constants: "id=" (3) + "&uh=" (4) = 7; wildcards: "abc" + "xy" = 5.
    EXPECT_EQ(m->accounting.literal_bytes, 7u);
    EXPECT_EQ(m->accounting.wildcard_bytes, 5u);
}

TEST(Regex, Search) {
    auto re = Regex::compile("talks/[0-9]+").value();
    auto m = re.search("GET https://x/v1/talks/42/ad.json");
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->begin, 17u);
    EXPECT_EQ(m->end, 25u);
    EXPECT_FALSE(Regex::compile("zzz").value().search("abc").has_value());
}

TEST(Regex, StarOnGroup) {
    auto re = Regex::compile("a(bc)*d").value();
    EXPECT_TRUE(re.full_match("ad"));
    EXPECT_TRUE(re.full_match("abcbcd"));
    EXPECT_FALSE(re.full_match("abcbd"));
}

TEST(Regex, EmptyPattern) {
    auto re = Regex::compile("").value();
    EXPECT_TRUE(re.full_match(""));
    EXPECT_FALSE(re.full_match("x"));
}

TEST(Regex, Escape) {
    std::string escaped = Regex::escape("a.b?c(d)|e*");
    auto re = Regex::compile(escaped).value();
    EXPECT_TRUE(re.full_match("a.b?c(d)|e*"));
    EXPECT_FALSE(re.full_match("aXb?c(d)|e*"));
}

TEST(Regex, CompileErrors) {
    EXPECT_FALSE(Regex::compile("(").ok());
    EXPECT_FALSE(Regex::compile("a)").ok());
    EXPECT_FALSE(Regex::compile("[a").ok());
    EXPECT_FALSE(Regex::compile("*a").ok());
    EXPECT_FALSE(Regex::compile("a\\").ok());
}

TEST(Regex, NoCatastrophicBacktracking) {
    // (a*)*b against aaaa...a — exponential for backtrackers, linear here.
    auto re = Regex::compile("(a*)*b").value();
    std::string subject(2000, 'a');
    EXPECT_FALSE(re.full_match(subject));
}
