// Network-spec parser tests: happy paths, round-tripping the zoo, and a
// battery of malformed inputs with line-accurate diagnostics.
#include <gtest/gtest.h>

#include <fstream>

#include "cbrain/nn/spec_parser.hpp"
#include "cbrain/nn/zoo.hpp"

namespace cbrain {
namespace {

constexpr const char* kAlexTop = R"(
# AlexNet front end
network alex_front
input data 3 227 227
conv conv1 dout=96 k=11 s=4
lrn norm1 size=5
pool pool1 max k=3 s=2
conv conv2 dout=256 k=5 s=1 pad=2 groups=2
)";

TEST(SpecParser, ParsesLinearNetwork) {
  const auto r = parse_network_spec(kAlexTop);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  const Network& net = r.value();
  EXPECT_EQ(net.name(), "alex_front");
  EXPECT_EQ(net.size(), 5);
  EXPECT_EQ(net.layer(1).out_dims, (MapDims{96, 55, 55}));
  EXPECT_EQ(net.layer(4).out_dims, (MapDims{256, 27, 27}));
  EXPECT_EQ(net.layer(4).conv().groups, 2);
}

TEST(SpecParser, BranchesAndConcat) {
  const auto r = parse_network_spec(R"(
network branchy
input data 4 8 8
conv a dout=4 k=1
conv b from=data dout=6 k=3 pad=1
concat joined inputs=a,b
fc out dout=5 relu=0
softmax prob
)");
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  const Network& net = r.value();
  EXPECT_EQ(net.layer(3).kind, LayerKind::kConcat);
  EXPECT_EQ(net.layer(3).out_dims.d, 10);
  EXPECT_FALSE(net.layer(4).fc().relu);
}

TEST(SpecParser, ZooRoundTripsThroughSpecText) {
  for (const Network& net :
       {zoo::alexnet(), zoo::vgg16(), zoo::nin(), zoo::googlenet(),
        zoo::mini_inception(), zoo::lenet5(), zoo::zfnet(),
        zoo::squeezenet()}) {
    const std::string spec = network_to_spec(net);
    const auto r = parse_network_spec(spec);
    ASSERT_TRUE(r.is_ok()) << net.name() << ": " << r.status().to_string();
    const Network& back = r.value();
    ASSERT_EQ(back.size(), net.size()) << net.name();
    for (i64 i = 0; i < net.size(); ++i) {
      EXPECT_EQ(back.layer(i).kind, net.layer(i).kind);
      EXPECT_EQ(back.layer(i).out_dims, net.layer(i).out_dims)
          << net.name() << " layer " << net.layer(i).name;
      EXPECT_EQ(back.layer(i).inputs, net.layer(i).inputs);
    }
  }
}

struct BadSpec {
  const char* name;
  const char* text;
  const char* expect_in_error;
};

// Print the case name, not the raw pointer bytes, so the listed test
// names are the same from one run to the next.
void PrintTo(const BadSpec& spec, std::ostream* os) { *os << spec.name; }

const BadSpec kBadSpecs[] = {
    {"empty", "", "empty network spec"},
    {"no_header", "input data 1 4 4\n", "must start with"},
    {"dup_header", "network a\nnetwork b\n", "duplicate 'network'"},
    {"unknown_kind", "network n\ninput d 1 4 4\nwarp w k=1\n",
     "unknown layer kind"},
    {"dup_name", "network n\ninput d 1 4 4\nconv c dout=1 k=1\n"
                 "conv c dout=1 k=1\n",
     "duplicate layer name"},
    {"missing_dout", "network n\ninput d 1 4 4\nconv c k=3\n",
     "missing required argument dout"},
    {"bad_int", "network n\ninput d 1 4 4\nconv c dout=xyz k=1\n",
     "expected integer"},
    {"unknown_from", "network n\ninput d 1 4 4\nconv c from=ghost dout=1 k=1\n",
     "unknown layer 'ghost'"},
    {"pool_kind", "network n\ninput d 1 4 4\npool p k=2 s=2\n",
     "pool needs a kind"},
    {"concat_unknown", "network n\ninput d 1 4 4\nconcat c inputs=a,b\n",
     "unknown concat input"},
    {"shape_error", "network n\ninput d 1 4 4\nconv c dout=1 k=9\n",
     "kernel larger"},
    {"dangling", "network n\ninput d 1 4 4\nconv a dout=1 k=1\n"
                 "conv b from=d dout=1 k=1\n",
     "dangling"},
};

class SpecParserErrors : public ::testing::TestWithParam<BadSpec> {};

TEST_P(SpecParserErrors, ReportsDiagnostic) {
  const auto r = parse_network_spec(GetParam().text);
  ASSERT_FALSE(r.is_ok());
  EXPECT_NE(r.status().message().find(GetParam().expect_in_error),
            std::string::npos)
      << "got: " << r.status().to_string();
}

INSTANTIATE_TEST_SUITE_P(All, SpecParserErrors,
                         ::testing::ValuesIn(kBadSpecs),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

TEST(SpecParser, ErrorsCarryLineNumbers) {
  const auto r =
      parse_network_spec("network n\ninput d 1 4 4\n\n# comment\n"
                         "conv c dout=bogus k=1\n");
  ASSERT_FALSE(r.is_ok());
  EXPECT_NE(r.status().message().find("line 5"), std::string::npos);
}

TEST(SpecParser, FileLoader) {
  const auto missing = load_network_spec_file("/nonexistent/net.spec");
  EXPECT_FALSE(missing.is_ok());
  const std::string path = ::testing::TempDir() + "/net.spec";
  {
    std::ofstream f(path);
    f << kAlexTop;
  }
  const auto r = load_network_spec_file(path);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r.value().name(), "alex_front");
}

// Errors loaded from disk carry the file path in front of the parser's
// line-level diagnostic, so multi-file pipelines stay debuggable.
TEST(SpecParser, FileErrorsArePathAndLinePrefixed) {
  const std::string path = ::testing::TempDir() + "/corrupt.spec";
  {
    std::ofstream f(path);
    f << "network broken\ninput d 1 4 4\nconv c dout=oops k=3\n";
  }
  const auto r = load_network_spec_file(path);
  ASSERT_FALSE(r.is_ok());
  EXPECT_NE(r.status().message().find(path), std::string::npos)
      << r.status().to_string();
  EXPECT_NE(r.status().message().find("line 3"), std::string::npos)
      << r.status().to_string();
}

// Corrupt, truncated and binary-garbage inputs must come back as a
// Status — never an exception or a crash.
TEST(SpecParser, GarbageInputsNeverThrow) {
  // Length counts the literal exactly (1 + 3 + 6 + 8 bytes, embedded
  // NULs included) — overshooting reads past the global's end.
  const std::string binary("\x7f""ELF\x01\x02\x00\x00\xff\xfe network",
                           18);
  const char* cases[] = {
      "",                                      // empty
      "\n\n\n",                                // blank lines only
      "network",                               // truncated directive
      "network x\ninput",                      // truncated layer
      "network x\ninput d 1 4",                // missing dimension
      "network x\ninput d 1 4 4\nconv",        // layer with no name
      "network x\ninput d 1 4 4\nconv c k=3",  // missing required arg
      "network x\ninput d 1 4 4\nconv c dout=4 k=99999999",  // absurd k
      "network x\ninput d 1 4 4\nconv c dout=4 k=-3",        // negative k
      "network x\ninput d -1 4 4\nconv c dout=4 k=1",  // negative depth
      "network x\ninput d 1 4 4\nconv c dout=111111111111111111111 k=1",
      "conv c dout=4 k=1",  // layer before 'network'
  };
  for (const char* text : cases) {
    ASSERT_NO_THROW({
      const auto r = parse_network_spec(text);
      EXPECT_FALSE(r.is_ok()) << "accepted: " << text;
    }) << text;
  }
  ASSERT_NO_THROW({
    const auto r = parse_network_spec(binary);
    EXPECT_FALSE(r.is_ok());
  });
}

}  // namespace
}  // namespace cbrain
