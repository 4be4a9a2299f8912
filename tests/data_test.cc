#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <numeric>
#include <ostream>
#include <set>

#include <gtest/gtest.h>

#include "data/csv.h"
#include "data/dataset.h"
#include "data/domain.h"
#include "data/preprocess.h"
#include "data/simulators.h"
#include "marginal/marginal.h"
#include "util/math.h"
#include "util/rng.h"

namespace aim {
namespace {

// -------------------------------------------------------------- Domain ----

TEST(DomainTest, BasicAccessors) {
  Domain d({"a", "b"}, {2, 5});
  EXPECT_EQ(d.num_attributes(), 2);
  EXPECT_EQ(d.size(0), 2);
  EXPECT_EQ(d.size(1), 5);
  EXPECT_EQ(d.name(1), "b");
  EXPECT_EQ(d.IndexOf("b"), 1);
  EXPECT_EQ(d.IndexOf("zzz"), -1);
}

TEST(DomainTest, WithSizesNames) {
  Domain d = Domain::WithSizes({3, 4});
  EXPECT_EQ(d.name(0), "attr0");
  EXPECT_EQ(d.name(1), "attr1");
}

TEST(DomainTest, Log10TotalSize) {
  Domain d = Domain::WithSizes({10, 10, 10});
  EXPECT_NEAR(d.Log10TotalSize(), 3.0, 1e-12);
}

TEST(DomainTest, ProjectionSize) {
  Domain d = Domain::WithSizes({2, 3, 4});
  EXPECT_EQ(d.ProjectionSize({0, 2}), 8);
  EXPECT_EQ(d.ProjectionSize({}), 1);
}

TEST(DomainTest, ProjectionSizeSaturatesInsteadOfWrapping) {
  // 10 attributes of size 2^10 multiply to 2^100 >> 2^63. A wrapping
  // product would go negative and sail through size-budget filters; the
  // product must saturate at INT64_MAX instead.
  Domain d = Domain::WithSizes(std::vector<int>(10, 1 << 10));
  std::vector<int> all(10);
  for (int i = 0; i < 10; ++i) all[i] = i;
  EXPECT_EQ(d.ProjectionSize(all), std::numeric_limits<int64_t>::max());
  // Just below the edge stays exact: 2^62 fits.
  Domain big = Domain::WithSizes({1 << 21, 1 << 21, 1 << 20});
  EXPECT_EQ(big.ProjectionSize({0, 1, 2}), int64_t{1} << 62);
  // One more doubling saturates.
  Domain over = Domain::WithSizes({1 << 21, 1 << 21, 1 << 21, 2});
  EXPECT_EQ(over.ProjectionSize({0, 1, 2, 3}),
            std::numeric_limits<int64_t>::max());
}

// ------------------------------------------------------------- Dataset ----

TEST(DatasetTest, AppendAndRead) {
  Dataset data(Domain::WithSizes({2, 3}));
  data.AppendRecord({1, 2});
  data.AppendRecord({0, 0});
  EXPECT_EQ(data.num_records(), 2);
  EXPECT_EQ(data.value(0, 1), 2);
  EXPECT_EQ(data.Record(1), (std::vector<int>{0, 0}));
}

TEST(DatasetTest, FromColumns) {
  Dataset data = Dataset::FromColumns(Domain::WithSizes({2, 2}),
                                      {{0, 1, 1}, {1, 0, 1}});
  EXPECT_EQ(data.num_records(), 3);
  EXPECT_EQ(data.value(2, 0), 1);
}

TEST(DatasetTest, SubsampleCopiesRows) {
  Dataset data(Domain::WithSizes({3}));
  data.AppendRecord({0});
  data.AppendRecord({1});
  data.AppendRecord({2});
  Dataset sub = data.Subsample({2, 2, 0});
  EXPECT_EQ(sub.num_records(), 3);
  EXPECT_EQ(sub.value(0, 0), 2);
  EXPECT_EQ(sub.value(1, 0), 2);
  EXPECT_EQ(sub.value(2, 0), 0);
}

// ----------------------------------------------------------------- CSV ----

TEST(CsvTest, ParseBasic) {
  auto table = ParseCsv("a,b\n1,x\n2,y\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->header, (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(table->num_rows(), 2);
  EXPECT_EQ(table->rows[1][1], "y");
}

TEST(CsvTest, ParseHandlesCrlfAndBlankLines) {
  auto table = ParseCsv("a,b\r\n1,2\r\n\r\n3,4\r\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 2);
}

TEST(CsvTest, RejectsRaggedRows) {
  auto table = ParseCsv("a,b\n1\n");
  EXPECT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kInvalidArgument);
}

TEST(CsvTest, RaggedRowErrorNamesLineAndFieldCounts) {
  auto table = ParseCsv("a,b,c\n1,2,3\n4,5\n6,7,8\n");
  ASSERT_FALSE(table.ok());
  const std::string& message = table.status().message();
  EXPECT_NE(message.find("line 3"), std::string::npos) << message;
  EXPECT_NE(message.find("expected 3 fields, got 2"), std::string::npos)
      << message;
  EXPECT_NE(message.find("'4'"), std::string::npos) << message;
  // A mid-file error is not a truncation.
  EXPECT_EQ(message.find("truncated"), std::string::npos) << message;
}

TEST(CsvTest, TruncatedFinalRowIsDiagnosed) {
  // Ragged last line and no trailing newline: a partially-written file.
  auto table = ParseCsv("a,b\n1,2\n3");
  ASSERT_FALSE(table.ok());
  const std::string& message = table.status().message();
  EXPECT_NE(message.find("line 3"), std::string::npos) << message;
  EXPECT_NE(message.find("truncated"), std::string::npos) << message;
}

TEST(CsvTest, RejectsEmbeddedNulBytes) {
  std::string content = "a,b\n1,2\n";
  content += std::string("x\0y", 3);
  content += ",4\n";
  auto table = ParseCsv(content);
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kInvalidArgument);
  const std::string& message = table.status().message();
  EXPECT_NE(message.find("line 3, column 1"), std::string::npos) << message;
  EXPECT_NE(message.find("NUL"), std::string::npos) << message;
  EXPECT_NE(message.find("\\0"), std::string::npos) << message;
}

TEST(CsvTest, RejectsOverlongFieldsWithoutAborting) {
  std::string huge(static_cast<size_t>(1 << 20) + 1, 'x');
  auto table = ParseCsv("a,b\n" + huge + ",2\n");
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kInvalidArgument);
  const std::string& message = table.status().message();
  EXPECT_NE(message.find("exceeds"), std::string::npos) << message;
  // The preview is clipped, not echoed wholesale.
  EXPECT_LT(message.size(), 300u);
}

TEST(CsvTest, ReadErrorsCarryTheFilePath) {
  std::string path = ::testing::TempDir() + "/ragged.csv";
  {
    std::ofstream out(path);
    out << "a,b\n1\n";
  }
  auto table = ReadCsv(path);
  ASSERT_FALSE(table.ok());
  EXPECT_NE(table.status().message().find(path), std::string::npos)
      << table.status().ToString();
  std::remove(path.c_str());
}

TEST(CsvTest, RejectsEmpty) {
  EXPECT_FALSE(ParseCsv("").ok());
}

TEST(CsvTest, WriteReadRoundTrip) {
  Dataset data(Domain({"x", "y"}, {3, 3}));
  data.AppendRecord({1, 2});
  data.AppendRecord({0, 1});
  std::string path = ::testing::TempDir() + "/roundtrip.csv";
  ASSERT_TRUE(WriteCsv(data, path).ok());
  auto table = ReadCsv(path);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->header, (std::vector<std::string>{"x", "y"}));
  EXPECT_EQ(table->rows[0], (std::vector<std::string>{"1", "2"}));
  std::remove(path.c_str());
}

TEST(CsvTest, ReadMissingFileIsNotFound) {
  auto table = ReadCsv("/nonexistent/path.csv");
  EXPECT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kNotFound);
}

// ----------------------------------------------------------- Preprocess ---

TEST(PreprocessTest, CategoricalColumnUsesActiveDomain) {
  auto table = ParseCsv("color\nred\nblue\nred\ngreen\n");
  ASSERT_TRUE(table.ok());
  auto result = Preprocess(*table);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->specs[0].numeric);
  EXPECT_EQ(result->specs[0].domain_size(), 3);
  EXPECT_EQ(result->dataset.domain().size(0), 3);
}

TEST(PreprocessTest, NumericColumnDiscretizedTo32Bins) {
  std::string csv = "v\n";
  for (int i = 0; i < 100; ++i) csv += std::to_string(i) + "\n";
  auto table = ParseCsv(csv);
  ASSERT_TRUE(table.ok());
  auto result = Preprocess(*table);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->specs[0].numeric);
  EXPECT_EQ(result->dataset.domain().size(0), 32);
  // min maps to bin 0, max to bin 31.
  EXPECT_EQ(result->dataset.value(0, 0), 0);
  EXPECT_EQ(result->dataset.value(99, 0), 31);
}

TEST(PreprocessTest, FewDistinctNumbersStayCategorical) {
  auto table = ParseCsv("v\n1\n2\n1\n3\n");
  ASSERT_TRUE(table.ok());
  auto result = Preprocess(*table);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->specs[0].numeric);
  EXPECT_EQ(result->specs[0].domain_size(), 3);
}

TEST(PreprocessTest, NullsGetTheirOwnValue) {
  auto table = ParseCsv("c,d\nx,1\n,1\ny,1\n");
  ASSERT_TRUE(table.ok());
  auto result = Preprocess(*table);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->specs[0].domain_size(), 3);  // "", "x", "y"
}

TEST(PreprocessTest, NumericWithNullsGetsExtraBin) {
  std::string csv = "v,w\n";
  for (int i = 0; i < 100; ++i) csv += std::to_string(i) + ",a\n";
  csv += ",a\n";  // one null
  auto table = ParseCsv(csv);
  ASSERT_TRUE(table.ok());
  auto result = Preprocess(*table);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->specs[0].numeric);
  EXPECT_EQ(result->dataset.domain().size(0), 33);
  EXPECT_EQ(result->dataset.value(100, 0), 32);  // null bin
}

TEST(PreprocessTest, CustomBinCount) {
  std::string csv = "v\n";
  for (int i = 0; i < 200; ++i) csv += std::to_string(i * 0.5) + "\n";
  auto table = ParseCsv(csv);
  ASSERT_TRUE(table.ok());
  PreprocessOptions options;
  options.num_bins = 8;
  auto result = Preprocess(*table, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->dataset.domain().size(0), 8);
}

// ----------------------------------------------------------- Simulators ---

struct Table2Row {
  PaperDataset dataset;
  int64_t records;
  int dims;
  int min_domain;
  int max_domain;
};

// Prints a row as its dataset's name, e.g. "adult", so the test names ctest
// derives from the printed parameter are stable across builds.
void PrintTo(const Table2Row& row, std::ostream* os) {
  *os << PaperDatasetName(row.dataset);
}

class SimulatorTable2Test : public ::testing::TestWithParam<Table2Row> {};

TEST_P(SimulatorTable2Test, SchemaMatchesTable2) {
  const Table2Row& row = GetParam();
  SimulatorOptions options;
  options.record_scale = 1.0;  // full scale for schema check
  // Limit the cost of the check: generate few records but full schema.
  options.record_scale = 0.01;
  options.min_records = 100;
  SimulatedData sim = MakePaperDataset(row.dataset, options);
  const Domain& domain = sim.data.domain();
  EXPECT_EQ(domain.num_attributes(), row.dims);
  int min_size = domain.size(0), max_size = domain.size(0);
  for (int a = 0; a < domain.num_attributes(); ++a) {
    min_size = std::min(min_size, domain.size(a));
    max_size = std::max(max_size, domain.size(a));
  }
  EXPECT_EQ(min_size, row.min_domain);
  EXPECT_EQ(max_size, row.max_domain);
  EXPECT_GE(sim.target_attribute, 0);
  EXPECT_LT(sim.target_attribute, domain.num_attributes());
}

INSTANTIATE_TEST_SUITE_P(
    AllDatasets, SimulatorTable2Test,
    ::testing::Values(
        Table2Row{PaperDataset::kAdult, 48842, 15, 2, 42},
        Table2Row{PaperDataset::kSalary, 135727, 9, 3, 501},
        Table2Row{PaperDataset::kMsnbc, 989818, 16, 18, 18},
        Table2Row{PaperDataset::kFire, 305119, 15, 2, 46},
        Table2Row{PaperDataset::kNltcs, 21574, 16, 2, 2},
        Table2Row{PaperDataset::kTitanic, 1304, 9, 2, 91}));

TEST(SimulatorTest, RecordScaleControlsSize) {
  SimulatorOptions options;
  options.record_scale = 0.05;
  SimulatedData sim = MakePaperDataset(PaperDataset::kNltcs, options);
  EXPECT_NEAR(static_cast<double>(sim.data.num_records()), 21574 * 0.05, 1.0);
}

TEST(SimulatorTest, DeterministicForSeed) {
  SimulatorOptions options;
  options.record_scale = 0.02;
  options.min_records = 200;
  SimulatedData a = MakePaperDataset(PaperDataset::kTitanic, options);
  SimulatedData b = MakePaperDataset(PaperDataset::kTitanic, options);
  ASSERT_EQ(a.data.num_records(), b.data.num_records());
  for (int attr = 0; attr < a.data.domain().num_attributes(); ++attr) {
    EXPECT_EQ(a.data.column(attr), b.data.column(attr));
  }
  EXPECT_EQ(a.target_attribute, b.target_attribute);
}

TEST(SimulatorTest, DataIsNotIndependent) {
  // The generating Bayesian network must induce real correlation: compare
  // a 2-way marginal against the product of its 1-way marginals.
  SimulatorOptions options;
  options.record_scale = 0.2;
  SimulatedData sim = MakePaperDataset(PaperDataset::kNltcs, options);
  const Dataset& data = sim.data;
  double n = static_cast<double>(data.num_records());
  std::vector<double> joint = ComputeMarginal(data, AttrSet({0, 1}));
  std::vector<double> m0 = ComputeMarginal(data, AttrSet({0}));
  std::vector<double> m1 = ComputeMarginal(data, AttrSet({1}));
  std::vector<double> indep(joint.size());
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 2; ++j) indep[i * 2 + j] = m0[i] * m1[j] / n;
  }
  EXPECT_GT(L1Distance(joint, indep), 0.02 * n)
      << "attributes 0 and 1 look independent";
}

TEST(SimulatorTest, FireHasStructuralZerosRespectedByData) {
  SimulatorOptions options;
  options.record_scale = 0.02;
  SimulatedData sim = MakePaperDataset(PaperDataset::kFire, options);
  ASSERT_EQ(sim.structural_zeros.size(), 9u);
  int64_t total_zero_tuples = 0;
  for (const auto& constraint : sim.structural_zeros) {
    ASSERT_EQ(constraint.attributes.size(), 2u);
    total_zero_tuples += static_cast<int64_t>(constraint.zero_tuples.size());
    AttrSet attrs(constraint.attributes);
    std::vector<double> marginal = ComputeMarginal(sim.data, attrs);
    MarginalIndexer indexer(sim.data.domain(), attrs);
    for (const auto& tuple : constraint.zero_tuples) {
      EXPECT_DOUBLE_EQ(marginal[indexer.IndexOfTuple(tuple)], 0.0)
          << "zero tuple occurs in data";
    }
  }
  EXPECT_GT(total_zero_tuples, 100);
}

TEST(SimulatorTest, NameRoundTrip) {
  for (PaperDataset dataset : AllPaperDatasets()) {
    PaperDataset parsed;
    ASSERT_TRUE(ParsePaperDataset(PaperDatasetName(dataset), &parsed));
    EXPECT_EQ(parsed, dataset);
  }
  PaperDataset unused;
  EXPECT_FALSE(ParsePaperDataset("bogus", &unused));
}

TEST(SimulatorTest, BayesNetSamplerRespectsDomain) {
  Rng rng(1);
  Domain domain = Domain::WithSizes({2, 3, 4});
  Dataset data = SampleRandomBayesNet(domain, 500, 2, 0.5, rng);
  EXPECT_EQ(data.num_records(), 500);
  for (int64_t row = 0; row < data.num_records(); ++row) {
    for (int a = 0; a < 3; ++a) {
      EXPECT_GE(data.value(row, a), 0);
      EXPECT_LT(data.value(row, a), domain.size(a));
    }
  }
}

}  // namespace
}  // namespace aim
