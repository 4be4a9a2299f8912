// csv2aim: converts a CSV dataset into the mmap-able `.aim` columnar store
// (optionally sharded) that aim_cli --data consumes.
//
//   csv2aim --input=data.csv --output=data.aim [--bins=32]
//           [--shard-rows=N] [--domain-sizes=n1,n2,...]
//
// Two modes:
//  - Default: the CSV is parsed and discretized with exactly the Appendix-A
//    preprocessing aim_cli applies to raw CSVs (same --bins), so running AIM
//    on the converted store produces byte-identical synthetic output to
//    running it on the original CSV.
//  - --domain-sizes: the CSV already holds integer codes (e.g. aim_cli's
//    synthetic output, or an export from another pipeline) with the given
//    per-column domain sizes. The file is converted in ONE STREAMING PASS
//    with bounded memory — at most one shard is buffered — so inputs far
//    larger than RAM convert fine; combine with --shard-rows.
//
// Output is written atomically (tmp + fsync + rename per shard); with
// --shard-rows the target path becomes a shard manifest and the shards land
// next to it as <stem>.00000.aim, <stem>.00001.aim, ... On ANY conversion
// failure every file already written is removed again, so the output
// location ends up either fully valid (verified by re-opening) or empty —
// never a truncated store or a manifest naming missing shards.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "data/csv.h"
#include "data/preprocess.h"
#include "robust/fault.h"
#include "store/reader.h"
#include "store/writer.h"
#include "util/signal_cancel.h"
#include "util/status.h"
#include "util/strings.h"

namespace {

int Usage() {
  std::cerr
      << "usage: csv2aim --input=data.csv --output=data.aim\n"
      << "  --bins=N            numeric discretization bins (default 32; "
         "must match aim_cli's --bins for byte-identical runs)\n"
      << "  --shard-rows=N      split into shards of N rows; --output "
         "becomes a manifest listing <stem>.00000.aim, ...\n"
      << "  --domain-sizes=a,b  input is already integer-coded with these "
         "per-column domain sizes; converts in one streaming pass with "
         "bounded memory (no preprocessing)\n"
      << "  --list-fault-points print registered fault points and exit\n"
      << "  (exit codes map Status categories — see README: 0 OK, "
         "1 INTERNAL, 2 usage/INVALID_ARGUMENT, 4 NOT_FOUND, ...)\n";
  return 2;
}

// Splits one CSV line on commas (same dialect as data/csv.cc: no quoting).
void SplitFields(const std::string& line, std::vector<std::string>* out) {
  out->clear();
  size_t start = 0;
  while (true) {
    size_t comma = line.find(',', start);
    if (comma == std::string::npos) {
      out->push_back(line.substr(start));
      return;
    }
    out->push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
}

struct ConvertStats {
  int64_t rows = 0;
  int shards = 0;
  // Everything the writer put on disk (shards + manifest), so the
  // verification step can clean up if the re-open rejects the store.
  std::vector<std::string> written;
};

// Streaming precoded pass: header line gives the attribute names; every
// further line is one integer-coded record appended straight to the writer,
// which buffers at most one shard. Cleans up written files on failure.
aim::Status ConvertPrecoded(const std::string& input,
                            const std::string& output,
                            const std::vector<int>& domain_sizes,
                            const aim::StoreWriterOptions& store_options,
                            ConvertStats* stats) {
  using namespace aim;
  std::ifstream file(input);
  if (!file) return NotFoundError("cannot open " + input);
  std::string line;
  if (!std::getline(file, line)) {
    return InvalidArgumentError(input + " is empty (no header)");
  }
  if (!line.empty() && line.back() == '\r') line.pop_back();
  std::vector<std::string> fields;
  SplitFields(line, &fields);
  if (fields.size() != domain_sizes.size()) {
    return InvalidArgumentError(
        "header has " + std::to_string(fields.size()) +
        " columns, --domain-sizes lists " +
        std::to_string(domain_sizes.size()));
  }
  StoreWriter writer(Domain(fields, domain_sizes), output, store_options);
  auto fail = [&writer](Status s) {
    writer.RemovePartialOutputs();
    return s;
  };
  std::vector<int> record(domain_sizes.size());
  int64_t line_number = 1;
  while (std::getline(file, line)) {
    ++line_number;
    if ((line_number & 0x3FF) == 0 && ProcessCancelToken().cancelled()) {
      // Interrupted mid-stream: remove every partial shard — the output
      // location must end up fully valid or empty, same as any failure.
      return fail(CancelledError("interrupted after " +
                                 std::to_string(line_number) + " lines"));
    }
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    SplitFields(line, &fields);
    if (fields.size() != record.size()) {
      return fail(InvalidArgumentError(
          input + ":" + std::to_string(line_number) + ": " +
          std::to_string(fields.size()) + " fields, expected " +
          std::to_string(record.size())));
    }
    for (size_t c = 0; c < fields.size(); ++c) {
      int64_t v;
      if (!ParseInt64(fields[c], &v)) {
        return fail(InvalidArgumentError(
            input + ":" + std::to_string(line_number) + ": column " +
            std::to_string(c + 1) + ": '" + fields[c] +
            "' is not an integer code"));
      }
      record[c] = static_cast<int>(v);
    }
    Status s = writer.Append(record);
    if (!s.ok()) {
      return fail(Status(s.code(), input + ":" +
                                       std::to_string(line_number) + ": " +
                                       s.message()));
    }
  }
  if (file.bad()) return fail(InternalError("read failed for " + input));
  Status s = writer.Finish();
  if (!s.ok()) return fail(s);
  stats->rows = writer.rows_written();
  stats->shards = writer.shards_written();
  stats->written = writer.written_paths();
  return Status::Ok();
}

// Preprocessed mode: identical discretization to aim_cli --input. Cleans up
// written files on failure.
aim::Status ConvertPreprocessed(const std::string& input,
                                const std::string& output, int bins,
                                const aim::StoreWriterOptions& store_options,
                                ConvertStats* stats) {
  using namespace aim;
  StatusOr<RawTable> table = ReadCsv(input);
  if (!table.ok()) return table.status();
  PreprocessOptions prep_options;
  prep_options.num_bins = bins;
  StatusOr<PreprocessResult> prep = Preprocess(*table, prep_options);
  if (!prep.ok()) return prep.status();
  const Dataset& data = prep->dataset;
  StoreWriter writer(data.domain(), output, store_options);
  Status status;
  std::vector<int> record(data.domain().num_attributes());
  for (int64_t row = 0; row < data.num_records() && status.ok(); ++row) {
    if ((row & 0x3FF) == 0 && ProcessCancelToken().cancelled()) {
      status = CancelledError("interrupted after " + std::to_string(row) +
                              " rows");
      break;
    }
    for (int a = 0; a < data.domain().num_attributes(); ++a) {
      record[a] = data.value(row, a);
    }
    status = writer.Append(record);
  }
  if (status.ok()) status = writer.Finish();
  if (!status.ok()) {
    writer.RemovePartialOutputs();
    return status;
  }
  stats->rows = writer.rows_written();
  stats->shards = writer.shards_written();
  stats->written = writer.written_paths();
  return Status::Ok();
}

int RunCli(int argc, char** argv) {
  using namespace aim;
  std::string input, output;
  int bins = 32;
  int64_t shard_rows = 0;
  std::vector<int> domain_sizes;
  bool precoded = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i], value;
    if (arg == "--list-fault-points") {
      for (const std::string& point : RegisteredFaultPoints()) {
        std::cout << point << "\n";
      }
      return 0;
    } else if (StripPrefix(arg, "--input=", &value)) {
      input = value;
    } else if (StripPrefix(arg, "--output=", &value)) {
      output = value;
    } else if (StripPrefix(arg, "--bins=", &value)) {
      // ParseInt32 range-checks; values past INT_MAX used to truncate.
      if (!ParseInt32(value, &bins) || bins < 1) return Usage();
    } else if (StripPrefix(arg, "--shard-rows=", &value)) {
      if (!ParseInt64(value, &shard_rows) || shard_rows < 1) return Usage();
    } else if (StripPrefix(arg, "--domain-sizes=", &value)) {
      precoded = true;
      std::vector<std::string> fields;
      SplitFields(value, &fields);
      for (const std::string& field : fields) {
        int v;
        if (!ParseInt32(field, &v) || v < 1) return Usage();
        domain_sizes.push_back(v);
      }
      if (domain_sizes.empty()) return Usage();
    } else {
      return Usage();
    }
  }
  if (input.empty() || output.empty()) return Usage();
  InitFaultsFromEnv();
  // SIGINT/SIGTERM: the row loops poll the process token, remove partial
  // shards, and exit 9 — an interrupted conversion never leaves a
  // truncated store behind.
  InstallSignalCancel();

  StoreWriterOptions store_options;
  store_options.shard_rows = shard_rows;

  ConvertStats stats;
  Status status =
      precoded
          ? ConvertPrecoded(input, output, domain_sizes, store_options,
                            &stats)
          : ConvertPreprocessed(input, output, bins, store_options, &stats);
  if (!status.ok()) {
    std::cerr << "error: " << status.ToString() << "\n";
    return ExitCodeForStatus(status);
  }

  // Re-open what was just written: proves the store round-trips (checksums
  // and value ranges verify on open) before anything downstream trusts it.
  StatusOr<std::unique_ptr<StoreSource>> check = StoreSource::Open(output);
  if (!check.ok()) {
    std::cerr << "error: wrote " << output
              << " but it fails verification: " << check.status().ToString()
              << "\n";
    for (const std::string& path : stats.written) {
      std::remove(path.c_str());
    }
    return ExitCodeForStatus(check.status());
  }
  std::cerr << "wrote " << stats.rows << " records, "
            << (*check)->domain().num_attributes() << " attributes, "
            << stats.shards << " shard(s), " << (*check)->mapped_bytes()
            << " bytes to " << output << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Chaos-sweep containment: injected faults and library exceptions become
  // clean typed exits, never std::terminate.
  try {
    return RunCli(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return aim::ExitCodeForStatus(aim::InternalError(e.what()));
  }
}
