#ifndef TCM_DATA_CSV_H_
#define TCM_DATA_CSV_H_

#include <string>

#include "common/result.h"
#include "common/status.h"
#include "data/dataset.h"

namespace tcm {

class ThreadPool;

// Reads a comma-separated file whose first line is a header matching
// `schema` attribute names (order must match). Numeric attributes parse as
// doubles; categorical attributes map labels to codes via the schema's
// category list (unknown labels are an IoError). Returns the populated
// dataset or an error describing the first offending line.
Result<Dataset> ReadCsv(const std::string& path, const Schema& schema);

// Reads a CSV treating every column as a numeric attribute with role
// kOther; header row required.
Result<Dataset> ReadNumericCsv(const std::string& path);

// Writes the dataset (header + rows). Categorical cells are written as
// their labels. With a pool, rows are formatted on it (WriteCsvRows in
// csv_stream.h); the bytes are the same either way.
Status WriteCsv(const Dataset& data, const std::string& path,
                ThreadPool* pool = nullptr);

// In-memory variants used by tests (no filesystem dependency).
Result<Dataset> ParseCsvString(const std::string& text, const Schema& schema);
std::string WriteCsvString(const Dataset& data);

}  // namespace tcm

#endif  // TCM_DATA_CSV_H_
