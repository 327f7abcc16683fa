#include "core/predictor.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/stats_export.h"

namespace stacktrack::core {

namespace {

// Load ST_PREDICTOR_WARM before main(), like the ST_STM latch in htm/htm.cc, so every
// segment in the process — including ones run from static initializers — sees the
// seeds.
[[maybe_unused]] const bool g_predictor_warm_latched = [] {
  if (const char* path = std::getenv("ST_PREDICTOR_WARM");
      path != nullptr && path[0] != '\0') {
    std::string error;
    if (!PredictorWarmTable::Instance().LoadFromFile(path, &error)) {
      std::fprintf(stderr, "stacktrack: ST_PREDICTOR_WARM=%s failed to load: %s\n",
                   path, error.c_str());
    }
  }
  return true;
}();

}  // namespace

// ---- PredictorWarmTable ----------------------------------------------------------

PredictorWarmTable& PredictorWarmTable::Instance() {
  static PredictorWarmTable table;
  return table;
}

std::size_t PredictorWarmTable::CountSeeds() const {
  std::size_t count = 0;
  for (uint32_t op = 0; op < kMaxOps; ++op) {
    for (uint32_t seg = 0; seg < kMaxSegments; ++seg) {
      if (cells_[op][seg].load(std::memory_order_relaxed) != 0) {
        ++count;
      }
    }
  }
  return count;
}

void PredictorWarmTable::Reset() {
  for (uint32_t op = 0; op < kMaxOps; ++op) {
    for (uint32_t seg = 0; seg < kMaxSegments; ++seg) {
      cells_[op][seg].store(0, std::memory_order_relaxed);
    }
  }
  any_.store(false, std::memory_order_release);
  loaded_.store(false, std::memory_order_release);
}

namespace {

// One flat cell list ({"op","segment","limit"}): the tuner output shape, and the
// per-thread shape inside a PredictorTableToJson dump.
bool FoldCellArray(const minijson::Value& cells, std::vector<uint16_t>* sums,
                   std::string* error) {
  if (cells.kind != minijson::Value::Kind::kArray) {
    *error = "\"cells\" is not an array";
    return false;
  }
  for (const minijson::Value& cell : cells.array) {
    const minijson::Value* op = cell.Find("op");
    const minijson::Value* segment = cell.Find("segment");
    const minijson::Value* limit = cell.Find("limit");
    if (op == nullptr || segment == nullptr || limit == nullptr) {
      *error = "cell missing op/segment/limit";
      return false;
    }
    const uint64_t o = op->AsU64();
    const uint64_t s = segment->AsU64();
    uint64_t l = limit->AsU64();
    if (o >= kMaxOps || s >= kMaxSegments) {
      continue;  // table from a build with different geometry: skip out-of-range
    }
    if (l > 0xffff) {
      l = 0xffff;
    }
    sums->push_back(static_cast<uint16_t>(l));
    // Index encoded alongside: the caller groups by (op, segment).
    sums->push_back(static_cast<uint16_t>(o * kMaxSegments + s));
  }
  return true;
}

}  // namespace

bool PredictorWarmTable::LoadFromJson(std::string_view json, std::string* error) {
  std::string local_error;
  if (error == nullptr) {
    error = &local_error;
  }
  minijson::Value doc;
  if (!minijson::Parse(json, &doc)) {
    *error = "JSON parse failure";
    return false;
  }
  // (limit, cell-index) pairs from every cell list in the document.
  std::vector<uint16_t> flat;
  if (const minijson::Value* cells = doc.Find("cells")) {
    if (!FoldCellArray(*cells, &flat, error)) {
      return false;
    }
  } else if (const minijson::Value* threads = doc.Find("threads")) {
    if (threads->kind != minijson::Value::Kind::kArray) {
      *error = "\"threads\" is not an array";
      return false;
    }
    for (const minijson::Value& thread : threads->array) {
      const minijson::Value* cells_member = thread.Find("cells");
      if (cells_member == nullptr) {
        *error = "thread entry missing \"cells\"";
        return false;
      }
      if (!FoldCellArray(*cells_member, &flat, error)) {
        return false;
      }
    }
  } else {
    *error = "document has neither \"cells\" nor \"threads\"";
    return false;
  }

  // Merge: per cell, the median of every value seen (one value per thread in a dump;
  // exactly one in tuner output). Medians resist one outlier thread that barely
  // touched a cell.
  std::vector<std::vector<uint16_t>> per_cell(kMaxOps * kMaxSegments);
  for (std::size_t i = 0; i + 1 < flat.size(); i += 2) {
    per_cell[flat[i + 1]].push_back(flat[i]);
  }
  std::size_t seeded = 0;
  for (std::size_t index = 0; index < per_cell.size(); ++index) {
    std::vector<uint16_t>& values = per_cell[index];
    if (values.empty()) {
      continue;
    }
    std::sort(values.begin(), values.end());
    const uint16_t median = values[values.size() / 2];
    if (median == 0) {
      continue;  // a learned limit of 0 cannot be distinguished from "no seed"
    }
    cells_[index / kMaxSegments][index % kMaxSegments].store(median,
                                                            std::memory_order_relaxed);
    ++seeded;
  }
  if (seeded != 0) {
    any_.store(true, std::memory_order_release);
  }
  loaded_.store(true, std::memory_order_release);
  return true;
}

bool PredictorWarmTable::LoadFromFile(const std::string& path, std::string* error) {
  std::string local_error;
  if (error == nullptr) {
    error = &local_error;
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    *error = "cannot open " + path;
    return false;
  }
  std::string text;
  char buffer[4096];
  std::size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    text.append(buffer, n);
  }
  std::fclose(f);
  return LoadFromJson(text, error);
}

}  // namespace stacktrack::core
