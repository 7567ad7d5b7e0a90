// JSON export of measurement results — the interchange format downstream
// analysis (notebooks, dashboards, OONI-style pipelines) would consume.
// Self-contained writer, no external dependencies.
#pragma once

#include <string>
#include <vector>

#include "measure/domain_tester.h"
#include "measure/scan.h"

namespace tspu::measure {

/// Minimal JSON value writer with correct string escaping.
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array(const std::string& key = "");
  JsonWriter& end_array();
  JsonWriter& key(const std::string& k);
  JsonWriter& value(const std::string& v);
  JsonWriter& value(const char* v) { return value(std::string(v)); }
  JsonWriter& value(double v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(std::size_t v) {
    return value(static_cast<std::int64_t>(v));
  }
  JsonWriter& value(bool v);

  /// key + scalar in one call.
  template <typename T>
  JsonWriter& field(const std::string& k, T v) {
    key(k);
    return value(v);
  }

  const std::string& str() const { return out_; }

 private:
  void separator();
  std::string out_;
  std::vector<bool> needs_comma_;
};

std::string escape_json(const std::string& s);

/// Serializes a national scan summary (Figure 9/10/12 data).
std::string scan_summary_json(const ScanSummary& summary);

/// Serializes domain-sweep verdicts (Figure 6/7, Table 3 data).
std::string domain_verdicts_json(const std::vector<DomainVerdict>& verdicts,
                                 const std::vector<std::string>& isp_names);

}  // namespace tspu::measure
