#include "measure/report.h"

#include <cstdio>

namespace tspu::measure {

std::string escape_json(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

void JsonWriter::separator() {
  if (!needs_comma_.empty() && needs_comma_.back()) out_ += ',';
  if (!needs_comma_.empty()) needs_comma_.back() = true;
}

JsonWriter& JsonWriter::begin_object() {
  separator();
  out_ += '{';
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  out_ += '}';
  needs_comma_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::begin_array(const std::string& k) {
  if (!k.empty()) key(k);
  separator();
  out_ += '[';
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  out_ += ']';
  needs_comma_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::key(const std::string& k) {
  separator();
  out_ += '"' + escape_json(k) + "\":";
  if (!needs_comma_.empty()) needs_comma_.back() = false;  // value follows
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& v) {
  separator();
  out_ += '"' + escape_json(v) + '"';
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  separator();
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  separator();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  separator();
  out_ += v ? "true" : "false";
  return *this;
}

std::string scan_summary_json(const ScanSummary& summary) {
  JsonWriter w;
  w.begin_object();
  w.field("endpoints_probed", summary.endpoints_probed);
  w.field("tspu_positive", summary.tspu_positive);
  w.field("positive_share", summary.positive_share());
  w.field("ases_probed", summary.ases_probed.size());
  w.field("ases_positive", summary.ases_positive.size());
  w.field("tspu_links", summary.tspu_links.size());
  w.field("within_two_hops_share", summary.within_hops_share(2));
  w.begin_array("by_port");
  for (const auto& [port, pair] : summary.by_port) {
    w.begin_object();
    w.field("port", static_cast<int>(port));
    w.field("probed", pair.first);
    w.field("positive", pair.second);
    w.end_object();
  }
  w.end_array();
  w.begin_array("hops_histogram");
  for (const auto& [hops, count] : summary.hops_histogram) {
    w.begin_object();
    w.field("hops", hops);
    w.field("count", count);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

std::string domain_verdicts_json(const std::vector<DomainVerdict>& verdicts,
                                 const std::vector<std::string>& isp_names) {
  JsonWriter w;
  w.begin_array();
  for (const DomainVerdict& v : verdicts) {
    w.begin_object();
    w.field("domain", v.domain);
    w.field("category", topo::category_name(v.category));
    w.field("in_tranco", v.in_tranco);
    w.field("in_registry", v.in_registry);
    w.field("tspu_blocked", v.tspu_blocked_anywhere());
    w.field("tspu_uniform", v.tspu_blocked_everywhere());
    w.begin_array("per_vantage_point");
    for (std::size_t i = 0; i < v.tspu.size(); ++i) {
      w.begin_object();
      w.field("isp", i < isp_names.size() ? isp_names[i] : std::to_string(i));
      w.field("tspu", sni_outcome_name(v.tspu[i]));
      if (i < v.isp_blockpage.size()) {
        w.field("isp_blockpage", v.isp_blockpage[i]);
      }
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  return w.str();
}

}  // namespace tspu::measure
