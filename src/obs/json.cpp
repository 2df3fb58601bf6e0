#include "obs/json.hpp"

#include <cinttypes>
#include <cstdio>

#include "common/check.hpp"

namespace uavcov::obs {

JsonWriter& JsonWriter::begin_object() {
  before_value();
  out_ += '{';
  stack_.push_back(Frame::kObject);
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  UAVCOV_CHECK_MSG(!stack_.empty() && stack_.back() == Frame::kObject,
                   "end_object outside an object");
  UAVCOV_CHECK_MSG(!have_key_, "dangling key before end_object");
  out_ += '}';
  stack_.pop_back();
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_value();
  out_ += '[';
  stack_.push_back(Frame::kArray);
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  UAVCOV_CHECK_MSG(!stack_.empty() && stack_.back() == Frame::kArray,
                   "end_array outside an array");
  out_ += ']';
  stack_.pop_back();
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  UAVCOV_CHECK_MSG(!stack_.empty() && stack_.back() == Frame::kObject,
                   "key outside an object");
  UAVCOV_CHECK_MSG(!have_key_, "two keys in a row");
  if (need_comma_) out_ += ',';
  out_ += '"';
  out_ += escape(k);
  out_ += "\":";
  need_comma_ = false;
  have_key_ = true;
  return *this;
}

void JsonWriter::before_value() {
  if (!stack_.empty() && stack_.back() == Frame::kObject) {
    UAVCOV_CHECK_MSG(have_key_, "object value without a key");
    have_key_ = false;
    return;  // key() already handled the comma
  }
  UAVCOV_CHECK_MSG(stack_.empty() ? out_.empty() : true,
                   "only one top-level value allowed");
  if (need_comma_) out_ += ',';
}

JsonWriter& JsonWriter::value(std::string_view v) {
  before_value();
  out_ += '"';
  out_ += escape(v);
  out_ += '"';
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  before_value();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  out_ += buf;
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  before_value();
  out_ += format_double(v);
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  before_value();
  out_ += v ? "true" : "false";
  need_comma_ = true;
  return *this;
}

std::string JsonWriter::take() {
  UAVCOV_CHECK_MSG(stack_.empty(), "unbalanced JSON document");
  UAVCOV_CHECK_MSG(!out_.empty(), "empty JSON document");
  std::string result;
  result.swap(out_);
  need_comma_ = false;
  return result;
}

std::string JsonWriter::escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonWriter::format_double(double v) {
  // %.17g is locale-independent for the characters JSON needs and
  // round-trips every finite double.  Non-finite values have no JSON
  // representation; surface the bug instead of writing "inf".
  UAVCOV_CHECK_MSG(v == v && v <= 1.7976931348623157e308 &&
                       v >= -1.7976931348623157e308,
                   "non-finite double in JSON output");
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void write_snapshot(JsonWriter& w, const Snapshot& snapshot) {
  w.begin_object();
  w.key("counters").begin_object();
  for (const SnapshotEntry& e : snapshot.entries) {
    if (e.kind != MetricKind::kCounter) continue;
    w.kv(e.name, e.value);
  }
  w.end_object();
  w.key("gauges").begin_object();
  for (const SnapshotEntry& e : snapshot.entries) {
    if (e.kind != MetricKind::kGauge) continue;
    w.key(e.name).begin_object();
    w.kv("value", e.value);
    w.kv("high_water", e.high_water);
    w.end_object();
  }
  w.end_object();
  w.key("histograms").begin_object();
  for (const SnapshotEntry& e : snapshot.entries) {
    if (e.kind != MetricKind::kHistogram) continue;
    w.key(e.name).begin_object();
    w.kv("count", e.hist.count);
    w.kv("sum", e.hist.sum);
    // min/max are identities of an empty merge; export 0 for "no data".
    w.kv("min", e.hist.count > 0 ? e.hist.min : 0);
    w.kv("max", e.hist.count > 0 ? e.hist.max : 0);
    w.key("buckets").begin_array();
    for (const std::int64_t b : e.hist.buckets) w.value(b);
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

}  // namespace uavcov::obs
