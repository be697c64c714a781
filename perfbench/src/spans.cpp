#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace perfbench {

i64 now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

u32 Lane::open(const char* name, u32 parent) {
  SpanRec s;
  s.id = next_id_++;
  s.parent = parent;
  s.lane = lane_;
  s.name = name;
  s.start_ns = now_ns();
  spans_.push_back(s);
  return s.id;
}

void Lane::close(u32 id) {
  const i64 t = now_ns();
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
    if (it->id == id) {
      it->end_ns = t;
      return;
    }
  }
  throw std::logic_error("perfbench: closing an unknown span");
}

JobSpans::JobSpans(int ranks) {
  // Id bases keep ids unique across lanes without any shared counter.
  for (int r = 0; r <= ranks; ++r) {
    lanes_.emplace_back(r, static_cast<u32>(r + 1) << 20);
  }
}

std::vector<SpanRec> JobSpans::all() const {
  std::vector<SpanRec> out;
  for (const Lane& l : lanes_) out.insert(out.end(), l.spans().begin(), l.spans().end());
  return out;
}

const std::vector<std::string>& layers() {
  static const std::vector<std::string> kLayers = {
      "io", "bloom", "dht", "overlap", "align", "sgraph", "core", "eval"};
  return kLayers;
}

std::string layer_of(const char* name) {
  const char* dot = std::strchr(name, '.');
  std::string head = dot ? std::string(name, dot) : std::string(name);
  const auto& ls = layers();
  return std::find(ls.begin(), ls.end(), head) != ls.end() ? head : std::string();
}

namespace {

using Interval = std::pair<i64, i64>;

/// Total length of the union of `v` clipped to [lo, hi].
i64 covered(std::vector<Interval> v, i64 lo, i64 hi) {
  for (auto& iv : v) {
    iv.first = std::max(iv.first, lo);
    iv.second = std::min(iv.second, hi);
  }
  std::sort(v.begin(), v.end());
  i64 total = 0;
  i64 cur_lo = 0, cur_hi = 0;
  bool open = false;
  for (const auto& [a, b] : v) {
    if (b <= a) continue;
    if (open && a <= cur_hi) {
      cur_hi = std::max(cur_hi, b);
      continue;
    }
    if (open) total += cur_hi - cur_lo;
    cur_lo = a;
    cur_hi = b;
    open = true;
  }
  if (open) total += cur_hi - cur_lo;
  return total;
}

}  // namespace

double SpanSummary::max_over_lanes(const char* name) const {
  std::vector<double> per_lane(static_cast<std::size_t>(ranks) + 1, 0.0);
  for (const SpanRec& s : spans) {
    if (std::strcmp(s.name, name) == 0) per_lane[static_cast<std::size_t>(s.lane)] += s.seconds();
  }
  return *std::max_element(per_lane.begin(), per_lane.end());
}

double SpanSummary::sum_over_ranks(const char* name) const {
  double total = 0.0;
  for (const SpanRec& s : spans) {
    if (s.lane < ranks && std::strcmp(s.name, name) == 0) total += s.seconds();
  }
  return total;
}

double SpanSummary::mean_over_ranks(const char* name) const {
  return ranks > 0 ? sum_over_ranks(name) / ranks : 0.0;
}

double SpanSummary::layer_self(const std::string& layer) const {
  std::vector<double> per_lane(static_cast<std::size_t>(ranks) + 1, 0.0);
  for (const SpanRec& s : spans) {
    if (layer_of(s.name) != layer) continue;
    std::vector<Interval> children;
    for (const SpanRec& c : spans) {
      if (c.parent == s.id) children.emplace_back(c.start_ns, c.end_ns);
    }
    const i64 self = (s.end_ns - s.start_ns) - covered(children, s.start_ns, s.end_ns);
    per_lane[static_cast<std::size_t>(s.lane)] += static_cast<double>(self) * 1e-9;
  }
  return *std::max_element(per_lane.begin(), per_lane.end());
}

double SpanSummary::unattributed() const {
  const SpanRec* job = nullptr;
  std::vector<Interval> layer_spans;
  for (const SpanRec& s : spans) {
    if (std::strcmp(s.name, "job") == 0) job = &s;
    if (!layer_of(s.name).empty()) layer_spans.emplace_back(s.start_ns, s.end_ns);
  }
  if (job == nullptr) throw std::logic_error("perfbench: traced job has no root span");
  return static_cast<double>((job->end_ns - job->start_ns) -
                             covered(layer_spans, job->start_ns, job->end_ns)) *
         1e-9;
}

void write_spans_tsv(std::ostream& os, int job, const std::vector<SpanRec>& spans,
                     i64 origin_ns) {
  for (const SpanRec& s : spans) {
    const std::string layer = layer_of(s.name);
    os << job << '\t' << s.lane << '\t' << s.id << '\t' << s.parent << '\t'
       << (layer.empty() ? "-" : layer) << '\t' << s.name << '\t'
       << (s.start_ns - origin_ns) << '\t' << (s.end_ns - origin_ns) << '\n';
  }
}

}  // namespace perfbench
