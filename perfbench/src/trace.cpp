#include "trace.hpp"

#include "util/json.hpp"

namespace perfbench {

Tracer::Scope::Scope(Tracer& tracer, std::string name, std::uint64_t job)
    : tracer_(tracer), index_(tracer.spans_.size()) {
  Span s;
  s.name = std::move(name);
  s.id = index_ + 1;
  s.parent = tracer.open_.empty() ? 0 : tracer.spans_[tracer.open_.back()].id;
  s.job = job;
  tracer.spans_.push_back(std::move(s));
  tracer.open_.push_back(index_);
  tracer.spans_[index_].start_ns = tracer.now_ns();
}

Tracer::Scope::~Scope() {
  tracer_.spans_[index_].end_ns = tracer_.now_ns();
  tracer_.open_.pop_back();
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

std::string Tracer::chrome_json() const {
  ff::util::JsonWriter w;
  w.begin_object().kv("displayTimeUnit", "ns").key("traceEvents").begin_array();
  for (const Span& s : spans_) {
    w.begin_object()
        .kv("name", std::string_view(s.name))
        .kv("cat", std::string_view(s.name.substr(0, s.name.find('.'))))
        .kv("ph", "X")
        .kv("ts", static_cast<double>(s.start_ns) / 1e3)
        .kv("dur", static_cast<double>(s.end_ns - s.start_ns) / 1e3)
        .kv("pid", std::uint64_t{1})
        .kv("tid", std::uint64_t{1});
    w.key("args").begin_object().kv("id", s.id).kv("parent", s.parent);
    w.kv("job", s.job).end_object().end_object();
  }
  w.end_array().end_object();
  return w.str();
}

std::map<std::string, std::map<std::string, Tracer::SelfTime>>
Tracer::self_times() const {
  // Parents precede their children, so one forward pass finds roots.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  std::vector<std::size_t> root(spans_.size(), 0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    root[i] = s.parent == 0 ? i : root[s.parent - 1];
    if (s.parent != 0) child_ns[s.parent - 1] += s.end_ns - s.start_ns;
  }
  std::map<std::string, std::map<std::string, SelfTime>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::int64_t dur = spans_[i].end_ns - spans_[i].start_ns;
    SelfTime& st = out[spans_[root[i]].name][spans_[i].name];
    ++st.count;
    st.total_ms += static_cast<double>(dur) / 1e6;
    st.self_ms += static_cast<double>(dur - child_ns[i]) / 1e6;
  }
  return out;
}

}  // namespace perfbench
